"""The segmented append-only log under a durable page store.

Frames (:mod:`repro.store.frames`) are appended to numbered segment
files (``seg-00000042.log``); a segment is rolled when it reaches the
configured size, and a frame never spans two segments.  Positions are
*absolute* byte offsets into the logical concatenation of all segments
-- the natural coordinate for "cut the log at byte N" fault injection
and for the longest-certified-prefix arithmetic of recovery.

:meth:`SegmentedLog.scan` is the certification pass: it structurally
parses frame after frame, batch-verifies every seal through the shared
signing engine, and classifies every byte of the log as

* part of a **valid** frame (sealed, strictly increasing ``seq``),
* part of a **corrupt region** -- a frame whose seal fails (bit rot:
  detected with certainty for <= n corrupted symbols, Proposition 1)
  or bytes where no frame parses, with valid frames following, or
* the **torn tail**: everything after the last whole frame.  A torn
  write is indistinguishable from deliberate trailing garbage, so
  recovery truncates it.  A tear leaves a prefix of the last write, so
  a whole frame failing its seal after the last valid one was written
  in full and then rotted: it is a corrupt region, not torn.

After in-region corruption the scanner *resyncs* by searching for the
next offset where a structurally valid frame begins; stale bytes that
happen to look like old frames are rejected by the ``seq``
monotonicity check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate, islice
from pathlib import Path

from ..errors import StoreError
from ..obs import COUNTERS, HandleCache
from ..sig.scheme import AlgebraicSignatureScheme
from . import frames as fr

#: Default segment roll size.
SEGMENT_BYTES = 1 << 20

#: Group-commit defaults: the pending buffer lands as one OS write +
#: one flush when it reaches this many bytes ...
GROUP_BYTES = 256 * 1024
#: ... or when the oldest pending byte is older than this.
GROUP_LATENCY_S = 0.010

#: ``store.frames_sealed{kind}`` by frame kind code.
_FRAMES_SEALED = HandleCache(lambda registry, kind: registry.counter(
    "store.frames_sealed", kind=fr.KIND_NAMES[kind]))


def _segment_name(index: int) -> str:
    return f"seg-{index:08d}.log"


@dataclass(frozen=True, slots=True)
class ScannedFrame:
    """One certified frame and its absolute byte range in the log."""

    frame: fr.Frame
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class CorruptRegion:
    """One rejected byte range (bad seal, stale seq, or garbage).

    ``frame`` carries the structurally parsed header/payload when the
    region still parsed as a frame -- recovery uses it to localize the
    damage to specific pages (best effort; the payload bytes are by
    definition untrustworthy).
    """

    start: int
    end: int
    reason: str                  #: "seal" | "stale_seq" | "garbage"
    frame: fr.Frame | None = None


@dataclass(frozen=True, slots=True)
class CertifiedRun:
    """One segment's certified frames: their columns and their bytes.

    ``frames`` is in absolute log coordinates; ``view`` holds the
    segment's bytes, which start at absolute offset ``base``.  Replay
    and the lazily built :attr:`ScanResult.frames` read payloads as
    zero-copy views into it.
    """

    frames: fr.FrameTable
    view: memoryview
    base: int

    def __len__(self) -> int:
        return len(self.frames)

    def scanned(self) -> list[ScannedFrame]:
        """The run as :class:`ScannedFrame` objects (built on demand)."""
        table = self.frames
        return [ScannedFrame(table.frame(row, self.view, self.base),
                             start, end)
                for row, (start, end) in enumerate(zip(
                    table.start.tolist(), table.end.tolist()))]


@dataclass(frozen=True, slots=True, eq=False)
class ScanResult:
    """Outcome of one certification scan over the whole log.

    Certified frames are kept as one :class:`CertifiedRun` per segment;
    :attr:`frame_count`, :attr:`next_seq` and :attr:`certified_end`
    read their columns, and :attr:`frames` materializes them as
    :class:`ScannedFrame` objects only when asked.
    """

    runs: list[CertifiedRun]
    corrupt: list[CorruptRegion]
    torn_start: int | None       #: absolute start of the torn tail
    total_bytes: int

    @property
    def frames(self) -> list[ScannedFrame]:
        """Every certified frame, in log order."""
        return [scanned for run in self.runs for scanned in run.scanned()]

    @property
    def frame_count(self) -> int:
        """Number of certified frames."""
        return sum(len(run) for run in self.runs)

    @property
    def next_seq(self) -> int:
        """One past the largest certified ``seq`` (0 for none).

        Certified ``seq``s strictly increase, so it is the last one's.
        """
        return int(self.runs[-1].frames.seq[-1]) + 1 if self.runs else 0

    @property
    def certified_end(self) -> int:
        """End of the last whole frame (= torn-tail start)."""
        return self.torn_start if self.torn_start is not None \
            else self.total_bytes

    @property
    def torn_bytes(self) -> int:
        """Bytes of trailing garbage the recovery will truncate."""
        return 0 if self.torn_start is None \
            else self.total_bytes - self.torn_start


class SegmentedLog:
    """Append-only segmented frame log with certification scanning."""

    def __init__(self, directory: str | Path,
                 scheme: AlgebraicSignatureScheme,
                 segment_bytes: int = SEGMENT_BYTES,
                 flush: str = "frame",
                 group_bytes: int = GROUP_BYTES,
                 group_latency_s: float = GROUP_LATENCY_S):
        if segment_bytes < 4096:
            raise StoreError("segment size must be at least 4096 bytes")
        if flush not in ("frame", "group"):
            raise StoreError(f"unknown flush mode {flush!r}")
        if group_bytes < 1:
            raise StoreError("group_bytes must be positive")
        if group_latency_s < 0:
            raise StoreError("group_latency_s must be non-negative")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.scheme = scheme
        self.segment_bytes = segment_bytes
        self.flush = flush
        self.group_bytes = group_bytes
        self.group_latency_s = group_latency_s
        #: (segment index, size in bytes), ascending by index.
        self._segments: list[tuple[int, int]] = sorted(
            (int(path.stem.split("-")[1]), path.stat().st_size)
            for path in self.directory.glob("seg-*.log")
        )
        self._handle = None
        self._handle_index: int | None = None
        #: Coalesced frames awaiting their group commit.  Invariant:
        #: pending bytes always belong to the open handle's segment
        #: (a roll commits first) and are already counted in
        #: ``_segments`` -- ``total_bytes`` is the *logical* length.
        self._pending = bytearray()
        self._pending_since: float | None = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def total_bytes(self) -> int:
        """Logical log length (sum of all segment sizes)."""
        return sum(size for _index, size in self._segments)

    @property
    def segment_count(self) -> int:
        """Number of segment files."""
        return len(self._segments)

    def _path(self, index: int) -> Path:
        return self.directory / _segment_name(index)

    def segments(self) -> list[tuple[int, int]]:
        """``(segment index, size in bytes)`` pairs, ascending by index."""
        return list(self._segments)

    def segment_path(self, index: int) -> Path:
        """The file a segment lives in (recovery's shard unit)."""
        return self._path(index)

    def _locate(self, offset: int) -> tuple[int, int, int]:
        """Map an absolute offset to (list position, segment index, local)."""
        base = 0
        for position, (index, size) in enumerate(self._segments):
            if offset < base + size:
                return position, index, offset - base
            base += size
        raise StoreError(f"offset {offset} beyond log end {self.total_bytes}")

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def _writable(self, incoming: int):
        """The open handle of the segment the next frame lands in."""
        if not self._segments:
            self._segments.append((0, 0))
        index, size = self._segments[-1]
        if size and size + incoming > self.segment_bytes:
            # Rolling commits first: pending frames belong to the old
            # segment and must land before its handle is dropped.
            self.close()
            index, size = index + 1, 0
            self._segments.append((index, 0))
        if self._handle_index != index:
            self.close()
            self._handle = open(self._path(index), "ab")
            self._handle_index = index
        return self._handle

    def append(self, frame: fr.Frame) -> int:
        """Seal and append one frame; returns its absolute start offset.

        Single frames ride the same batch path as bursts: one
        ``encode_many`` sealing pass, and under ``flush="group"`` no
        per-frame flush -- the frame coalesces into the pending group.
        """
        return self.append_many([frame])[0]

    def append_many(self, frame_list: list[fr.Frame]) -> list[int]:
        """Seal (one batched signing pass) and append a burst of frames."""
        return self.append_encoded(fr.encode_many(self.scheme, frame_list),
                                   [frame.kind for frame in frame_list])

    def append_encoded(self, encoded: list[bytes],
                       kinds: list[int]) -> list[int]:
        """Append pre-sealed frames; returns absolute start offsets.

        ``flush="frame"`` (the conservative default) writes and flushes
        every frame individually.  ``flush="group"`` coalesces frames in
        a pending buffer that lands as **one** OS write + **one** flush
        when it reaches ``group_bytes``, when the oldest pending byte is
        older than ``group_latency_s``, when a segment rolls, or at
        :meth:`commit`/:meth:`scan`/:meth:`close` time -- a burst of
        frames costs one syscall pair instead of one per frame.
        """
        grouped = self.flush == "group"
        offsets: list[int] = []
        total = self.total_bytes        # running log end; rolls keep it
        sizes = [len(data) for data in encoded]
        flushes = 0
        position, count = 0, len(encoded)
        while position < count:
            handle = self._writable(sizes[position])
            index, size = self._segments[-1]
            if grouped:
                if not self._pending:
                    self._pending_since = time.perf_counter()
                # Take the longest run of frames that fits the current
                # segment and land it as ONE buffer extension -- the
                # coalescing path does no per-frame write bookkeeping.
                run, seg_size = position, size
                while run < count:
                    step = sizes[run]
                    if seg_size and seg_size + step > self.segment_bytes:
                        break
                    seg_size += step
                    run += 1
                run_bytes = seg_size - size
                self._pending += b"".join(encoded[position:run])
                # Frame start offsets: a prefix-sum off the log end.
                offsets.extend(islice(
                    accumulate(sizes[position:run], initial=total),
                    run - position))
                total += run_bytes
                self._segments[-1] = (index, seg_size)
                position = run
                if len(self._pending) >= self.group_bytes:
                    self.commit()
            else:
                handle.write(encoded[position])
                handle.flush()
                flushes += 1
                step = sizes[position]
                self._segments[-1] = (index, size + step)
                offsets.append(total)   # frame starts at the log end
                total += step
                position += 1
        if flushes:
            COUNTERS["store.log.fsyncs"].inc(flushes)
        COUNTERS["store.bytes_appended"].inc(sum(sizes))
        for kind in kinds:
            _FRAMES_SEALED[kind].inc()
        if grouped and self._pending and (
                time.perf_counter() - self._pending_since
                >= self.group_latency_s):
            self.commit()
        return offsets

    def commit(self) -> int:
        """Land the coalesced pending frames: one write, one flush.

        Returns the bytes flushed (0 when nothing is pending -- always
        the case under ``flush="frame"``, where appends flush eagerly).
        """
        if not self._pending:
            return 0
        handle = self._handle
        if handle is None:     # pending implies an open handle; be safe
            handle = self._handle = open(
                self._path(self._handle_index), "ab")
        flushed = len(self._pending)
        handle.write(self._pending)
        handle.flush()
        self._pending = bytearray()
        self._pending_since = None
        COUNTERS["store.log.group_commits"].inc()
        COUNTERS["store.log.fsyncs"].inc()
        COUNTERS["store.log.group_bytes"].inc(flushed)
        return flushed

    def close(self) -> None:
        """Commit pending frames, then flush and close the segment handle."""
        self.commit()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._handle_index = None

    # ------------------------------------------------------------------
    # Certification scan
    # ------------------------------------------------------------------

    def scan(self, trusted_bytes: int = 0,
             verify_workers: int | None = None,
             on_frames=None) -> ScanResult:
        """Parse and certify the whole log (see the module docstring).

        Frames ending at or before ``trusted_bytes`` are structurally
        parsed but their seals are *not* re-verified -- recovery passes
        the checkpoint position here in ``verify="tail"`` mode, trusting
        the state the sealed checkpoint already certifies.

        ``verify_workers`` shards seal verification by segment across
        worker processes (:mod:`repro.store.recovery`); the default
        resolves ``REPRO_RECOVERY_WORKERS`` / ``REPRO_SIGN_WORKERS``
        and stays in-process for small logs.  The result is
        byte-identical for any worker count.  ``on_frames`` streams
        each segment's certified frames to the caller as soon as its
        verdict lands (the pipelined-replay hook).
        """
        from .recovery import scan_log

        self.commit()          # the scan reads files, not buffers
        return scan_log(self, trusted_bytes=trusted_bytes,
                        verify_workers=verify_workers, on_frames=on_frames)

    # ------------------------------------------------------------------
    # Truncation and fault injection
    # ------------------------------------------------------------------

    def truncate_to(self, offset: int) -> int:
        """Physically cut the log at absolute ``offset``; returns bytes cut."""
        if offset > self.total_bytes:
            raise StoreError(
                f"cannot truncate to {offset}: log is {self.total_bytes} bytes"
            )
        if offset == self.total_bytes:
            return 0
        self.close()
        dropped = self.total_bytes - offset
        position, index, local = self._locate(offset)
        for later_index, _size in self._segments[position + 1:]:
            self._path(later_index).unlink()
        del self._segments[position + 1:]
        with open(self._path(index), "r+b") as handle:
            handle.truncate(local)
        self._segments[position] = (index, local)
        if local == 0 and position > 0:
            self._path(index).unlink()
            del self._segments[position]
        return dropped

    def crash_cut(self, offset: int) -> int:
        """Simulate a crash mid-write: cut the log at byte ``offset``."""
        return self.truncate_to(offset)

    def corrupt_bytes(self, offset: int, xor: bytes) -> None:
        """XOR ``xor`` into the log at absolute ``offset`` (bit rot)."""
        if not xor:
            return
        if offset + len(xor) > self.total_bytes:
            raise StoreError("corruption extent beyond log end")
        self.close()
        _position, index, local = self._locate(offset)
        path = self._path(index)
        with open(path, "r+b") as handle:
            handle.seek(local)
            current = handle.read(len(xor))
            patched = bytes(a ^ b for a, b in zip(current, xor))
            handle.seek(local)
            handle.write(patched)
