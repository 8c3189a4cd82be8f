"""Parallel certified recovery: segment-sharded scan, pipelined replay.

:meth:`~repro.store.log.SegmentedLog.scan` certifies the log by
verifying every frame seal -- the paper's Proposition 1 (any <= n
corrupted symbols detected with certainty) applied frame by frame.  On
one core that pass is the recovery bottleneck, growing linearly with
log size while PR 8's process signing backend sits idle.  This module
shards the pass by segment:

* the parent lands each segment file **once** (``readinto``) in a
  shared :class:`~repro.sig.arena.PageArena`;
* workers from :mod:`repro.sig.parallel` attach the arena by name,
  structurally walk their segment (:func:`repro.store.frames.
  scan_buffer` -- the same walk the sequential lane runs), and
  batch-verify the untrusted seals through the engine's
  ``sign_concat_many`` lane, zero copies of page content crossing the
  process boundary: a worker returns only compact
  :class:`FrameVerdict` coordinates;
* the parent *stitches* verdicts in segment order.  Validity is a
  left-to-right property -- a frame is certified iff its seal held and
  its ``seq`` exceeds every certified frame before it -- so the global
  longest-certified-prefix fold needs exactly one integer of carried
  state (the running max ``seq``), which is also what rejects
  cross-segment ``stale_seq`` replays and what makes the fold
  *streamable*.

Streaming is the pipelined replay: the parent reads segment ``k+1``
into the arena while workers verify earlier segments, and folds (and
via ``on_frames`` *applies*) segment ``k``'s certified frames the
moment its verdict lands -- reads, seal verification and ``Replica``
application overlap instead of serializing.  A frame never spans two
segments (the log rolls before that could happen), so per-segment walks
see exactly the byte ranges the sequential walk sees; would-be-spanning
bytes at a segment's end classify as garbage/torn identically in both
modes, and the per-frame seal is independent of which batch verified it
-- properties the parallel == sequential exactness tests pin.

Worker counts resolve ``REPRO_RECOVERY_WORKERS`` over
``REPRO_SIGN_WORKERS`` over ``cpu_count`` (:func:`resolve_recovery_
workers`); auto mode stays in-process for small logs where pool
dispatch costs more than it saves.  Cleanup is crash-safe: the shared
block's name is unlinked the moment the workers are done
(:meth:`~repro.sig.arena.PageArena.unlink`), while the mapping -- and
therefore every certified frame's zero-copy payload view -- stays
valid until the scan result is garbage collected.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..errors import StoreError
from ..obs import get_registry, span_if_active
from ..sig.arena import PageArena
from ..sig.engine import get_batch_signer
from ..sig.parallel import (_cached_scheme, _discard_pool, get_pool,
                            resolve_workers, scheme_spec)
from . import frames as fr
from .log import CorruptRegion, ScanResult, ScannedFrame

#: Environment override for the recovery scan fleet.
RECOVERY_WORKERS_ENV = "REPRO_RECOVERY_WORKERS"

#: Fallback chain: recovery fleet > signing fleet > machine size.
_WORKERS_ENV_CHAIN = (RECOVERY_WORKERS_ENV, "REPRO_SIGN_WORKERS")

#: Below this log size auto mode stays in-process: forking dispatch
#: costs more than sharding a couple of segments saves.
MIN_PARALLEL_BYTES = 1 << 20


def resolve_recovery_workers(requested: int | None = None) -> int:
    """Scan worker count: explicit > ``REPRO_RECOVERY_WORKERS`` >
    ``REPRO_SIGN_WORKERS`` > cpu_count."""
    return resolve_workers(requested, env=_WORKERS_ENV_CHAIN)


def effective_workers(requested: int | None, total_bytes: int,
                      segment_count: int) -> int:
    """The worker count a scan actually uses.

    An explicit request is honoured (clamped to the segment count --
    there is one shard per segment); auto mode additionally gates on
    log size so tiny logs never pay pool dispatch.
    """
    if requested is not None:
        return min(resolve_recovery_workers(requested),
                   max(segment_count, 1))
    workers = resolve_recovery_workers(None)
    if (workers <= 1 or segment_count <= 1
            or total_bytes < MIN_PARALLEL_BYTES):
        return 1
    return min(workers, segment_count)


# ----------------------------------------------------------------------
# Per-segment verdicts (what crosses the process boundary)
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FrameVerdict:
    """One structurally parsed frame: coordinates plus its seal verdict.

    All offsets are absolute log positions; the payload coordinates let
    the parent rebuild the frame as a zero-copy view into its own arena
    mapping, so a worker never pickles page content.  ``seal_ok`` is
    true for verified seals *and* for frames inside the trusted prefix
    (whose seals the sealed checkpoint already certifies).
    """

    kind: int
    seq: int
    volume: str
    start: int
    end: int
    payload_start: int
    body_end: int
    seal_ok: bool


@dataclass(frozen=True, slots=True)
class SegmentVerdict:
    """One segment's certified/corrupt partition, absolute coordinates."""

    index: int
    base: int
    size: int
    frames: tuple[FrameVerdict, ...]
    garbage: tuple[tuple[int, int], ...]


def scan_segment(scheme, buffer, index: int, base: int,
                 trusted_bytes: int) -> SegmentVerdict:
    """Structurally walk and seal-verify one segment's bytes.

    ``sign_concat_many`` signs every body in its own matrix row, so a
    frame's verdict is independent of which batch verified it: per-
    segment batches here produce seals byte-identical to the sequential
    scan's one global batch.
    """
    seal_bytes = scheme.scheme_id.signature_bytes
    candidates, garbage = fr.scan_buffer(buffer, seal_bytes)
    view = buffer if isinstance(buffer, memoryview) else memoryview(buffer)
    unverified = [c for c in candidates if base + c[2] > trusted_bytes]
    seals = get_batch_signer(scheme).sign_concat_many(
        [[view[c[1]:c[3]]] for c in unverified], strict=False,
    ) if unverified else []
    # The unverified frames are the trailing candidates (the trusted
    # prefix is a byte prefix); everything before them is trusted.
    verdicts = [True] * (len(candidates) - len(unverified)) + [
        seal.to_bytes() == view[c[3]:c[2]]
        for c, seal in zip(unverified, seals)]
    frames = []
    for (frame, start, end, body_end), seal_ok in zip(candidates, verdicts):
        frames.append(FrameVerdict(
            frame.kind, frame.seq, frame.volume,
            base + start, base + end,
            base + body_end - len(frame.payload), base + body_end,
            seal_ok,
        ))
    return SegmentVerdict(index, base, len(view), tuple(frames),
                          tuple((base + s, base + e) for s, e in garbage))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _scan_attached(scheme, buf, offset: int, length: int, index: int,
                   base: int, trusted_bytes: int) -> SegmentVerdict:
    """Scan in its own frame so arena views die before the detach."""
    view = memoryview(buf)[offset:offset + length]
    return scan_segment(scheme, view, index, base, trusted_bytes)


def _worker_scan(task) -> SegmentVerdict:
    """Pool entry point: attach by name, scan one segment, detach."""
    name, spec, offset, length, index, base, trusted_bytes = task
    from multiprocessing import shared_memory

    scheme = _cached_scheme(spec)
    shm = shared_memory.SharedMemory(name=name)
    try:
        return _scan_attached(scheme, shm.buf, offset, length, index,
                              base, trusted_bytes)
    finally:
        shm.close()


# ----------------------------------------------------------------------
# Stitching (the global longest-certified-prefix fold)
# ----------------------------------------------------------------------

class _Stitcher:
    """Folds per-segment verdicts into the global certified prefix.

    Carried state is one integer -- the running max certified ``seq``
    -- which is what rejects cross-segment ``stale_seq`` replays and
    what makes the fold streamable: a later segment can never
    invalidate an earlier certified frame, so ``on_frames`` may apply
    frames while later segments are still being verified.
    """

    __slots__ = ("frames", "corrupt", "last_seq", "on_frames")

    def __init__(self, on_frames=None):
        self.frames: list[ScannedFrame] = []
        self.corrupt: list[CorruptRegion] = []
        self.last_seq = -1
        self.on_frames = on_frames

    def fold(self, verdict: SegmentVerdict, view: memoryview) -> None:
        """Fold one segment's verdict; ``view`` holds its bytes."""
        base = verdict.base
        for start, end in verdict.garbage:
            self.corrupt.append(CorruptRegion(start, end, "garbage"))
        fresh: list[ScannedFrame] = []
        for meta in verdict.frames:
            frame = fr.Frame(meta.kind, meta.seq, meta.volume,
                             view[meta.payload_start - base:
                                  meta.body_end - base])
            if not meta.seal_ok:
                self.corrupt.append(
                    CorruptRegion(meta.start, meta.end, "seal", frame))
                continue
            if meta.seq <= self.last_seq:
                self.corrupt.append(
                    CorruptRegion(meta.start, meta.end, "stale_seq", frame))
                continue
            self.last_seq = meta.seq
            fresh.append(ScannedFrame(frame, meta.start, meta.end))
        self.frames.extend(fresh)
        if self.on_frames is not None and fresh:
            self.on_frames(fresh)

    def result(self, total_bytes: int) -> ScanResult:
        """Seal the fold: torn tail after the last certified frame."""
        certified_end = self.frames[-1].end if self.frames else 0
        torn_start = certified_end if certified_end < total_bytes else None
        regions = self.corrupt
        if torn_start is not None:
            regions = [r for r in regions if r.start < torn_start]
        regions.sort(key=lambda region: region.start)
        return ScanResult(self.frames, regions, torn_start, total_bytes)


# ----------------------------------------------------------------------
# Parent-side drivers
# ----------------------------------------------------------------------

def _serial_scan(log, trusted_bytes: int, stitcher: _Stitcher) -> None:
    """The in-process lane: read, walk and verify segment by segment."""
    base = 0
    for index, size in log.segments():
        buffer = log.segment_path(index).read_bytes() if size else b""
        verdict = scan_segment(log.scheme, buffer, index, base,
                               trusted_bytes)
        stitcher.fold(verdict, memoryview(buffer))
        base += size


def _parallel_scan(log, trusted_bytes: int, workers: int,
                   stitcher: _Stitcher) -> None:
    """The sharded lane: segments land in a shared arena, workers
    verify, the parent stitches (and streams) verdicts in order.

    The submit loop is the readahead: segment ``k+1`` is read into the
    arena while workers verify earlier segments, and the oldest
    completed verdict is folded opportunistically so replay overlaps
    both.  The arena's name is unlinked as soon as every worker is
    done; payload views stay valid until the scan result is collected.
    """
    segments = log.segments()
    arena = PageArena(max(log.total_bytes, 1) + 2 * len(segments),
                      shared=True, align=2)
    pool = get_pool(workers)
    spec = scheme_spec(log.scheme)
    pending: deque = deque()
    try:
        base = 0
        for index, size in segments:
            view = arena.reserve(size)
            if size:
                with open(log.segment_path(index), "rb") as handle:
                    landed = handle.readinto(view.memoryview())
                if landed != size:
                    raise StoreError(
                        f"segment {index} read {landed} of {size} bytes"
                    )
            pending.append((
                pool.submit(_worker_scan,
                            (arena.name, spec, view.offset, size,
                             index, base, trusted_bytes)),
                view,
            ))
            base += size
            while pending and pending[0][0].done():
                future, done_view = pending.popleft()
                stitcher.fold(future.result(), done_view.memoryview())
        while pending:
            future, done_view = pending.popleft()
            stitcher.fold(future.result(), done_view.memoryview())
    except BrokenProcessPool:
        _discard_pool(workers, pool)
        arena.close()
        raise
    except BaseException:
        arena.close()
        raise
    arena.unlink()


def scan_log(log, trusted_bytes: int = 0,
             verify_workers: int | None = None,
             on_frames=None) -> ScanResult:
    """Certify the whole log, optionally sharded across processes.

    ``on_frames`` is the pipelined-replay hook: it receives each
    segment's batch of certified frames (in log order) as soon as that
    segment's verdict lands, while later segments are still being read
    and verified.  The result is byte-identical to the sequential scan
    for any worker count.
    """
    workers = effective_workers(verify_workers, log.total_bytes,
                                log.segment_count)
    registry = get_registry()
    mode = "parallel" if workers > 1 else "sequential"
    with span_if_active("store.scan", workers=str(workers), mode=mode,
                        segments=str(log.segment_count)) as span:
        stitcher = _Stitcher(on_frames)
        if workers > 1:
            _parallel_scan(log, trusted_bytes, workers, stitcher)
        else:
            _serial_scan(log, trusted_bytes, stitcher)
        registry.counter("store.scans", mode=mode).inc()
        registry.gauge("store.recovery_workers").set(workers)
        result = stitcher.result(log.total_bytes)
        if span is not None:
            span.event("certified", frames=len(result.frames),
                       corrupt=len(result.corrupt),
                       torn_bytes=result.torn_bytes)
    return result
