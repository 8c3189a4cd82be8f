"""The durable page store: materialized volumes over the sealed log.

A :class:`PageStore` owns a directory holding a
:class:`~repro.store.log.SegmentedLog` plus an optional sealed
checkpoint, and materializes named *volumes* -- contiguous byte images
sliced into fixed-size pages -- from the frames.  Every mutation is
logged first (full pages as ``PAGE`` frames, PR-4 journal regions as
``DELTA`` frames carrying only ``before XOR after``), then applied to
the in-RAM image, whose warm signature map and tree ride along via the
Proposition-3 incremental plane exactly as a
:class:`~repro.sync.Replica` does -- the store *is* one replica per
volume, with the log as its durable past.

Recovery (:meth:`PageStore.recover`) is the paper's signature calculus
applied to crash consistency:

1. load the sealed checkpoint (if valid) -- the certified warm
   signature map + tree and the log position they describe;
2. scan the log, batch-verifying every frame seal (Proposition 1
   certifies each frame against <= n corrupted symbols); truncate the
   torn tail after the last whole frame -- the durable state is
   exactly the **certified frames**, rejected whole frames condemned;
3. replay pre-checkpoint frames into the images *without* signature
   work, seed the checkpointed map/tree, and **fold** only the
   post-checkpoint tail through
   :class:`~repro.sig.incremental.IncrementalSignatureMap`
   (Proposition 3) -- never re-signing the world;
4. when any frame was rejected mid-prefix, or when ``verify="tail"``
   trusted the checkpoint prefix without checking its seals, a
   **scrub** compares the certified tree against a tree re-signed from
   the materialized bytes and localizes the damage to single pages
   (Proposition 5); those pages are *condemned* -- surfaced with their
   expected (certified) signatures so a consumer holding redundancy (a
   mirror, a parity group) can fetch and *verify* replacement content.

Everything runs in the calling process: the scan certifies the log one
segment at a time and replay applies each segment's certified frames
before the next segment is read (:mod:`repro.store.recovery`).

After a scrub the warm map is reset to match the materialized bytes,
so ``signature_map()`` always equals ``SignatureMap.compute`` over the
recovered image; the certified expectations for condemned pages live
in the report.  With a linear (plain) scheme the folded expectations
are exact regardless of what the corrupted bytes contained, because a
DELTA region's signature depends only on ``before XOR after``; twisted
schemes get the same detection but best-effort expectations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import SignatureError, StoreError
from ..obs import get_registry, span_if_active
from ..sig.compound import SignatureMap
from ..sig.engine import get_batch_signer
from ..sig.incremental import IncrementalSignatureMap
from ..sig.locate import LocateDesign, LocatorMap, decode
from ..sig.scheme import AlgebraicSignatureScheme
from ..sig.signature import Signature
from ..sig.tree import SignatureTree
from ..sync.replica import Replica
from . import checkpoint as ckpt
from . import frames as fr
from .log import (GROUP_BYTES, GROUP_LATENCY_S, SEGMENT_BYTES, CertifiedRun,
                  ScanResult, SegmentedLog)

DEFAULT_PAGE_BYTES = 4096


@dataclass(frozen=True, slots=True)
class ScrubReport:
    """Outcome of one Proposition-5 scrub of a volume."""

    volume: str
    condemned: tuple[int, ...]          #: page indices that failed
    expected: dict[int, Signature]      #: certified signatures for them
    nodes_compared: int                 #: tree/group comparisons spent
    method: str = "tree"                #: "tree", "map" or "locate"
    overflow: bool = False              #: a locate attempt overflowed
    #: Condemned pages with *no* certified expected signature -- the
    #: warm map did not cover them (it described a shorter image than
    #: the materialized bytes, e.g. a checkpoint that predates growth).
    #: They are damaged-or-unknown: a consumer must refetch them from
    #: redundancy rather than verify them against ``expected``.
    uncovered: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """Everything one certified recovery established."""

    seconds: float
    used_checkpoint: bool
    frames_valid: int                   #: certified frames in the log
    frames_folded: int                  #: post-checkpoint frames folded
    bytes_replayed: int                 #: payload bytes applied
    torn_bytes: int                     #: trailing garbage truncated
    corrupt_frames: int                 #: mid-prefix rejected frames
    condemned: dict[str, tuple[int, ...]]
    expected: dict[str, dict[int, Signature]]
    volumes: tuple[str, ...]
    log_bytes: int

    @property
    def clean(self) -> bool:
        """True when nothing was torn, rejected or condemned."""
        return not (self.torn_bytes or self.corrupt_frames
                    or any(self.condemned.values()))


class PageStore:
    """A durable, signature-sealed, page-addressed store.

    Construction creates a *new* store in ``directory`` (which must not
    already contain log segments); an existing store is only ever
    opened through :meth:`recover`, so an open store's in-RAM state is
    by construction the certified replay of its log.
    """

    def __init__(self, scheme: AlgebraicSignatureScheme,
                 directory: str | Path,
                 segment_bytes: int = SEGMENT_BYTES,
                 checkpoint_every: int | None = None,
                 fanout: int = 16,
                 flush: str = "frame",
                 group_bytes: int = GROUP_BYTES,
                 group_latency_s: float = GROUP_LATENCY_S,
                 locate_d: int | None = None,
                 locate_seed: int = 0,
                 _adopt_log: SegmentedLog | None = None):
        self.scheme = scheme
        self.directory = Path(directory)
        self.fanout = fanout
        self.checkpoint_every = checkpoint_every
        #: When set, scrubs condemn through a d-cover-free locator
        #: design (falling back to the tree on overflow) by default.
        self.locate_d = locate_d
        self.locate_seed = locate_seed
        self._volumes: dict[str, Replica] = {}
        self._warm_from_checkpoint: set[str] = set()
        self._next_seq = 0
        self._frames_since_checkpoint = 0
        if _adopt_log is not None:
            self._log = _adopt_log
        else:
            self._log = SegmentedLog(self.directory, scheme, segment_bytes,
                                     flush=flush, group_bytes=group_bytes,
                                     group_latency_s=group_latency_s)
            if self._log.total_bytes:
                raise StoreError(
                    f"{self.directory} already holds a log; open it with "
                    "PageStore.recover() so its state is certified"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def log_bytes(self) -> int:
        """Current absolute log length."""
        return self._log.total_bytes

    def volumes(self) -> list[str]:
        """Sorted names of materialized volumes."""
        return sorted(self._volumes)

    def page_bytes_of(self, volume: str) -> int:
        """The fixed page size of a volume."""
        return self.replica(volume).page_bytes

    def replica(self, volume: str) -> Replica:
        """The volume's in-RAM replica: its bytes and warm signature
        state.  Read and sign it freely; write only through the log."""
        replica = self._volumes.get(volume)
        if replica is None:
            raise StoreError(f"no volume named {volume!r}")
        return replica

    def image(self, volume: str) -> bytes:
        """The volume's current byte image."""
        return bytes(self.replica(volume).data)

    def image_len(self, volume: str) -> int:
        """The volume's current length in bytes."""
        return len(self.replica(volume).data)

    def read_page(self, volume: str, index: int) -> bytes:
        """One page's bytes (the final page may be short)."""
        replica = self.replica(volume)
        if not 0 <= index < replica.page_count:
            raise StoreError(
                f"page {index} of volume {volume!r} was never written"
            )
        return replica.page(index)

    def has_page(self, volume: str, index: int) -> bool:
        """True when the volume covers page ``index``."""
        replica = self._volumes.get(volume)
        return (replica is not None and len(replica.data) > 0
                and 0 <= index < replica.page_count)

    def volume_pages(self, volume: str) -> list[int]:
        """Page indices present for a volume (contiguous from 0)."""
        replica = self._volumes.get(volume)
        if replica is None or not len(replica.data):
            return []
        return list(range(replica.page_count))

    def signature_map(self, volume: str) -> SignatureMap:
        """The volume's warm signature map (journal folded on demand)."""
        return self.replica(volume).signature_map()

    def signature_tree(self, volume: str,
                       fanout: int | None = None) -> SignatureTree:
        """The volume's warm signature tree."""
        return self.replica(volume).signature_tree(
            fanout if fanout is not None else self.fanout
        )

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _validated_page_bytes(self, page_bytes: int) -> int:
        symbol_bytes = self.scheme.scheme_id.symbol_bytes
        if page_bytes <= 0 or page_bytes % symbol_bytes:
            raise StoreError(
                f"page size {page_bytes} must be a positive multiple of "
                f"the {symbol_bytes}-byte symbol"
            )
        if page_bytes // symbol_bytes > self.scheme.max_page_symbols:
            raise StoreError(
                f"page size {page_bytes} exceeds the certainty bound of "
                f"GF(2^{self.scheme.field.f})"
            )
        return page_bytes

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _append(self, frame_list: list[fr.Frame]) -> list[int]:
        """Log a burst of frames, apply them, maybe checkpoint.

        Single frames and bursts ride the same encode-many seal lane;
        under ``flush="group"`` the whole burst lands as one OS write +
        one flush instead of one pair per frame.
        """
        offsets = self._log.append_many(frame_list)
        for frame in frame_list:
            self._apply(frame.kind, frame.volume, frame.payload)
        self._frames_since_checkpoint += len(frame_list)
        if (self.checkpoint_every is not None
                and self._frames_since_checkpoint >= self.checkpoint_every):
            self.checkpoint()
        return offsets

    def ensure_volume(self, volume: str,
                      page_bytes: int = DEFAULT_PAGE_BYTES) -> None:
        """Declare a volume (logging its page size) if it is new."""
        replica = self._volumes.get(volume)
        if replica is not None:
            if replica.page_bytes != page_bytes:
                raise StoreError(
                    f"volume {volume!r} uses {replica.page_bytes}-byte pages, "
                    f"not {page_bytes}"
                )
            return
        self._validated_page_bytes(page_bytes)
        frame = fr.Frame(fr.KIND_TRUNCATE, self._take_seq(), volume,
                         fr.encode_truncate(0, page_bytes))
        self._append([frame])

    def write_page(self, volume: str, index: int, data: bytes,
                   page_size: int | None = None) -> int:
        """Durably write one page; returns the frame's log offset.

        Mirrors the sim disk's semantics: ``data`` may be short only as
        the volume's final page, in which case it sets the volume
        length.
        """
        if index < 0:
            raise StoreError("page index must be non-negative")
        replica = self._volumes.get(volume)
        if page_size is None:
            page_size = replica.page_bytes if replica is not None \
                else DEFAULT_PAGE_BYTES
        if len(data) > page_size:
            raise StoreError(
                f"page data of {len(data)} bytes exceeds page size "
                f"{page_size}"
            )
        self.ensure_volume(volume, page_size)
        frame = fr.Frame(fr.KIND_PAGE, self._take_seq(), volume,
                         fr.encode_page(index, page_size, bytes(data)))
        return self._append([frame])[0]

    def write_image(self, volume: str, data: bytes,
                    page_bytes: int | None = None) -> int:
        """Durably (re)write a whole volume image; returns frames logged.

        All page frames are sealed in one batched signing pass.
        """
        replica = self._volumes.get(volume)
        if page_bytes is None:
            page_bytes = replica.page_bytes if replica is not None \
                else DEFAULT_PAGE_BYTES
        self.ensure_volume(volume, page_bytes)
        frame_list = [
            fr.Frame(fr.KIND_PAGE, self._take_seq(), volume,
                     fr.encode_page(index, page_bytes,
                                    bytes(data[start:start + page_bytes])))
            for index, start in enumerate(range(0, len(data), page_bytes))
        ]
        if len(data) < self.image_len(volume):
            frame_list.append(
                fr.Frame(fr.KIND_TRUNCATE, self._take_seq(), volume,
                         fr.encode_truncate(len(data), page_bytes))
            )
        if frame_list:
            self._append(frame_list)
        return len(frame_list)

    def record_extent(self, volume: str, offset: int, before: bytes,
                      after: bytes, image_len: int) -> int | None:
        """Durably log one journaled write as a ``DELTA`` frame.

        ``before``/``after`` are the region's content around the write
        (as the cluster node's slot writes or a caller's own image edits
        produce); only their XOR travels to disk.  ``image_len`` is the
        volume's length after the write.
        Returns the frame's log offset (``None`` for an empty region).
        A one-region :meth:`record_extents`.
        """
        offsets = self.record_extents(volume, [(offset, before, after)],
                                      image_len)
        return offsets[0] if offsets else None

    def record_extents(self, volume: str, regions,
                       image_len: int) -> list[int]:
        """Durably log a burst of journaled writes, one sealing pass.

        ``regions`` yields ``(offset, before, after)`` per write, in
        order; ``image_len`` is the volume's length after all of them.
        Each non-empty region becomes one ``DELTA`` frame.  The burst
        takes sequence numbers in order, is sealed through one
        ``encode_many`` pass per checkpoint interval, and splits where
        ``checkpoint_every`` falls due, so the log and checkpoint files
        are byte-identical to one :meth:`record_extent` per region.
        Returns the frames' log offsets.
        """
        payloads = [
            fr.encode_delta(image_len, offset, (
                int.from_bytes(before, "little")
                ^ int.from_bytes(after, "little")
            ).to_bytes(max(len(before), len(after)), "little"))
            for offset, before, after in regions if len(before) or len(after)
        ]
        if not payloads:
            return []
        self.replica(volume)
        offsets: list[int] = []
        with span_if_active("store.record_extents", volume=volume):
            while payloads:
                room = len(payloads) if self.checkpoint_every is None \
                    else max(1, self.checkpoint_every
                             - self._frames_since_checkpoint)
                burst, payloads = payloads[:room], payloads[room:]
                offsets += self._append([
                    fr.Frame(fr.KIND_DELTA, self._take_seq(), volume, payload)
                    for payload in burst
                ])
        return offsets

    def truncate(self, volume: str, image_len: int) -> int:
        """Durably set a volume's length; returns the frame's offset."""
        frame = fr.Frame(fr.KIND_TRUNCATE, self._take_seq(), volume,
                         fr.encode_truncate(image_len,
                                            self.page_bytes_of(volume)))
        return self._append([frame])[0]

    def commit(self) -> int:
        """Force any group-coalesced frames to disk; returns bytes landed."""
        return self._log.commit()

    def close(self) -> None:
        """Commit pending frames, flush and release the log's handle."""
        self._log.close()

    # ------------------------------------------------------------------
    # Frame application (single source of truth for replay semantics)
    # ------------------------------------------------------------------

    def _materialize(self, volume: str, page_bytes: int) -> Replica:
        """Get-or-create a volume's in-RAM state (no logging); the
        replica is named ``<directory name>:<volume>``."""
        replica = self._volumes.get(volume)
        if replica is None:
            replica = self._volumes[volume] = Replica(
                f"{self.directory.name}:{volume}", self.scheme, b"",
                self._validated_page_bytes(page_bytes))
        return replica

    @staticmethod
    def _set_length(replica: Replica, image_len: int) -> None:
        if image_len < len(replica.data):
            replica.truncate(image_len)
        elif image_len > len(replica.data):
            # Pure zero growth: extended space is accounted
            # algebraically by the next fold, no journaling needed.
            replica.data.extend(bytes(image_len - len(replica.data)))

    def _apply(self, kind: int, volume: str, payload) -> int | None:
        """Apply one (already logged / certified) frame to RAM state.

        Every write goes through the volume's replica, which journals it
        while warm signature state exists (so the next Proposition-3
        fold stays exact) and writes the image directly while cold.
        Returns the page index a ``PAGE`` frame wrote, else ``None``.
        """
        if kind == fr.KIND_PAGE:
            index, page_size, data = fr.decode_page(payload)
            replica = self._materialize(volume, page_size)
            offset = index * replica.page_bytes
            replica.write_at(offset, data)
            end = offset + len(data)
            if (offset + replica.page_bytes >= len(replica.data)
                    and len(replica.data) > end):
                # A short write to the final page sets the length
                # (sim-disk semantics).
                replica.truncate(end)
            return index
        if kind == fr.KIND_DELTA:
            image_len, offset, delta = fr.decode_delta(payload)
            replica = self._materialize(volume, DEFAULT_PAGE_BYTES)
            if offset + len(delta) > image_len:
                # Bytes past the final length would be dropped again
                # at once (a zeroed tail slot): never write them.
                delta = delta[:max(0, image_len - offset)]
            if delta:
                replica.apply_xor(offset, delta)
            self._set_length(replica, image_len)
        elif kind == fr.KIND_TRUNCATE:
            image_len, page_size = fr.decode_truncate(payload)
            self._set_length(self._materialize(volume, page_size), image_len)
        else:
            raise fr.FrameError(f"unknown frame kind {kind}")
        return None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> Path:
        """Persist every volume's warm map + tree; returns the path."""
        with span_if_active("store.checkpoint",
                            volumes=str(len(self._volumes))):
            volumes = {}
            for name, replica in self._volumes.items():
                volumes[name] = ckpt.VolumeCheckpoint(
                    replica.page_bytes, len(replica.data),
                    replica.signature_map(),
                    replica.signature_tree(self.fanout),
                )
                self._warm_from_checkpoint.add(name)
            snapshot = ckpt.Checkpoint(self._log.total_bytes, self._next_seq,
                                       volumes)
            self._frames_since_checkpoint = 0
            return ckpt.save(self.directory, self.scheme, snapshot)

    # ------------------------------------------------------------------
    # Scrub (Proposition 5 localization)
    # ------------------------------------------------------------------

    def _default_design(self, page_count: int) -> LocateDesign | None:
        """The store's implied locate design, if ``locate_d`` is set."""
        if self.locate_d is None:
            return None
        capacity = 1 << max(0, (page_count - 1).bit_length()) \
            if page_count else 1
        return LocateDesign.build(capacity, self.locate_d, self.locate_seed)

    def scrub(self, volume: str,
              design: LocateDesign | None = None) -> ScrubReport:
        """Compare certified signature state against materialized bytes.

        Re-signs the volume through the batch engine, condemns the
        differing pages, and resets the warm map/tree to
        the materialized content afterwards -- the certified *expected*
        signatures of condemned pages survive only in the returned
        report.

        With a ``design`` (or a store-level ``locate_d``), condemnation
        goes through the group-testing locator first: the certified
        side is summarized into ``design.group_count`` aggregate
        signatures and :func:`~repro.sig.locate.decode` certifies the
        <= d damaged pages from the failing groups alone.  An
        ``OVERFLOW`` decode (damage beyond the budget, or a warm map
        whose length drifted from the image) falls back to the
        tree/map comparison and is flagged on the report -- never a
        silently wrong page set.
        """
        with span_if_active("store.scrub", volume=volume) as span:
            replica = self.replica(volume)
            expected_map = replica.signature_map()
            fanout = replica._tree.fanout if replica._tree is not None \
                else self.fanout
            expected_tree = replica.signature_tree(fanout)
            actual_map = get_batch_signer(self.scheme).sign_map(
                bytes(replica.data), replica.page_symbols
            )
            actual_tree = SignatureTree.from_map(actual_map, fanout)
            registry = get_registry()
            if design is None:
                design = self._default_design(
                    max(expected_map.page_count, actual_map.page_count)
                )
            condemned: tuple[int, ...] | None = None
            compared = 0
            method = "tree"
            overflow = False
            if design is not None:
                registry.counter("store.locate.scrubs",
                                 volume=volume).inc()
                try:
                    verdict = decode(LocatorMap.from_map(design, expected_map),
                                     LocatorMap.from_map(design, actual_map))
                except SignatureError:
                    verdict = None   # the volume outgrew the design
                if verdict is not None and not verdict.overflowed:
                    condemned = verdict.pages
                    compared = verdict.groups_compared
                    method = "locate"
                    registry.counter("store.locate.located").inc(
                        len(condemned)
                    )
                else:
                    overflow = True
                    registry.counter("store.locate.overflows").inc()
            if condemned is None:
                if expected_tree.leaf_count == actual_tree.leaf_count:
                    diff = expected_tree.diff(actual_tree)
                    condemned = tuple(diff.changed_leaves)
                    compared = diff.nodes_compared
                    method = "tree"
                else:  # length drifted: fall back to the flat map comparison
                    condemned = tuple(expected_map.changed_pages(actual_map))
                    compared = max(len(expected_map), len(actual_map))
                    method = "map"
            expected = {
                index: expected_map[index]
                for index in condemned if index < expected_map.page_count
            }
            uncovered = tuple(
                index for index in condemned
                if index >= expected_map.page_count
            )
            if uncovered:
                registry.counter("store.pages_uncovered").inc(len(uncovered))
            if condemned:
                # Reset warm state to the materialized bytes: from here on
                # folds track what *is*, the report records what *should be*.
                replica._incremental = IncrementalSignatureMap(actual_map)
                replica._tree = actual_tree
                replica._tree_fanout = fanout
                replica._locator = None
            if span is not None:
                span.event("condemned", pages=len(condemned))
            registry.counter("store.scrubs", volume=volume).inc()
            registry.counter("store.pages_condemned").inc(len(condemned))
            return ScrubReport(volume, condemned, expected, compared,
                               method=method, overflow=overflow,
                               uncovered=uncovered)

    # ------------------------------------------------------------------
    # Fault injection (tests, demos)
    # ------------------------------------------------------------------

    def crash_cut(self, offset: int) -> int:
        """Cut the log at byte ``offset`` (simulated torn write)."""
        return self._log.crash_cut(offset)

    def corrupt_log(self, offset: int, xor: bytes) -> None:
        """XOR bytes into the log (simulated bit rot)."""
        self._log.corrupt_bytes(offset, xor)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, scheme: AlgebraicSignatureScheme,
                directory: str | Path,
                segment_bytes: int = SEGMENT_BYTES,
                checkpoint_every: int | None = None,
                fanout: int = 16,
                use_checkpoint: bool = True,
                verify: str = "full",
                verify_workers: int | None = None,
                flush: str = "frame",
                group_bytes: int = GROUP_BYTES,
                group_latency_s: float = GROUP_LATENCY_S,
                locate_d: int | None = None,
                locate_seed: int = 0
                ) -> tuple["PageStore", RecoveryReport]:
        """Open an existing store by certified recovery.

        ``verify="full"`` checks every frame seal; ``verify="tail"``
        trusts the sealed checkpoint for the prefix it covers and
        verifies only the tail's seals.  Rot in a trusted frame's
        payload would then replay unseen, so a tail recovery scrubs
        every checkpoint-backed volume against its sealed map
        (:meth:`scrub`) and condemns what differs, exactly as a full
        recovery condemns the rejected frame's pages.

        ``locate_d`` turns on group-testing condemnation: the scrubs
        recovery runs to certify condemned pages (and any later
        :meth:`scrub`) localize damage through a d-cover-free locator
        design instead of a full tree diff, falling back on overflow.

        Recovery runs in this process; replay is *pipelined*: each
        segment's certified frames apply before the next segment is
        read.  ``verify_workers`` accepts only ``None`` or ``1`` and
        raises :class:`StoreError` for any other count, so a caller
        asking for parallel verification fails explicitly.  The keyword
        goes once the wall-clock benchmark stops passing it.
        """
        if verify not in ("full", "tail"):
            raise StoreError(f"unknown verify mode {verify!r}")
        if verify_workers not in (None, 1):
            raise StoreError(
                f"recovery runs in one process; verify_workers="
                f"{verify_workers!r} is not supported")
        started = time.perf_counter()
        registry = get_registry()
        directory = Path(directory)
        with span_if_active("store.recover", verify=verify):
            leftover = directory / ckpt.TEMPORARY
            if leftover.is_file():
                leftover.unlink()
                registry.counter("store.checkpoint_tmp_removed").inc()
            snapshot = ckpt.load(directory, scheme) if use_checkpoint \
                else None
            log = SegmentedLog(directory, scheme, segment_bytes,
                               flush=flush, group_bytes=group_bytes,
                               group_latency_s=group_latency_s)
            trusted = snapshot.position if (snapshot is not None
                                            and verify == "tail") else 0
            store, scan, replay = cls._certified_replay(
                scheme, directory, fanout, log, snapshot, trusted)
            if (snapshot is not None
                    and snapshot.position > scan.certified_end):
                # The checkpoint describes state the torn tail took with
                # it: restart cold on a fresh store (the streamed replay
                # above ran under assumptions the snapshot no longer
                # justifies).
                snapshot, trusted = None, 0
                store, scan, replay = cls._certified_replay(
                    scheme, directory, fanout, log, None, 0)
            store.locate_d = locate_d
            store.locate_seed = locate_seed
            report = store._finish_recovery(scan, snapshot, replay,
                                            trusted, registry)
            store.checkpoint_every = checkpoint_every
        seconds = time.perf_counter() - started
        registry.counter("store.recoveries").inc()
        registry.histogram("store.recovery_seconds").observe(seconds)
        report = RecoveryReport(
            seconds=seconds, used_checkpoint=report.used_checkpoint,
            frames_valid=report.frames_valid,
            frames_folded=report.frames_folded,
            bytes_replayed=report.bytes_replayed,
            torn_bytes=report.torn_bytes,
            corrupt_frames=report.corrupt_frames,
            condemned=report.condemned, expected=report.expected,
            volumes=report.volumes, log_bytes=log.total_bytes,
        )
        return store, report

    @classmethod
    def _certified_replay(cls, scheme, directory, fanout, log, snapshot,
                          trusted):
        """One scan-and-replay pass: certify + apply, overlapped."""
        store = cls(scheme, directory, checkpoint_every=None,
                    fanout=fanout, _adopt_log=log)
        replay = _StreamingReplay(store, snapshot)
        scan = log.scan(trusted_bytes=trusted, on_frames=replay.feed)
        return store, scan, replay

    def _finish_recovery(self, scan: ScanResult,
                         snapshot: ckpt.Checkpoint | None,
                         replay: "_StreamingReplay", trusted: int,
                         registry) -> RecoveryReport:
        """Seal a streamed replay: truncate, warm, renumber, condemn.

        ``trusted`` is the log prefix whose seals the scan skipped.
        """
        replay.finish()
        if scan.torn_bytes:
            registry.counter("store.torn_writes_detected").inc()
            registry.counter("store.torn_bytes").inc(scan.torn_bytes)
            self._log.truncate_to(scan.torn_start)
        registry.counter("store.corrupt_frames_detected").inc(
            len(scan.corrupt)
        )
        registry.counter("store.frames_replayed").inc(scan.frame_count)
        for name in self._volumes:
            self.signature_map(name)
        self._next_seq = max(
            snapshot.next_seq if snapshot is not None else 0, scan.next_seq)
        # Condemnation: headers of rejected frames point at pages
        # (best effort), the Proposition-5 scrub certifies pre-tail
        # damage, later full-page writes exonerate.
        condemned, expected = self._condemn(scan, replay.last_page_write,
                                            trusted)
        return RecoveryReport(
            seconds=0.0, used_checkpoint=snapshot is not None,
            frames_valid=scan.frame_count,
            frames_folded=replay.frames_folded,
            bytes_replayed=replay.bytes_replayed,
            torn_bytes=scan.torn_bytes,
            corrupt_frames=len(scan.corrupt),
            condemned=condemned, expected=expected,
            volumes=tuple(self.volumes()), log_bytes=self._log.total_bytes,
        )


    def _condemn(self, scan: ScanResult,
                 last_page_write: dict[tuple[str, int], int],
                 trusted: int) -> tuple[
            dict[str, tuple[int, ...]], dict[str, dict[int, Signature]]]:
        """Condemn the pages rejected frames may have damaged.

        ``last_page_write`` maps ``(volume, page)`` to the log position
        of its last certified full-page write, as replay recorded it: a
        corrupt frame's damage to a page is superseded by a later
        ``PAGE`` frame.  When the scan trusted a checkpoint prefix
        (``trusted`` bytes) without checking its seals, rot there
        replayed unseen, so every checkpoint-backed volume is scrubbed.
        """
        if not scan.corrupt and not trusted:
            return {}, {}
        registry = get_registry()
        targeted: dict[str, set[int]] = {}
        blind = False   # a region without a parseable header
        for region in scan.corrupt:
            frame = region.frame
            if frame is None or frame.volume not in self._volumes:
                blind = True
                continue
            page_bytes = self.page_bytes_of(frame.volume)
            pages: set[int] = set()
            try:
                if frame.kind == fr.KIND_PAGE:
                    index, _size, _data = fr.decode_page(frame.payload)
                    pages = {index}
                elif frame.kind == fr.KIND_DELTA:
                    _image_len, offset, delta = fr.decode_delta(frame.payload)
                    if delta:
                        pages = set(range(offset // page_bytes,
                                          (offset + len(delta) - 1)
                                          // page_bytes + 1))
                else:
                    blind = True   # a lost TRUNCATE: length uncertain
            except fr.FrameError:
                blind = True
            survivors = {
                page for page in pages
                if last_page_write.get((frame.volume, page), -1) < region.start
            }
            if survivors:
                targeted.setdefault(frame.volume, set()).update(survivors)
        # Scrub certifies the checkpoint-backed volumes the damage may
        # have touched (all of them when a region was unreadable or the
        # prefix went unchecked).
        scrub_volumes = set(self._warm_from_checkpoint) \
            if blind or trusted else {
            volume for volume in targeted if volume in
            self._warm_from_checkpoint
        }
        condemned: dict[str, set[int]] = {v: set(p) for v, p in
                                          targeted.items()}
        expected: dict[str, dict[int, Signature]] = {}
        for volume in sorted(scrub_volumes):
            scrubbed = self.scrub(volume)
            if scrubbed.condemned:
                condemned.setdefault(volume, set()).update(scrubbed.condemned)
                expected.setdefault(volume, {}).update(scrubbed.expected)
        # Drop pages beyond each volume's final extent and count the
        # targeted-only remainder (scrub counted its own findings).
        result: dict[str, tuple[int, ...]] = {}
        for volume, pages in condemned.items():
            page_count = self.replica(volume).page_count \
                if self.image_len(volume) else 0
            kept = tuple(sorted(p for p in pages if p < page_count))
            if kept:
                result[volume] = kept
                extra = [p for p in kept
                         if p not in expected.get(volume, {})]
                registry.counter("store.pages_condemned").inc(len(extra))
        expected = {volume: {page: sig for page, sig in pages.items()
                             if page in set(result.get(volume, ()))}
                    for volume, pages in expected.items()}
        expected = {volume: pages for volume, pages in expected.items()
                    if pages}
        return result, expected


class _StreamingReplay:
    """Applies certified frames as their segment verdicts land.

    The pipelined half of recovery: :func:`repro.store.recovery.
    scan_log` streams each segment's certified frames through
    :meth:`feed` before it reads the next segment, so the scan never
    holds more than one segment's frames unapplied.  Apply-during-scan
    is safe because the certified prefix is monotone -- a later segment
    can never invalidate an earlier certified frame.

    Frames ending at or before the checkpoint position replay *cold*
    (plain byte application, no signature work); crossing the position
    seeds the certified warm map/tree over the replayed images; frames
    after it fold through the Proposition-3 incremental plane -- the
    same three phases the sequential recovery always ran, folded into
    one streaming pass.
    """

    __slots__ = ("store", "snapshot", "position", "seeded",
                 "bytes_replayed", "frames_folded", "last_page_write")

    def __init__(self, store: PageStore, snapshot):
        self.store = store
        self.snapshot = snapshot
        self.position = snapshot.position if snapshot is not None else 0
        self.seeded = snapshot is None
        self.bytes_replayed = 0
        self.frames_folded = 0
        #: Log position of the last full-page write per (volume, page).
        self.last_page_write: dict[tuple[str, int], int] = {}

    def feed(self, run: CertifiedRun) -> None:
        """Apply one segment's certified frames (in log order).

        The frames ending at or before the checkpoint position apply
        before the warm state is seeded, the rest after it; the byte
        and fold counts are sums over the run's columns.
        """
        table = run.frames
        split = len(table)
        if not self.seeded:
            split = int(np.searchsorted(table.end, self.position,
                                        side="right"))
        self._apply_rows(run, slice(0, split))
        if split < len(table):
            if not self.seeded:
                self._seed()
            self._apply_rows(run, slice(split, None))
        self.bytes_replayed += int((table.body_end
                                    - table.payload_start).sum())
        self.frames_folded += int(np.count_nonzero(
            table.end > self.position))

    def _apply_rows(self, run: CertifiedRun, rows: slice) -> None:
        """Apply ``rows`` of a run through :meth:`PageStore._apply`."""
        table, view = run.frames, run.view
        names, apply = table.volumes, self.store._apply
        last_page_write = self.last_page_write
        for kind, volume, start, payload_start, body_end in zip(
                table.kind[rows].tolist(), table.volume[rows].tolist(),
                table.start[rows].tolist(),
                (table.payload_start[rows] - run.base).tolist(),
                (table.body_end[rows] - run.base).tolist()):
            name = names[volume]
            page = apply(kind, name, view[payload_start:body_end])
            if page is not None:
                last_page_write[(name, page)] = start

    def _seed(self) -> None:
        """Seed the certified warm state over the replayed images."""
        store, snapshot = self.store, self.snapshot
        for name, volume_ckpt in snapshot.volumes.items():
            cold = store._materialize(name, volume_ckpt.page_bytes)
            store._volumes[name] = Replica.from_warm(
                cold.name, store.scheme, cold.data, volume_ckpt.page_bytes,
                volume_ckpt.map, volume_ckpt.tree,
            )
            store._warm_from_checkpoint.add(name)
        self.seeded = True

    def finish(self) -> None:
        """Seed the warm state even when no frame followed the position."""
        if not self.seeded:
            self._seed()
