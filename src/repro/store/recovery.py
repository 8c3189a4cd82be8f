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
  scan_buffer` -- the same walk the sequential lane runs) into a
  column :class:`~repro.store.frames.FrameTable`, and check the
  untrusted seals with one array comparison
  (:func:`repro.sig.seal.seals_hold`).  No copy of page content and no
  per-frame object crosses the process boundary: a worker returns a
  :class:`SegmentVerdict` of a few small arrays;
* the parent *stitches* verdicts in segment order.  Validity is a
  left-to-right property -- a frame is certified iff its seal held and
  its ``seq`` exceeds every certified frame before it -- so the global
  longest-certified-prefix fold needs exactly one integer of carried
  state (the running max ``seq``), which is also what rejects
  cross-segment ``stale_seq`` replays and what makes the fold
  *streamable*.  Within a segment the fold is one running-max pass
  over the ``seq`` column; only rejected frames become objects
  (:class:`~repro.store.log.CorruptRegion`).

Streaming is the pipelined replay: the parent reads segment ``k+1``
into the arena while workers verify earlier segments, and folds (and
via ``on_frames`` *applies*) segment ``k``'s certified frames -- one
:class:`~repro.store.log.CertifiedRun` -- the moment its verdict lands:
reads, seal verification and replay overlap instead of serializing.  A
frame never spans two segments (the log rolls before that could
happen), so per-segment walks see exactly the byte ranges the
sequential walk sees; would-be-spanning bytes at a segment's end
classify as garbage/torn identically in both modes, and the per-frame
seal is independent of which batch verified it -- properties the
parallel == sequential exactness tests pin.

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

import numpy as np

from ..errors import StoreError
from ..obs import MetricsRegistry, get_registry, span_if_active, use_registry
from ..sig.arena import PageArena
from ..sig.parallel import (_cached_scheme, _discard_pool, get_pool,
                            resolve_workers, scheme_spec)
from ..sig.seal import seals_hold
from . import frames as fr
from .log import CertifiedRun, CorruptRegion, ScanResult

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
class SegmentVerdict:
    """One segment's walk and seal verdicts, absolute coordinates.

    ``frames`` holds every structurally parsed frame as columns; the
    payload coordinates let the parent read each frame as a zero-copy
    view into its own arena mapping, so a worker never pickles page
    content.  ``seal_ok[i]`` is true for a verified seal *and* for a
    frame inside the trusted prefix (whose seal the sealed checkpoint
    already certifies).
    """

    index: int
    base: int
    size: int
    frames: fr.FrameTable
    seal_ok: np.ndarray
    garbage: tuple[tuple[int, int], ...]


def scan_segment(scheme, buffer, index: int, base: int,
                 trusted_bytes: int) -> SegmentVerdict:
    """Structurally walk and seal-verify one segment's bytes.

    The untrusted frames' seals are checked by
    :func:`repro.sig.seal.seals_hold` in one batch: every body is signed
    in its own matrix row, so a frame's verdict is independent of which
    batch verified it and per-segment batches here agree with any other
    partition of the log.
    """
    table, garbage = fr.scan_buffer(buffer, scheme.signature_bytes)
    seal_ok = np.ones(len(table), dtype=bool)
    # The trusted prefix is a byte prefix: the frames ending inside it
    # lead the table and everything after them is verified.
    first = int(np.searchsorted(table.end, trusted_bytes - base,
                                side="right"))
    if first < len(table):
        seal_ok[first:] = seals_hold(scheme, buffer, table.start[first:],
                                     table.body_end[first:])
    return SegmentVerdict(index, base, len(buffer), table.shifted(base),
                          seal_ok,
                          tuple((base + s, base + e) for s, e in garbage))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _scan_attached(scheme, buf, offset: int, length: int, index: int,
                   base: int, trusted_bytes: int) -> SegmentVerdict:
    """Scan in its own frame so arena views die before the detach."""
    view = memoryview(buf)[offset:offset + length]
    return scan_segment(scheme, view, index, base, trusted_bytes)


def _worker_scan(task) -> tuple[SegmentVerdict, MetricsRegistry]:
    """Pool entry point: attach by name, scan one segment, detach.

    The scan runs under a fresh registry that travels back with the
    verdict, so the parent can fold the worker's signing counters into
    its own and a sharded scan reports what a sequential one does.
    """
    name, spec, offset, length, index, base, trusted_bytes = task
    from multiprocessing import shared_memory

    scheme = _cached_scheme(spec)
    shm = shared_memory.SharedMemory(name=name)
    try:
        with use_registry(MetricsRegistry()) as registry:
            verdict = _scan_attached(scheme, shm.buf, offset, length,
                                     index, base, trusted_bytes)
        return verdict, registry
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

    __slots__ = ("runs", "corrupt", "last_seq", "whole_end", "on_frames")

    def __init__(self, on_frames=None):
        self.runs: list[CertifiedRun] = []
        self.corrupt: list[CorruptRegion] = []
        self.last_seq = -1
        #: End of the last structurally whole frame, certified or not.
        self.whole_end = 0
        self.on_frames = on_frames

    def fold(self, verdict: SegmentVerdict, view: memoryview) -> None:
        """Fold one segment's verdict; ``view`` holds its bytes."""
        base = verdict.base
        for start, end in verdict.garbage:
            self.corrupt.append(CorruptRegion(start, end, "garbage"))
        table, seal_ok = verdict.frames, verdict.seal_ok
        if not len(table):
            return
        self.whole_end = int(table.end[-1])
        certified = _certify(table.seq, seal_ok, self.last_seq)
        for row in np.flatnonzero(~certified).tolist():
            self.corrupt.append(CorruptRegion(
                int(table.start[row]), int(table.end[row]),
                "seal" if not seal_ok[row] else "stale_seq",
                table.frame(row, view, base)))
        if seal_ok.any():
            self.last_seq = max(self.last_seq,
                                int(table.seq[seal_ok].max()))
        if certified.any():
            run = CertifiedRun(table.rows(certified), view, base)
            self.runs.append(run)
            if self.on_frames is not None:
                self.on_frames(run)

    def result(self, total_bytes: int) -> ScanResult:
        """Seal the fold: torn tail after the last whole frame.

        A tear leaves a prefix of the last write, so a frame whose
        whole extent is on disk was written in full: one failing its
        seal after the last certified frame is rot, kept as a corrupt
        region for condemnation, never dropped as torn.
        """
        torn_start = self.whole_end if self.whole_end < total_bytes \
            else None
        regions = self.corrupt
        if torn_start is not None:
            regions = [r for r in regions if r.start < torn_start]
        regions.sort(key=lambda region: region.start)
        return ScanResult(self.runs, regions, torn_start, total_bytes)


def _certify(seq: np.ndarray, seal_ok: np.ndarray,
             last_seq: int) -> np.ndarray:
    """Which frames extend the certified prefix, in one array pass.

    Frame ``i`` is certified iff its seal held and its ``seq`` exceeds
    every certified ``seq`` before it (and the carried ``last_seq``).
    A sealed frame rejected as stale never raises that maximum, so it
    equals the running max over *all* sealed frames before ``i``.
    """
    sealed_seq = np.where(seal_ok, seq, np.uint64(0))
    before = np.zeros_like(sealed_seq)
    np.maximum.accumulate(sealed_seq[:-1], out=before[1:])
    sealed_before = np.zeros(seq.size, dtype=bool)
    np.logical_or.accumulate(seal_ok[:-1], out=sealed_before[1:])
    certified = seal_ok & (~sealed_before | (seq > before))
    if last_seq >= 0:
        certified &= seq > np.uint64(last_seq)
    return certified


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
                _fold_done(stitcher, *pending.popleft())
        while pending:
            _fold_done(stitcher, *pending.popleft())
    except BrokenProcessPool:
        _discard_pool(workers, pool)
        arena.close()
        raise
    except BaseException:
        arena.close()
        raise
    arena.unlink()


def _fold_done(stitcher: _Stitcher, future, view) -> None:
    """Fold a finished worker's verdict and metrics into the parent's."""
    verdict, metrics = future.result()
    get_registry().merge_from(metrics)
    stitcher.fold(verdict, view.memoryview())


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
            span.event("certified", frames=result.frame_count,
                       corrupt=len(result.corrupt),
                       torn_bytes=result.torn_bytes)
    return result
