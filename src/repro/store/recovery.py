"""Certified recovery scan: walk, verify and stitch the log by segment.

:meth:`~repro.store.log.SegmentedLog.scan` certifies the log by
verifying every frame seal -- the paper's Proposition 1 (any <= n
corrupted symbols detected with certainty) applied frame by frame.
Each frame is checked alone, so the scan runs in one process, segment
after segment:

* a segment file is read once and structurally walked
  (:func:`repro.store.frames.scan_buffer`) into a column
  :class:`~repro.store.frames.FrameTable`;
* its untrusted seals are checked with one array comparison
  (:func:`repro.sig.seal.seals_hold`) -- no ``Frame`` or ``Signature``
  per frame;
* the segment is *stitched* onto the global certified prefix.
  Validity is a left-to-right property -- a frame is certified iff its
  seal held and its ``seq`` exceeds every certified frame before it --
  so the fold needs exactly one integer of carried state (the running
  max ``seq``), which is also what rejects cross-segment ``stale_seq``
  replays and what makes the fold *streamable*.  Within a segment the
  fold is one running-max pass over the ``seq`` column; only rejected
  frames become objects (:class:`~repro.store.log.CorruptRegion`).

Streaming is the pipelined replay: ``on_frames`` receives each
segment's certified frames -- one :class:`~repro.store.log.
CertifiedRun` -- as soon as the segment is stitched, before the next
segment is read.  A frame never spans two segments (the log rolls
before that could happen), so per-segment walks see exactly the frames
a walk over the concatenated log would; would-be-spanning bytes at a
segment's end classify as garbage or torn tail.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_registry, span_if_active
from ..sig.seal import seals_hold
from . import frames as fr
from .log import CertifiedRun, CorruptRegion, ScanResult


def scan_segment(scheme, buffer, base: int, trusted_bytes: int) -> tuple[
        fr.FrameTable, np.ndarray, list[tuple[int, int]]]:
    """Structurally walk and seal-verify one segment's bytes.

    Returns the parsed frames, their seal verdicts and the garbage
    spans, all in absolute log coordinates (the segment starts at
    ``base``).  ``seal_ok[i]`` is true for a verified seal *and* for a
    frame inside the trusted prefix (whose seal the sealed checkpoint
    already certifies).  The untrusted seals are checked by
    :func:`repro.sig.seal.seals_hold` in one batch: every body is signed
    in its own matrix row, so a frame's verdict is independent of which
    batch verified it.
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
    return (table.shifted(base), seal_ok,
            [(base + start, base + end) for start, end in garbage])


class _Stitcher:
    """Folds per-segment verdicts into the global certified prefix.

    Carried state is one integer -- the running max certified ``seq``
    -- which is what rejects cross-segment ``stale_seq`` replays and
    what makes the fold streamable: a later segment can never
    invalidate an earlier certified frame, so ``on_frames`` may apply
    frames before later segments are read.
    """

    __slots__ = ("runs", "corrupt", "last_seq", "whole_end", "on_frames")

    def __init__(self, on_frames=None):
        self.runs: list[CertifiedRun] = []
        self.corrupt: list[CorruptRegion] = []
        self.last_seq = -1
        #: End of the last structurally whole frame, certified or not.
        self.whole_end = 0
        self.on_frames = on_frames

    def fold(self, scheme, buffer, base: int, trusted_bytes: int) -> None:
        """Scan one segment's bytes (starting at ``base``) and fold them."""
        table, seal_ok, garbage = scan_segment(scheme, buffer, base,
                                               trusted_bytes)
        for start, end in garbage:
            self.corrupt.append(CorruptRegion(start, end, "garbage"))
        if not len(table):
            return
        view = memoryview(buffer)
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


def scan_log(log, trusted_bytes: int = 0, on_frames=None) -> ScanResult:
    """Certify the whole log, one segment at a time.

    ``on_frames`` is the pipelined-replay hook: it receives each
    segment's batch of certified frames (in log order) as soon as that
    segment is certified, before the next segment is read.
    """
    with span_if_active("store.scan",
                        segments=str(log.segment_count)) as span:
        stitcher = _Stitcher(on_frames)
        base = 0
        for index, size in log.segments():
            buffer = log.segment_path(index).read_bytes() if size else b""
            stitcher.fold(log.scheme, buffer, base, trusted_bytes)
            base += size
        get_registry().counter("store.scans").inc()
        result = stitcher.result(log.total_bytes)
        if span is not None:
            span.event("certified", frames=result.frame_count,
                       corrupt=len(result.corrupt),
                       torn_bytes=result.torn_bytes)
    return result
