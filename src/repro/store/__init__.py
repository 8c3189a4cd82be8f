"""Durable signature-sealed storage plane.

An append-only segmented log of signature-sealed frames, a
:class:`PageStore` materializing page-addressed volumes from it, sealed
warm-state checkpoints, and certified crash recovery: scan, verify
every seal (Proposition 1), truncate the torn tail, fold only the
post-checkpoint delta (Proposition 3), and localize mid-prefix damage
to condemned pages via the persisted signature tree (Proposition 5).

The recovery scan (:mod:`repro.store.recovery`) certifies the log one
segment at a time in one process and streams each segment's certified
frames into replay before the next segment is read; the log's
group-commit write path (``flush="group"``) coalesces bursts of frames
into one OS write + one flush.
"""

from .checkpoint import Checkpoint, VolumeCheckpoint
from .checkpoint import load as load_checkpoint
from .checkpoint import save as save_checkpoint
from .disk import DurableDisk
from .frames import (
    KIND_DELTA,
    KIND_PAGE,
    KIND_TRUNCATE,
    Frame,
    FrameError,
)
from .log import (
    GROUP_BYTES,
    GROUP_LATENCY_S,
    SEGMENT_BYTES,
    CorruptRegion,
    ScannedFrame,
    ScanResult,
    SegmentedLog,
)
from .pagestore import (
    DEFAULT_PAGE_BYTES,
    PageStore,
    RecoveryReport,
    ScrubReport,
)
from .recovery import scan_segment

__all__ = [
    "Checkpoint",
    "CorruptRegion",
    "DEFAULT_PAGE_BYTES",
    "DurableDisk",
    "Frame",
    "FrameError",
    "GROUP_BYTES",
    "GROUP_LATENCY_S",
    "KIND_DELTA",
    "KIND_PAGE",
    "KIND_TRUNCATE",
    "PageStore",
    "RecoveryReport",
    "ScannedFrame",
    "ScanResult",
    "ScrubReport",
    "SEGMENT_BYTES",
    "SegmentedLog",
    "VolumeCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
    "scan_segment",
]
