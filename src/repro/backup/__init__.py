"""Bucket backup through algebraic signatures (Section 2.1).

* :class:`BackupEngine` -- the paper's approach: per-page signature map,
  write only pages whose recomputed signature changed; optional
  signature-tree change localization (Section 4.2).
* :class:`DirtyBitBackupEngine` + :class:`DirtyBitTracker` -- the
  traditional baseline the paper could not retrofit into SDDS-2000.
"""

from .dirty_bits import DirtyBitTracker
from .eviction import EvictionManager, EvictionStats
from .engine import (
    PAPER_SIG_SECONDS_PER_BYTE,
    BackupEngine,
    BackupReport,
    CpuModel,
    DirtyBitBackupEngine,
)
from .orchestrator import FileBackupOrchestrator, FileBackupReport

__all__ = [
    "BackupEngine",
    "BackupReport",
    "CpuModel",
    "DirtyBitBackupEngine",
    "DirtyBitTracker",
    "PAPER_SIG_SECONDS_PER_BYTE",
    "EvictionManager",
    "EvictionStats",
    "FileBackupOrchestrator",
    "FileBackupReport",
]
