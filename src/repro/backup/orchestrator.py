"""Whole-file backup: every bucket of an LH* file, plus its metadata.

Section 2.1 discusses backing up *a* bucket; an operator backs up the
*file*.  The orchestrator walks every server, backs its bucket's
canonical image up through the signature-map engine (so quiet buckets
cost nothing), and stores the LH* file state -- level, split pointer,
per-bucket levels -- so :meth:`restore_file` can rebuild a working file
from disk alone: same records, same bucket placement, same addressing
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BackupError
from ..obs import get_registry
from ..sdds.bucket import Bucket
from ..sdds.file import LHFile
from ..sdds.image import serialize_bucket
from .engine import BackupEngine, BackupReport

#: Volume name of the metadata blob for a file label.
_META_SUFFIX = ".meta"


@dataclass(frozen=True, slots=True)
class FileBackupReport:
    """Outcome of one whole-file backup pass."""

    label: str
    bucket_reports: tuple[BackupReport, ...]

    @property
    def pages_written(self) -> int:
        """Pages written across all buckets (0 for a quiet file)."""
        return sum(report.pages_written for report in self.bucket_reports)

    @property
    def pages_total(self) -> int:
        """Total pages across all buckets."""
        return sum(report.pages_total for report in self.bucket_reports)

    @property
    def total_seconds(self) -> float:
        """Modeled end-to-end time of the pass."""
        return sum(report.total_seconds for report in self.bucket_reports)


class FileBackupOrchestrator:
    """Backs up and restores entire LH* files through one engine."""

    def __init__(self, engine: BackupEngine):
        self.engine = engine

    # ------------------------------------------------------------------
    # Backup
    # ------------------------------------------------------------------

    def backup_file(self, file: LHFile, label: str) -> FileBackupReport:
        """Back up every bucket and the file metadata under ``label``."""
        reports = []
        for server in file.servers:
            image = serialize_bucket(server.bucket)
            reports.append(
                self.engine.backup(self._bucket_volume(label, server.server_id),
                                   image)
            )
        metadata = self._encode_metadata(file)
        self.engine.backup(label + _META_SUFFIX, metadata)
        registry = get_registry()
        registry.counter("backup.file_passes").inc()
        registry.gauge("backup.file_buckets").set(len(reports))
        return FileBackupReport(label, tuple(reports))

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def restore_file(self, label: str, capacity_records: int = 256,
                     **file_kwargs) -> LHFile:
        """Rebuild a working LH* file from the ``label`` backup.

        The restored file has the same bucket count, the same per-bucket
        record placement, and the same (level, pointer) state, so client
        addressing behaves identically to the original.
        """
        metadata = self.engine.restore(label + _META_SUFFIX)
        level, pointer, bucket_count, bucket_levels = \
            self._decode_metadata(metadata)
        file = LHFile(self.engine.scheme, capacity_records=capacity_records,
                      **file_kwargs)
        # Grow the server list without rehashing: restore places records
        # exactly where the original file held them.
        while len(file.servers) < bucket_count:
            file.servers.append(file._new_server(len(file.servers)))
        file.state.level = level
        file.state.pointer = pointer
        for server in file.servers:
            image = self.engine.restore(self._bucket_volume(label,
                                                            server.server_id))
            server.adopt_bucket(Bucket.from_image(
                server.server_id, image, capacity_records=capacity_records))
            server.bucket.level = bucket_levels[server.server_id]
        file.check_placement()
        return file

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _bucket_volume(label: str, bucket_id: int) -> str:
        return f"{label}.bucket{bucket_id}"

    @staticmethod
    def _encode_metadata(file: LHFile) -> bytes:
        parts = [
            file.state.level.to_bytes(4, "little"),
            file.state.pointer.to_bytes(4, "little"),
            len(file.servers).to_bytes(4, "little"),
        ]
        parts += [
            server.bucket.level.to_bytes(4, "little")
            for server in file.servers
        ]
        return b"".join(parts)

    @staticmethod
    def _decode_metadata(data: bytes) -> tuple[int, int, int, list[int]]:
        if len(data) < 12:
            raise BackupError("truncated file-backup metadata")
        level = int.from_bytes(data[0:4], "little")
        pointer = int.from_bytes(data[4:8], "little")
        bucket_count = int.from_bytes(data[8:12], "little")
        if len(data) < 12 + 4 * bucket_count:
            raise BackupError("truncated file-backup bucket levels")
        bucket_levels = [
            int.from_bytes(data[12 + 4 * i:16 + 4 * i], "little")
            for i in range(bucket_count)
        ]
        return level, pointer, bucket_count, bucket_levels
