"""RAM-pressure bucket eviction to disk (Section 6.2, [LSS02]).

"We can apply our scheme to the automatic eviction of SDDS files when
several files share an SDDS server whose RAM became insufficient for
all the files simultaneously."

:class:`EvictionManager` keeps a set of buckets under a RAM budget.
When the budget is exceeded, least-recently-used buckets are *evicted*:
their canonical slot image (:func:`repro.sdds.image.serialize_bucket`)
goes to disk through the signature-map backup engine -- so re-evicting
a bucket whose content barely changed since its last eviction writes
only the changed pages -- and the RAM copy is dropped.  Accessing an
evicted bucket restores it from disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BackupError
from ..sdds.bucket import Bucket
from ..sdds.image import serialize_bucket
from .engine import BackupEngine


@dataclass
class EvictionStats:
    """Eviction-manager counters."""

    evictions: int = 0
    restores: int = 0
    pages_written: int = 0      #: total backup pages actually written
    pages_skipped: int = 0      #: pages the signature map proved unchanged
    extra: dict = field(default_factory=dict)


class EvictionManager:
    """LRU bucket residency under a RAM budget, evicting via signatures."""

    def __init__(self, engine: BackupEngine, ram_budget_bytes: int):
        if ram_budget_bytes <= 0:
            raise BackupError("RAM budget must be positive")
        self.engine = engine
        self.ram_budget_bytes = ram_budget_bytes
        #: bucket_id -> Bucket for resident buckets, LRU order (oldest first).
        self._resident: dict[int, Bucket] = {}
        #: ids of buckets currently on disk only.
        self._evicted: set[int] = set()
        self.stats = EvictionStats()

    # ------------------------------------------------------------------
    # Residency management
    # ------------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """RAM currently held by resident buckets (heap sizes)."""
        return sum(bucket.image_bytes for bucket in self._resident.values())

    @property
    def resident_ids(self) -> list[int]:
        """Ids of resident buckets in LRU order (oldest first)."""
        return list(self._resident)

    def add(self, bucket: Bucket) -> None:
        """Register a bucket as resident (evicts others if needed)."""
        if bucket.bucket_id in self._resident or bucket.bucket_id in self._evicted:
            raise BackupError(f"bucket {bucket.bucket_id} already managed")
        self._resident[bucket.bucket_id] = bucket
        self._enforce_budget(protect=bucket.bucket_id)

    def access(self, bucket_id: int) -> Bucket:
        """Return the bucket, restoring it from disk if evicted."""
        if bucket_id in self._resident:
            bucket = self._resident.pop(bucket_id)
            self._resident[bucket_id] = bucket  # LRU touch
            return bucket
        if bucket_id not in self._evicted:
            raise BackupError(f"bucket {bucket_id} is not managed")
        bucket = self._restore(bucket_id)
        self._resident[bucket_id] = bucket
        self._evicted.discard(bucket_id)
        self.stats.restores += 1
        self._enforce_budget(protect=bucket_id)
        return bucket

    def evict(self, bucket_id: int) -> None:
        """Explicitly evict one resident bucket to disk."""
        if bucket_id not in self._resident:
            raise BackupError(f"bucket {bucket_id} is not resident")
        bucket = self._resident.pop(bucket_id)
        report = self.engine.backup(self._volume(bucket_id),
                                    serialize_bucket(bucket))
        self.stats.evictions += 1
        self.stats.pages_written += report.pages_written
        self.stats.pages_skipped += report.pages_skipped
        self._evicted.add(bucket_id)

    def _enforce_budget(self, protect: int) -> None:
        while self.resident_bytes > self.ram_budget_bytes and len(self._resident) > 1:
            victim = next(
                (bucket_id for bucket_id in self._resident if bucket_id != protect),
                None,
            )
            if victim is None:
                break
            self.evict(victim)

    def _restore(self, bucket_id: int) -> Bucket:
        return Bucket.from_image(bucket_id,
                                 self.engine.restore(self._volume(bucket_id)))

    def _volume(self, bucket_id: int) -> str:
        return f"evicted-bucket-{bucket_id}"
