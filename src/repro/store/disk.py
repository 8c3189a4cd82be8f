"""A durable drop-in for the simulated backup disk.

:class:`DurableDisk` speaks the exact interface of
:class:`~repro.sim.disk.SimDisk` -- ``write_page`` / ``read_page`` /
``has_page`` / ``volume_pages`` / ``read_volume`` / ``corrupt_page``
plus the shared clock, latency model and transfer stats -- but every
page write lands in a :class:`~repro.store.pagestore.PageStore`'s
sealed log instead of an in-RAM dict.  The backup engine and the
scheduler run unchanged on either backend; pointing them at a
``DurableDisk`` makes the backup store crash-recoverable with
certified replay.

``corrupt_page`` keeps its fault-injection role, but models *silent*
rot of the materialized image ("irrecoverable disk errors",
Section 2.1): the bytes change while the warm (certified) signature
state does not, so a subsequent
:meth:`~repro.store.pagestore.PageStore.scrub` localizes and condemns
exactly the rotted page against its certified signature
(Proposition 5).
"""

from __future__ import annotations

from ..errors import BackupError, StoreError
from ..obs import HandleCache, MetricsRegistry
from ..sim.clock import SimClock
from ..sim.disk import DiskModel
from ..sim.stats import DiskStats
from .pagestore import PageStore


class DurableDisk:
    """SimDisk-compatible facade over a durable :class:`PageStore`."""

    def __init__(self, store: PageStore, clock: SimClock | None = None,
                 model: DiskModel | None = None,
                 registry: MetricsRegistry | None = None):
        self.store = store
        self.clock = clock if clock is not None else SimClock()
        self.model = model if model is not None else DiskModel()
        self.stats = DiskStats()
        #: Pinned metrics registry; None follows the process-wide one.
        self.registry = registry
        self._obs_handles = HandleCache()

    def _obs(self) -> tuple:
        """Cached ``disk.*`` counter handles on the active registry."""
        return self._obs_handles.get(self._bind)

    def _bind(self, active: MetricsRegistry) -> tuple:
        registry = self.registry if self.registry is not None else active
        return tuple(registry.counter(name, backend="durable")
                     for name in ("disk.writes", "disk.bytes_written",
                                  "disk.reads", "disk.bytes_read"))

    # ------------------------------------------------------------------
    # SimDisk interface
    # ------------------------------------------------------------------

    def write_page(self, volume: str, index: int, data: bytes,
                   page_size: int) -> float:
        """Durably write one page; returns the modeled elapsed seconds."""
        if len(data) > page_size:
            raise BackupError(
                f"page data of {len(data)} bytes exceeds page size {page_size}"
            )
        try:
            self.store.write_page(volume, index, data, page_size)
        except StoreError as error:
            raise BackupError(str(error)) from error
        elapsed = self.model.write_time(len(data))
        self.clock.advance(elapsed)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        writes, bytes_written, _reads, _bytes_read = self._obs()
        writes.inc()
        bytes_written.inc(len(data))
        return elapsed

    def read_page(self, volume: str, index: int) -> bytes:
        """Read one page back; raises if it was never written."""
        try:
            data = self.store.read_page(volume, index)
        except StoreError as error:
            raise BackupError(str(error)) from error
        self.clock.advance(self.model.read_time(len(data)))
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        _writes, _bytes_written, reads, bytes_read = self._obs()
        reads.inc()
        bytes_read.inc(len(data))
        return data

    def has_page(self, volume: str, index: int) -> bool:
        """True if the page exists in the store."""
        return self.store.has_page(volume, index)

    def volume_pages(self, volume: str) -> list[int]:
        """Sorted page indices present for a volume."""
        return self.store.volume_pages(volume)

    def read_volume(self, volume: str) -> bytes:
        """Concatenate all pages of a volume in index order."""
        return b"".join(self.read_page(volume, index)
                        for index in self.volume_pages(volume))

    def corrupt_page(self, volume: str, index: int, position: int = 0,
                     xor: int = 0xFF) -> None:
        """Silently rot one materialized byte (fault injection).

        The warm signature state is deliberately left untouched: the
        certified signatures now disagree with the bytes, which is what
        a :meth:`~repro.store.pagestore.PageStore.scrub` detects.
        """
        replica = self.store.replica(volume)
        at = index * replica.page_bytes + position
        if not 0 <= index < replica.page_count or at >= len(replica.data):
            raise BackupError(
                f"page {index} of volume {volume!r} was never written"
            )
        replica.data[at] ^= xor
