"""Simulated disk for SDDS bucket backup (Section 2.1).

The paper contrasts the signature calculus (20-30 ms/MB) against the
RAM-to-disk transfer (about 300 ms/MB): skipping unchanged pages is
worthwhile precisely because writes dominate.  The simulated disk stores
page images in memory (optionally mirrored to a real file), charges the
modeled write time on the shared clock, and counts pages/bytes written --
the quantities E5 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..errors import BackupError
from ..obs import HandleCache, MetricsRegistry
from .clock import SimClock
from .stats import DiskStats

#: The paper's RAM-to-disk transfer rate: about 300 ms per MB.
PAPER_SECONDS_PER_BYTE = 0.300 / (1 << 20)


@dataclass(frozen=True, slots=True)
class DiskModel:
    """Cost model for disk I/O."""

    seek_time: float = 5e-3                      #: per-operation seek (s)
    seconds_per_byte: float = PAPER_SECONDS_PER_BYTE

    def write_time(self, nbytes: int) -> float:
        """Seconds to write ``nbytes``."""
        return self.seek_time + nbytes * self.seconds_per_byte

    def read_time(self, nbytes: int) -> float:
        """Seconds to read ``nbytes``."""
        return self.seek_time + nbytes * self.seconds_per_byte


class SimDisk:
    """A page-addressed simulated disk with cost accounting.

    Pages are stored under ``(volume, index)`` keys so several buckets
    can back up to the same disk.  If ``backing_dir`` is given, pages are
    also persisted to real files (one per volume) so restores survive the
    process -- the closest equivalent of SDDS-2000's disk backup files.
    """

    def __init__(self, clock: SimClock | None = None,
                 model: DiskModel | None = None,
                 backing_dir: str | Path | None = None,
                 registry: MetricsRegistry | None = None):
        self.clock = clock if clock is not None else SimClock()
        self.model = model if model is not None else DiskModel()
        self.stats = DiskStats()
        #: Pinned metrics registry; None follows the process-wide one.
        self.registry = registry
        self._obs_handles = HandleCache()
        self._pages: dict[tuple[str, int], bytes] = {}
        self._page_sizes: dict[str, int] = {}
        self.backing_dir = Path(backing_dir) if backing_dir is not None else None
        if self.backing_dir is not None:
            self.backing_dir.mkdir(parents=True, exist_ok=True)

    def write_page(self, volume: str, index: int, data: bytes, page_size: int) -> float:
        """Write one page; returns the modeled elapsed seconds."""
        if len(data) > page_size:
            raise BackupError(
                f"page data of {len(data)} bytes exceeds page size {page_size}"
            )
        known = self._page_sizes.setdefault(volume, page_size)
        if known != page_size:
            raise BackupError(
                f"volume {volume!r} uses {known}-byte pages, not {page_size}"
            )
        elapsed = self.model.write_time(len(data))
        self.clock.advance(elapsed)
        self._pages[(volume, index)] = bytes(data)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        writes, bytes_written, _reads, _bytes_read = self._obs()
        writes.inc()
        bytes_written.inc(len(data))
        if self.backing_dir is not None:
            self._persist_page(volume, index, data, page_size)
        return elapsed

    def read_page(self, volume: str, index: int) -> bytes:
        """Read one page back; raises if it was never written."""
        key = (volume, index)
        if key not in self._pages:
            raise BackupError(f"page {index} of volume {volume!r} was never written")
        data = self._pages[key]
        self.clock.advance(self.model.read_time(len(data)))
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        _writes, _bytes_written, reads, bytes_read = self._obs()
        reads.inc()
        bytes_read.inc(len(data))
        return data

    def _obs(self) -> tuple:
        """Cached ``disk.*`` counter handles on the active registry."""
        return self._obs_handles.get(self._bind)

    def _bind(self, active: MetricsRegistry) -> tuple:
        registry = self.registry if self.registry is not None else active
        return (registry.counter("disk.writes"),
                registry.counter("disk.bytes_written"),
                registry.counter("disk.reads"),
                registry.counter("disk.bytes_read"))

    def has_page(self, volume: str, index: int) -> bool:
        """True if the page exists on disk."""
        return (volume, index) in self._pages

    def volume_pages(self, volume: str) -> list[int]:
        """Sorted page indices present for a volume."""
        return sorted(index for vol, index in self._pages if vol == volume)

    def read_volume(self, volume: str) -> bytes:
        """Concatenate all pages of a volume in index order."""
        return b"".join(self.read_page(volume, i) for i in self.volume_pages(volume))

    def corrupt_page(self, volume: str, index: int, position: int = 0,
                     xor: int = 0xFF) -> None:
        """Flip bits in a stored page (fault injection for scrub tests).

        Models the silent media errors Section 2.1 ranks signature
        collisions against ("irrecoverable disk errors (e.g. writes to
        an adjacent track)").
        """
        key = (volume, index)
        if key not in self._pages:
            raise BackupError(f"page {index} of volume {volume!r} was never written")
        page = bytearray(self._pages[key])
        page[position] ^= xor
        self._pages[key] = bytes(page)

    def _persist_page(self, volume: str, index: int, data: bytes, page_size: int) -> None:
        path = self.backing_dir / f"{volume}.img"
        if not path.exists():
            path.touch()
        with open(path, "r+b") as handle:
            handle.seek(index * page_size)
            handle.write(data.ljust(page_size, b"\x00"))
