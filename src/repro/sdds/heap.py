"""Byte-addressed record heap: the RAM image of an SDDS bucket.

SDDS-2000 manipulates each bucket "as a mapped file" (Section 5.2): a
contiguous RAM area holding the records, which the backup engine slices
into pages and signs.  :class:`RecordHeap` reproduces that: a growable
bytearray with a first-fit free list, write notifications (so the
dirty-bit baseline can observe exactly the traditional information), and
a stable byte image for the signature calculus.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable

from ..errors import SDDSError

WriteListener = Callable[[int, int], None]
CaptureListener = Callable[[int, bytes, bytes], None]


class RecordHeap:
    """A growable byte arena with allocate/free/write primitives."""

    def __init__(self, initial_bytes: int = 1 << 16):
        if initial_bytes <= 0:
            raise SDDSError("heap size must be positive")
        self._arena = bytearray(initial_bytes)
        #: Sorted list of (offset, length) free extents.
        self._free: list[tuple[int, int]] = [(0, initial_bytes)]
        self._listeners: list[WriteListener] = []
        #: (listener, alignment) pairs fed before/after region content.
        self._capture_listeners: list[tuple[CaptureListener, int]] = []
        self.allocated_bytes = 0

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current arena size in bytes."""
        return len(self._arena)

    @property
    def high_water(self) -> int:
        """End of the last allocated byte: the free extent reaching the
        arena's end, if any, starts here."""
        if self._free and sum(self._free[-1]) == len(self._arena):
            return self._free[-1][0]
        return len(self._arena)

    @property
    def image(self) -> memoryview:
        """Read-only view of the whole arena (the backup engine's input)."""
        return memoryview(self._arena).toreadonly()

    def add_write_listener(self, listener: WriteListener) -> None:
        """Register a callback invoked as ``listener(offset, length)`` on writes.

        This is the hook the dirty-bit baseline uses; the paper's point
        is that *retrofitting* such hooks into an existing code base was
        impractical, whereas signatures need no hooks at all.
        """
        self._listeners.append(listener)

    def add_capture_listener(self, listener: CaptureListener,
                             align: int = 1) -> None:
        """Register ``listener(offset, before, after)`` content capture.

        This is the hook the *incremental* signature plane uses: unlike
        plain write listeners it receives the region's old and new
        bytes, expanded to ``align``-byte (symbol) boundaries using the
        actual arena content -- which keeps mid-symbol writes exact for
        twisted schemes.  Capture costs one extra slice copy per write,
        paid only when a journal is attached.
        """
        if align <= 0:
            raise SDDSError("capture alignment must be positive")
        self._capture_listeners.append((listener, align))

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, nbytes: int) -> int:
        """Reserve ``nbytes`` and return its offset (first fit, grow on demand)."""
        if nbytes <= 0:
            raise SDDSError("allocation size must be positive")
        for index, (offset, length) in enumerate(self._free):
            if length >= nbytes:
                if length == nbytes:
                    self._free.pop(index)
                else:
                    self._free[index] = (offset + nbytes, length - nbytes)
                self.allocated_bytes += nbytes
                return offset
        self._grow(nbytes)
        return self.allocate(nbytes)

    def free(self, offset: int, nbytes: int) -> None:
        """Release an extent (coalescing with free neighbours).

        The released bytes are zeroed so the bucket image is a function
        of the live records only -- freed garbage would otherwise leak
        into page signatures and defeat backup-change detection.
        """
        self._check_extent(offset, nbytes)
        self._write_raw(offset, bytes(nbytes))
        insort(self._free, (offset, nbytes))
        self._coalesce()
        self.allocated_bytes -= nbytes

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, notifying listeners."""
        self._check_extent(offset, len(data))
        self._write_raw(offset, data)

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at ``offset``."""
        self._check_extent(offset, nbytes)
        return bytes(self._arena[offset:offset + nbytes])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _write_raw(self, offset: int, data: bytes) -> None:
        captures = None
        if self._capture_listeners and data:
            captures = []
            for listener, align in self._capture_listeners:
                lo = (offset // align) * align
                hi = min(-(-(offset + len(data)) // align) * align,
                         len(self._arena))
                captures.append((listener, lo, bytes(self._arena[lo:hi])))
        self._arena[offset:offset + len(data)] = data
        for listener in self._listeners:
            listener(offset, len(data))
        if captures:
            for listener, lo, before in captures:
                listener(lo, before, bytes(self._arena[lo:lo + len(before)]))

    def _check_extent(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > len(self._arena):
            raise SDDSError(
                f"extent ({offset}, {nbytes}) outside heap of {len(self._arena)} bytes"
            )

    def _grow(self, need: int) -> None:
        old_size = len(self._arena)
        # Rounded up to an 8-byte multiple so the arena end always sits
        # on a symbol boundary for any supported field width -- capture
        # listeners expand regions to symbol extents and must never be
        # clipped mid-symbol by the arena edge.
        new_size = -(-max(old_size * 2, old_size + need) // 8) * 8
        self._arena.extend(bytes(new_size - old_size))
        insort(self._free, (old_size, new_size - old_size))
        self._coalesce()

    def _coalesce(self) -> None:
        merged: list[tuple[int, int]] = []
        for offset, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == offset:
                last_offset, last_length = merged[-1]
                merged[-1] = (last_offset, last_length + length)
            else:
                merged.append((offset, length))
        self._free = merged

    def check_invariants(self) -> None:
        """Free-list sanity: sorted, disjoint, inside the arena (for tests)."""
        previous_end = -1
        for offset, length in self._free:
            if length <= 0 or offset < 0 or offset + length > len(self._arena):
                raise SDDSError("free extent outside arena")
            if offset <= previous_end:
                raise SDDSError("overlapping or uncoalesced free extents")
            previous_end = offset + length
        free_total = sum(length for _offset, length in self._free)
        if free_total + self.allocated_bytes != len(self._arena):
            raise SDDSError("free + allocated bytes do not cover the arena")
