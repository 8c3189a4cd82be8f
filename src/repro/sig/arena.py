"""The copies-per-byte ledger of the zero-copy signing plane.

Every hot signing path once round-tripped page content through owned
``bytes`` objects: journal entries were materialized, ``b"".join``-ed,
re-materialized by ``bytes_to_symbols``, widened to an ``int64``
matrix, and copied once more into sealed frames -- several full-buffer
materializations per payload byte.  The engine's narrow lanes instead
read any contiguous buffer (``bytes``, ``bytearray``, a ``memoryview``
slice of a larger buffer) in place as ``uint8`` / ``<u2`` symbols, so
a page costs at most one landing copy on its way to a seal.

:class:`CopyLedger` is the accounting shim that keeps that claim
measured.  Hot paths report every payload-byte materialization (joins,
slices, matrix fills, dtype widenings) to the process-wide
:data:`LEDGER`; ``python -m repro bench`` runs the journal->fold->seal
pipeline under a fresh ledger for both the legacy shapes and the
narrow-lane path and reports the measured ratio (the ``copies`` block).

This is the paper's Section 6.1 speed agenda carried past the kernels:
once the table gathers are vectorized, the signing hot path is
memory-bound, so the remaining win is moving each payload byte once.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..errors import SignatureError


# ----------------------------------------------------------------------
# Copies-per-byte accounting
# ----------------------------------------------------------------------

class CopyLedger:
    """Counts payload-byte materializations on the signing hot paths.

    A *copy* is any operation that writes page content into freshly
    allocated memory: a ``bytes`` slice, a ``b"".join``, a packed-matrix
    fill, or a dtype widening (an ``int64`` widening of ``f=8`` symbols
    moves 8 bytes per payload byte and is charged as such).  Zero-copy
    views (``memoryview`` slices, ``np.frombuffer``, reshapes) cost
    nothing.  ``copies_per_byte(payload)`` normalizes the total against
    the payload actually processed -- the metric the bench sweeps and
    CI bounds.
    """

    __slots__ = ("bytes_copied", "events", "enabled")

    def __init__(self) -> None:
        self.bytes_copied = 0
        self.events = 0
        self.enabled = False

    def count(self, nbytes: int) -> None:
        """Charge one materialization of ``nbytes`` (no-op when disabled)."""
        if self.enabled and nbytes > 0:
            self.bytes_copied += int(nbytes)
            self.events += 1

    def reset(self) -> None:
        """Zero the accounting (the ``enabled`` flag is left alone)."""
        self.bytes_copied = 0
        self.events = 0

    def copies_per_byte(self, payload_bytes: int) -> float:
        """Bytes materialized per payload byte processed."""
        if payload_bytes <= 0:
            raise SignatureError("payload size must be positive")
        return self.bytes_copied / payload_bytes

    @contextmanager
    def counting(self):
        """Enable and zero the ledger for the duration of a block."""
        previous = self.enabled
        self.reset()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = previous


#: The process-wide ledger the instrumented hot paths report to.  It is
#: disabled by default -- ``count`` is then a single attribute check --
#: and enabled only inside ``LEDGER.counting()`` blocks (bench, tests).
LEDGER = CopyLedger()
