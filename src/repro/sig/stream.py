"""Append-only stream signing.

:class:`StreamSigner` maintains the signature of a growing stream (a
log, a replicated file) in O(|appended|) per append via Proposition 5
of the paper.  At any moment, :attr:`~StreamSigner.signature` equals
the from-scratch signature of everything appended so far.

The Section 4.1 update-log daemon (replay a log of ``(offset, before,
after)`` writes by Proposition 3 and compare with a rescan of the
block) is :class:`~repro.sig.incremental.WriteJournal` folded by
:meth:`~repro.sig.incremental.IncrementalSignatureMap.apply_journal`.
"""

from __future__ import annotations

from .algebra import concat
from .scheme import AlgebraicSignatureScheme
from .signature import Signature


class StreamSigner:
    """Incrementally signs an append-only symbol stream."""

    def __init__(self, scheme: AlgebraicSignatureScheme):
        self.scheme = scheme
        self._signature = scheme.zero
        self._symbols = 0

    @property
    def signature(self) -> Signature:
        """Signature of everything appended so far."""
        return self._signature

    @property
    def symbols(self) -> int:
        """Stream length in symbols."""
        return self._symbols

    def append(self, chunk) -> Signature:
        """Append a chunk; returns the updated stream signature.

        Cost is O(|chunk|) -- the already-signed prefix is never
        re-read (Proposition 5: ``sig(S|C) = sig(S) + alpha^len(S) sig(C)``).
        """
        chunk_symbols = self.scheme.to_symbols(chunk)
        chunk_sig = self.scheme.sign(chunk_symbols, strict=False)
        self._signature = concat(
            self.scheme, self._signature, self._symbols, chunk_sig
        )
        self._symbols += chunk_symbols.size
        return self._signature

