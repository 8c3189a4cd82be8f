"""The n-symbol algebraic signature scheme (Section 4).

:class:`AlgebraicSignatureScheme` bundles a field, a base, and the
signing algorithms:

* :meth:`~AlgebraicSignatureScheme.sign` -- numpy-vectorized table
  lookup, the production path;
* :meth:`~AlgebraicSignatureScheme.sign_scalar` -- a line-for-line
  transliteration of the paper's Section 5.1 C pseudo-code, kept as the
  executable specification and cross-checked against the fast path in
  the test suite.

The paper's deployed configuration is ``make_scheme(f=16, n=2)``: 4-byte
signatures over double-byte symbols, collision probability 2^-32.
"""

from __future__ import annotations

import numpy as np

from ..errors import PageTooLongError, SignatureError
from ..gf.field import GF, GField
from ..gf.vectorized import as_symbol_array, ladder_matrix, run_signature_matrix
from ..obs import registry as _obs
from .base import STANDARD, SignatureBase, make_base
from .signature import SchemeId, Signature

PageLike = "bytes | bytearray | memoryview | np.ndarray | list[int]"


class AlgebraicSignatureScheme:
    """An n-symbol algebraic signature scheme over GF(2^f).

    Parameters
    ----------
    field:
        The Galois field of page symbols.
    n:
        Signature length in symbols.  Changes of up to ``n`` symbols are
        detected with certainty (Proposition 1, ``standard`` variant).
    variant:
        ``"standard"`` for ``sig_{alpha,n}`` (consecutive powers) or
        ``"primitive"`` for ``sig'_{alpha,n}`` (all-primitive powers).
    alpha:
        Primitive base element; defaults to the field's canonical ``x``.

    Examples
    --------
    >>> scheme = make_scheme(f=16, n=2)
    >>> scheme.sign(b"hello world").hex() != scheme.sign(b"hello worle").hex()
    True
    """

    def __init__(self, field: GField, n: int = 2, variant: str = STANDARD,
                 alpha: int | None = None):
        self.field = field
        self.base: SignatureBase = make_base(field, n, variant, alpha)
        self.scheme_id = SchemeId(
            f=field.f,
            generator=field.generator,
            exponents=self.base.exponents,
            variant=variant,
        )
        self._ladders = ladder_matrix(field, self.base.betas, 0)
        self._obs_labels = {"field": f"gf{field.f}", "variant": variant}
        self._obs_epoch = -1
        self._obs_handles: dict = {}

    def _count_signed(self, symbols: int, algo: str, calls: int = 1) -> None:
        """Emit ``sig.sign_calls`` / ``sig.bytes_signed`` for signings.

        The registry is resolved once per signer and refreshed only when
        ``use_registry``/``set_registry`` switches it (epoch compare), so
        the hot path pays one attribute load and a dict probe per call --
        and batch callers amortize even that over ``calls`` pages.
        """
        if self._obs_epoch != _obs.epoch:
            self._obs_epoch = _obs.epoch
            self._obs_handles = {}
        handles = self._obs_handles.get(algo)
        if handles is None:
            registry = _obs.get_registry()
            handles = (
                registry.counter("sig.sign_calls", algo=algo,
                                 **self._obs_labels),
                registry.counter("sig.bytes_signed", algo=algo,
                                 **self._obs_labels),
            )
            self._obs_handles[algo] = handles
        handles[0].inc(calls)
        handles[1].inc(symbols * self.scheme_id.symbol_bytes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Signature length in symbols."""
        return self.base.n

    @property
    def signature_bytes(self) -> int:
        """Serialized signature size in bytes (4 for the paper's choice)."""
        return self.scheme_id.signature_bytes

    @property
    def max_page_symbols(self) -> int:
        """Largest page length (in symbols) covered by Proposition 1.

        Proposition 1 requires ``l < ord(alpha) = 2^f - 1``, i.e. at most
        ``2^f - 2`` symbols -- almost 128 KB for f = 16 (Section 4.2).
        """
        return self.field.order - 1

    @property
    def zero(self) -> Signature:
        """The signature of the empty (or all-zero) page."""
        return Signature(tuple(0 for _ in range(self.n)), self.scheme_id)

    @property
    def is_linear(self) -> bool:
        """True when ``sign`` is linear in the *raw* symbols.

        Plain schemes satisfy ``sig(P + Q) = sig(P) + sig(Q)`` over the
        page symbols themselves, which enables the fused delta path
        (sign ``before XOR after`` once).  Twisted schemes are linear
        only in the phi-image domain and override this to ``False``.
        """
        return True

    def ladders(self, length: int) -> np.ndarray:
        """The base's ``(n, >= length)`` position-exponent ladder matrix.

        Held by the scheme and regrown geometrically, so the one-body
        kernel (``sign`` and the engine's small-run lane) reads it with
        no cache lookup or lock: racing regrowths each build a complete
        matrix, and a reader keeps whichever one it fetched.
        """
        ladders = self._ladders
        if ladders.shape[1] < length:
            ladders = self._ladders = ladder_matrix(self.field,
                                                    self.base.betas, length)
        return ladders

    def to_symbols(self, page) -> np.ndarray:
        """Coerce bytes or an integer sequence to a raw symbol array."""
        return as_symbol_array(page, self.field)

    def map_symbols(self, symbols: np.ndarray) -> np.ndarray:
        """Per-symbol pre-mapping applied before signing.

        Identity for plain schemes; twisted schemes (Proposition 6)
        override this with their bijection phi.  Applied exactly once,
        inside :meth:`signable_symbols` -- never by :meth:`to_symbols`.
        """
        return symbols

    def signable_symbols(self, page) -> np.ndarray:
        """The symbol stream the scheme actually signs: coerce + map."""
        return self.map_symbols(self.to_symbols(page))

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------

    def sign(self, page, strict: bool = True) -> Signature:
        """Compute the n-symbol signature of a page.

        ``page`` may be raw bytes (reinterpreted as symbols per the field
        width) or a sequence of symbol integers.  With ``strict`` (the
        default) the page must respect the Proposition-1 length bound;
        longer data should be signed through
        :class:`repro.sig.compound.SignatureMap` instead.
        """
        symbols = self.signable_symbols(page)
        if strict and symbols.size > self.max_page_symbols:
            raise PageTooLongError(
                f"page of {symbols.size} symbols exceeds the certainty bound "
                f"{self.max_page_symbols} for GF(2^{self.field.f}); "
                "use a SignatureMap (compound signature) for longer data"
            )
        self._count_signed(symbols.size, "vector")
        return self.sign_mapped(symbols)

    def sign_mapped(self, symbols: np.ndarray) -> Signature:
        """Sign an already coerced-and-mapped symbol array.

        For callers (signature maps, window scanners) that pre-compute
        :meth:`signable_symbols` once and sign many slices of it; using
        :meth:`sign` there would re-apply a twisted scheme's bijection.
        """
        components = run_signature_matrix(
            self.field, symbols, np.array([symbols.size]),
            self.ladders(symbols.size))
        return Signature(tuple(components[0].tolist()), self.scheme_id)

    def sign_scalar(self, page, strict: bool = True) -> Signature:
        """Sign via the paper's symbol-at-a-time loop (Section 5.1).

        This is the executable specification: the inner statement is the
        pseudo-code's ``returnValue ^= antilog[i + page[i]]`` generalized
        to base coordinate ``beta_j`` (whose logarithm scales the position
        term).  Orders of magnitude slower in Python; used for testing
        and the scalar-vs-vectorized ablation.
        """
        symbols = self.signable_symbols(page)
        if strict and symbols.size > self.max_page_symbols:
            raise PageTooLongError(
                f"page of {symbols.size} symbols exceeds the certainty bound "
                f"{self.max_page_symbols} for GF(2^{self.field.f})"
            )
        self._count_signed(symbols.size, "scalar")
        field = self.field
        order = field.order
        log_table = field.log_table
        antilog = field.antilog_table
        components = []
        for exponent in self.base.exponents:
            acc = 0
            for i, symbol in enumerate(symbols):
                if symbol:
                    acc ^= int(antilog[(exponent * i + int(log_table[symbol])) % order])
            components.append(acc)
        return Signature(tuple(components), self.scheme_id)

    def component(self, page, index: int) -> int:
        """The single component signature ``sig_{beta_index}(page)``."""
        if not 0 <= index < self.n:
            raise SignatureError(f"component index {index} out of range 0..{self.n - 1}")
        return self.sign(page).components[index]

    def differs(self, before, after) -> bool:
        """True iff the two byte strings have different signatures.

        Equal signatures mean "same content" with collision probability
        2^-nf (Proposition 2); on pages within the length bound, any
        difference of <= n symbols is detected with certainty.
        """
        return self.sign(before) != self.sign(after)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"AlgebraicSignatureScheme(GF(2^{self.field.f}), n={self.n}, "
            f"variant={self.base.variant!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraicSignatureScheme):
            return NotImplemented
        return self.scheme_id == other.scheme_id

    def __hash__(self) -> int:
        return hash(self.scheme_id)


def make_scheme(f: int = 16, n: int = 2, variant: str = STANDARD,
                alpha: int | None = None, generator: int | None = None) -> AlgebraicSignatureScheme:
    """Build a signature scheme from first principles.

    ``make_scheme()`` with no arguments yields the paper's production
    configuration: ``sig_{alpha,2}`` over GF(2^16) -- a 4-byte signature.
    """
    return AlgebraicSignatureScheme(GF(f, generator), n, variant, alpha)
