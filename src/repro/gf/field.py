"""Galois fields GF(2^f) with log/antilog table arithmetic.

This module implements the fields of Section 3 of the paper.  Field
elements are the integers ``0 .. 2^f - 1``, read as binary polynomials
(bit ``i`` = coefficient of ``x^i``).  Addition is XOR; multiplication is
polynomial multiplication modulo a *primitive* generator polynomial.

Multiplication uses the paper's log/antilog scheme (Section 4.1):

* one logarithm table of ``2^f`` entries, and
* one *doubled* antilogarithm table of ``2 * (2^f - 1)`` entries holding
  two consecutive copies of the basic antilog table, so that
  ``antilog[log a + log b]`` never needs the modulo reduction.

The vectorized kernels read *zero-sentinel* variants of both tables:
``sentinel_log[0]`` is ``2 * (2^f - 1)``, which indexes a run of
``2^f - 1`` zeros appended to the doubled antilog, so a zero symbol
gathers 0 by construction -- no mask, no branch.

Because the generator polynomial is primitive, the polynomial ``x``
(encoded as the integer ``2``) is a primitive element and serves as the
logarithm base, exactly as in the paper's C pseudo-code.

Tables are numpy arrays so the bulk signature kernels in
:mod:`repro.gf.vectorized` can reuse them directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from ..errors import GaloisFieldError, NotInvertibleError
from .primitives import default_polynomial, validate_generator


class GField:
    """The finite field GF(2^f) for 2 <= f <= 16.

    Parameters
    ----------
    f:
        Symbol width in bits.  The paper uses ``f = 8`` (byte symbols)
        and ``f = 16`` (double-byte symbols); we support the whole range
        2..16 so collision experiments can run exhaustively in tiny
        fields such as GF(2^4).
    generator:
        Optional primitive generator polynomial (as an integer).  The
        catalogue default is used when omitted.

    Examples
    --------
    >>> gf = GField(8)
    >>> gf.mul(0x53, 0xCA)  # doctest: +SKIP
    >>> gf.mul(3, gf.inv(3))
    1
    """

    __slots__ = (
        "f", "size", "order", "generator",
        "log_table", "antilog_table", "sentinel_log", "sentinel_antilog",
        "log0_sentinel",
    )

    def __init__(self, f: int, generator: int | None = None):
        if not 2 <= f <= 16:
            raise GaloisFieldError(f"supported symbol widths are 2..16 bits, got {f}")
        self.f = f
        #: Number of field elements, 2^f.
        self.size = 1 << f
        #: Order of the multiplicative group, 2^f - 1.
        self.order = self.size - 1
        if generator is None:
            generator = default_polynomial(f)
        self.generator = validate_generator(f, generator)
        #: Sentinel used by the twisted scheme for log(0) (Section 5.1).
        self.log0_sentinel = self.order
        self._build_tables()

    def _build_tables(self) -> None:
        """Build exp/log tables by iterating powers of the element ``x``."""
        order = self.order
        antilog = np.zeros(order, dtype=np.uint32)
        log = np.zeros(self.size, dtype=np.int64)
        value = 1
        reduce_mask = self.generator & (self.size - 1)  # generator minus its top bit
        for i in range(order):
            antilog[i] = value
            log[value] = i
            # Multiply by x: shift left, reduce by the generator if overflow.
            value <<= 1
            if value & self.size:
                value = (value & (self.size - 1)) ^ reduce_mask
        if value != 1:
            raise GaloisFieldError(
                "generator polynomial is not primitive (x failed to cycle)"
            )
        log[0] = -1  # read only by the scalar spec (sign_scalar) and the
        # zero-checked scalar ops below; kernels use sentinel_log
        self.log_table = log
        self.antilog_table = antilog
        # Narrow kernel tables: log(0) -> 2*order indexes the zero run
        # after the doubled antilog (indices up to 2*(order-1) need no
        # modulo), so zero symbols gather 0 without a mask.
        self.sentinel_log = log.astype(np.int32)
        self.sentinel_log[0] = 2 * order
        self.sentinel_antilog = np.concatenate(
            [antilog, antilog, np.zeros(order, dtype=antilog.dtype)]
        ).astype(np.uint8 if self.f <= 8 else np.uint16)

    # ------------------------------------------------------------------
    # Scalar arithmetic
    # ------------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition (bitwise XOR; identical to subtraction)."""
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via the doubled antilog table.

        Transliterates the paper's ``GFElement mult(left, right)``
        pseudo-code: two zero checks, one addition of logarithms, one
        table fetch without a modulo.
        """
        if a == 0 or b == 0:
            return 0
        return int(self.sentinel_antilog[int(self.log_table[a]) + int(self.log_table[b])])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if a == 0:
            raise NotInvertibleError("zero has no multiplicative inverse")
        return int(self.antilog_table[(self.order - int(self.log_table[a])) % self.order])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises on division by zero."""
        if b == 0:
            raise NotInvertibleError("division by zero in GF")
        if a == 0:
            return 0
        diff = int(self.log_table[a]) - int(self.log_table[b])
        return int(self.antilog_table[diff % self.order])

    def pow(self, a: int, exponent: int) -> int:
        """Raise ``a`` to any integer power (negative powers via inverse)."""
        if a == 0:
            if exponent > 0:
                return 0
            if exponent == 0:
                return 1
            raise NotInvertibleError("0 raised to a negative power")
        log_a = int(self.log_table[a])
        return int(self.antilog_table[(log_a * exponent) % self.order])

    def log(self, a: int) -> int:
        """Discrete logarithm of ``a`` to base ``x``; raises on zero."""
        if a == 0:
            raise GaloisFieldError("log(0) is undefined")
        return int(self.log_table[a])

    def antilog(self, i: int) -> int:
        """Return ``x^i`` for any integer ``i`` (reduced mod 2^f - 1)."""
        return int(self.antilog_table[i % self.order])

    def alpha_power(self, i: int) -> int:
        """Alias of :meth:`antilog`: the i-th power of the canonical primitive α."""
        return self.antilog(i)

    @property
    def alpha(self) -> int:
        """The canonical primitive element: the polynomial ``x``, encoded ``2``."""
        return 2

    # ------------------------------------------------------------------
    # Element structure
    # ------------------------------------------------------------------

    def element_order(self, a: int) -> int:
        """Multiplicative order of ``a`` (smallest i > 0 with ``a^i == 1``)."""
        if a == 0:
            raise GaloisFieldError("0 has no multiplicative order")
        # ord(a) = group order / gcd(log a, group order).
        import math

        return self.order // math.gcd(int(self.log_table[a]), self.order)

    def is_primitive_element(self, a: int) -> bool:
        """True if ``a`` generates the whole multiplicative group."""
        return a != 0 and self.element_order(a) == self.order

    def primitive_elements(self) -> Iterator[int]:
        """Yield every primitive element, in increasing order.

        For f = 8 the paper counts 128 of them ("127 primitive elements or
        roughly half" in the text; the exact count is φ(255) = 128).
        """
        import math

        for exponent in range(1, self.order):
            if math.gcd(exponent, self.order) == 1:
                yield int(self.antilog_table[exponent])

    def elements(self) -> range:
        """All field elements as a range of their integer encodings."""
        return range(self.size)

    def validate(self, a: int) -> int:
        """Check that ``a`` encodes a field element, returning it unchanged."""
        if not 0 <= a < self.size:
            raise GaloisFieldError(f"{a} is not an element of GF(2^{self.f})")
        return a

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"GField(2^{self.f}, generator={self.generator:#x})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GField):
            return NotImplemented
        return self.f == other.f and self.generator == other.generator

    def __hash__(self) -> int:
        return hash((self.f, self.generator))


@lru_cache(maxsize=None)
def GF(f: int, generator: int | None = None) -> GField:
    """Return a cached :class:`GField` instance for GF(2^f).

    Fields are immutable, so sharing one instance per ``(f, generator)``
    pair avoids rebuilding the tables (the GF(2^16) tables are 0.5 MB).
    """
    return GField(f, generator)
