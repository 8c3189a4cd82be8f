"""Corruption localization by group-testing compound signatures.

Scrub and anti-entropy historically localize damage with one signature
per page (the Section 2.1/4.2 compound map) or by walking the signature
tree -- state and traffic that grow linearly with the volume even when
only a handful of pages are damaged.  Idalino et al., "Locating
modifications in signed data for partial data integrity" (PAPERS.md),
shows that *cover-free-family* (group-testing) designs locate up to
``d`` modified blocks from far fewer aggregate signatures, and the
source paper's Propositions 3/5 make those aggregates one-pass
computable here: a test group's compound signature is the XOR of its
member pages' signatures, each shifted to the page's global symbol
offset -- for a plain (linear) scheme this is exactly the algebraic
signature of the volume restricted to the group's pages (zeros
elsewhere).

Three pieces:

* :class:`LocateDesign` -- a deterministic, seed-reproducible
  ``d``-cover-free family over page indices, built from the
  Kautz-Singleton polynomial construction: pages map (through a
  seed-derived affine permutation) to degree ``< k`` polynomials over
  the prime field ``F_q``, and test group ``(x, y)`` holds every page
  whose polynomial passes through that point.  Any page shares at most
  ``k - 1`` of its ``q`` groups with any other page, so with
  ``q >= d*(k-1) + 1`` every clean page survives in a passing group no
  matter which ``<= d`` pages are damaged.  ``q^2`` groups cover
  ``q^k`` pages: O(d^2 log^2 N) aggregate signatures, against N for the
  per-page map.  Tiny volumes where the construction cannot win fall
  back to an ``identity`` design (one group per page).
* :class:`LocatorMap` -- one Proposition-5 compound signature per test
  group, computed from a per-page :class:`~repro.sig.compound.
  SignatureMap` in one vectorized shift-and-fold pass
  (:func:`~repro.gf.vectorized.shift_rows` +
  :func:`~repro.gf.vectorized.fold_rows_by_group`) and maintained
  incrementally in O(|delta| * q) via the same per-page net deltas the
  warm signature tree consumes.
* :func:`decode` -- non-adaptive group-testing decoding: a page is
  condemned when *every* group containing it fails.  The verdict is a
  :class:`CondemnedSet` that certifies the located pages, and degrades
  to an explicit :data:`OVERFLOW` (never a silent wrong answer) when
  more than ``d`` pages differ, when the failing groups are not
  explained exactly by the candidate set, or when the two sides'
  lengths drifted.

Probabilistic caveat (inherent, shared with the signature tree): a
group aggregate covers many pages, so *two or more* damaged pages in
one group can cancel there with probability ``2^-nf`` per group --
``2^-32`` for the paper's GF(2^16)/n=2 scheme.  A single damaged page
in a group is detected with certainty (its page-signature delta is
scaled by an invertible shift factor).  The consistency checks in
:func:`decode` surface almost all cancellation events as ``OVERFLOW``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SignatureError
from ..gf.vectorized import fold_rows_by_group, shift_rows
from ..obs import get_registry
from .compound import SignatureMap
from .scheme import AlgebraicSignatureScheme
from .signature import Signature

#: Default damage budget: the d of the d-cover-free family.
DEFAULT_D = 4

#: Decode verdicts.
CLEAN = "clean"
LOCATED = "located"
OVERFLOW = "overflow"

_KS = "ks"
_IDENTITY = "identity"


def _is_prime(candidate: int) -> bool:
    if candidate < 2:
        return False
    if candidate % 2 == 0:
        return candidate == 2
    check = 3
    while check * check <= candidate:
        if candidate % check == 0:
            return False
        check += 2
    return True


def _next_prime(candidate: int) -> int:
    while not _is_prime(candidate):
        candidate += 1
    return candidate


def _splitmix64(value: int) -> int:
    """One SplitMix64 step: the seed-scrambling primitive."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


@dataclass(frozen=True, slots=True)
class LocateDesign:
    """A deterministic d-cover-free test-group design over page indices.

    ``kind="ks"`` is the Kautz-Singleton construction (see the module
    docstring); ``kind="identity"`` degenerates to one singleton group
    per page (the per-page map itself) for volumes too small for the
    polynomial design to save anything.  Two designs built with the
    same ``(page_capacity, d, seed)`` are equal, so peers can derive
    the shared design from parameters instead of shipping it.
    """

    kind: str                 #: "ks" or "identity"
    page_capacity: int        #: covers page indices [0, page_capacity)
    d: int                    #: damage budget the decode certifies up to
    q: int                    #: prime: tests per column == columns (ks)
    k: int                    #: codeword degree bound (ks)
    seed: int
    a: int                    #: seed-derived affine codeword permutation
    b: int

    @classmethod
    def build(cls, page_capacity: int, d: int = DEFAULT_D,
              seed: int = 0) -> "LocateDesign":
        """The cheapest design certifying ``d`` damaged pages.

        Searches the Kautz-Singleton parameter space (``q`` prime,
        ``q >= d*(k-1) + 1``, ``q^k >= page_capacity``) for the fewest
        groups; when no candidate beats one-group-per-page the identity
        design is returned instead.
        """
        if page_capacity < 0:
            raise SignatureError("page capacity must be non-negative")
        if d < 1:
            raise SignatureError("the damage budget d must be at least 1")
        capacity = max(1, page_capacity)
        best: tuple[int, int, int] | None = None   # (groups, k, q)
        for k in range(2, max(3, capacity.bit_length() + 1)):
            # Smallest prime q covering capacity with k base-q digits
            # while keeping the d-cover-free slack q >= d*(k-1) + 1.
            q = 2
            while q ** k < capacity:
                q += 1
            q = _next_prime(max(q, d * (k - 1) + 1))
            groups = q * q
            if best is None or groups < best[0]:
                best = (groups, k, q)
            if q == _next_prime(d * (k - 1) + 1) and q ** k >= capacity:
                # Larger k only raises the q floor from here on.
                break
        if best is None or best[0] >= capacity:
            return cls(_IDENTITY, page_capacity, d, 0, 0, seed, 1, 0)
        _groups, k, q = best
        modulus = q ** k
        mix = _splitmix64(seed)
        a = 1 + mix % (modulus - 1) if modulus > 1 else 1
        while np.gcd(a, modulus) != 1:
            a += 1
        b = _splitmix64(mix) % modulus
        return cls(_KS, page_capacity, d, q, k, seed, a, b)

    @property
    def group_count(self) -> int:
        """Number of test groups (aggregate signatures stored)."""
        if self.kind == _IDENTITY:
            return max(1, self.page_capacity)
        return self.q * self.q

    @property
    def columns(self) -> int:
        """Independent group families; each page joins one group per column."""
        return 1 if self.kind == _IDENTITY else self.q

    @property
    def modulus(self) -> int:
        """Codeword space size ``q^k`` (ks designs)."""
        return self.q ** self.k if self.kind == _KS else max(1, self.page_capacity)

    def _codewords(self, pages: np.ndarray) -> np.ndarray:
        """Seed-permuted codeword index of each page."""
        return (self.a * pages.astype(np.int64) + self.b) % self.modulus

    def column_values(self, x: int, pages: np.ndarray) -> np.ndarray:
        """Within-column group index of each page for column ``x``.

        For ks designs this evaluates the page's codeword polynomial at
        ``x`` over ``F_q`` (Horner, vectorized); the identity design has
        a single column where every page is its own group.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if self.kind == _IDENTITY:
            return pages
        if not 0 <= x < self.q:
            raise SignatureError(f"column {x} outside the design's {self.q}")
        codes = self._codewords(pages)
        values = np.zeros(pages.shape, dtype=np.int64)
        for j in range(self.k - 1, -1, -1):
            digit = (codes // self.q ** j) % self.q
            values = (values * x + digit) % self.q
        return values

    def memberships(self, pages: np.ndarray) -> np.ndarray:
        """Global group ids per page: shape ``(len(pages), columns)``."""
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size and (int(pages.min()) < 0
                           or int(pages.max()) >= max(1, self.page_capacity)):
            raise SignatureError("page index outside the design's capacity")
        if self.kind == _IDENTITY:
            return pages.reshape(-1, 1)
        out = np.empty((pages.size, self.q), dtype=np.int64)
        for x in range(self.q):
            out[:, x] = x * self.q + self.column_values(x, pages)
        return out

    def describe(self) -> dict:
        """JSON-able design parameters (CLI and bench documents)."""
        return {
            "kind": self.kind,
            "page_capacity": self.page_capacity,
            "d": self.d,
            "q": self.q,
            "k": self.k,
            "seed": self.seed,
            "groups": self.group_count,
        }


class LocatorMap:
    """One Proposition-5 compound signature per test group.

    Group ``g``'s aggregate is ``XOR_{p in g} beta^{p * page_symbols}
    * sig(page_p)`` -- the signature calculus' shift of each member
    page's signature to its global symbol offset, folded by field
    addition.  Aggregates are derived from a per-page map in one
    vectorized pass (never by re-reading data) and updated in
    O(|dirty pages| * columns) from the same net leaf deltas the warm
    signature tree consumes.
    """

    def __init__(self, design: LocateDesign,
                 scheme: AlgebraicSignatureScheme, page_symbols: int,
                 components: np.ndarray, page_count: int,
                 total_symbols: int):
        if components.shape != (design.group_count, scheme.n):
            raise SignatureError(
                f"locator needs {design.group_count}x{scheme.n} components, "
                f"got {components.shape}"
            )
        if page_count > max(1, design.page_capacity):
            raise SignatureError(
                f"{page_count} pages exceed the design capacity "
                f"{design.page_capacity}"
            )
        self.design = design
        self.scheme = scheme
        self.page_symbols = page_symbols
        self.components = components
        self.page_count = page_count
        self.total_symbols = total_symbols

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_map(cls, design: LocateDesign,
                 signature_map: SignatureMap) -> "LocatorMap":
        """Fold a per-page map into group aggregates (no data reads)."""
        scheme = signature_map.scheme
        page_count = len(signature_map.signatures)
        if page_count > max(1, design.page_capacity):
            raise SignatureError(
                f"{page_count} pages exceed the design capacity "
                f"{design.page_capacity}"
            )
        page_components = np.array(
            [sig.components for sig in signature_map.signatures],
            dtype=np.int64,
        ).reshape(page_count, scheme.n)
        pages = np.arange(page_count, dtype=np.int64)
        shifted = shift_rows(scheme.field, page_components,
                             pages * signature_map.page_symbols,
                             scheme.base.betas)
        out = np.zeros((design.group_count, scheme.n), dtype=np.int64)
        if design.kind == _IDENTITY:
            out[:page_count] = shifted
        else:
            q = design.q
            for x in range(q):
                values = design.column_values(x, pages)
                out[x * q:(x + 1) * q] = fold_rows_by_group(shifted, values, q)
        return cls(design, scheme, signature_map.page_symbols, out,
                   page_count, signature_map.total_symbols)

    @classmethod
    def compute(cls, design: LocateDesign,
                scheme: AlgebraicSignatureScheme, data,
                page_symbols: int) -> "LocatorMap":
        """Sign ``data`` (one batched engine pass) and fold the groups."""
        from .engine import get_batch_signer

        return cls.from_map(
            design, get_batch_signer(scheme).sign_map(data, page_symbols)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def group_count(self) -> int:
        """Number of aggregate signatures held."""
        return self.design.group_count

    @property
    def locator_bytes(self) -> int:
        """In-RAM/wire size of the aggregate payload (signature bytes)."""
        return self.group_count * self.scheme.scheme_id.signature_bytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocatorMap):
            return NotImplemented
        return (
            self.design == other.design
            and self.scheme.scheme_id == other.scheme.scheme_id
            and self.page_symbols == other.page_symbols
            and self.page_count == other.page_count
            and self.total_symbols == other.total_symbols
            and bool(np.array_equal(self.components, other.components))
        )

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def apply_leaf_deltas(self, deltas: dict[int, Signature]) -> None:
        """Fold per-page net signature deltas into the group aggregates.

        ``deltas`` is exactly what :meth:`repro.sig.engine.BatchSigner.
        apply_deltas` returns (and what
        :meth:`~repro.sig.tree.SignatureTree.apply_leaf_deltas`
        consumes): the XOR between each dirty page's old and new
        signature.  Each delta lands in the page's ``columns`` groups,
        shifted to the page's global offset -- O(|dirty| * columns)
        field work, no data reads.
        """
        if not deltas:
            return
        pages = np.fromiter(deltas.keys(), dtype=np.int64,
                            count=len(deltas))
        if int(pages.min()) < 0 or int(pages.max()) >= self.page_count:
            raise SignatureError("leaf delta outside the locator's pages")
        rows = np.array([deltas[int(page)].components for page in pages],
                        dtype=np.int64)
        shifted = shift_rows(self.scheme.field, rows,
                             pages * self.page_symbols,
                             self.scheme.base.betas)
        groups = self.design.memberships(pages)
        for column in range(groups.shape[1]):
            np.bitwise_xor.at(self.components, groups[:, column], shifted)

    # ------------------------------------------------------------------
    # Serialization (the anti-entropy wire form)
    # ------------------------------------------------------------------

    _MAGIC = b"LC1"

    def to_bytes(self) -> bytes:
        """Serialize design parameters + aggregates for the wire."""
        design = self.design
        kind = b"I" if design.kind == _IDENTITY else b"K"
        header = (
            self._MAGIC + kind
            + design.page_capacity.to_bytes(8, "little")
            + design.d.to_bytes(4, "little")
            + design.q.to_bytes(4, "little")
            + design.k.to_bytes(2, "little")
            + design.seed.to_bytes(8, "little", signed=True)
            + self.page_symbols.to_bytes(4, "little")
            + self.page_count.to_bytes(8, "little")
            + self.total_symbols.to_bytes(8, "little")
            + self.group_count.to_bytes(4, "little")
        )
        width = self.scheme.scheme_id.symbol_bytes
        if width == 1:
            payload = self.components.astype("<u1").tobytes()
        else:
            payload = self.components.astype("<u2").tobytes()
        return header + payload

    @classmethod
    def from_bytes(cls, data: bytes,
                   scheme: AlgebraicSignatureScheme) -> "LocatorMap":
        """Inverse of :meth:`to_bytes`."""
        header_len = 3 + 1 + 8 + 4 + 4 + 2 + 8 + 4 + 8 + 8 + 4
        if len(data) < header_len or data[:3] != cls._MAGIC:
            raise SignatureError("truncated or mislabelled locator map")
        kind = _IDENTITY if data[3:4] == b"I" else _KS
        page_capacity = int.from_bytes(data[4:12], "little")
        d = int.from_bytes(data[12:16], "little")
        q = int.from_bytes(data[16:20], "little")
        k = int.from_bytes(data[20:22], "little")
        seed = int.from_bytes(data[22:30], "little", signed=True)
        page_symbols = int.from_bytes(data[30:34], "little")
        page_count = int.from_bytes(data[34:42], "little")
        total_symbols = int.from_bytes(data[42:50], "little")
        group_count = int.from_bytes(data[50:54], "little")
        design = LocateDesign.build(page_capacity, d, seed)
        if design.kind != kind or design.q != q or design.k != k \
                or design.group_count != group_count:
            raise SignatureError(
                "locator header does not match the derived design"
            )
        width = scheme.scheme_id.symbol_bytes
        expected = header_len + group_count * scheme.n * width
        if len(data) != expected:
            raise SignatureError(
                f"locator body must be {expected} bytes, got {len(data)}"
            )
        dtype = "<u1" if width == 1 else "<u2"
        components = np.frombuffer(
            data, dtype=dtype, offset=header_len
        ).astype(np.int64).reshape(group_count, scheme.n)
        return cls(design, scheme, page_symbols, components, page_count,
                   total_symbols)


@dataclass(frozen=True, slots=True)
class CondemnedSet:
    """Outcome of one group-testing decode.

    ``status`` is :data:`CLEAN` (no group failed), :data:`LOCATED`
    (``pages`` is certified to be exactly the damaged set, up to the
    module-level collision caveat) or :data:`OVERFLOW` (the damage
    exceeds the design's budget or the failing groups are inconsistent
    with every ``<= d``-page explanation; the caller must fall back to
    the per-page map).
    """

    status: str
    pages: tuple[int, ...]
    failing_groups: tuple[int, ...]
    groups_compared: int

    @property
    def overflowed(self) -> bool:
        """True when the caller must fall back to the per-page map."""
        return self.status == OVERFLOW


def _check_decodable(expected: LocatorMap, actual: LocatorMap) -> None:
    if expected.design != actual.design:
        raise SignatureError("locator maps use different designs")
    if expected.scheme.scheme_id != actual.scheme.scheme_id:
        raise SignatureError("locator maps from different schemes")
    if expected.page_symbols != actual.page_symbols:
        raise SignatureError(
            f"locator maps with different page sizes: "
            f"{expected.page_symbols} vs {actual.page_symbols}"
        )


def decode(expected: LocatorMap, actual: LocatorMap) -> CondemnedSet:
    """Certify which ``<= d`` pages differ between two locator maps.

    A page is condemned exactly when *every* group containing it fails;
    the d-cover-free property guarantees every clean page is exonerated
    by some all-clean group, so for ``<= d`` damaged pages the
    candidate set equals the damaged set.  Three conditions degrade the
    verdict to :data:`OVERFLOW` instead of ever mislocating: the two
    sides cover different page counts (length drift is not a
    group-testing event), more than ``d`` candidates survive, or the
    failing groups are not exactly the groups the candidates explain.
    """
    _check_decodable(expected, actual)
    design = expected.design
    registry = get_registry()
    registry.counter("sig.locate.decodes").inc()
    registry.counter("sig.locate.groups_compared").inc(design.group_count)
    if expected.page_count != actual.page_count \
            or expected.total_symbols != actual.total_symbols:
        registry.counter("sig.locate.overflows").inc()
        return CondemnedSet(OVERFLOW, (), (), design.group_count)
    failing_mask = np.any(expected.components != actual.components, axis=1)
    failing = np.nonzero(failing_mask)[0]
    if not failing.size:
        return CondemnedSet(CLEAN, (), (), design.group_count)
    pages = np.arange(expected.page_count, dtype=np.int64)
    if design.kind == _IDENTITY:
        condemned = failing[failing < expected.page_count]
        return CondemnedSet(
            LOCATED, tuple(int(p) for p in condemned),
            tuple(int(g) for g in failing), design.group_count,
        )
    q = design.q
    candidate = np.ones(expected.page_count, dtype=bool)
    for x in range(q):
        values = design.column_values(x, pages)
        candidate &= failing_mask[x * q + values]
        if not candidate.any():
            break
    condemned = np.nonzero(candidate)[0]
    verdict = LOCATED
    if not condemned.size or condemned.size > design.d:
        verdict = OVERFLOW
    else:
        explained = np.zeros(design.group_count, dtype=bool)
        explained[np.unique(design.memberships(condemned))] = True
        if not np.array_equal(explained, failing_mask):
            verdict = OVERFLOW
    if verdict == OVERFLOW:
        registry.counter("sig.locate.overflows").inc()
        return CondemnedSet(OVERFLOW, (), tuple(int(g) for g in failing),
                            design.group_count)
    return CondemnedSet(
        LOCATED, tuple(int(p) for p in condemned),
        tuple(int(g) for g in failing), design.group_count,
    )
