"""Compound signatures: the per-page signature map of Sections 2.1 and 4.2.

A bucket can hold hundreds of MB while Proposition 1's certainty bound
covers at most ``2^f - 2`` symbols per page.  The compound signature is
the vector of page signatures of a bucket sliced into fixed-size pages;
with it, any change of up to ``n`` symbols *within any page* is detected
with certainty, and the backup engine learns exactly which pages to
rewrite.

The map is held as one ``(pages, n)`` integer component matrix -- the
form the batch kernels produce and the Proposition-3/5 folds consume --
so signing, folding, comparing and persisting never pass through one
:class:`~repro.sig.signature.Signature` object per page.  Signatures
are built only where one is asked for (``map[i]``, iteration, the
derived :attr:`SignatureMap.signatures` list).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import SignatureError
from .scheme import AlgebraicSignatureScheme
from .signature import SchemeId, Signature


@dataclass(frozen=True, slots=True)
class PageSlice:
    """One page of a sliced buffer: its index, symbol offset and symbols."""

    index: int
    offset: int          #: symbol offset of the page within the buffer
    symbols: np.ndarray

    @property
    def length(self) -> int:
        """Page length in symbols (the final page may be short)."""
        return self.symbols.size


def slice_pages(scheme: AlgebraicSignatureScheme, data, page_symbols: int) -> Iterator[PageSlice]:
    """Slice a buffer into pages of ``page_symbols`` symbols.

    The page size must respect the Proposition-1 bound so every page
    keeps the certain-detection property.
    """
    if page_symbols <= 0:
        raise SignatureError("page size must be positive")
    if page_symbols > scheme.max_page_symbols:
        raise SignatureError(
            f"page of {page_symbols} symbols exceeds the certainty bound "
            f"{scheme.max_page_symbols} for GF(2^{scheme.field.f})"
        )
    symbols = scheme.signable_symbols(data)
    for index, start in enumerate(range(0, symbols.size, page_symbols)):
        yield PageSlice(index, start, symbols[start:start + page_symbols])


def component_rows(scheme_id: SchemeId, signatures) -> np.ndarray:
    """The ``(len(signatures), n)`` component matrix of signature objects.

    Every signature must come from the scheme ``scheme_id`` names.
    """
    rows = []
    for signature in signatures:
        if signature.scheme_id != scheme_id:
            raise SignatureError("signatures do not belong to this scheme")
        rows.append(signature.components)
    return np.array(rows, dtype=np.int64).reshape(len(rows), scheme_id.n)


def row_signatures(scheme_id: SchemeId, components: np.ndarray) -> list[Signature]:
    """One :class:`Signature` per component row (built on demand)."""
    return [Signature(tuple(row), scheme_id) for row in components.tolist()]


def wire_dtype(scheme_id: SchemeId) -> np.dtype:
    """The little-endian dtype of one serialized signature symbol."""
    return np.dtype(f"<u{scheme_id.symbol_bytes}")


def _as_matrix(scheme: AlgebraicSignatureScheme, components) -> np.ndarray:
    """A component matrix from an array or a sequence of signatures."""
    if isinstance(components, np.ndarray):
        return np.ascontiguousarray(components, dtype=np.int64).reshape(
            -1, scheme.n)
    return component_rows(scheme.scheme_id, components)


class LeafDeltas(Mapping):
    """Net per-page signature deltas, held as two arrays.

    ``pages`` (unique page indices) and ``rows`` (the ``(len(pages),
    n)`` component matrix of each page's ``new XOR old`` signature)
    are what :meth:`repro.sig.engine.BatchSigner.apply_deltas` returns
    and what :meth:`repro.sig.tree.SignatureTree.apply_leaf_deltas` and
    :meth:`repro.sig.locate.LocatorMap.apply_leaf_deltas` fold in.  As
    a read-only mapping from page to :class:`Signature` it builds one
    signature per lookup, only when asked.
    """

    __slots__ = ("scheme_id", "pages", "rows")

    def __init__(self, scheme_id: SchemeId, pages: np.ndarray,
                 rows: np.ndarray):
        self.scheme_id = scheme_id
        self.pages = pages
        self.rows = rows

    @classmethod
    def coerce(cls, scheme: AlgebraicSignatureScheme,
               deltas) -> "LeafDeltas":
        """``deltas`` as arrays: a :class:`LeafDeltas` of ``scheme`` as
        is, or a ``{page: Signature}`` mapping converted once."""
        scheme_id = scheme.scheme_id
        if isinstance(deltas, LeafDeltas):
            if deltas.scheme_id != scheme_id:
                raise SignatureError("delta does not belong to this scheme")
            return deltas
        pages = np.fromiter(deltas.keys(), dtype=np.int64, count=len(deltas))
        return cls(scheme_id, pages, component_rows(scheme_id,
                                                     deltas.values()))

    def _where(self, keep: np.ndarray) -> "LeafDeltas":
        if keep.all():
            return self
        return LeafDeltas(self.scheme_id, self.pages[keep], self.rows[keep])

    def nonzero(self) -> "LeafDeltas":
        """The deltas whose rows are not all zero (pseudo-writes dropped)."""
        return self._where(self.rows.any(axis=1))

    def below(self, page_count: int) -> "LeafDeltas":
        """The deltas of pages ``< page_count`` (after a truncation)."""
        return self._where(self.pages < page_count)

    def __getitem__(self, page: int) -> Signature:
        hits = np.flatnonzero(self.pages == page)
        if not hits.size:
            raise KeyError(page)
        return Signature(tuple(self.rows[hits[0]].tolist()), self.scheme_id)

    def __iter__(self) -> Iterator[int]:
        return iter(self.pages.tolist())

    def __len__(self) -> int:
        return int(self.pages.size)


class SignatureMap:
    """The m-fold compound signature of a buffer: one signature per page.

    This is exactly the disk-resident *signature map* of Section 2.1: the
    backup engine recomputes the page signature before writing and skips
    the write when the map entry is unchanged.  The entries live in
    :attr:`components`, a ``(pages, n)`` ``int64`` matrix (4 bytes per
    page serialized for the paper's GF(2^16), n = 2); ``map[i]`` and
    iteration build :class:`Signature` objects on demand.

    Examples
    --------
    >>> from repro.sig import make_scheme
    >>> scheme = make_scheme()
    >>> a = SignatureMap.compute(scheme, b"x" * 4096, page_symbols=512)
    >>> b = SignatureMap.compute(scheme, b"x" * 2048 + b"y" + b"x" * 2047, 512)
    >>> a.changed_pages(b)
    [2]
    """

    def __init__(self, scheme: AlgebraicSignatureScheme, page_symbols: int,
                 components, total_symbols: int):
        self.scheme = scheme
        self.page_symbols = page_symbols
        #: The ``(pages, n)`` component matrix: row ``i`` is page ``i``'s
        #: signature.  A sequence of signatures is converted once.
        self.components = _as_matrix(scheme, components)
        self.total_symbols = total_symbols

    @classmethod
    def compute(cls, scheme: AlgebraicSignatureScheme, data, page_symbols: int) -> "SignatureMap":
        """Sign every page of ``data`` (bytes or symbol sequence).

        Routed through the shared :class:`~repro.sig.engine.BatchSigner`:
        the whole buffer is signed in one 2-D kernel pass instead of a
        page-at-a-time loop (identical signatures, batch throughput).
        """
        from .engine import get_batch_signer

        return get_batch_signer(scheme).sign_map(data, page_symbols)

    @property
    def signatures(self) -> list[Signature]:
        """Every page signature as an object, built on demand (a copy:
        write entries through ``map[i] = signature``)."""
        return row_signatures(self.scheme.scheme_id, self.components)

    @property
    def page_count(self) -> int:
        """Number of pages (the m of an m-fold compound signature)."""
        return self.components.shape[0]

    def __len__(self) -> int:
        return self.components.shape[0]

    def __getitem__(self, index: int) -> Signature:
        return Signature(tuple(self.components[index].tolist()),
                         self.scheme.scheme_id)

    def __setitem__(self, index: int, signature: Signature) -> None:
        if signature.scheme_id != self.scheme.scheme_id:
            raise SignatureError("signature does not belong to this scheme")
        self.components[index] = signature.components

    def __iter__(self) -> Iterator[Signature]:
        return iter(self.signatures)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureMap):
            return NotImplemented
        return (
            self.scheme.scheme_id == other.scheme.scheme_id
            and self.page_symbols == other.page_symbols
            and bool(np.array_equal(self.components, other.components))
        )

    def _check_comparable(self, other: "SignatureMap") -> None:
        if self.scheme.scheme_id != other.scheme.scheme_id:
            raise SignatureError("signature maps from different schemes")
        if self.page_symbols != other.page_symbols:
            raise SignatureError(
                f"signature maps with different page sizes: "
                f"{self.page_symbols} vs {other.page_symbols}"
            )

    def changed_pages(self, other: "SignatureMap") -> list[int]:
        """Indices of pages whose signatures differ between the two maps.

        Pages present in only one map (the buffers had different lengths)
        are reported as changed.
        """
        self._check_comparable(other)
        common = min(len(self), len(other))
        differ = (self.components[:common]
                  != other.components[:common]).any(axis=1)
        return (np.flatnonzero(differ).tolist()
                + list(range(common, max(len(self), len(other)))))

    def update_page(self, index: int, page_data) -> None:
        """Replace the signature of one page after its content changed."""
        if not 0 <= index < len(self):
            raise SignatureError(f"page index {index} out of range")
        self.components[index] = self.scheme.sign_components(page_data)

    def to_bytes(self) -> bytes:
        """Serialize the map (the on-disk form next to the bucket image).

        A 16-byte header, then every row's components as fixed-width
        little-endian symbols, page after page.
        """
        header = (
            self.page_symbols.to_bytes(4, "little")
            + self.total_symbols.to_bytes(8, "little")
            + len(self).to_bytes(4, "little")
        )
        return header + self.components.astype(
            wire_dtype(self.scheme.scheme_id)).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, scheme: AlgebraicSignatureScheme) -> "SignatureMap":
        """Deserialize a map produced by :meth:`to_bytes`."""
        if len(data) < 16:
            raise SignatureError("truncated signature map header")
        page_symbols = int.from_bytes(data[0:4], "little")
        total_symbols = int.from_bytes(data[4:12], "little")
        count = int.from_bytes(data[12:16], "little")
        scheme_id = scheme.scheme_id
        expected = 16 + count * scheme_id.signature_bytes
        if len(data) != expected:
            raise SignatureError(
                f"signature map body must be {expected} bytes, got {len(data)}"
            )
        components = np.frombuffer(data, dtype=wire_dtype(scheme_id),
                                   offset=16).reshape(count, scheme_id.n)
        return cls(scheme, page_symbols, components.astype(np.int64),
                   total_symbols)

    @property
    def map_bytes(self) -> int:
        """In-RAM size of the map payload (signature bytes only).

        Section 2.1 requires the map to fit in RAM or even L2; for the
        paper's choice this is 4 bytes per 16 KB page — 256 B per MB.
        """
        return len(self) * self.scheme.scheme_id.signature_bytes
