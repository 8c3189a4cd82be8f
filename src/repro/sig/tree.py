"""Signature trees (Section 4.2, Figure 3).

A signature tree organizes a bucket's page signatures hierarchically:
each internal node holds the signature of the *concatenation* of the data
under it, computed **algebraically** from its children via Proposition 5
-- no re-reading of page data.  When a page changes, every node on the
leaf-to-root path changes, so comparing two trees localizes the changed
pages while visiting only the differing subtrees: O(fanout * log m *
changes) signature comparisons instead of O(m).

Probabilistic caveat (inherent, not implementation): an internal node's
signature is the signature of *all* data below it, a region usually far
longer than the Proposition-1 certainty bound, so several page changes
under one ancestor can cancel there with probability 2^-nf per node --
2^-32 for the paper's GF(2^16)/n=2 configuration, but an observable
2^-16 if a tree is built over a GF(2^8)/n=2 scheme.  The *flat* map
retains per-page certainty regardless; the tree trades a 2^-nf sliver
of it for O(log) localization.  (A hypothesis run against GF(2^8)
actually found such a cancellation; see test_sig_compound_tree.)

Each level is held as one component matrix plus one symbol-length
array: builds, delta folds and diffs run one vectorized pass per level,
and :class:`TreeNode` objects are built only on request
(:attr:`SignatureTree.root`, :attr:`SignatureTree.levels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SignatureError
from ..gf.vectorized import fold_concat_level, fold_rows_by_group, shift_rows
from .compound import LeafDeltas, SignatureMap, component_rows, row_signatures
from .scheme import AlgebraicSignatureScheme
from .signature import Signature


@dataclass(frozen=True, slots=True)
class TreeNode:
    """One node: the signature and symbol length of its covered range."""

    signature: Signature
    symbols: int


@dataclass(frozen=True, slots=True)
class TreeDiff:
    """Result of comparing two signature trees."""

    changed_leaves: list[int]   #: indices of leaves whose signatures differ
    nodes_compared: int         #: node comparisons performed (E9 metric)


class SignatureTree:
    """A fanout-k tree of algebraic signatures over a page sequence.

    Level 0 is the page (leaf) level; the last level holds the single
    root, whose signature equals the flat signature of the whole buffer
    (verified by a property test).  Level ``l`` is stored as
    ``components[l]``, an ``(m_l, n)`` ``int64`` component matrix, and
    ``lengths[l]``, the ``(m_l,)`` symbol lengths of its nodes.
    """

    def __init__(self, scheme: AlgebraicSignatureScheme, fanout: int,
                 components: list[np.ndarray], lengths: list[np.ndarray]):
        self.scheme = scheme
        self.fanout = fanout
        self.components = components
        self.lengths = lengths

    @classmethod
    def _build(cls, scheme: AlgebraicSignatureScheme, components: np.ndarray,
               lengths: np.ndarray, fanout: int) -> "SignatureTree":
        """Fold a leaf level up to the root, one kernel pass per level."""
        if fanout < 2:
            raise SignatureError("tree fanout must be at least 2")
        levels, sizes = [components], [lengths]
        while components.shape[0] > 1:
            components, lengths = fold_concat_level(
                scheme.field, components, lengths, scheme.base.betas, fanout
            )
            levels.append(components)
            sizes.append(lengths)
        return cls(scheme, fanout, levels, sizes)

    @classmethod
    def from_leaves(cls, scheme: AlgebraicSignatureScheme,
                    leaves: list[tuple[Signature, int]], fanout: int = 16) -> "SignatureTree":
        """Build a tree from ``(signature, symbol_length)`` leaves.

        The whole internal structure is folded level-by-level through
        the vectorized Proposition-5 kernel
        (:func:`~repro.gf.vectorized.fold_concat_level`): every parent
        of a level is computed in one numpy pass, identical node for
        node to the sequential ``concat_all`` fold.
        """
        if not leaves:
            raise SignatureError("cannot build a signature tree with no leaves")
        components = component_rows(scheme.scheme_id,
                                    [signature for signature, _ in leaves])
        lengths = np.array([length for _, length in leaves], dtype=np.int64)
        return cls._build(scheme, components, lengths, fanout)

    @classmethod
    def from_map(cls, signature_map: SignatureMap, fanout: int = 16) -> "SignatureTree":
        """Build a tree over an existing signature map.

        All pages except possibly the last have ``page_symbols`` symbols.
        The leaf level is a copy of the map's component matrix.
        """
        scheme = signature_map.scheme
        count = signature_map.page_count
        if not count:
            # A zero-length buffer still has a well-defined tree: one
            # leaf carrying the empty signature over zero symbols, whose
            # root therefore equals the flat signature of the (empty)
            # buffer.  Checkpointing a volume truncated to nothing
            # depends on this.
            return cls._build(
                scheme, scheme.sign_components(b"", strict=False)[None, :]
                .astype(np.int64), np.zeros(1, dtype=np.int64), fanout)
        page_symbols = signature_map.page_symbols
        lengths = np.full(count, page_symbols, dtype=np.int64)
        lengths[-1] = signature_map.total_symbols - page_symbols * (count - 1)
        return cls._build(scheme, signature_map.components.copy(), lengths,
                          fanout)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def root(self) -> TreeNode:
        """The root node: signature of the entire buffer."""
        return TreeNode(
            Signature(tuple(self.components[-1][0].tolist()),
                      self.scheme.scheme_id),
            int(self.lengths[-1][0]))

    @property
    def levels(self) -> list[list[TreeNode]]:
        """Every level's nodes as objects, built on demand (a copy)."""
        scheme_id = self.scheme.scheme_id
        return [[TreeNode(signature, length) for signature, length in zip(
                    row_signatures(scheme_id, components), lengths.tolist())]
                for components, lengths in zip(self.components, self.lengths)]

    @property
    def height(self) -> int:
        """Number of levels, counting leaves (Figure 3 shows height 3)."""
        return len(self.components)

    @property
    def leaf_count(self) -> int:
        """Number of leaves (pages)."""
        return self.components[0].shape[0]

    def _check_comparable(self, other: "SignatureTree") -> None:
        if self.scheme.scheme_id != other.scheme.scheme_id:
            raise SignatureError("signature trees from different schemes")
        if self.fanout != other.fanout or self.leaf_count != other.leaf_count:
            raise SignatureError(
                "signature trees must share fanout and leaf count to diff"
            )

    def diff(self, other: "SignatureTree") -> TreeDiff:
        """Localize changed leaves, descending only into differing nodes.

        One vectorized comparison per level over the children of that
        level's differing nodes; ``nodes_compared`` counts the root plus
        every child compared.
        """
        self._check_comparable(other)
        compared = 1
        top = self.height - 1
        if np.array_equal(self.components[top][0], other.components[top][0]):
            return TreeDiff([], compared)
        frontier = np.zeros(1, dtype=np.int64)
        steps = np.arange(self.fanout, dtype=np.int64)
        for level in range(top - 1, -1, -1):
            children = (frontier[:, None] * self.fanout + steps).ravel()
            children = children[children < self.components[level].shape[0]]
            compared += children.size
            differ = (self.components[level][children]
                      != other.components[level][children]).any(axis=1)
            frontier = children[differ]
            if not frontier.size:
                break
        return TreeDiff(frontier.tolist(), compared)

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def update_leaf(self, index: int, signature: Signature, symbols: int | None = None) -> None:
        """Replace one leaf and recompute its root path algebraically.

        Only the nodes on the leaf-to-root path are recomputed (each from
        its at-most-``fanout`` children via Proposition 5); the page data
        itself is never touched.
        """
        if not 0 <= index < self.leaf_count:
            raise SignatureError(f"leaf index {index} out of range")
        self.components[0][index] = component_rows(self.scheme.scheme_id,
                                                   [signature])[0]
        if symbols is not None:
            self.lengths[0][index] = symbols
        child_index = index
        for level in range(1, self.height):
            parent_index = child_index // self.fanout
            start = parent_index * self.fanout
            stop = start + self.fanout
            parent, total = fold_concat_level(
                self.scheme.field, self.components[level - 1][start:stop],
                self.lengths[level - 1][start:stop], self.scheme.base.betas,
                self.fanout)
            self.components[level][parent_index] = parent[0]
            self.lengths[level][parent_index] = total[0]
            child_index = parent_index

    def apply_leaf_deltas(self, leaf_deltas) -> None:
        """Fold leaf signature *deltas* in and propagate them to the root.

        ``leaf_deltas`` holds each dirty leaf's ``new_sig XOR old_sig``:
        the :class:`~repro.sig.compound.LeafDeltas` returned by
        :meth:`repro.sig.engine.BatchSigner.apply_deltas`, or any
        ``{leaf: Signature}`` mapping.  Because a parent is the XOR of
        its position-shifted children (Proposition 5), a child delta
        propagates as a ``beta_j^offset``-shifted delta -- so each level
        takes one shift pass over its dirty rows and one XOR fold per
        parent, and ancestors shared by several dirty leaves are updated
        *once*, with the merged delta.  Deltas that cancel along the way
        stop propagating early.

        Valid only while every leaf's symbol length is unchanged; a
        buffer that grew or shrank needs a rebuild via :meth:`from_map`
        (algebraic, no re-signing).
        """
        deltas = LeafDeltas.coerce(self.scheme, leaf_deltas)
        pages = deltas.pages
        if pages.size and (int(pages.min()) < 0
                           or int(pages.max()) >= self.leaf_count):
            raise SignatureError("leaf index out of range")
        deltas = deltas.nonzero()
        pages, rows = deltas.pages, deltas.rows
        field, betas, fanout = self.scheme.field, self.scheme.base.betas, \
            self.fanout
        top = self.height - 1
        for level in range(self.height):
            if not pages.size:
                break
            self.components[level][pages] ^= rows
            if level == top:
                break
            prefix = np.zeros(self.lengths[level].size + 1, dtype=np.int64)
            np.cumsum(self.lengths[level], out=prefix[1:])
            parents = pages // fanout
            shifted = shift_rows(field, rows,
                                 prefix[pages] - prefix[parents * fanout],
                                 betas)
            unique, groups = np.unique(parents, return_inverse=True)
            folded = fold_rows_by_group(shifted, groups, unique.size)
            keep = folded.any(axis=1)
            pages, rows = unique[keep], folded[keep]
