"""The batched signature engine: sign N pages in one vectorized pass.

Section 6.1 promises speedups "by using a technique adapted from Broder
[B93]": amortize table setup across many strings.  Every hot consumer of
signatures in this codebase -- signature maps, backup scans, tree
builds, replica sync, cluster wire seals -- signs *many pages at a
time*; signing them one by one pays per-call Python dispatch, registry
lookups, and β-power recomputation per page.

:class:`BatchSigner` erases that overhead:

* every input is coerced to raw symbols (zero-copy for aligned byte
  buffers) and concatenated once;
* a run of fewer than :data:`SMALL_RUN_SYMBOLS` symbols -- a burst of
  log frames, mirror pages or delta frames -- takes the *small lane*:
  one sentinel gather over the scheme's own ladder matrix and one XOR
  reduction per body (:func:`repro.gf.vectorized.run_signature_matrix`,
  whose lone-body case is the kernel ``scheme.sign`` uses), with no
  packing and no cache lookup.  A single sealed body -- a wire frame,
  one log frame, a checkpoint -- does not come here at all:
  :mod:`repro.sig.seal` signs it on its own lean lane;
* larger runs are cut into width groups -- rows stable-sorted by
  length, a group's rows at most twice as wide as its narrowest (rows
  under 128 symbols all group together) and bounded by
  ``block_symbols`` (:func:`repro.gf.vectorized.width_groups`) -- each
  packed into a zero-padded ``(N, L)`` symbol matrix (a zero-copy
  reshape for uniform rows);
* the cache-blocked kernel walks each matrix in row blocks: one
  sentinel log-gather, then per base coordinate one cached ``int32``
  β-power ladder add and one sentinel-antilog gather produce every
  page's component, zero padding included (:func:`repro.gf.vectorized.
  batch_signature_matrix`), and the components are scattered back to
  input order;
* β-power ladders come from the process-wide ``int32`` store of
  :func:`repro.gf.vectorized.ladder_exponents`, shared with the scalar
  and rolling paths -- no caller ever recomputes a ladder.

Everything runs in the calling process: a process pool measured 1.2-1.4x
slower than this lane at every batch size on a 2-vCPU host
(docs/PERFORMANCE.md), and the paper scales out across SDDS server
nodes, not across processes of one host.

Batch signatures are *exact*: byte-identical to ``scheme.sign(page)``
for every page, every field, plain and twisted schemes alike (property-
tested in ``tests/test_sig_engine.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..errors import PageTooLongError, SignatureError
from ..gf.vectorized import (
    batch_signature_matrix,
    delta_signature_matrix,
    fold_rows_by_group,
    group_run,
    narrow_symbol_view,
    pack_flat,
    run_signature_matrix,
    scatter_groups,
    symbol_dtype,
    width_groups,
)
from ..obs import registry as _obs
from .arena import LEDGER
from .compound import LeafDeltas, SignatureMap, row_signatures
from .scheme import AlgebraicSignatureScheme
from .signature import Signature
from .tree import SignatureTree

#: Raw byte containers the zero-copy lanes reinterpret in place.
RAW_BYTES = (bytes, bytearray, memoryview)

#: Soft bound on a single packed matrix (rows * padded width), a memory
#: ceiling: larger batches are packed as several width groups of at most
#: this many symbols (8 MiB of ``<u2`` at the default).  The kernel then
#: walks each matrix in much smaller cache-sized row blocks
#: (:data:`repro.gf.vectorized.KERNEL_BLOCK_SYMBOLS`).
DEFAULT_BLOCK_SYMBOLS = 1 << 22

#: Small-run crossover: runs of fewer total symbols skip the packed
#: matrix lane (its span, pack and ladder setup is a fixed cost the
#: small lane does not pay).  Measured in PERFORMANCE.md.
SMALL_RUN_SYMBOLS = 4096


class BatchSigner:
    """Signs many pages per call through the 2-D matrix kernel.

    Every entry point takes one lane.  Each input is coerced to its
    *raw* symbols -- a zero-copy narrow view for symbol-aligned byte
    buffers (``memoryview`` slices of a larger buffer included), a
    coerced array for symbol sequences, odd-length GF(2^16) bytes and
    any other input -- the rows are concatenated once, and width groups
    of the flat run are packed and signed.

    Parameters
    ----------
    scheme:
        Any :class:`AlgebraicSignatureScheme`, twisted schemes included
        (their bijection is applied to the flat run before packing, so
        the zero padding stays signature-neutral).
    block_symbols:
        Bound on rows x padded-width per packed matrix (memory ceiling).
    """

    def __init__(self, scheme: AlgebraicSignatureScheme,
                 block_symbols: int = DEFAULT_BLOCK_SYMBOLS):
        if block_symbols <= 0:
            raise SignatureError("block size must be positive")
        self.scheme = scheme
        self.block_symbols = block_symbols
        self._obs = _obs.HandleCache()
        self._obs_delta = _obs.HandleCache()

    # ------------------------------------------------------------------
    # Batch signing
    # ------------------------------------------------------------------

    def sign_many(self, pages, strict: bool = True) -> list[Signature]:
        """Signatures of every page, byte-identical to ``scheme.sign``.

        ``pages`` is any sequence of byte buffers or symbol sequences;
        lengths may differ freely.  With ``strict`` every page must
        respect the Proposition-1 certainty bound.
        """
        return self._signatures(self.components_many(pages, strict))

    def components_many(self, pages, strict: bool = True) -> np.ndarray:
        """Component matrix ``(len(pages), n)`` of :meth:`sign_many`."""
        if not isinstance(pages, (list, tuple)):
            pages = list(pages)
        if not pages:
            return np.zeros((0, self.scheme.n), dtype=np.int64)
        rows = [self._raw_symbols(page) for page in pages]
        lengths = np.fromiter((row.size for row in rows), dtype=np.int64,
                              count=len(rows))
        if strict:
            self._check_bound(int(lengths.max()))
        return self._components_flat(_concat(rows), lengths)

    def sign_concat(self, parts, strict: bool = True) -> Signature:
        """Signature of the concatenation of ``parts``, joined lazily.

        Byte-identical to ``scheme.sign(b"".join(parts))``; the parts
        land once, in one join, and a lone aligned part is signed in place.
        """
        return self.sign_concat_many([parts], strict=strict)[0]

    def sign_concat_many(self, bodies, strict: bool = True) -> list[Signature]:
        """One signature per body, each body a sequence of byte parts.

        The :class:`Signature` rows of :meth:`concat_components`.
        """
        return self._signatures(self.concat_components(bodies, strict))

    def concat_components(self, bodies, strict: bool = True) -> np.ndarray:
        """Component matrix ``(len(bodies), n)``, one row per body.

        Row ``i`` holds the components of ``scheme.sign`` over the
        concatenation of ``bodies[i]``'s parts.  All bodies land in one
        join (the single copy), each body starting on a symbol
        boundary; odd-length GF(2^16) bodies get the same trailing zero
        byte ``scheme.sign`` pads with.  A lone single-part
        symbol-aligned body is signed in place.  :mod:`repro.sig.seal`
        serializes the rows as seals for multi-body bursts, bodies of
        ``SMALL_RUN_SYMBOLS`` or more symbols and the recovery scan.
        """
        field = self.scheme.field
        symbol_bytes = field.f // 8
        if not isinstance(bodies, (list, tuple)):
            bodies = list(bodies)
        if not bodies:
            return np.zeros((0, self.scheme.n), dtype=np.int64)
        pieces: list = []
        lengths: list[int] = []
        for parts in bodies:
            size = 0
            for part in parts:
                pieces.append(part)
                size += len(part)
            if size % symbol_bytes:
                pieces.append(b"\x00")
            lengths.append(-(-size // symbol_bytes))
        if strict:
            self._check_bound(max(lengths))
        if len(pieces) == 1 and isinstance(pieces[0], RAW_BYTES):
            joined = pieces[0]
        else:
            joined = b"".join(pieces)
            LEDGER.count(len(joined))
        return self._components_flat(narrow_symbol_view(joined, field),
                                     np.array(lengths, dtype=np.int64))

    def sign_map(self, data, page_symbols: int) -> SignatureMap:
        """The compound signature of ``data``, one batched pass.

        Equivalent to signing every :func:`~repro.sig.compound.
        slice_pages` slice, but the buffer is reshaped into the page
        matrix directly -- no per-page Python iteration at all -- and
        the kernel's component matrix becomes the map as is.
        """
        scheme = self.scheme
        if page_symbols <= 0:
            raise SignatureError("page size must be positive")
        if page_symbols > scheme.max_page_symbols:
            raise SignatureError(
                f"page of {page_symbols} symbols exceeds the certainty bound "
                f"{scheme.max_page_symbols} for GF(2^{scheme.field.f})"
            )
        # Uniform pages reshape the flat run in place; the tail row
        # alone pays a bounded fill.
        flat = self._raw_symbols(data)
        total = int(flat.size)
        count = -(-total // page_symbols)
        lengths = np.full(count, page_symbols, dtype=np.int64)
        if total % page_symbols:
            lengths[-1] = total % page_symbols
        return SignatureMap(scheme, page_symbols,
                            self._components_flat(flat, lengths), total)

    def sign_tree(self, data, page_symbols: int, fanout: int = 16) -> SignatureTree:
        """Batch-build the leaf level, then fold parents algebraically."""
        return SignatureTree.from_map(self.sign_map(data, page_symbols), fanout)

    # ------------------------------------------------------------------
    # Incremental delta signing (Proposition 3, batched)
    # ------------------------------------------------------------------

    def delta_signature_many(self, regions) -> list[Signature]:
        """Shifted delta signatures ``alpha^r * sig(delta)`` of many regions.

        ``regions`` yields ``(position, before, after)`` triples with
        equal-length region contents (any page input :meth:`sign_many`
        accepts); the result is ready to XOR onto the old page
        signatures (Proposition 3).
        """
        befores, afters, positions = [], [], []
        for position, before, after in regions:
            before, after = self._region_symbols(before, after)
            befores.append(before)
            afters.append(after)
            positions.append(int(position))
        return self._signatures(
            self._delta_components(befores, afters, positions))

    def apply_deltas(self, signature_map: SignatureMap,
                     deltas) -> LeafDeltas:
        """Fold journaled write regions into a signature map, in place.

        ``deltas`` yields ``(page, position, before, after)``: the page
        index in the map, the symbol offset of the region within that
        page, and the region's old and new content.  All regions are
        signed in one batched pass, XOR-folded per page, and XORed into
        the map's component rows -- clean bytes are never touched.
        Returns the net leaf delta rows of the pages whose signature
        actually changed (zero nets -- pseudo-writes -- are dropped),
        ready to feed :meth:`repro.sig.tree.SignatureTree.
        apply_leaf_deltas`.
        """
        scheme = self.scheme
        if signature_map.scheme.scheme_id != scheme.scheme_id:
            raise SignatureError("signature map does not belong to this scheme")
        page_symbols = signature_map.page_symbols
        total = signature_map.total_symbols
        page_limit = signature_map.page_count
        befores, afters, positions, pages = [], [], [], []
        for page, position, before, after in deltas:
            if not 0 <= page < page_limit:
                raise SignatureError(f"page {page} is outside the map")
            before, after = self._region_symbols(before, after)
            limit = min(page_symbols, total - page * page_symbols)
            if position < 0 or position + before.size > limit:
                raise SignatureError(
                    f"region at symbol {position} of {before.size} "
                    f"symbols overruns page {page} ({limit} symbols)"
                )
            if before.size:
                befores.append(before)
                afters.append(after)
                positions.append(int(position))
                pages.append(int(page))
        components = self._delta_components(befores, afters, positions)
        page_array = np.asarray(pages, dtype=np.int64)
        page_ids = np.unique(page_array)
        groups = np.searchsorted(page_ids, page_array)
        net = LeafDeltas(scheme.scheme_id, page_ids, fold_rows_by_group(
            components, groups, page_ids.size)).nonzero()
        signature_map.components[net.pages] ^= net.rows
        return net

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _raw_symbols(self, page) -> np.ndarray:
        """Raw (pre-mapping) narrow symbols of one input.

        Symbol-aligned byte buffers are reinterpreted in place as
        ``uint8``/``<u2`` arrays; everything else is coerced by
        ``scheme.to_symbols`` (which pads odd GF(2^16) bytes with the
        zero byte ``scheme.sign`` uses) and narrowed to the same dtype.
        """
        field = self.scheme.field
        view = narrow_symbol_view(page, field)
        if view is not None:
            return view
        return self.scheme.to_symbols(page).astype(symbol_dtype(field))

    def _region_symbols(self, before, after) -> tuple[np.ndarray, np.ndarray]:
        """Raw symbols of a delta region's two sides, equal length."""
        before, after = self._raw_symbols(before), self._raw_symbols(after)
        if before.size != after.size:
            raise SignatureError(
                f"delta regions must have equal length, got "
                f"{before.size} vs {after.size}"
            )
        return before, after

    def _check_bound(self, longest: int) -> None:
        """Reject any page beyond the Proposition-1 certainty bound."""
        bound = self.scheme.max_page_symbols
        if longest > bound:
            raise PageTooLongError(
                f"page of {longest} symbols exceeds the "
                f"certainty bound {bound} for GF(2^{self.scheme.field.f})"
            )

    def _packed_groups(self, flat: np.ndarray, lengths: np.ndarray):
        """Yield ``(rows, matrix)`` for each width group of a flat run.

        A group of consecutive rows packs straight from ``flat`` (a
        zero-copy reshape when uniform); any other group is gathered
        first.
        """
        starts = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        for rows in width_groups(lengths, self.block_symbols):
            run = group_run(flat, starts, lengths, rows)
            if not isinstance(rows, slice):
                LEDGER.count(run.nbytes)
            matrix = pack_flat(run, lengths[rows])
            if matrix.base is None and matrix.size:
                LEDGER.count(matrix.nbytes)
            yield rows, matrix

    def _components_flat(self, flat: np.ndarray,
                         lengths: np.ndarray) -> np.ndarray:
        """Component rows of a flat concatenation of raw page symbols.

        ``flat`` holds the raw symbols of every page back to back;
        ``lengths`` gives per-page symbol counts.  The scheme's
        pre-mapping is applied to the *flat* run (padding enters only
        after mapping, so it stays signature-neutral for twisted
        schemes).  A run under :data:`SMALL_RUN_SYMBOLS` is signed in
        one small-lane gather; otherwise each width group is packed by
        one strided fill -- zero-copy when its rows are consecutive and
        uniform -- and signed by the cache-blocked kernel.
        """
        scheme = self.scheme
        if not lengths.size:
            return np.zeros((0, scheme.n), dtype=np.int64)
        if flat.size < SMALL_RUN_SYMBOLS:
            components = run_signature_matrix(
                scheme.field, scheme.map_symbols(flat), lengths,
                scheme.ladders(int(lengths.max())))
            scheme._count_signed(flat.size, "small", calls=lengths.size)
            return components
        mapped = scheme.map_symbols(flat)
        if mapped is not flat:
            LEDGER.count(mapped.nbytes)
        components = scatter_groups(
            ((rows, self._sign_matrix(matrix))
             for rows, matrix in self._packed_groups(mapped, lengths)),
            int(lengths.size))
        scheme._count_signed(int(lengths.sum()), "batch",
                             calls=int(lengths.size))
        return components

    def _delta_components(self, befores: list[np.ndarray],
                          afters: list[np.ndarray],
                          positions: list[int]) -> np.ndarray:
        """Shifted component rows ``beta_j^r * sig_j(delta)`` per region.

        Each side's raw symbols are concatenated once and the delta is
        formed in the domain the scheme is linear in -- raw symbols for
        plain schemes, phi-images for twisted ones (Proposition 6).
        Width groups of the flat delta are packed (a zero-copy reshape
        when regions are uniform), signed, and shifted to their offsets
        ``r`` in one Proposition-3 pass per group.
        """
        scheme = self.scheme
        if not befores:
            return np.zeros((0, scheme.n), dtype=np.int64)
        lengths = np.fromiter((row.size for row in befores), dtype=np.int64,
                              count=len(befores))
        positions = np.asarray(positions, dtype=np.int64)
        if int(positions.min()) < 0:
            raise SignatureError("region positions must be non-negative")
        bound = scheme.max_page_symbols
        end = int((positions + lengths).max())
        if end > bound:
            raise PageTooLongError(
                f"delta region ending at symbol {end} overruns the "
                f"certainty bound {bound} for GF(2^{scheme.field.f})"
            )
        before, after = _concat(befores), _concat(afters)
        if scheme.is_linear:
            xor = before ^ after
            LEDGER.count(xor.nbytes)
        else:
            xor = scheme.map_symbols(before)
            mapped_after = scheme.map_symbols(after)
            LEDGER.count(xor.nbytes + mapped_after.nbytes)
            np.bitwise_xor(xor, mapped_after, out=xor)
        components = scatter_groups((
            (rows, delta_signature_matrix(
                scheme.field, matrix, positions[rows], scheme.base.betas))
            for rows, matrix in self._packed_groups(xor, lengths)
        ), len(befores))
        self._emit_deltas(len(befores), int(lengths.sum()))
        return components

    def _sign_matrix(self, matrix: np.ndarray) -> np.ndarray:
        components = batch_signature_matrix(
            self.scheme.field, matrix, self.scheme.base.betas)
        self._emit(matrix.shape[0])
        return components

    def _signatures(self, components: np.ndarray) -> list[Signature]:
        return row_signatures(self.scheme.scheme_id, components)

    def _emit(self, pages: int) -> None:
        batches, batch_pages = self._obs.get(lambda registry: (
            registry.counter("sig.engine.batches"),
            registry.counter("sig.engine.pages"),
        ))
        batches.inc()
        batch_pages.inc(pages)

    def _emit_deltas(self, regions: int, symbols: int) -> None:
        batches, count, delta_bytes = self._obs_delta.get(lambda registry: (
            registry.counter("sig.delta_batches"),
            registry.counter("sig.delta_regions"),
            registry.counter("sig.delta_bytes"),
        ))
        batches.inc()
        count.inc(regions)
        delta_bytes.inc(symbols * self.scheme.scheme_id.symbol_bytes)


def _concat(rows: list[np.ndarray]) -> np.ndarray:
    """One flat run of ``rows`` (a single row is returned as is)."""
    if len(rows) == 1:
        return rows[0]
    flat = np.concatenate(rows)
    LEDGER.count(flat.nbytes)
    return flat


# ----------------------------------------------------------------------
# The shared per-scheme signer pool
# ----------------------------------------------------------------------

_SIGNER_LOCK = threading.Lock()
_SIGNERS: OrderedDict[object, BatchSigner] = OrderedDict()
_SIGNER_POOL_MAX = 16


def get_batch_signer(scheme: AlgebraicSignatureScheme) -> BatchSigner:
    """A shared in-process :class:`BatchSigner` for ``scheme``.

    Signature maps, replicas, backup engines and wire codecs all route
    through here, so one signer (and its resolved metric handles) serves
    the whole process per scheme.  A hit on the scheme's own signer
    (the per-frame case) returns without the lock or the recency bump,
    so the pool evicts signers in the order they were made.
    """
    key = scheme.scheme_id
    signer = _SIGNERS.get(key)
    if signer is not None and signer.scheme is scheme:
        return signer
    with _SIGNER_LOCK:
        signer = _SIGNERS.get(key)
        if signer is not None and signer.scheme is scheme:
            return signer
        signer = BatchSigner(scheme)
        _SIGNERS[key] = signer
        _SIGNERS.move_to_end(key)
        while len(_SIGNERS) > _SIGNER_POOL_MAX:
            _SIGNERS.popitem(last=False)
    return signer

