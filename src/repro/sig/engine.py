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
* a run of fewer than :data:`SMALL_RUN_SYMBOLS` symbols -- a wire frame,
  a log frame, a mutation's burst of delta frames -- takes the *small
  lane*: one sentinel gather over the scheme's own ladder matrix and
  one XOR reduction per body (:func:`repro.gf.vectorized.
  run_signature_matrix`, the kernel ``scheme.sign`` uses), with no
  packing and no cache lookup;
* bounded spans of larger runs are packed into zero-padded ``(N, L)``
  symbol matrices;
* one sentinel log-gather covers each matrix, then per base coordinate
  one cached β-power ladder and one sentinel-antilog gather produce
  every page's component at once, zero padding included (:func:`repro.
  gf.vectorized.batch_signature_matrix`);
* β-power ladders come from the process-wide LRU exposed here as
  :class:`PowerLadderCache` and shared with the scalar and rolling
  paths -- no caller ever recomputes a ladder;
* an optional ``workers=K`` mode signs the spans across the
  shared-memory process pool of :mod:`repro.sig.parallel` for large
  multi-bucket scans.

Batch signatures are *exact*: byte-identical to ``scheme.sign(page)``
for every page, every field, plain and twisted schemes alike (property-
tested in ``tests/test_sig_engine.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..errors import PageTooLongError, SignatureError
from ..gf import vectorized as _vec
from ..gf.vectorized import (
    batch_signature_matrix,
    bounded_spans,
    delta_signature_matrix,
    fold_rows_by_group,
    ladder_exponents,
    narrow_symbol_view,
    pack_flat,
    run_signature_matrix,
    symbol_dtype,
)
from ..obs import registry as _obs
from . import parallel
from .arena import LEDGER, PageView
from .compound import SignatureMap
from .scheme import AlgebraicSignatureScheme
from .signature import Signature
from .tree import SignatureTree

#: Raw byte containers the zero-copy lanes reinterpret in place.
RAW_BYTES = (bytes, bytearray, memoryview)

#: Soft bound on a single packed matrix (rows * padded width) so batch
#: temporaries stay cache- and RAM-friendly; larger batches are processed
#: in row blocks of this many symbols (~32 MB of int64 at the default).
DEFAULT_BLOCK_SYMBOLS = 1 << 22

#: Small-run crossover: runs of fewer total symbols skip the packed
#: matrix lane (its span, pack and ladder-cache setup is a fixed cost
#: the small lane does not pay).  Measured in PERFORMANCE.md.
SMALL_RUN_SYMBOLS = 4096


class PowerLadderCache:
    """LRU cache of per-scheme β-power ladders keyed by (scheme_id, length).

    A scheme's ladder bundle is one position-exponent array per base
    coordinate (``(log β_j · i) mod 2^f−1``); the bundle for the longest
    page seen serves every shorter page as a sliced view.  The arrays
    themselves live in the process-wide store of
    :mod:`repro.gf.vectorized`, so scalar and rolling callers that
    go through :func:`~repro.gf.vectorized.ladder_exponents` share the
    exact same memory -- this class only amortizes bundle *composition*
    for batch callers.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize <= 0:
            raise SignatureError("ladder cache size must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._bundles: OrderedDict[tuple, tuple[int, tuple[np.ndarray, ...]]] = \
            OrderedDict()

    def exponents(self, scheme: AlgebraicSignatureScheme,
                  length: int) -> tuple[np.ndarray, ...]:
        """Per-coordinate position-exponent ladders covering ``length``."""
        key = scheme.scheme_id
        with self._lock:
            entry = self._bundles.get(key)
            if entry is not None and entry[0] >= length:
                self._bundles.move_to_end(key)
                self.hits += 1
                capacity, bundle = entry
                if capacity == length:
                    return bundle
                return tuple(ladder[:length] for ladder in bundle)
            self.misses += 1
        bundle = tuple(
            ladder_exponents(scheme.field, beta, length)
            for beta in scheme.base.betas
        )
        with self._lock:
            self._bundles[key] = (length, bundle)
            self._bundles.move_to_end(key)
            while len(self._bundles) > self.maxsize:
                self._bundles.popitem(last=False)
        return bundle

    def clear(self) -> None:
        """Drop every bundle and reset the hit/miss accounting."""
        with self._lock:
            self._bundles.clear()
            self.hits = 0
            self.misses = 0


#: The process-wide ladder cache every default signer shares.
DEFAULT_LADDERS = PowerLadderCache()


class BatchSigner:
    """Signs many pages per call through the 2-D matrix kernel.

    Every entry point takes one lane.  Each input is coerced to its
    *raw* symbols -- a zero-copy narrow view for symbol-aligned byte
    buffers and arena :class:`~repro.sig.arena.PageView`\\ s, a coerced
    array for symbol sequences, odd-length GF(2^16) bytes and any other
    input -- the rows are concatenated once, and bounded spans of the
    flat run are packed and signed.

    Parameters
    ----------
    scheme:
        Any :class:`AlgebraicSignatureScheme`, twisted schemes included
        (their bijection is applied to the flat run before packing, so
        the zero padding stays signature-neutral).
    workers:
        With ``workers > 1`` the spans are signed across the
        shared-memory process pool of :mod:`repro.sig.parallel`; by
        default everything is signed in-process.
    ladders:
        Ladder cache to share; defaults to :data:`DEFAULT_LADDERS`.
    block_symbols:
        Bound on rows x padded-width per packed matrix (memory ceiling).
    """

    def __init__(self, scheme: AlgebraicSignatureScheme,
                 workers: int | None = None,
                 ladders: PowerLadderCache | None = None,
                 block_symbols: int = DEFAULT_BLOCK_SYMBOLS):
        if workers is not None and workers < 1:
            raise SignatureError("workers must be a positive count")
        if block_symbols <= 0:
            raise SignatureError("block size must be positive")
        self.scheme = scheme
        self.workers = workers or 1
        self.ladders = ladders if ladders is not None else DEFAULT_LADDERS
        self.block_symbols = block_symbols
        self._obs = _obs.HandleCache()
        self._obs_delta = _obs.HandleCache()
        self._obs_workers = _obs.HandleCache()

    # ------------------------------------------------------------------
    # Batch signing
    # ------------------------------------------------------------------

    def sign_many(self, pages, strict: bool = True) -> list[Signature]:
        """Signatures of every page, byte-identical to ``scheme.sign``.

        ``pages`` is any sequence of byte strings, :class:`~repro.sig.
        arena.PageView`\\ s, or symbol sequences; lengths may differ
        freely.  With ``strict`` every page must respect the
        Proposition-1 certainty bound.
        """
        if not isinstance(pages, (list, tuple)):
            pages = list(pages)
        if not pages:
            return []
        rows = [self._raw_symbols(page) for page in pages]
        lengths = np.fromiter((row.size for row in rows), dtype=np.int64,
                              count=len(rows))
        if strict:
            self._check_bound(int(lengths.max()))
        return self._sign_flat(_concat(rows), lengths)

    def sign_concat(self, parts, strict: bool = True) -> Signature:
        """Signature of the concatenation of ``parts``, joined lazily.

        Byte-identical to ``scheme.sign(b"".join(parts))`` but the parts
        land exactly once, in one join (frame encoders sign ``[header,
        payload]`` without building the body twice).  A single
        symbol-aligned part is signed with no copy at all.
        """
        return self.sign_concat_many([parts], strict=strict)[0]

    def sign_concat_many(self, bodies, strict: bool = True) -> list[Signature]:
        """One signature per body, each body a sequence of byte parts.

        All bodies land in one join (the single copy), each body
        starting on a symbol boundary; odd-length GF(2^16) bodies get
        the same trailing zero byte ``scheme.sign`` pads with.  A lone
        single-part symbol-aligned body is signed in place.
        """
        field = self.scheme.field
        symbol_bytes = field.f // 8
        if not isinstance(bodies, (list, tuple)):
            bodies = list(bodies)
        if not bodies:
            return []
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
        return self._sign_flat(narrow_symbol_view(joined, field),
                               np.array(lengths, dtype=np.int64))

    def sign_map(self, data, page_symbols: int) -> SignatureMap:
        """The compound signature of ``data``, one batched pass.

        Equivalent to signing every :func:`~repro.sig.compound.
        slice_pages` slice, but the buffer is reshaped into the page
        matrix directly -- no per-page Python iteration at all.
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
                            self._sign_flat(flat, lengths), total)

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
                     deltas) -> dict[int, Signature]:
        """Fold journaled write regions into a signature map, in place.

        ``deltas`` yields ``(page, position, before, after)``: the page
        index in the map, the symbol offset of the region within that
        page, and the region's old and new content.  All regions are
        signed in one batched pass, XOR-folded per page, and applied to
        the map entries -- clean bytes are never touched.  Returns the
        net leaf delta per page whose signature actually changed (zero
        nets -- pseudo-writes -- are dropped), ready to feed
        :meth:`repro.sig.tree.SignatureTree.apply_leaf_deltas`.
        """
        scheme = self.scheme
        if signature_map.scheme.scheme_id != scheme.scheme_id:
            raise SignatureError("signature map does not belong to this scheme")
        page_symbols = signature_map.page_symbols
        total = signature_map.total_symbols
        page_limit = len(signature_map.signatures)
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
        if not befores:
            return {}
        components = self._delta_components(befores, afters, positions)
        page_array = np.asarray(pages, dtype=np.int64)
        page_ids = np.unique(page_array)
        groups = np.searchsorted(page_ids, page_array)
        folded = fold_rows_by_group(components, groups, page_ids.size)
        scheme_id = scheme.scheme_id
        net: dict[int, Signature] = {}
        for page_id, row in zip(page_ids, folded):
            if not row.any():
                continue
            delta = Signature(tuple(int(c) for c in row), scheme_id)
            index = int(page_id)
            signature_map.signatures[index] = \
                signature_map.signatures[index] ^ delta
            net[index] = delta
        return net

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _raw_symbols(self, page) -> np.ndarray:
        """Raw (pre-mapping) narrow symbols of one input.

        Symbol-aligned byte buffers and arena views are reinterpreted in
        place as ``uint8``/``<u2`` arrays; everything else is coerced by
        ``scheme.to_symbols`` (which pads odd GF(2^16) bytes with the
        zero byte ``scheme.sign`` uses) and narrowed to the same dtype.
        """
        if isinstance(page, PageView):
            page = page.memoryview()
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

    def _packed_spans(self, flat: np.ndarray, lengths: np.ndarray):
        """Yield ``(lo, hi, matrix)`` for each bounded span of a flat run."""
        starts = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        for lo, hi in bounded_spans(lengths, self.block_symbols):
            matrix = pack_flat(flat[starts[lo]:starts[hi]], lengths[lo:hi])
            if matrix.base is None and matrix.size:
                LEDGER.count(matrix.nbytes)
            yield lo, hi, matrix

    def _sign_flat(self, flat: np.ndarray,
                   lengths: np.ndarray) -> list[Signature]:
        """Sign a flat concatenation of raw page symbols.

        ``flat`` holds the raw symbols of every page back to back;
        ``lengths`` gives per-page symbol counts.  The scheme's
        pre-mapping is applied to the *flat* run (padding enters only
        after mapping, so it stays signature-neutral for twisted
        schemes).  A run under :data:`SMALL_RUN_SYMBOLS` is signed in
        one small-lane gather; otherwise each bounded span is packed by
        one strided fill -- zero-copy when the span is uniform -- or,
        with ``workers > 1``, sent to the shared-memory process pool.
        """
        scheme = self.scheme
        if not lengths.size:
            return []
        if flat.size < SMALL_RUN_SYMBOLS:
            components = run_signature_matrix(
                scheme.field, scheme.map_symbols(flat), lengths,
                scheme.ladders(int(lengths.max())))
            scheme._count_signed(flat.size, "small", calls=lengths.size)
            return self._signatures(components)
        if self.workers > 1:
            components = parallel.sign_flat_spans(
                scheme, flat, lengths, workers=self.workers,
                block_symbols=self.block_symbols,
            )
            self._emit(int(lengths.size))
        else:
            mapped = scheme.map_symbols(flat)
            if mapped is not flat:
                LEDGER.count(mapped.nbytes)
            components = _stack([
                self._sign_matrix(matrix)
                for _lo, _hi, matrix in self._packed_spans(mapped, lengths)
            ])
        scheme._count_signed(int(lengths.sum()), "batch",
                             calls=int(lengths.size))
        self._emit_workers()
        return self._signatures(components)

    def _delta_components(self, befores: list[np.ndarray],
                          afters: list[np.ndarray],
                          positions: list[int]) -> np.ndarray:
        """Shifted component rows ``beta_j^r * sig_j(delta)`` per region.

        Each side's raw symbols are concatenated once and the delta is
        formed in the domain the scheme is linear in -- raw symbols for
        plain schemes, phi-images for twisted ones (Proposition 6).
        Bounded spans of the flat delta are packed (a zero-copy reshape
        when regions are uniform), signed, and shifted to their offsets
        ``r`` in one Proposition-3 pass per span.
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
        components = _stack([
            delta_signature_matrix(
                scheme.field, matrix, positions[lo:hi], scheme.base.betas,
                self.ladders.exponents(scheme, matrix.shape[1]),
            )
            for lo, hi, matrix in self._packed_spans(xor, lengths)
        ])
        self._emit_deltas(len(befores), int(lengths.sum()))
        return components

    def _sign_matrix(self, matrix: np.ndarray) -> np.ndarray:
        ladders = self.ladders.exponents(self.scheme, matrix.shape[1])
        components = batch_signature_matrix(
            self.scheme.field, matrix, self.scheme.base.betas, ladders
        )
        self._emit(matrix.shape[0])
        return components

    def _signatures(self, components: np.ndarray) -> list[Signature]:
        scheme_id = self.scheme.scheme_id
        return [Signature(tuple(row), scheme_id)
                for row in components.tolist()]

    def _emit(self, pages: int) -> None:
        batches, batch_pages = self._obs.get(lambda registry: (
            registry.counter("sig.engine.batches"),
            registry.counter("sig.engine.pages"),
        ))
        batches.inc()
        batch_pages.inc(pages)

    def _emit_workers(self) -> None:
        """Publish the signer's worker count."""
        (gauge,) = self._obs_workers.get(lambda registry: (
            registry.gauge("sig.workers"),
        ))
        gauge.set(self.workers)

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


def _stack(blocks: list[np.ndarray]) -> np.ndarray:
    """Row-stack per-span component blocks (a single block as is)."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


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
    the whole process per scheme.
    """
    key = scheme.scheme_id
    with _SIGNER_LOCK:
        signer = _SIGNERS.get(key)
        if signer is not None and signer.scheme is scheme:
            _SIGNERS.move_to_end(key)
            return signer
        signer = BatchSigner(scheme)
        _SIGNERS[key] = signer
        _SIGNERS.move_to_end(key)
        while len(_SIGNERS) > _SIGNER_POOL_MAX:
            _SIGNERS.popitem(last=False)
    return signer


def ladder_cache_info() -> dict:
    """Hit/miss accounting for both ladder layers (engine + gf store)."""
    return {
        "bundle_hits": DEFAULT_LADDERS.hits,
        "bundle_misses": DEFAULT_LADDERS.misses,
        "ladder_hits": _vec.ladder_hits,
        "ladder_misses": _vec.ladder_misses,
    }
