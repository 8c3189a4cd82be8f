"""The batched signature engine: exactness properties and caching.

The engine's whole contract is *exactness at batch speed*: every input
must sign byte-identically to the reference ``scheme.sign``.  These
tests state that as hypothesis properties over random batches mixing
every input kind in one call -- bytes, bytearrays, memoryviews,
odd-length GF(2^16) bytes, symbol lists and arrays, arena page views,
empty pages -- on both production fields, plain and twisted schemes,
plus deterministic checks of the ladder caches, the process-pool worker
mode, the signer pool, and the tree bulk build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageTooLongError, SignatureError
from repro.gf import GF
from repro.gf.vectorized import width_groups
from repro.obs import MetricsRegistry, use_registry
from repro.sig import (
    LEDGER,
    BatchSigner,
    PowerLadderCache,
    SignatureMap,
    SignatureTree,
    concat_all,
    get_batch_signer,
    make_scheme,
    slice_pages,
)
from repro.sig.engine import (
    DEFAULT_LADDERS,
    SMALL_RUN_SYMBOLS,
    ladder_cache_info,
)
from repro.sig.twisted import log_interpretation_scheme

from .mixed_inputs import (
    draw_batch,
    draw_page,
    every_kind,
    materialized,
    matrix_lane,
)

#: id -> scheme factory results, built once: the paper's production
#: GF(2^16) n=2, the equal-strength GF(2^8) n=4, and a Proposition-6
#: twisted (log-interpretation) scheme per field.
SCHEMES = {
    "gf16": make_scheme(f=16, n=2),
    "gf8": make_scheme(f=8, n=4),
    "gf16-twisted": log_interpretation_scheme(GF(16), n=2),
    "gf8-twisted": log_interpretation_scheme(GF(8), n=3),
}


# ----------------------------------------------------------------------
# The core property: sign_many == the reference, page for page
# ----------------------------------------------------------------------

class TestBatchExactness:

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sign_many_equals_reference(self, name, data):
        scheme = SCHEMES[name]
        pages = draw_batch(data, scheme)
        with materialized(scheme, pages) as inputs:
            got = BatchSigner(scheme).sign_many(inputs)
            with matrix_lane():
                packed = BatchSigner(scheme).sign_many(inputs)
        assert got == packed == \
            [scheme.sign(content) for _kind, content in pages]

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_every_input_kind_in_one_batch(self, name):
        scheme = SCHEMES[name]
        pages = every_kind(scheme, bytes(range(7, 250)))
        with materialized(scheme, pages) as inputs:
            got = BatchSigner(scheme).sign_many(inputs)
        assert got == [scheme.sign(content) for _kind, content in pages]

    @pytest.mark.parametrize("name", ["gf16", "gf8-twisted"])
    @settings(max_examples=4, deadline=None)
    @given(data=st.data())
    def test_workers_equal_single_thread(self, name, data):
        scheme = SCHEMES[name]
        pages = draw_batch(data, scheme, max_pages=12)
        # Tiny block size forces several spans -> several pool tasks.
        pooled = BatchSigner(scheme, workers=2, block_symbols=64)
        with materialized(scheme, pages) as inputs, matrix_lane():
            got = pooled.sign_many(inputs)
        assert got == [scheme.sign(content) for _kind, content in pages]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(SCHEMES)),
           page_symbols=st.integers(1, 40))
    def test_sign_map_equals_per_slice_signing(self, data, name,
                                               page_symbols):
        scheme = SCHEMES[name]
        page = draw_page(data, scheme, max_symbols=300)
        _kind, content = page
        with materialized(scheme, [page]) as (image,):
            built = BatchSigner(scheme).sign_map(image, page_symbols)
            with matrix_lane():
                packed = BatchSigner(scheme).sign_map(image, page_symbols)
        assert packed == built
        reference = [scheme.sign_mapped(s.symbols)
                     for s in slice_pages(scheme, content, page_symbols)]
        assert built.signatures == reference
        assert built.total_symbols == scheme.signable_symbols(content).size
        assert built == SignatureMap.compute(scheme, content, page_symbols)

    def test_byte_pages_match_bytes_reference(self):
        scheme = SCHEMES["gf16"]
        rng = np.random.default_rng(5)
        pages = [rng.integers(0, 256, size=2 * n, dtype=np.uint8).tobytes()
                 for n in (0, 1, 7, 300, 4096)]
        signer = BatchSigner(scheme)
        assert signer.sign_many(pages) == [scheme.sign(p) for p in pages]

    def test_strict_enforces_certainty_bound(self):
        scheme = SCHEMES["gf8"]
        too_long = [0] * (scheme.max_page_symbols + 1)
        signer = BatchSigner(scheme)
        with pytest.raises(PageTooLongError):
            signer.sign_many([too_long])
        relaxed = signer.sign_many([too_long], strict=False)
        assert relaxed == [scheme.sign(too_long, strict=False)]

    def test_empty_batch(self):
        assert BatchSigner(SCHEMES["gf16"]).sign_many([]) == []


# ----------------------------------------------------------------------
# Width grouping: mixed batches pack by width, results keep input order
# ----------------------------------------------------------------------

class TestWidthGrouping:

    #: Interleaved short, long, empty and odd-length bodies, in bytes.
    SIZES = (104, 4128, 0, 41, 7, 4127, 1, 104, 0, 9000, 13, 104, 4128)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["gf16", "gf8-twisted"])
    def test_interleaved_widths_keep_input_order(self, name, workers):
        scheme = SCHEMES[name]
        rng = np.random.default_rng(17)
        bodies = [[rng.bytes(size // 2), rng.bytes(size - size // 2)]
                  for size in self.SIZES]
        registry = MetricsRegistry()
        with use_registry(registry), matrix_lane():
            got = BatchSigner(scheme, workers=workers).sign_concat_many(
                bodies, strict=False)
        assert got == [scheme.sign(b"".join(parts), strict=False)
                       for parts in bodies]
        if workers == 1:
            symbol_bytes = scheme.scheme_id.symbol_bytes
            lengths = np.array([-(-size // symbol_bytes)
                                for size in self.SIZES])
            groups = width_groups(lengths, BatchSigner(scheme).block_symbols)
            assert len(groups) > 1
            assert registry.total("sig.engine.batches") == len(groups)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_batches_spanning_several_groups_equal_reference(self, name,
                                                             data):
        # Pages up to 700 symbols straddle the 128-symbol group floor
        # and its 2x steps, so most batches sort into several groups.
        scheme = SCHEMES[name]
        pages = draw_batch(data, scheme, max_pages=10, max_symbols=700)
        with materialized(scheme, pages) as inputs, matrix_lane():
            got = BatchSigner(scheme).sign_many(inputs, strict=False)
        assert got == [scheme.sign(content, strict=False)
                       for _kind, content in pages]

    def test_uniform_and_segment_shaped_batches_pack_without_copies(self):
        scheme = SCHEMES["gf16"]
        rng = np.random.default_rng(18)
        pages = [rng.bytes(4128) for _ in range(4)]
        deltas = [rng.bytes(104) for _ in range(40)]
        signer = BatchSigner(scheme)
        # A uniform batch, and a log segment's shape (page frames, then
        # delta frames) whose two width groups are each consecutive
        # rows: both sign after the join alone, with no packing copy.
        for batch in (pages + pages, pages + deltas):
            with LEDGER.counting() as ledger:
                got = signer.sign_concat_many([[body] for body in batch])
            assert got == [scheme.sign(body) for body in batch]
            assert ledger.bytes_copied == sum(len(body) for body in batch)
        with LEDGER.counting() as ledger:
            signer.sign_map(b"".join(pages), 2064)
        assert ledger.bytes_copied == 0


# ----------------------------------------------------------------------
# Tree bulk build == incremental build
# ----------------------------------------------------------------------

class TestTreeBulkBuild:

    @settings(max_examples=20, deadline=None)
    @given(blob=st.binary(min_size=2, max_size=800),
           page_symbols=st.integers(1, 32), fanout=st.integers(2, 5))
    def test_bulk_fold_equals_sequential_concat(self, blob, page_symbols,
                                                fanout):
        """Every internal node equals the concat_all fold of its group."""
        scheme = SCHEMES["gf16"]
        if len(blob) % 2:
            blob += b"\0"
        tree = BatchSigner(scheme).sign_tree(blob, page_symbols, fanout)
        for level in range(1, tree.height):
            children = tree.levels[level - 1]
            for index, node in enumerate(tree.levels[level]):
                group = children[index * fanout:(index + 1) * fanout]
                sig, total = concat_all(
                    scheme, [(c.signature, c.symbols) for c in group]
                )
                assert node.signature == sig
                assert node.symbols == total
        assert tree.root.signature == scheme.sign(blob, strict=False)

    def test_bulk_build_equals_incremental_updates(self):
        """Rebuilding after an edit == update_leaf on the old tree."""
        scheme = SCHEMES["gf16"]
        rng = np.random.default_rng(11)
        data = bytearray(rng.integers(0, 256, size=4096, dtype=np.uint8))
        signer = BatchSigner(scheme)
        tree = signer.sign_tree(bytes(data), page_symbols=64, fanout=4)
        data[1000] ^= 0x5A
        page = 1000 // 128   # 64 symbols = 128 bytes per page
        tree.update_leaf(page, scheme.sign(bytes(data[page * 128:(page + 1) * 128])))
        rebuilt = signer.sign_tree(bytes(data), page_symbols=64, fanout=4)
        for mine, theirs in zip(tree.levels, rebuilt.levels):
            assert mine == theirs

    def test_foreign_leaves_rejected(self):
        scheme = SCHEMES["gf16"]
        other = SCHEMES["gf8"]
        with pytest.raises(SignatureError):
            SignatureTree.from_leaves(scheme, [(other.sign(b"ab"), 1)])


# ----------------------------------------------------------------------
# Ladder caches, worker splitting, the signer pool, metrics
# ----------------------------------------------------------------------

class TestPowerLadderCache:

    def test_bundle_reuse_and_slicing(self):
        scheme = make_scheme(f=16, n=2)
        cache = PowerLadderCache()
        long = cache.exponents(scheme, 512)
        assert cache.misses == 1 and cache.hits == 0
        short = cache.exponents(scheme, 100)
        assert cache.hits == 1 and cache.misses == 1
        for full, sliced in zip(long, short):
            assert sliced.size == 100
            assert np.array_equal(full[:100], sliced)
        # Growing beyond the cached capacity is a (single) new miss.
        cache.exponents(scheme, 1024)
        assert cache.misses == 2

    def test_lru_eviction_and_clear(self):
        cache = PowerLadderCache(maxsize=2)
        schemes = [make_scheme(f=16, n=n) for n in (1, 2, 3)]
        for scheme in schemes:
            cache.exponents(scheme, 16)
        assert len(cache._bundles) == 2
        cache.clear()
        assert cache.hits == cache.misses == 0 == len(cache._bundles)

    def test_batch_paths_share_default_cache(self):
        scheme = make_scheme(f=16, n=2)
        with matrix_lane():
            BatchSigner(scheme).sign_many([b"ab" * 32])
            before = DEFAULT_LADDERS.hits
            BatchSigner(scheme).sign_many([b"cd" * 16])
        assert DEFAULT_LADDERS.hits > before
        info = ladder_cache_info()
        assert set(info) == {"bundle_hits", "bundle_misses",
                             "ladder_hits", "ladder_misses"}

    def test_invalid_sizes_rejected(self):
        with pytest.raises(SignatureError):
            PowerLadderCache(maxsize=0)
        with pytest.raises(SignatureError):
            BatchSigner(make_scheme(), workers=0)
        with pytest.raises(SignatureError):
            BatchSigner(make_scheme(), block_symbols=0)


class TestEnginePlumbing:

    def test_signer_pool_shares_instances(self):
        scheme = make_scheme(f=16, n=2)
        assert get_batch_signer(scheme) is get_batch_signer(scheme)
        # A distinct scheme object (same id) gets a fresh signer bound
        # to *that* object, never a stale one.
        clone = make_scheme(f=16, n=2)
        assert get_batch_signer(clone).scheme is clone

    def test_block_splitting_preserves_order(self):
        scheme = make_scheme(f=16, n=2)
        rng = np.random.default_rng(3)
        pages = [rng.integers(0, scheme.field.size, size=size).tolist()
                 for size in (30, 1, 0, 64, 17, 64, 2, 50)]
        tiny = BatchSigner(scheme, block_symbols=64)
        with matrix_lane():
            assert tiny.sign_many(pages) == [scheme.sign(p) for p in pages]

    def test_engine_metrics_emitted(self):
        registry = MetricsRegistry()
        scheme = make_scheme(f=16, n=2)
        with use_registry(registry), matrix_lane():
            BatchSigner(scheme).sign_many([b"ab", b"cd", b"ef"])
        assert registry.total("sig.engine.batches") == 1
        assert registry.total("sig.engine.pages") == 3
        snapshot = registry.snapshot()
        assert snapshot["sig.sign_calls"] == {
            "algo=batch,field=gf16,variant=standard": 3
        }

    def test_small_runs_counted_under_their_own_label(self):
        registry = MetricsRegistry()
        scheme = make_scheme(f=16, n=2)
        large = b"xy" * SMALL_RUN_SYMBOLS
        with use_registry(registry):
            signer = BatchSigner(scheme)
            signer.sign_many([b"ab", b"cd", b"ef"])
            signer.sign_concat([b"head", b"body!"])
            signer.sign_many([large])
        snapshot = registry.snapshot()
        assert snapshot["sig.sign_calls"] == {
            "algo=small,field=gf16,variant=standard": 4,
            "algo=batch,field=gf16,variant=standard": 1,
        }
        assert snapshot["sig.bytes_signed"] == {
            "algo=small,field=gf16,variant=standard": 6 + 10,
            "algo=batch,field=gf16,variant=standard": len(large),
        }
        # Only the matrix lane packs batches.
        assert registry.total("sig.engine.batches") == 1
