"""The engine's zero-copy narrow signing lanes and their copy ledger.

The contract under test is the same as the batch engine's: *exactness
at zero-copy speed*.  Pages held as ``memoryview`` slices of one
shared buffer (an arena), views starting mid-buffer, concat-lane
bodies, and narrow delta folds must all be byte-identical to the
reference ``scheme.sign`` across plain and twisted schemes over both
production fields, for mixed page lengths including empties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError
from repro.gf import GF
from repro.gf.vectorized import (
    GROUP_FLOOR_SYMBOLS,
    narrow_symbol_view,
    pack_flat,
    width_groups,
)
from repro.sig import LEDGER, BatchSigner, make_scheme
from repro.sig.algebra import delta_signature, shift
from repro.sig.twisted import log_interpretation_scheme

from .mixed_inputs import draw_page, materialized, shared_views

SCHEMES = {
    "gf16": make_scheme(f=16, n=2),
    "gf8": make_scheme(f=8, n=4),
    "gf16-twisted": log_interpretation_scheme(GF(16), n=2),
    "gf8-twisted": log_interpretation_scheme(GF(8), n=3),
}


def byte_pages(scheme, max_pages=8, max_symbols=50):
    """Random symbol-aligned byte pages (mixed lengths, empties)."""
    symbol_bytes = scheme.scheme_id.symbol_bytes
    page = st.binary(min_size=0, max_size=max_symbols * symbol_bytes) \
        .map(lambda b: b[:len(b) - len(b) % symbol_bytes])
    return st.lists(page, min_size=0, max_size=max_pages)


# ----------------------------------------------------------------------
# The packing kernels
# ----------------------------------------------------------------------

class TestPacking:

    def test_pack_flat_matches_per_row_layout(self):
        rng = np.random.default_rng(11)
        pages = [rng.integers(0, 255, size=size, dtype=np.int64)
                 for size in (5, 0, 9, 9, 1)]
        lengths = np.array([page.size for page in pages], dtype=np.int64)
        matrix = pack_flat(np.concatenate(pages), lengths)
        for row, page in zip(matrix, pages):
            assert row[:page.size].tolist() == page.tolist()
            assert not row[page.size:].any()

    def test_width_groups_cover_rows_within_budget(self):
        floor = GROUP_FLOOR_SYMBOLS
        lengths = np.array([300, 1, 0, 640, 170, 640, 2, 500, 3 * floor],
                           dtype=np.int64)
        budget = 1280

        def row_lists(groups):
            return [np.arange(lengths.size)[rows].tolist() for rows in groups]

        groups = row_lists(width_groups(lengths, budget))
        # Every row lands in exactly one group, listed in input order.
        assert sorted(sum(groups, [])) == list(range(lengths.size))
        for rows in groups:
            assert rows == sorted(rows)
            widths = lengths[rows]
            assert len(rows) == 1 or len(rows) * widths.max() <= budget
            # Within 2x of the narrowest row, or of the floor below it.
            assert widths.max() <= 2 * max(widths.min(), floor)
        assert width_groups(np.zeros(0, dtype=np.int64), 64) == []

    def test_width_groups_keep_consecutive_rows_as_slices(self):
        uniform = np.full(10, 8, dtype=np.int64)
        assert width_groups(uniform, 32) == [
            slice(0, 4), slice(4, 8), slice(8, 10)]
        # Narrow rows share one matrix however their widths differ.
        assert width_groups(np.array([1, 9, 40, 2, 200]), 1 << 20) == [
            slice(0, 5)]
        wide = GROUP_FLOOR_SYMBOLS
        ascending = np.array([wide, 2 * wide, 3 * wide, 5 * wide, 9 * wide])
        assert width_groups(ascending, 1 << 20) == [
            slice(0, 2), slice(2, 4), slice(4, 5)]
        # Interleaved widths group by width, not by position.
        groups = width_groups(np.array([2064, 52, 2064, 18, 52]), 1 << 20)
        assert [np.arange(5)[rows].tolist() for rows in groups] == [
            [1, 3, 4], [0, 2]]

    def test_pack_flat_uniform_lengths_is_a_view(self):
        flat = np.arange(12, dtype=np.uint8)
        matrix = pack_flat(flat, np.full(3, 4, dtype=np.int64))
        assert matrix.shape == (3, 4)
        assert matrix.base is not None  # reshape of flat, no copy

    def test_narrow_symbol_view_alignment(self):
        field16 = SCHEMES["gf16"].field
        assert narrow_symbol_view(b"abc", field16) is None  # odd length
        view = narrow_symbol_view(b"abcd", field16)
        assert view.dtype == np.dtype("<u2") and view.size == 2
        field8 = SCHEMES["gf8"].field
        assert narrow_symbol_view(b"abc", field8).size == 3
        assert narrow_symbol_view(12345, field8) is None


# ----------------------------------------------------------------------
# Exactness: arena-backed signing == scheme.sign
# ----------------------------------------------------------------------

class TestArenaExactness:

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_arena_views_equal_reference(self, name, data):
        scheme = SCHEMES[name]
        pages = data.draw(byte_pages(scheme))
        signer = BatchSigner(scheme)
        views = shared_views(pages, scheme.scheme_id.symbol_bytes)
        expected = [scheme.sign(page) for page in pages]
        assert signer.sign_many(views) == expected
        assert signer.sign_many(pages) == expected
        assert signer.sign_many(
            [memoryview(page) for page in pages]) == expected

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_mid_arena_views(self, name):
        scheme = SCHEMES[name]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        rng = np.random.default_rng(42)
        payload = bytes(rng.integers(0, 256, size=512, dtype=np.uint8))
        arena = memoryview(bytearray(payload))
        spans = [(0, 64), (64, 128), (32, 32), (128, 0), (2, 200)]
        views = [arena[off * symbol_bytes:(off + length) * symbol_bytes]
                 for off, length in spans]
        expected = [scheme.sign(bytes(view)) for view in views]
        assert BatchSigner(scheme).sign_many(views) == expected

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_sign_concat_equals_joined_reference(self, name, data):
        scheme = SCHEMES[name]
        parts = data.draw(st.lists(st.binary(min_size=0, max_size=40),
                                   min_size=1, max_size=5))
        signer = BatchSigner(scheme)
        assert signer.sign_concat(parts, strict=False) == \
            scheme.sign(b"".join(parts), strict=False)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_sign_concat_many_bodies(self, name):
        scheme = SCHEMES[name]
        bodies = [[b"header-17-bytes!!", b"payload" * 11],
                  [b""], [b"x"], [b"ab", b"", b"cd"]]
        signer = BatchSigner(scheme)
        assert signer.sign_concat_many(bodies) == \
            [scheme.sign(b"".join(parts)) for parts in bodies]

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_sign_map_raw_lane(self, name):
        scheme = SCHEMES[name]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        rng = np.random.default_rng(7)
        image = bytes(rng.integers(0, 256, size=100 * 64 * symbol_bytes + 3 * symbol_bytes,
                                   dtype=np.uint8))
        signer = BatchSigner(scheme)
        via_raw = signer.sign_map(image, 64)
        via_rows = signer.sign_map(
            scheme.to_symbols(image).astype(np.int64), 64)
        assert via_raw.signatures == via_rows.signatures
        assert via_raw.total_symbols == via_rows.total_symbols


# ----------------------------------------------------------------------
# The narrow delta lane
# ----------------------------------------------------------------------

class TestDeltaLane:

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_delta_signature_many_matches_reference(self, name, data):
        """Each batched delta equals its own Proposition-3 algebra.

        Regions mix every input kind in one call; the reference signs
        each region pair alone through :mod:`repro.sig.algebra`.
        """
        scheme = SCHEMES[name]
        count = data.draw(st.integers(1, 6))
        positions, befores, afters = [], [], []
        for _ in range(count):
            kind, before = draw_page(data, scheme, max_symbols=20)
            after = data.draw(st.binary(min_size=len(before),
                                        max_size=len(before)))
            positions.append(data.draw(st.integers(0, 50)))
            befores.append((kind, before))
            afters.append((kind, after))
        with materialized(scheme, befores + afters) as inputs:
            got = BatchSigner(scheme).delta_signature_many(
                zip(positions, inputs[:count], inputs[count:]))
        assert got == [
            shift(scheme, delta_signature(scheme, before, after), position)
            for position, (_, before), (_, after)
            in zip(positions, befores, afters)
        ]

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_apply_deltas_still_converges(self, name):
        scheme = SCHEMES[name]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        signer = BatchSigner(scheme)
        page_symbols = 32
        rng = np.random.default_rng(3)
        image = bytearray(rng.integers(
            0, 256, size=page_symbols * symbol_bytes * 8,
            dtype=np.uint8).tobytes())
        page_map = signer.sign_map(bytes(image), page_symbols)
        deltas = []
        for page, position, size in ((0, 0, 4), (2, 8, 2), (2, 16, 4),
                                     (7, 28, 4)):
            start = (page * page_symbols + position) * symbol_bytes
            before = bytes(image[start:start + size * symbol_bytes])
            after = bytes(rng.integers(0, 256, size=size * symbol_bytes,
                                       dtype=np.uint8))
            image[start:start + size * symbol_bytes] = after
            deltas.append((page, position, before, after))
        net = signer.apply_deltas(page_map, deltas)
        fresh = signer.sign_map(bytes(image), page_symbols)
        assert page_map.signatures == fresh.signatures
        assert set(net) <= {0, 2, 7}


# ----------------------------------------------------------------------
# Copies-per-byte accounting
# ----------------------------------------------------------------------

class TestCopyLedger:

    def test_copies_per_byte_normalization(self):
        from repro.sig.arena import CopyLedger
        ledger = CopyLedger()
        ledger.enabled = True
        ledger.count(300)
        assert ledger.copies_per_byte(100) == 3.0
        with pytest.raises(SignatureError):
            ledger.copies_per_byte(0)

    def test_ledger_disabled_outside_counting(self):
        before = LEDGER.bytes_copied
        BatchSigner(SCHEMES["gf8"]).sign_many([b"quiet" * 1000, b"x"],
                                              strict=False)
        assert LEDGER.bytes_copied == before
        assert not LEDGER.enabled

    def test_arena_lane_copies_fewer_bytes_than_widening(self):
        """The raw lane must beat one int64 widening of the payload."""
        scheme = SCHEMES["gf8"]
        pages = [bytes([i % 251] * 200) for i in range(64)]
        payload = sum(len(p) for p in pages)
        signer = BatchSigner(scheme)
        with LEDGER.counting() as ledger:
            signer.sign_many(pages)
        # Narrow lane: one concat (1x) + at most one packed fill (1x);
        # the historical path paid >= 8x in int64 widenings alone.
        assert ledger.copies_per_byte(payload) <= 2.0
