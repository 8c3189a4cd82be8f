"""Tests for the numpy bulk kernels against scalar reference arithmetic."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GaloisFieldError
from repro.gf import GF
from repro.gf import vectorized as V
from repro.sig import make_scheme
from repro.sig.twisted import log_interpretation_scheme


@pytest.fixture(scope="module")
def gf():
    return GF(8)


def reference_component(field, symbols, beta):
    """Scalar reference: sig_beta(P) = XOR p_i * beta^i."""
    acc = 0
    for i, symbol in enumerate(symbols):
        acc ^= field.mul(int(symbol), field.pow(beta, i))
    return acc


class TestByteReinterpretation:
    def test_gf8_identity(self, gf):
        data = bytes(range(256))
        symbols = V.bytes_to_symbols(data, gf)
        assert symbols.tolist() == list(range(256))
        assert V.symbols_to_bytes(symbols, gf) == data

    def test_gf16_little_endian(self):
        gf16 = GF(16)
        symbols = V.bytes_to_symbols(b"\x01\x02\x03\x04", gf16)
        assert symbols.tolist() == [0x0201, 0x0403]

    def test_gf16_odd_length_padded(self):
        gf16 = GF(16)
        symbols = V.bytes_to_symbols(b"\xff", gf16)
        assert symbols.tolist() == [0x00FF]

    def test_gf16_roundtrip_even(self):
        gf16 = GF(16)
        data = bytes(range(100))
        assert V.symbols_to_bytes(V.bytes_to_symbols(data, gf16), gf16) == data

    def test_unusual_width_rejected(self):
        with pytest.raises(GaloisFieldError):
            V.bytes_to_symbols(b"xx", GF(4))

    def test_as_symbol_array_range_check(self, gf):
        with pytest.raises(GaloisFieldError):
            V.as_symbol_array([256], gf)
        with pytest.raises(GaloisFieldError):
            V.as_symbol_array([-1], gf)

    def test_as_symbol_array_accepts_lists(self, gf):
        assert V.as_symbol_array([1, 2, 3], gf).tolist() == [1, 2, 3]


class TestPowerWeights:
    def test_matches_scalar_pow(self, gf):
        beta = 7
        weights = V.power_weights(gf, beta, 20)
        for i in range(20):
            assert weights[i] == gf.pow(beta, i)

    def test_start_offset(self, gf):
        weights = V.power_weights(gf, 3, 10, start=5)
        for i in range(10):
            assert weights[i] == gf.pow(3, 5 + i)

    def test_zero_base_rejected(self, gf):
        with pytest.raises(GaloisFieldError):
            V.power_weights(gf, 0, 4)


class TestComponentSignature:
    @given(st.lists(st.integers(0, 255), max_size=60), st.integers(1, 255))
    @settings(max_examples=100)
    def test_matches_reference(self, symbols, beta):
        gf = GF(8)
        arr = np.array(symbols, dtype=np.int64)
        assert V.component_signature(gf, arr, beta) == \
            reference_component(gf, arr, beta)

    def test_empty_page(self, gf):
        assert V.component_signature(gf, np.zeros(0, dtype=np.int64), 2) == 0

    def test_all_zero_page(self, gf):
        assert V.component_signature(gf, np.zeros(100, dtype=np.int64), 2) == 0

    def test_zero_base_rejected(self, gf):
        with pytest.raises(GaloisFieldError):
            V.component_signature(gf, np.array([1]), 0)

    def test_long_page_gf16(self):
        """Positions beyond the group order wrap correctly."""
        gf16 = GF(16)
        rng = np.random.default_rng(5)
        symbols = rng.integers(0, gf16.size, 200).astype(np.int64)
        assert V.component_signature(gf16, symbols, gf16.alpha) == \
            reference_component(gf16, symbols, gf16.alpha)


class TestSignatureVector:
    def test_matches_per_component(self, gf, rng):
        symbols = rng.integers(0, 256, 50).astype(np.int64)
        betas = (2, 4, 8)
        vector = V.signature_vector(gf, symbols, betas)
        for beta, component in zip(betas, vector):
            assert component == V.component_signature(gf, symbols, beta)

    def test_empty(self, gf):
        assert V.signature_vector(gf, np.zeros(0, dtype=np.int64), (2, 3)) == (0, 0)


class TestTermsAndPrefix:
    def test_term_array(self, gf, rng):
        symbols = rng.integers(0, 256, 30).astype(np.int64)
        terms = V.term_array(gf, symbols, 2)
        for i, symbol in enumerate(symbols):
            assert terms[i] == gf.mul(int(symbol), gf.pow(2, i))

    def test_prefix_xor(self):
        terms = np.array([1, 2, 4], dtype=np.int64)
        assert V.prefix_xor(terms).tolist() == [0, 1, 3, 7]

    def test_prefix_xor_empty(self):
        assert V.prefix_xor(np.zeros(0, dtype=np.int64)).tolist() == [0]


class TestAllWindowSignatures:
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=40),
           st.integers(1, 10))
    @settings(max_examples=80)
    def test_every_window_matches_reference(self, symbols, window):
        gf = GF(8)
        arr = np.array(symbols, dtype=np.int64)
        out = V.all_window_signatures(gf, arr, gf.alpha, window)
        if window > arr.size:
            assert out.size == 0
            return
        assert out.size == arr.size - window + 1
        for k in range(out.size):
            assert out[k] == reference_component(gf, arr[k:k + window], gf.alpha)

    def test_bad_window_rejected(self, gf):
        with pytest.raises(GaloisFieldError):
            V.all_window_signatures(gf, np.array([1, 2]), 2, 0)


class TestScale:
    def test_scale_by_zero(self, gf, rng):
        values = rng.integers(0, 256, 10).astype(np.int64)
        assert not V.scale(gf, values, 0).any()

    def test_scale_by_one_copies(self, gf, rng):
        values = rng.integers(0, 256, 10).astype(np.int64)
        scaled = V.scale(gf, values, 1)
        assert np.array_equal(scaled, values)
        scaled[0] ^= 1
        assert not np.array_equal(scaled, values)  # it is a copy

    @given(st.lists(st.integers(0, 255), max_size=30), st.integers(1, 255))
    @settings(max_examples=60)
    def test_scale_matches_scalar(self, values, factor):
        gf = GF(8)
        arr = np.array(values, dtype=np.int64)
        scaled = V.scale(gf, arr, factor)
        for got, value in zip(scaled, values):
            assert got == gf.mul(value, factor)


#: The blocked kernel's schemes: GF(2^8) n=4, the paper's GF(2^16) n=2,
#: and a Proposition-6 twisted scheme (the kernel signs its phi-images).
KERNEL_SCHEMES = {
    "gf8": make_scheme(f=8, n=4),
    "gf16": make_scheme(f=16, n=2),
    "gf16-twisted": log_interpretation_scheme(GF(16), n=2),
}


class TestBlockedKernel:
    """``batch_signature_matrix`` walks row blocks; every row stays exact."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SCHEMES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_row_sign_scalar(self, name, data):
        scheme = KERNEL_SCHEMES[name]
        field = scheme.field
        width = data.draw(st.sampled_from([0, 1, 2, 7, 33]), label="width")
        budget = data.draw(st.sampled_from([1, 40, 99]), label="budget")
        block = max(1, budget // max(width, 1))
        rows = data.draw(st.sampled_from(
            sorted({max(1, block - 1), block, block + 1, 1})), label="rows")
        # Narrow matrices are what the engine packs; int64 is what the
        # pre-arena bench pipeline (bench._legacy_batch_sign) passes.
        dtype = data.draw(st.sampled_from(
            [V.symbol_dtype(field), np.dtype(np.int64)]), label="dtype")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pages = []
        matrix = np.zeros((rows, width), dtype=dtype)
        for row in matrix:
            page = rng.integers(0, field.size, rng.integers(0, width + 1))
            page[rng.random(page.size) < 0.2] = 0
            pages.append(page)
            row[:page.size] = scheme.map_symbols(page)   # padding stays 0
        with mock.patch.object(V, "KERNEL_BLOCK_SYMBOLS", budget):
            components = V.batch_signature_matrix(field, matrix,
                                                  scheme.base.betas)
        assert components.shape == (rows, scheme.n)
        assert [tuple(row) for row in components.tolist()] == [
            scheme.sign_scalar(page, strict=False).components
            for page in pages]

    def test_wide_matrix_keeps_the_bounds_check(self):
        field = GF(8)
        matrix = np.array([[1, 2, field.size]], dtype=np.int64)
        with pytest.raises(IndexError):
            V.batch_signature_matrix(field, matrix, (2,))

    @pytest.mark.parametrize("f", [8, 16])
    def test_ladders_are_read_only_int32_views(self, f):
        field = GF(f)
        beta = field.alpha
        ladder = V.ladder_exponents(field, beta, 3000)
        assert ladder.dtype == np.int32
        assert ladder.base is not None          # a view of the shared store
        assert not ladder.flags.writeable
        with pytest.raises(ValueError):
            ladder[0] = 1
        expected = (field.log(beta) * np.arange(3000)) % field.order
        assert np.array_equal(ladder, expected)
        assert V.ladder_exponents(field, beta, 10).base is ladder.base
