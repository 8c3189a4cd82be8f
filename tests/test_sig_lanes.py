"""The signing lanes against the paper's scalar loop, and the sentinel kernels.

A run of fewer than :data:`~repro.sig.engine.SMALL_RUN_SYMBOLS` symbols
is signed by the small lane, a larger one by the packed matrix lane,
and ``scheme.sign`` shares the small lane's one-body kernel.  Which
lane runs must never show in the result: every entry point equals
``sign_scalar`` -- the Section 5.1 transliteration -- byte for byte on
both sides of the crossover, for plain and twisted schemes on both
production fields.

The kernels gather through the zero-sentinel tables (a zero symbol's
logarithm indexes a run of zeros), so the second half checks each one
against scalar field arithmetic on inputs crowded with zero symbols
and zero components -- exactly the entries the old masks filtered.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF
from repro.gf import vectorized as V
from repro.sig import BatchSigner, make_scheme
from repro.sig.engine import SMALL_RUN_SYMBOLS
from repro.sig.twisted import log_interpretation_scheme

SCHEMES = {
    "gf16": make_scheme(f=16, n=2),
    "gf8": make_scheme(f=8, n=4),
    "gf16-twisted": log_interpretation_scheme(GF(16), n=2),
    "gf8-twisted": log_interpretation_scheme(GF(8), n=3),
}

#: Symbol counts around the crossover: just under, at, and just over.
BOUNDARY = (SMALL_RUN_SYMBOLS - 3, SMALL_RUN_SYMBOLS - 1, SMALL_RUN_SYMBOLS,
            SMALL_RUN_SYMBOLS + 1, SMALL_RUN_SYMBOLS + 5)


def scalar(scheme, body: bytes):
    """The executable specification's signature of one body."""
    return scheme.sign_scalar(body, strict=False)


@st.composite
def runs(draw, scheme):
    """A run of multi-part bodies whose total lands at the crossover.

    Drawn bodies (empty, odd-length and multi-part ones included) are
    topped up with filler bodies of at most the certainty bound until
    the run's symbol count hits a :data:`BOUNDARY` target.
    """
    symbol_bytes = scheme.scheme_id.symbol_bytes
    part = st.binary(max_size=24)
    bodies = draw(st.lists(st.lists(part, min_size=1, max_size=3),
                           min_size=0, max_size=6))
    target = draw(st.sampled_from(BOUNDARY))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    used = sum(-(-sum(map(len, parts)) // symbol_bytes) for parts in bodies)
    room = target - used
    chunk = min(scheme.max_page_symbols, 1500)
    while room > 0:
        width = min(room, chunk)
        filler = rng.integers(0, 256, width * symbol_bytes, dtype=np.uint8)
        filler[rng.random(filler.size) < 0.3] = 0      # zero-rich bodies
        bodies.insert(draw(st.integers(0, len(bodies))),
                      [filler.tobytes()])
        room -= width
    return bodies


class TestLaneBoundary:

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_every_entry_point_equals_sign_scalar(self, name, data):
        scheme = SCHEMES[name]
        bodies = data.draw(runs(scheme))
        joined = [b"".join(parts) for parts in bodies]
        expected = [scalar(scheme, body) for body in joined]
        signer = BatchSigner(scheme)
        assert signer.sign_concat_many(bodies, strict=False) == expected
        assert signer.sign_many(joined, strict=False) == expected
        assert [scheme.sign(body, strict=False) for body in joined] == expected

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("symbols", BOUNDARY)
    def test_lone_body_at_the_crossover(self, name, symbols):
        scheme = SCHEMES[name]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        rng = np.random.default_rng(symbols)
        body = rng.integers(0, 256, symbols * symbol_bytes - 1,
                            dtype=np.uint8).tobytes()
        expected = scalar(scheme, body)      # odd length on GF(2^16)
        signer = BatchSigner(scheme)
        assert signer.sign_concat([body[:7], body[7:]], strict=False) \
            == expected
        assert signer.sign_many([body], strict=False) == [expected]
        assert scheme.sign(body, strict=False) == expected

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_empty_bodies_only(self, name):
        scheme = SCHEMES[name]
        signer = BatchSigner(scheme)
        assert signer.sign_concat_many([[b""], [b"", b""]]) == \
            [scheme.zero, scheme.zero]
        assert signer.sign_many([b"", b""]) == [scheme.zero, scheme.zero]


# ----------------------------------------------------------------------
# Sentinel-table kernels vs scalar field arithmetic
# ----------------------------------------------------------------------

def zero_rich(field, max_size: int):
    """Symbol lists where zero dominates (half the draws, at least)."""
    symbol = st.one_of(st.just(0), st.just(0), st.integers(0, field.order))
    return st.lists(symbol, max_size=max_size)


def reference_component(field, symbols, beta, start: int = 0) -> int:
    acc = 0
    for i, symbol in enumerate(symbols):
        acc ^= field.mul(int(symbol), field.pow(beta, start + i))
    return acc


FIELDS = {"gf8": GF(8), "gf16": GF(16), "gf4": GF(4)}


class TestSentinelTables:

    @pytest.mark.parametrize("name", sorted(FIELDS))
    def test_layout(self, name):
        field = FIELDS[name]
        order = field.order
        assert field.sentinel_log[0] == 2 * order
        assert np.array_equal(field.sentinel_log[1:], field.log_table[1:])
        assert field.sentinel_antilog.size == 3 * order
        assert not field.sentinel_antilog[2 * order:].any()
        doubled = np.concatenate([field.antilog_table, field.antilog_table])
        assert np.array_equal(field.sentinel_antilog[:2 * order], doubled)
        assert field.sentinel_log.dtype == np.int32
        assert field.sentinel_antilog.dtype == V.symbol_dtype(field)


class TestSentinelKernels:

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_term_array_and_signatures(self, name, data):
        field = FIELDS[name]
        symbols = np.array(data.draw(zero_rich(field, 40)), dtype=np.int64)
        betas = tuple(data.draw(st.lists(st.integers(1, field.order),
                                         min_size=1, max_size=3)))
        for beta in betas:
            terms = V.term_array(field, symbols, beta)
            assert terms.tolist() == [
                field.mul(int(s), field.pow(beta, i))
                for i, s in enumerate(symbols)]
            assert V.component_signature(field, symbols, beta) == \
                reference_component(field, symbols, beta)
        assert V.signature_vector(field, symbols, betas) == tuple(
            reference_component(field, symbols, beta) for beta in betas)

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_shift_rows_and_delta_matrix(self, name, data):
        field = FIELDS[name]
        betas = tuple(data.draw(st.lists(st.integers(1, field.order),
                                         min_size=1, max_size=3)))
        rows = data.draw(st.lists(zero_rich(field, 12), min_size=0,
                                  max_size=6))
        positions = np.array(data.draw(st.lists(
            st.integers(0, 3 * field.order), min_size=len(rows),
            max_size=len(rows))), dtype=np.int64)
        width = max((len(row) for row in rows), default=0)
        matrix = np.zeros((len(rows), width), dtype=np.int64)
        for k, row in enumerate(rows):
            matrix[k, :len(row)] = row
        components = V.batch_signature_matrix(field, matrix, betas)
        assert components.tolist() == [
            [reference_component(field, row, beta) for beta in betas]
            for row in rows]
        expected = [[field.mul(c, field.pow(beta, int(r)))
                     for c, beta in zip(row, betas)]
                    for row, r in zip(components.tolist(), positions)]
        assert V.shift_rows(field, components, positions, betas).tolist() \
            == expected
        assert V.delta_signature_matrix(field, matrix, positions,
                                        betas).tolist() == expected

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_fold_concat_level(self, name, data):
        field = FIELDS[name]
        betas = tuple(data.draw(st.lists(st.integers(1, field.order),
                                         min_size=1, max_size=3)))
        count = data.draw(st.integers(1, 9))
        fanout = data.draw(st.integers(2, 4))
        components = np.array([
            data.draw(st.lists(st.one_of(st.just(0),
                                         st.integers(0, field.order)),
                               min_size=len(betas), max_size=len(betas)))
            for _ in range(count)], dtype=np.int64)
        lengths = np.array(data.draw(st.lists(
            st.integers(0, 2 * field.order), min_size=count,
            max_size=count)), dtype=np.int64)
        parents, parent_lengths = V.fold_concat_level(
            field, components, lengths, betas, fanout)
        for group in range(parents.shape[0]):
            members = range(group * fanout, min((group + 1) * fanout, count))
            offset = 0
            folded = [0] * len(betas)
            for k in members:
                for j, beta in enumerate(betas):
                    folded[j] ^= field.mul(int(components[k, j]),
                                           field.pow(beta, offset))
                offset += int(lengths[k])
            assert parents[group].tolist() == folded
            assert parent_lengths[group] == offset

    @pytest.mark.parametrize("name", sorted(FIELDS))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_windows_and_scale(self, name, data):
        field = FIELDS[name]
        symbols = np.array(data.draw(zero_rich(field, 30)), dtype=np.int64)
        beta = data.draw(st.integers(1, field.order))
        window = data.draw(st.integers(1, 6))
        windows = V.all_window_signatures(field, symbols, beta, window)
        assert windows.tolist() == [
            reference_component(field, symbols[k:k + window], beta)
            for k in range(len(symbols) - window + 1)]
        factor = data.draw(st.integers(0, field.order))
        assert V.scale(field, symbols, factor).tolist() == [
            field.mul(int(s), factor) for s in symbols]

    def test_all_zero_inputs_gather_zero(self):
        field = FIELDS["gf16"]
        zeros = np.zeros((3, 50), dtype=np.uint16)
        betas = (2, 4)
        assert not V.batch_signature_matrix(field, zeros, betas).any()
        assert not V.shift_rows(field, np.zeros((3, 2), dtype=np.int64),
                                np.arange(3), betas).any()
        assert V.signature_vector(field, zeros[0], betas) == (0, 0)
        assert not V.term_array(field, zeros[0], 2).any()
