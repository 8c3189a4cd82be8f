"""Incremental O(|delta|) maintenance: journals, folds, warm trees.

The load-bearing property: after ANY sequence of journaled writes --
mixed sizes, page-straddling, overlapping, growth, truncation -- the
incrementally maintained :class:`~repro.sig.IncrementalSignatureMap` is
byte-identical to ``SignatureMap.compute`` over the mutated buffer, and
the warm :class:`~repro.sig.SignatureTree` updated through
``apply_leaf_deltas`` is node-identical to a from-scratch rebuild.
Verified for plain AND twisted schemes over GF(2^8) and GF(2^16)
(twisted schemes are the hard case: zero symbols are not
signature-neutral there, so growth padding must be signed explicitly).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignatureError
from repro.gf import GF
from repro.sig import (
    IncrementalSignatureMap,
    SignatureMap,
    SignatureTree,
    WriteJournal,
    aligned_span,
    get_batch_signer,
    log_interpretation_scheme,
    make_scheme,
)
from repro.sig.algebra import apply_update, delta_signature, shift

from .mixed_inputs import KINDS, materialized

PAGE_SYMBOLS = 16
FANOUT = 4

SCHEMES = {
    "plain-gf16": make_scheme(f=16, n=2),
    "plain-gf8": make_scheme(f=8, n=4),
    "twisted-gf16": log_interpretation_scheme(GF(16), n=2),
    "twisted-gf8": log_interpretation_scheme(GF(8), n=2),
}


class TrackedBuffer:
    """A byte buffer whose writes feed a journal, like the capture sites."""

    def __init__(self, scheme, initial: bytes):
        self.scheme = scheme
        self.symbol_bytes = scheme.scheme_id.symbol_bytes
        self.data = bytearray(initial)
        self.inc = IncrementalSignatureMap.from_data(
            scheme, bytes(initial), PAGE_SYMBOLS
        )
        self.tree = SignatureTree.from_map(self.inc.map, FANOUT)

    def write(self, offset: int, content: bytes) -> None:
        end = offset + len(content)
        if end > len(self.data):
            # Grown space starts zero-filled and symbol-aligned, the
            # way RecordHeap._grow guarantees.
            grown = -(-end // self.symbol_bytes) * self.symbol_bytes
            self.data.extend(bytes(grown - len(self.data)))
        lo, hi = aligned_span(offset, len(content), self.symbol_bytes)
        hi = min(hi, len(self.data))
        before = bytes(self.data[lo:hi])
        self.data[offset:end] = content
        self.inc.journal.record(lo, before, bytes(self.data[lo:hi]))

    def truncate(self, new_symbols: int) -> None:
        new_length = new_symbols * self.symbol_bytes
        if new_length >= len(self.data):
            return
        tail = len(self.data) - new_length
        before = bytes(self.data[new_length:])
        self.data[new_length:] = bytes(tail)
        self.inc.journal.record(new_length, before, bytes(tail))
        del self.data[new_length:]

    def fold(self) -> None:
        report = self.inc.apply_journal(self.inc.journal,
                                        total_bytes=len(self.data))
        if report.resized:
            self.tree = SignatureTree.from_map(self.inc.map, FANOUT)
        else:
            self.tree.apply_leaf_deltas(report.leaf_deltas)

    def check(self) -> None:
        fresh = SignatureMap.compute(self.scheme, bytes(self.data),
                                     PAGE_SYMBOLS)
        assert self.inc.map.total_symbols == fresh.total_symbols
        assert self.inc.map.signatures == fresh.signatures
        fresh_tree = SignatureTree.from_map(fresh, FANOUT)
        assert len(self.tree.levels) == len(fresh_tree.levels)
        for warm_level, fresh_level in zip(self.tree.levels,
                                           fresh_tree.levels):
            assert [n.signature for n in warm_level] == \
                [n.signature for n in fresh_level]
            assert [n.symbols for n in warm_level] == \
                [n.symbols for n in fresh_level]


write_ops = st.tuples(
    st.just("write"),
    st.integers(0, 50 * PAGE_SYMBOLS * 2),   # byte offset, page-straddling
    st.binary(min_size=1, max_size=3 * PAGE_SYMBOLS * 2),
)
truncate_ops = st.tuples(st.just("truncate"), st.integers(1, 60))
fold_ops = st.tuples(st.just("fold"))
op_lists = st.lists(st.one_of(write_ops, truncate_ops, fold_ops),
                    max_size=14)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@settings(max_examples=25, deadline=None)
@given(initial=st.binary(min_size=2, max_size=6 * PAGE_SYMBOLS * 2),
       ops=op_lists)
def test_any_write_sequence_keeps_map_and_tree_exact(name, initial, ops):
    scheme = SCHEMES[name]
    symbol_bytes = scheme.scheme_id.symbol_bytes
    aligned = (len(initial) // symbol_bytes) * symbol_bytes
    buffer = TrackedBuffer(scheme, initial[:max(symbol_bytes, aligned)])
    for op in ops:
        if op[0] == "write":
            buffer.write(op[1], op[2])
        elif op[0] == "truncate":
            buffer.truncate(op[1])
        else:
            buffer.fold()
    buffer.fold()
    buffer.check()


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_overlapping_writes_telescope(name):
    """Re-journaling the same region repeatedly folds to the final state."""
    scheme = SCHEMES[name]
    rng = np.random.default_rng(9)
    size = 10 * PAGE_SYMBOLS * scheme.scheme_id.symbol_bytes
    buffer = TrackedBuffer(
        scheme, rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    )
    for step in range(20):
        offset = int(rng.integers(0, size - 40))
        content = rng.integers(0, 256, size=int(rng.integers(1, 40)),
                               dtype=np.uint8).tobytes()
        buffer.write(offset, content)
    buffer.fold()
    buffer.check()


# ----------------------------------------------------------------------
# The fused delta kernel (satellite: linearity fast path)
# ----------------------------------------------------------------------

def test_fused_delta_equals_explicit_on_plain_schemes():
    """Plain schemes are linear in raw symbols: one sign of b XOR a
    equals the explicit sign-both-then-XOR path, for every region."""
    rng = np.random.default_rng(3)
    for name in ("plain-gf16", "plain-gf8"):
        scheme = SCHEMES[name]
        assert scheme.is_linear
        for length in (2, 31, 64):
            size = length * scheme.scheme_id.symbol_bytes
            before = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            after = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            fused = delta_signature(scheme, before, after)
            explicit = scheme.sign(before) ^ scheme.sign(after)
            assert fused == explicit


def test_twisted_schemes_take_the_explicit_path():
    """Twisted schemes are NOT raw-symbol linear; the explicit fallback
    still satisfies Proposition 3 exactly."""
    rng = np.random.default_rng(4)
    for name in ("twisted-gf16", "twisted-gf8"):
        scheme = SCHEMES[name]
        assert not scheme.is_linear
        symbol_bytes = scheme.scheme_id.symbol_bytes
        page = rng.integers(0, 256, size=48 * symbol_bytes,
                            dtype=np.uint8).tobytes()
        position = 10
        at = position * symbol_bytes
        width = 8 * symbol_bytes
        replacement = rng.integers(0, 256, size=width,
                                   dtype=np.uint8).tobytes()
        updated = page[:at] + replacement + page[at + width:]
        assert apply_update(
            scheme, scheme.sign(page), page[at:at + width], replacement,
            position,
        ) == scheme.sign(updated)


# ----------------------------------------------------------------------
# Engine batch kernels: fast/slow/uniform paths agree
# ----------------------------------------------------------------------

def _regions_for(scheme, rng, sizes):
    """Journal-style regions of one buffer, one input kind per region.

    Returns ``(buffer, mutated, regions)`` with regions as ``(page,
    position, kind, before, after)``.  Kinds cycle through every input
    form; an ``odd`` region on a plain GF(2^16) scheme leaves its last
    byte unchanged and drops it, so the zero byte the engine pads with
    adds no delta (twisted schemes map the pad, so there it stays even).
    """
    symbol_bytes = scheme.scheme_id.symbol_bytes
    page_bytes = PAGE_SYMBOLS * symbol_bytes
    buffer = rng.integers(0, 256, size=12 * page_bytes,
                          dtype=np.uint8).tobytes()
    regions = []
    mutated = bytearray(buffer)
    for index, symbols in enumerate(sizes):
        kind = KINDS[index % len(KINDS)]
        page = index % 12
        at = page * page_bytes + (index % 3) * symbol_bytes
        width = symbols * symbol_bytes
        before = bytes(mutated[at:at + width])
        after = rng.integers(0, 256, size=width, dtype=np.uint8).tobytes()
        trim = kind == "odd" and symbol_bytes == 2 and scheme.is_linear
        if trim:
            after = after[:-1] + before[-1:]
        mutated[at:at + width] = after
        if trim:
            before, after = before[:-1], after[:-1]
        regions.append((page, (at - page * page_bytes) // symbol_bytes,
                        kind, before, after))
    # A zero-width region is a no-op on every lane.
    regions.append((0, 0, "view", b"", b""))
    return buffer, bytes(mutated), regions


@pytest.mark.parametrize("sizes", [
    [4] * 9,                 # uniform widths: the reshape fast path
    [1, 7, 3, 12, 5, 2, 6],  # ragged widths: the packed-span path
])
def test_apply_deltas_byte_and_array_regions_agree(sizes):
    """Mixed-kind regions fold exactly like byte regions, in one call.

    Covers bytes, bytearrays, memoryviews, symbol lists and arrays,
    arena views, odd-length GF(2^16) regions and empty regions, on
    plain and twisted schemes over GF(2^8) and GF(2^16).
    """
    rng = np.random.default_rng(11)
    for scheme in SCHEMES.values():
        signer = get_batch_signer(scheme)
        buffer, mutated, regions = _regions_for(scheme, rng, sizes)

        map_bytes = SignatureMap.compute(scheme, buffer, PAGE_SYMBOLS)
        net_bytes = signer.apply_deltas(map_bytes, [
            (page, position, before, after)
            for page, position, _kind, before, after in regions
        ])

        sides = [(kind, before) for _p, _r, kind, before, _a in regions] + \
            [(kind, after) for _p, _r, kind, _b, after in regions]
        map_mixed = SignatureMap.compute(scheme, buffer, PAGE_SYMBOLS)
        with materialized(scheme, sides) as inputs:
            net_mixed = signer.apply_deltas(map_mixed, [
                (page, position, before, after)
                for (page, position, *_), before, after
                in zip(regions, inputs, inputs[len(regions):])
            ])

        expected = SignatureMap.compute(scheme, mutated, PAGE_SYMBOLS)
        assert map_bytes.signatures == expected.signatures
        assert map_mixed.signatures == expected.signatures
        assert net_bytes == net_mixed


def test_delta_signature_many_matches_shifted_single_deltas():
    scheme = SCHEMES["twisted-gf16"]
    signer = get_batch_signer(scheme)
    rng = np.random.default_rng(12)
    regions = []
    for position in (0, 3, 17):
        width = int(rng.integers(1, 9)) * 2
        before = rng.integers(0, 256, size=width, dtype=np.uint8).tobytes()
        after = rng.integers(0, 256, size=width, dtype=np.uint8).tobytes()
        regions.append((position, before, after))
    produced = signer.delta_signature_many(regions)
    for (position, before, after), sig in zip(regions, produced):
        assert sig == shift(scheme, delta_signature(scheme, before, after),
                            position)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def test_journal_rejects_misaligned_and_mismatched_regions():
    journal = WriteJournal(symbol_bytes=2)
    with pytest.raises(SignatureError):
        journal.record(1, b"ab", b"cd")          # odd offset
    with pytest.raises(SignatureError):
        journal.record(0, b"abc", b"abc")        # odd length
    with pytest.raises(SignatureError):
        journal.record(0, b"ab", b"abcd")        # length mismatch
    journal.record(0, b"ab", b"ab")
    assert len(journal) == 1 and journal.byte_count == 2


def test_aligned_span_and_bounds():
    assert aligned_span(3, 5, 2) == (2, 8)
    assert aligned_span(4, 4, 2) == (4, 8)
    assert aligned_span(0, 0, 2) == (0, 0)
    with pytest.raises(SignatureError):
        aligned_span(-1, 4, 2)


def test_apply_deltas_rejects_out_of_range_regions():
    scheme = SCHEMES["plain-gf16"]
    signer = get_batch_signer(scheme)
    buffer = bytes(8 * PAGE_SYMBOLS * 2)
    sig_map = SignatureMap.compute(scheme, buffer, PAGE_SYMBOLS)
    with pytest.raises(SignatureError):
        signer.apply_deltas(sig_map, [(99, 0, b"ab", b"cd")])
    with pytest.raises(SignatureError):
        signer.apply_deltas(
            sig_map, [(0, PAGE_SYMBOLS - 1, b"abcd", b"wxyz")]
        )


def test_apply_leaf_deltas_rejects_foreign_and_out_of_range():
    scheme = SCHEMES["plain-gf16"]
    other = SCHEMES["plain-gf8"]
    buffer = bytes(range(256)) * 4
    tree = SignatureTree.from_map(
        SignatureMap.compute(scheme, buffer, PAGE_SYMBOLS), FANOUT
    )
    delta = delta_signature(scheme, b"abcd", b"wxyz")
    with pytest.raises(SignatureError):
        tree.apply_leaf_deltas({99: delta})
    foreign = delta_signature(other, b"abcd", b"wxyz")
    with pytest.raises(SignatureError):
        tree.apply_leaf_deltas({0: foreign})
