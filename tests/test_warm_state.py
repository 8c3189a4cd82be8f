"""Warm signature state: persisted bytes, array folds and object counts.

A durable store persists its warm state (Section 2.1's signature map and
the Section 4.2 signature tree) in sealed checkpoints.  The golden below
pins, byte for byte, the checkpoint file of a fixed-seed
:class:`~repro.store.PageStore` and the ``SignatureMap.to_bytes()`` of
each of its volumes, built through the public API with whole-image
writes, page rewrites, journaled deltas (growth and a shrink included),
a checkpoint and a delta tail.  Regenerate
``tests/data/warm_state_golden.json`` by writing
``warm_state_golden_text()`` to it, and only with an explained diff:
the on-disk layout is part of the store's compatibility contract.

The maps and trees are held as component arrays and folded with the
Proposition-3/5 kernels; a property test checks random journals
(growth, shrinks, pseudo-writes, page-straddling regions) against
rebuilds from the mutated bytes, and a recovery of a rotted log is
checked to build :class:`~repro.sig.signature.Signature` objects only
for the pages it condemns.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import GF
from repro.sig import (
    LocateDesign,
    LocatorMap,
    SignatureTree,
    get_batch_signer,
    log_interpretation_scheme,
    make_scheme,
)
from repro.sig.signature import Signature
from repro.store import PageStore
from repro.store import checkpoint as ckpt
from repro.sync import Replica

GOLDEN = Path(__file__).parent / "data" / "warm_state_golden.json"

#: Schemes whose stores the golden pins: the paper's GF(2^16), n = 2
#: (two-byte symbols) and a twisted GF(2^8), n = 4 (one-byte symbols).
GOLDEN_SCHEMES = {
    "plain-gf16-n2": make_scheme(f=16, n=2),
    "twisted-gf8-n4": log_interpretation_scheme(GF(8), n=4),
}


def build_golden_store(scheme, directory: Path, seed: int = 29) -> PageStore:
    """A fixed-seed store with rewrites, deltas, a checkpoint and a tail.

    Two volumes: ``a`` (128-byte pages, a short final page) and ``b``
    (64-byte pages), so the checkpoint holds two maps and two trees
    whose final leaves are short.
    """
    rng = random.Random(seed)
    symbol_bytes = scheme.scheme_id.symbol_bytes
    store = PageStore(scheme, directory, fanout=4)
    images = {"a": bytearray(rng.randbytes(128 * 37 + 6)),
              "b": bytearray(rng.randbytes(64 * 9))}
    pages = {"a": 128, "b": 64}
    for name, image in images.items():
        store.write_image(name, bytes(image), pages[name])

    def rewrite(name: str) -> None:
        image, page_bytes = images[name], pages[name]
        index = rng.randrange(len(image) // page_bytes)
        page = rng.randbytes(page_bytes)
        image[index * page_bytes:(index + 1) * page_bytes] = page
        store.write_page(name, index, page)

    def delta(name: str, grow: int = 0) -> None:
        image = images[name]
        if grow:
            image.extend(bytes(grow))
        width = rng.randrange(1, 24) * symbol_bytes
        at = rng.randrange(0, len(image) - width) // symbol_bytes \
            * symbol_bytes
        before = bytes(image[at:at + width])
        after = rng.randbytes(width)
        image[at:at + width] = after
        store.record_extent(name, at, before, after, len(image))

    for _ in range(6):
        rewrite("a")
        rewrite("b")
    for step in range(30):
        delta("a" if step % 3 else "b", grow=64 if step == 11 else 0)
    # A shrink to an odd symbol count of volume b, through the log.
    images["b"] = images["b"][:len(images["b"]) - 3 * symbol_bytes]
    store.truncate("b", len(images["b"]))
    store.checkpoint()
    for step in range(12):
        delta("a" if step % 2 else "b")
    rewrite("a")
    return store


def warm_state_golden(tmp_path: Path) -> dict:
    """The golden document: checkpoint and map bytes per scheme, as hex."""
    document = {}
    for label, scheme in GOLDEN_SCHEMES.items():
        directory = tmp_path / label
        store = build_golden_store(scheme, directory)
        try:
            document[label] = {
                "checkpoint": (directory / ckpt.FILENAME).read_bytes().hex(),
                "maps": {name: store.signature_map(name).to_bytes().hex()
                         for name in store.volumes()},
            }
        finally:
            store.close()
    return document


def warm_state_golden_text(tmp_path: Path) -> str:
    """The golden file's text (regenerate the file from this)."""
    return json.dumps(warm_state_golden(tmp_path), indent=1,
                      sort_keys=True) + "\n"


class TestWarmStateGolden:
    """The persisted warm state is pinned byte for byte."""

    def test_checkpoint_and_map_bytes_match_golden(self, tmp_path):
        assert warm_state_golden_text(tmp_path) == GOLDEN.read_text()

    def test_golden_store_recovers_to_the_pinned_maps(self, tmp_path):
        golden = json.loads(GOLDEN.read_text())
        for label, scheme in GOLDEN_SCHEMES.items():
            directory = tmp_path / label
            build_golden_store(scheme, directory).close()
            store, report = PageStore.recover(scheme, directory, fanout=4)
            try:
                assert report.used_checkpoint and report.clean
                for name, blob in golden[label]["maps"].items():
                    assert store.signature_map(name).to_bytes().hex() == blob
            finally:
                store.close()


# ----------------------------------------------------------------------
# The array fold against rebuilds from the mutated bytes
# ----------------------------------------------------------------------

#: Plain GF(2^16) n = 2, plain GF(2^8) n = 4 and a twisted scheme (zero
#: symbols are not signature-neutral there, so growth padding is signed).
FOLD_SCHEMES = {
    "plain-gf16-n2": make_scheme(f=16, n=2),
    "plain-gf8-n4": make_scheme(f=8, n=4),
    "twisted-gf16-n2": log_interpretation_scheme(GF(16), n=2),
}
FOLD_PAGE_BYTES = 32
FOLD_FANOUT = 3
FOLD_DESIGN = LocateDesign.build(256, 2, 5)


def _mutate(replica: Replica, rng: random.Random, symbol_bytes: int) -> None:
    """One random journaled edit of the replica's image.

    Aligned writes that may straddle pages or grow the image, XOR
    patches, pseudo-writes (the same bytes written back), and shrinks to
    even and odd symbol counts.
    """
    size = len(replica.data)
    kind = rng.choice(("write", "write", "xor", "pseudo", "grow", "shrink"))
    if kind == "shrink" and size > 4 * symbol_bytes:
        symbols = rng.randrange(1, size // symbol_bytes)
        if rng.random() < 0.5:
            symbols -= symbols % 2          # even
        else:
            symbols |= 1                    # odd
        replica.truncate(symbols * symbol_bytes)
        return
    width = rng.randrange(1, 3 * FOLD_PAGE_BYTES // symbol_bytes) \
        * symbol_bytes
    limit = size + (4 * FOLD_PAGE_BYTES if kind == "grow" else 0)
    at = rng.randrange(0, max(1, limit - width) // symbol_bytes + 1) \
        * symbol_bytes
    if kind == "pseudo" and at + width <= size:
        replica.write_at(at, bytes(replica.data[at:at + width]))
    elif kind == "xor":
        replica.apply_xor(at, rng.randbytes(width))
    else:
        replica.write_at(at, rng.randbytes(width))


def _assert_matches_rebuild(replica: Replica) -> None:
    """Warm map, every tree level and the warm locator equal rebuilds."""
    scheme = replica.scheme
    warm_map = replica.signature_map()
    rebuilt = get_batch_signer(scheme).sign_map(bytes(replica.data),
                                                replica.page_symbols)
    assert np.array_equal(warm_map.components, rebuilt.components)
    assert warm_map.total_symbols == rebuilt.total_symbols
    warm_tree = replica.signature_tree(FOLD_FANOUT)
    fresh_tree = SignatureTree.from_map(rebuilt, FOLD_FANOUT)
    assert warm_tree.height == fresh_tree.height
    for warm, fresh in zip(warm_tree.components, fresh_tree.components):
        assert np.array_equal(warm, fresh)
    for warm, fresh in zip(warm_tree.lengths, fresh_tree.lengths):
        assert np.array_equal(warm, fresh)
    assert replica.locator_map(design=FOLD_DESIGN) \
        == LocatorMap.from_map(FOLD_DESIGN, rebuilt)


@pytest.mark.parametrize("label", sorted(FOLD_SCHEMES))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_array_fold_matches_rebuilds(label, seed):
    """Random journals fold into the array state exactly.

    Each round journals a few edits, then folds them through the warm
    map, tree and locator; all three must equal rebuilds from the
    mutated bytes, and the checkpoint codec must round-trip the state
    byte for byte.
    """
    scheme = FOLD_SCHEMES[label]
    symbol_bytes = scheme.scheme_id.symbol_bytes
    rng = random.Random(seed)
    replica = Replica("fold", scheme, rng.randbytes(FOLD_PAGE_BYTES * 7 + 4),
                      FOLD_PAGE_BYTES)
    replica.signature_tree(FOLD_FANOUT)
    replica.locator_map(design=FOLD_DESIGN)
    for _round in range(6):
        for _edit in range(rng.randrange(1, 6)):
            _mutate(replica, rng, symbol_bytes)
        _assert_matches_rebuild(replica)
        _assert_checkpoint_round_trips(replica)


def _assert_checkpoint_round_trips(replica: Replica) -> None:
    """encode -> decode -> encode is byte-identical, arrays included."""
    scheme = replica.scheme
    snapshot = ckpt.Checkpoint(1234, 56, {"v": ckpt.VolumeCheckpoint(
        replica.page_bytes, len(replica.data), replica.signature_map(),
        replica.signature_tree(FOLD_FANOUT))})
    encoded = ckpt.encode(scheme, snapshot)
    decoded = ckpt.decode(encoded, scheme)
    assert decoded is not None
    assert ckpt.encode(scheme, decoded) == encoded
    state = decoded.volumes["v"]
    assert state.map == replica.signature_map()
    assert state.map.total_symbols == replica.signature_map().total_symbols
    for mine, theirs in zip(state.tree.components,
                            replica.signature_tree(FOLD_FANOUT).components):
        assert np.array_equal(mine, theirs)


# ----------------------------------------------------------------------
# Recovery builds Signature objects only for condemned pages
# ----------------------------------------------------------------------

def _rotted_store(scheme, directory: Path, pages: int = 48,
                  page_bytes: int = 128) -> None:
    """A store whose log lost two pre-checkpoint delta frames to rot."""
    rng = random.Random(7)
    symbol_bytes = scheme.scheme_id.symbol_bytes
    store = PageStore(scheme, directory)
    image = bytearray(rng.randbytes(pages * page_bytes))
    store.write_image("vol", bytes(image), page_bytes)
    ends = []
    for _ in range(40):
        at = rng.randrange(pages) * page_bytes \
            + rng.randrange(0, page_bytes - 32, symbol_bytes)
        after = rng.randbytes(32)
        store.record_extent("vol", at, bytes(image[at:at + 32]), after,
                            len(image))
        image[at:at + 32] = after
        ends.append(store.log_bytes)
    store.checkpoint()
    for _ in range(10):
        at = rng.randrange(0, len(image) - 32, symbol_bytes)
        after = rng.randbytes(32)
        store.record_extent("vol", at, bytes(image[at:at + 32]), after,
                            len(image))
        image[at:at + 32] = after
    store.close()
    for end in (ends[5], ends[20]):
        store.corrupt_log(end - 20, b"\xff\xff")


@pytest.mark.parametrize("locate_d", [None, 4])
@pytest.mark.parametrize("label", sorted(FOLD_SCHEMES))
def test_recovery_builds_signatures_only_for_condemned_pages(
        tmp_path, monkeypatch, label, locate_d):
    scheme = FOLD_SCHEMES[label]
    page_bytes = 128
    _rotted_store(scheme, tmp_path / "store", page_bytes=page_bytes)
    built = []
    post_init = Signature.__post_init__

    def counting(signature):
        built.append(signature)
        post_init(signature)

    monkeypatch.setattr(Signature, "__post_init__", counting)
    store, report = PageStore.recover(scheme, tmp_path / "store",
                                      locate_d=locate_d)
    monkeypatch.setattr(Signature, "__post_init__", post_init)
    try:
        condemned = report.condemned.get("vol", ())
        assert report.corrupt_frames == 2 and condemned
        assert len(built) == len(report.expected["vol"]) <= len(condemned)
        assert store.signature_map("vol").page_count == 48
        for page, signature in report.expected["vol"].items():
            assert signature.scheme_id == scheme.scheme_id
            assert page in condemned
    finally:
        store.close()
