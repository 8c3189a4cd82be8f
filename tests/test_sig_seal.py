"""The one seal codec: ``body || sig(body)`` for every sealed byte string.

A seal is the body's n-symbol algebraic signature as n little-endian
symbols.  These tests pin that :mod:`repro.sig.seal` writes exactly
``scheme.sign(body).to_bytes()`` for plain and twisted schemes in both
production fields (empty, odd-length and multi-part bodies included),
that :func:`~repro.sig.seal.opened` rejects every body damage of at
most n symbols (Proposition 1), and that wire frames, log frames,
checkpoints and flight-recorder dumps all carry that one format.

One body under ``SMALL_RUN_SYMBOLS`` symbols is sealed on the lean lane,
everything else on the batch engine's ``concat_components``.  The lane
must not show in the seal bytes, the signing counters or the copy
ledger, and no one-body seal of a durable cluster may reach the batch
engine.
"""

import contextlib
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, wire
from repro.gf import GF
from repro.obs import FlightRecorder, MetricsRegistry, use_registry
from repro.sig import BatchSigner, SignatureTree, get_batch_signer, make_scheme
from repro.sig.arena import LEDGER
from repro.sig.engine import SMALL_RUN_SYMBOLS
from repro.sig.seal import opened, seal, seals, seals_hold
from repro.sig.twisted import log_interpretation_scheme
from repro.store import checkpoint as ck
from repro.store import frames as fr

SCHEMES = {
    "gf8-n4": make_scheme(8, 4),
    "gf16-n2": make_scheme(16, 2),
    "gf8-n4-twisted": log_interpretation_scheme(GF(8), n=4),
    "gf16-n2-twisted": log_interpretation_scheme(GF(16), n=2),
}

#: Bodies split into parts at arbitrary byte offsets (odd ones too).
PARTS = st.lists(st.binary(max_size=90), max_size=4)


def _reference(scheme, body: bytes) -> bytes:
    return scheme.sign(body, strict=False).to_bytes()


#: The raw byte containers a seal's parts may be.
KINDS = (bytes, bytearray, memoryview)


@contextlib.contextmanager
def batch_calls():
    """Record the body sizes (in bytes) of every ``concat_components``
    call made inside the block, one list per call."""
    calls: list[list[int]] = []
    original = BatchSigner.concat_components

    def spy(self, bodies, strict=True):
        bodies = list(bodies)
        calls.append([sum(len(part) for part in parts) for parts in bodies])
        return original(self, bodies, strict)

    with mock.patch.object(BatchSigner, "concat_components", spy):
        yield calls


def _batched(scheme, parts) -> bytes:
    """One body's seal through the batch engine: its component row,
    serialized as a seal."""
    row = get_batch_signer(scheme).concat_components([parts], strict=False)
    return row.astype(f"<u{scheme.scheme_id.symbol_bytes}").tobytes()


def _symbols(scheme, size: int) -> int:
    return -(-size // scheme.scheme_id.symbol_bytes)


@pytest.mark.parametrize("name", sorted(SCHEMES))
class TestSealFormat:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_seal_is_the_signature_bytes(self, name, data):
        """Any mix of ``bytes``, ``bytearray`` and ``memoryview`` parts;
        one small body never reaches the batch engine."""
        scheme = SCHEMES[name]
        raw = data.draw(PARTS, label="parts")
        parts = [data.draw(st.sampled_from(KINDS), label="kind")(part)
                 for part in raw]
        body = b"".join(raw)
        expected = _reference(scheme, body)
        with batch_calls() as calls:
            assert seal(scheme, parts) == expected
            assert seal(scheme, [body]) == expected
            assert seals(scheme, [parts]) == [expected]
            assert opened(scheme, body + expected) == body
        assert calls == []

    @settings(max_examples=30, deadline=None)
    @given(bodies=st.lists(PARTS, max_size=6))
    def test_seals_equal_one_seal_per_body(self, name, bodies):
        scheme = SCHEMES[name]
        assert seals(scheme, bodies) == [
            _reference(scheme, b"".join(parts)) for parts in bodies]

    def test_empty_and_odd_bodies(self, name):
        scheme = SCHEMES[name]
        for body in (b"", b"\x01", b"\x00\x00\x07", bytes(range(141))):
            assert seal(scheme, [body]) == _reference(scheme, body)
            assert seal(scheme, [memoryview(body)]) == \
                _reference(scheme, body)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_opened_returns_the_body_in_its_own_kind(self, name, data):
        scheme = SCHEMES[name]
        body = data.draw(st.binary(max_size=200), label="body")
        sealed = body + seal(scheme, [body])
        assert opened(scheme, sealed) == body
        assert type(opened(scheme, sealed)) is bytes
        view = opened(scheme, memoryview(sealed))
        assert isinstance(view, memoryview) and bytes(view) == body
        assert opened(scheme, sealed[:scheme.signature_bytes - 1]) is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_opened_rejects_every_damage_of_at_most_n_symbols(self, name,
                                                              data):
        """Proposition 1: within the length bound, changing 1..n body
        symbols always changes the seal."""
        scheme = SCHEMES[name]
        width = scheme.scheme_id.symbol_bytes
        body = bytearray(data.draw(st.binary(
            min_size=1, max_size=scheme.max_page_symbols * width - 1),
            label="body"))
        sealed_tail = seal(scheme, [bytes(body)])
        symbols = data.draw(st.lists(
            st.integers(0, -(-len(body) // width) - 1), min_size=1,
            max_size=scheme.n, unique=True), label="symbols")
        for symbol in symbols:
            at = symbol * width
            real = min(width, len(body) - at)
            pattern = data.draw(st.integers(1, (1 << (8 * real)) - 1),
                                label="xor").to_bytes(real, "little")
            for i, byte in enumerate(pattern):
                body[at + i] ^= byte
        assert opened(scheme, bytes(body) + sealed_tail) is None

    @pytest.mark.parametrize("symbols", [SMALL_RUN_SYMBOLS - 1,
                                         SMALL_RUN_SYMBOLS,
                                         SMALL_RUN_SYMBOLS + 3])
    def test_crossover_routes_by_symbol_count(self, name, symbols):
        """A body under ``SMALL_RUN_SYMBOLS`` symbols never reaches the
        batch engine; a body of that many or more always does.  Either
        way the seal is the signature bytes."""
        scheme = SCHEMES[name]
        width = scheme.scheme_id.symbol_bytes
        rng = np.random.default_rng(symbols)
        for size in {symbols * width, symbols * width - width + 1}:
            body = rng.bytes(size)
            expected = _reference(scheme, body)
            for parts in ([body], [body[:7], memoryview(body)[7:]],
                          [bytearray(body)]):
                with batch_calls() as calls:
                    assert seal(scheme, parts) == expected
                    assert seals(scheme, [parts]) == [expected]
                    assert opened(scheme, body + expected) == body
                if _symbols(scheme, size) < SMALL_RUN_SYMBOLS:
                    assert calls == []
                else:
                    assert calls == [[size]] * 3

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_opened_rejects_every_seal_damage(self, name, data):
        """Changing 1..n symbols of the seal itself always fails it."""
        scheme = SCHEMES[name]
        width = scheme.scheme_id.symbol_bytes
        body = data.draw(st.binary(max_size=200), label="body")
        sealed = bytearray(body + seal(scheme, [body]))
        symbols = data.draw(st.lists(st.integers(0, scheme.n - 1),
                                     min_size=1, max_size=scheme.n,
                                     unique=True), label="symbols")
        for symbol in symbols:
            at = len(body) + symbol * width
            pattern = data.draw(st.integers(1, (1 << (8 * width)) - 1),
                                label="xor").to_bytes(width, "little")
            for i, byte in enumerate(pattern):
                sealed[at + i] ^= byte
        assert opened(scheme, bytes(sealed)) is None
        assert opened(scheme, memoryview(sealed)) is None


class TestOneFormat:
    def test_wire_log_checkpoint_and_recorder_seals_agree(self):
        """Each sealed artifact ends with ``seal(scheme, body)`` of the
        bytes before it, and a log frame is exactly the wire seal of
        its own body."""
        scheme = make_scheme()
        width = scheme.signature_bytes
        log_frame = fr.encode_many(scheme, [fr.Frame(
            fr.KIND_PAGE, 3, "vol", fr.encode_page(0, 64, b"p" * 63))])[0]
        wire_frame = wire.seal(scheme, b"one body")
        signature_map = get_batch_signer(scheme).sign_map(b"image" * 40, 32)
        blob = ck.encode(scheme, ck.Checkpoint(7, 9, {"image": (
            ck.VolumeCheckpoint(64, 200, signature_map,
                                SignatureTree.from_map(signature_map, 4)))}))
        dump = FlightRecorder("node0", scheme).dump("test", detail=1)
        assert dump.sealed[:-width] == dump.payload
        for artifact in (log_frame, wire_frame, blob, dump.sealed):
            assert artifact[-width:] == seal(scheme, [artifact[:-width]])
        assert wire.seal(scheme, log_frame[:-width]) == log_frame
        assert ck.decode(blob, scheme) is not None
        assert wire.unseal(scheme, dump.sealed) == dump.payload
        damaged = bytearray(blob)
        damaged[5] ^= 1
        assert ck.decode(bytes(damaged), scheme) is None

    def test_seal_builds_no_signature_object(self, monkeypatch):
        """Seals serialize the component rows directly."""
        from repro.sig import signature

        def refuse(*args, **kwargs):
            raise AssertionError("a seal built a Signature")

        scheme = make_scheme()
        monkeypatch.setattr(signature.Signature, "__post_init__", refuse)
        sealed = wire.seal(scheme, b"abc")
        assert wire.unseal(scheme, sealed) == b"abc"
        assert seals(scheme, [[b"x"], [b"yz"]])[1] == seal(scheme, [b"yz"])
        fr.encode_many(scheme, [fr.Frame(fr.KIND_TRUNCATE, 0, "v",
                                         fr.encode_truncate(0, 64))])
        FlightRecorder("node0", scheme).dump("test")
        buffer = sealed + sealed
        starts = np.array([0, len(sealed)])
        assert seals_hold(scheme, buffer, starts,
                          starts + 3).tolist() == [True, True]


class TestLaneAccounting:
    BODIES = (
        [], [b""], [b"\x01"], [b"ab"], [b"a", b"bc"],
        [memoryview(b"wxyz")], [bytearray(b"odd")], [bytes(141)],
        [bytes(30), bytes(range(101))], [memoryview(bytes(range(145)))[:-4]],
    )

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_lean_lane_charges_what_the_batch_lane_charges(self, name):
        """Same ``sig.*`` series and the same copy-ledger charges, body
        for body, whichever lane signs it."""
        scheme = SCHEMES[name]
        bodies = self.BODIES + (
            [bytes(scheme.scheme_id.symbol_bytes * (SMALL_RUN_SYMBOLS - 1))],)
        outcomes = []
        for lane in (seal, _batched):
            registry = MetricsRegistry()
            with use_registry(registry), LEDGER.counting() as ledger:
                got = [lane(scheme, parts) for parts in bodies]
                outcomes.append((got, registry.snapshot(),
                                 ledger.bytes_copied, ledger.events))
        assert outcomes[0] == outcomes[1]
        assert registry.total("sig.sign_calls", algo="small") == len(bodies)
        assert outcomes[0][3] > 0


class TestLaneRouting:
    def test_one_body_seals_never_reach_the_batch_engine(self):
        """Wire seals and checks, one-frame log bursts, checkpoints and
        recorder dumps of a durable cluster all take the lean lane."""
        scheme = make_scheme()
        rng = random.Random(3)
        with tempfile.TemporaryDirectory() as root, \
                use_registry(MetricsRegistry()) as registry, \
                batch_calls() as calls:
            cluster = Cluster(servers=4, seed=9, scheme=scheme,
                              durable_dir=root, durable_flush="frame",
                              durable_checkpoint_every=4)
            client = cluster.client()
            for key in range(12):
                assert client.insert(key, rng.randbytes(
                    rng.randrange(1, 200))).ok
            for _ in range(12):
                assert client.update(rng.randrange(12), rng.randbytes(
                    rng.randrange(1, 200))).ok
            cluster.settle()
            for recorder in cluster.recorders.values():
                recorder.dump("test")
            for node in cluster.nodes:
                node.store.close()
        one_body = [sizes for sizes in calls if len(sizes) == 1
                    and _symbols(scheme, sizes[0]) < SMALL_RUN_SYMBOLS]
        assert one_body == []
        assert registry.total("store.checkpoints") > 0
        assert registry.total("obs.recorder_dumps") == len(cluster.recorders)
        assert registry.total("sig.sign_calls", algo="small") > 100
