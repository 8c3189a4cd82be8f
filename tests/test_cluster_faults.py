"""Tests for fault plans, the faulty network, retries, and the wire seal."""

import pytest

from repro.cluster import (
    Crash,
    EventLoop,
    FaultPlan,
    FaultyNetwork,
    LinkFaults,
    Partition,
    RetryPolicy,
)
from repro.cluster import wire
from repro.obs import MetricsRegistry, use_registry
from repro.obs.trace import TraceContext
from repro.sig import make_scheme
from repro.sim import SimNetwork


class TestLinkFaults:
    def test_clean_by_default(self):
        assert LinkFaults().is_clean

    def test_any_fault_breaks_clean(self):
        for kwargs in ({"drop": 0.1}, {"duplicate": 0.1}, {"corrupt": 0.1},
                       {"jitter": 1e-3}, {"reorder": 0.1}):
            assert not LinkFaults(**kwargs).is_clean

    def test_probabilities_validated(self):
        for name in ("drop", "duplicate", "corrupt", "reorder"):
            with pytest.raises(ValueError):
                LinkFaults(**{name: 1.5})
            with pytest.raises(ValueError):
                LinkFaults(**{name: -0.1})
        with pytest.raises(ValueError):
            LinkFaults(jitter=-1.0)


class TestPartition:
    def test_severs_across_groups_while_active(self):
        partition = Partition(start=1.0, heal_at=2.0, groups=(("a",), ("b",)))
        assert partition.severs(1.5, "a", "b")
        assert not partition.severs(1.5, "a", "a")

    def test_heals_on_schedule(self):
        partition = Partition(start=1.0, heal_at=2.0, groups=(("a",), ("b",)))
        assert not partition.severs(0.5, "a", "b")
        assert not partition.severs(2.0, "a", "b")

    def test_unlisted_nodes_form_implicit_group(self):
        partition = Partition(start=0.0, heal_at=1.0, groups=(("a",),))
        assert partition.severs(0.5, "a", "x")
        assert not partition.severs(0.5, "x", "y")

    def test_must_heal_after_start(self):
        with pytest.raises(ValueError):
            Partition(start=1.0, heal_at=1.0, groups=())


class TestFaultPlan:
    def test_link_override(self):
        bad = LinkFaults(drop=0.5)
        plan = FaultPlan(links={("a", "b"): bad})
        assert plan.link("a", "b") is bad
        assert plan.link("b", "a").is_clean

    def test_severed_consults_all_partitions(self):
        plan = FaultPlan(partitions=(
            Partition(start=0.0, heal_at=1.0, groups=(("a",),)),
            Partition(start=2.0, heal_at=3.0, groups=(("b",),)),
        ))
        assert plan.severed(0.5, "a", "b")
        assert not plan.severed(1.5, "a", "b")
        assert plan.severed(2.5, "a", "b")

    def test_crash_validation(self):
        with pytest.raises(ValueError):
            Crash("node0", at=1.0, recover_at=0.5)

    def test_lossy_preset(self):
        plan = FaultPlan.lossy(drop=0.2)
        assert plan.default.drop == 0.2
        assert plan.default.corrupt > 0


def make_transport(plan, seed=0):
    network = SimNetwork()
    loop = EventLoop(network.clock)
    return FaultyNetwork(network, loop, plan, seed=seed), loop


class TestFaultyNetwork:
    def test_clean_link_delivers_everything(self):
        transport, loop = make_transport(FaultPlan())
        got = []
        for n in range(20):
            transport.transmit("a", "b", "x", bytes([n]), got.append)
        loop.run_until_idle()
        assert got == [bytes([n]) for n in range(20)]
        assert transport.injected == {}

    def test_network_and_loop_must_share_a_clock(self):
        with pytest.raises(ValueError):
            FaultyNetwork(SimNetwork(), EventLoop(), FaultPlan())

    def test_drops_are_seeded_and_accounted(self):
        plan = FaultPlan(default=LinkFaults(drop=0.5))
        with use_registry(MetricsRegistry()) as registry:
            transport, loop = make_transport(plan, seed=3)
            got = []
            for n in range(100):
                transport.transmit("a", "b", "x", bytes([n]), got.append)
            loop.run_until_idle()
        dropped = transport.injected["drop"]
        assert 0 < dropped < 100
        assert len(got) == 100 - dropped
        assert registry.total("cluster.faults_injected", type="drop") == \
            dropped
        # Dropped bytes still burn wire accounting: the sender sent them.
        assert transport.inner.stats.messages == 100

    def test_same_seed_same_draws(self):
        def run(seed):
            plan = FaultPlan(default=LinkFaults(drop=0.3, jitter=1e-4))
            transport, loop = make_transport(plan, seed=seed)
            got = []
            for n in range(50):
                transport.transmit("a", "b", "x", bytes([n]), got.append)
            loop.run_until_idle()
            return got

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_duplicates_deliver_twice(self):
        plan = FaultPlan(default=LinkFaults(duplicate=1.0))
        transport, loop = make_transport(plan)
        got = []
        transport.transmit("a", "b", "x", b"payload", got.append)
        loop.run_until_idle()
        assert got == [b"payload", b"payload"]
        assert transport.injected["duplicate"] == 1

    def test_corruption_changes_exactly_one_byte(self):
        plan = FaultPlan(default=LinkFaults(corrupt=1.0))
        transport, loop = make_transport(plan)
        payload = bytes(range(64))
        got = []
        transport.transmit("a", "b", "x", payload, got.append)
        loop.run_until_idle()
        (delivered,) = got
        diffs = [i for i in range(64) if delivered[i] != payload[i]]
        assert len(diffs) == 1
        assert transport.injected["corrupt"] == 1

    def test_every_corruption_breaks_the_seal(self):
        """The detection guarantee: a one-byte flip is always caught."""
        scheme = make_scheme()
        plan = FaultPlan(default=LinkFaults(corrupt=1.0))
        transport, loop = make_transport(plan, seed=11)
        sealed = wire.seal(scheme, b"the paper's integrity argument")
        got = []
        for _ in range(50):
            transport.transmit("a", "b", "x", sealed, got.append)
        loop.run_until_idle()
        assert len(got) == 50
        assert transport.injected["corrupt"] == 50
        assert all(wire.unseal(scheme, body) is None for body in got)

    def test_partition_drops_until_heal(self):
        plan = FaultPlan(partitions=(
            Partition(start=0.0, heal_at=1.0, groups=(("a",), ("b",))),
        ))
        transport, loop = make_transport(plan)
        got = []
        transport.transmit("a", "b", "x", b"early", got.append)
        loop.run_until(2.0)
        transport.transmit("a", "b", "x", b"late", got.append)
        loop.run_until_idle()
        assert got == [b"late"]
        assert transport.injected["partition_drop"] == 1

    def test_reorder_lets_later_messages_overtake(self):
        plan = FaultPlan(links={
            ("a", "b"): LinkFaults(reorder=1.0, reorder_delay=5e-3),
        })
        transport, loop = make_transport(plan)
        got = []
        transport.transmit("a", "b", "x", b"first", got.append)
        plan.links[("a", "b")] = LinkFaults()  # second message goes clean
        transport.transmit("a", "b", "x", b"second", got.append)
        loop.run_until_idle()
        assert got == [b"second", b"first"]


class TestRetryPolicy:
    def test_exponential_ladder_with_cap(self):
        policy = RetryPolicy(timeout=1e-3, backoff=2.0, max_timeout=5e-3,
                             max_attempts=8, jitter=0.0)
        ladder = [policy.timeout_for(a) for a in range(5)]
        assert ladder == pytest.approx([1e-3, 2e-3, 4e-3, 5e-3, 5e-3])

    def test_jitter_stays_proportional(self):
        import random
        policy = RetryPolicy(timeout=1e-2, max_timeout=1e-2, jitter=0.5)
        rng = random.Random(0)
        for attempt in range(5):
            t = policy.timeout_for(attempt, rng)
            assert 1e-2 <= t <= 1.5e-2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=1.0, max_timeout=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy().timeout_for(-1)


class TestWire:
    CONTEXT = TraceContext(trace_id=0x1122334455667788, span_id=0x99)

    def test_request_roundtrip(self):
        client = 3 << 32
        body = wire.encode_request(
            wire.OP_INSERT, client | 42, 7, b"value", low_water=client | 40,
            deadline=1.25, context=self.CONTEXT)
        assert wire.decode_request(body) == (
            self.CONTEXT, wire.OP_INSERT, client | 42, client | 40, 7, 1.25,
            b"value")
        # Defaults: untraced, no deadline, nothing older outstanding.
        plain = wire.decode_request(wire.encode_request(wire.OP_SEARCH, 42, 7))
        assert plain == (None, wire.OP_SEARCH, 42, 42, 7, 0.0, b"")
        assert plain.low_water == plain.request_id
        # The envelope leads: all-zero when untraced.
        assert wire.encode_request(wire.OP_SEARCH, 42, 7)[:16] == bytes(16)

    def test_reply_roundtrip(self):
        body = wire.encode_reply(wire.ST_FOUND, 42, b"value",
                                 context=self.CONTEXT)
        assert wire.decode_reply(body) == (self.CONTEXT, wire.ST_FOUND, 42,
                                           b"value")
        assert wire.decode_reply(wire.encode_reply(wire.ST_SHED, 42)) == (
            None, wire.ST_SHED, 42, b"")

    def test_iam_roundtrip(self):
        body = wire.encode_iam(5, 3, 1 << 20, 1 << 31)
        assert wire.decode_iam(body) == (5, 3, 1 << 20, 1 << 31)

    def test_seal_roundtrip(self):
        scheme = make_scheme()
        sealed = wire.seal(scheme, b"hello cluster")
        assert len(sealed) == len(b"hello cluster") + scheme.signature_bytes
        assert wire.unseal(scheme, sealed) == b"hello cluster"

    def test_every_single_byte_flip_detected(self):
        """Proposition 2 on the wire: n=2 certainly catches 1-byte flips."""
        scheme = make_scheme()
        sealed = wire.seal(scheme, b"a body worth protecting")
        for position in range(len(sealed)):
            for mask in (0x01, 0x80, 0xFF):
                tampered = bytearray(sealed)
                tampered[position] ^= mask
                assert wire.unseal(scheme, bytes(tampered)) is None

    def test_truncated_payload_rejected(self):
        scheme = make_scheme()
        assert wire.unseal(scheme, b"") is None
        assert wire.unseal(scheme, b"ab") is None
        request = wire.encode_request(wire.OP_UPDATE, 42, 7, b"value",
                                      context=self.CONTEXT)
        reply = wire.encode_reply(wire.ST_FOUND, 42, b"value")
        iam = wire.encode_iam(5, 3, 0, 1 << 31)
        for body, decode in ((request, wire.decode_request),
                             (reply, wire.decode_reply),
                             (iam, wire.decode_iam)):
            for cut in (0, 8, 17, len(body) - 1):
                with pytest.raises(wire.WireError):
                    decode(body[:cut])
        # A value longer than its declared length is inconsistent too.
        for body, decode in ((request, wire.decode_request),
                             (reply, wire.decode_reply),
                             (iam, wire.decode_iam)):
            with pytest.raises(wire.WireError):
                decode(body + b"x")
        with pytest.raises(wire.WireError):
            wire.decode_deltas(b"")

    def test_invalid_codes_rejected(self):
        with pytest.raises(wire.WireError):
            wire.encode_request(99, 0, 0)
        with pytest.raises(wire.WireError):
            wire.encode_reply(99, 0)
        with pytest.raises(wire.WireError):
            wire.encode_request(wire.OP_SEARCH, 42, 7, deadline=-1.0)
        # The low-water mark names the request's own client, not above it.
        with pytest.raises(wire.WireError):
            wire.encode_request(wire.OP_SEARCH, 42, 7, low_water=43)
        with pytest.raises(wire.WireError):
            wire.encode_request(wire.OP_SEARCH, 42, 7, low_water=1 << 32)
        # Bad codes that arrive inside well-formed bodies are refused.
        request = bytearray(wire.encode_request(wire.OP_SEARCH, 42, 7))
        request[16] = 99                                  # op byte
        reply = bytearray(wire.encode_reply(wire.ST_FOUND, 42))
        reply[16] = 99                                    # status byte
        for body, decode in ((request, wire.decode_request),
                             (reply, wire.decode_reply)):
            with pytest.raises(wire.WireError):
                decode(bytes(body))
        stale_mark = bytearray(wire.encode_request(wire.OP_SEARCH, 42, 7))
        stale_mark[25:33] = (43).to_bytes(8, "little")    # low water > id
        with pytest.raises(wire.WireError):
            wire.decode_request(bytes(stale_mark))
