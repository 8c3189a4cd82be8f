"""The message flow both node runtimes share (PROTOCOLS.md §10).

Each behaviour is checked once over the fault-injected cluster and once
over the serving plane.  Server half (the request front end): replay of
a redelivered request from the reply cache, seal rejection of a
corrupted request, duplicate suppression under a queued policy, and the
low-water bound on the reply cache.  Client half (the session): the
send budget, seal rejection of a corrupted reply, stale duplicated
replies, and the low-water mark each request carries.  Last, a durable
cluster node that crashes loses its reply cache, so a retry executes
again and is answered ``duplicate``.
"""

import pytest

from repro.cluster import Cluster, Crash, FaultPlan, LinkFaults, RetryPolicy
from repro.cluster import wire
from repro.obs import MetricsRegistry, use_registry
from repro.sdds import deserialize_bucket
from repro.serve import ServingPlane

KINDS = ["cluster", "serve"]
REQUEST_KINDS = {"c_insert", "c_search", "c_update", "c_delete", "s_request"}


class Rig:
    """One runtime, one client, and every frame put on its network."""

    def __init__(self, kind: str, **options):
        self.kind = kind
        if kind == "cluster":
            self.runtime = Cluster(servers=2, seed=1, **options)
            self.client = self.runtime.client()
            self.prefix = "cluster"
        else:
            self.runtime = ServingPlane(buckets=2, family="lh", seed=1,
                                        split_threshold=1 << 20, **options)
            self.client = self.runtime.session()
            self.prefix = "serve"
        #: ``(kind, payload)`` of every transmitted frame, in order.
        self.sent: list[tuple[str, bytes]] = []
        network = self.runtime.faulty_network
        transmit = network.transmit

        def recording(source, destination, kind, payload, deliver):
            self.sent.append((kind, payload))
            transmit(source, destination, kind, payload, deliver)

        network.transmit = recording

    def owner(self, key: int):
        """The node that owns ``key``."""
        if self.kind == "cluster":
            return self.runtime.node_for(key)
        return self.runtime.owner_of(key)

    def call(self, op: int, key: int, value: bytes = b"") -> bytes:
        """Submit one operation and settle; returns its request frame."""
        first = len(self.sent)
        self.client.submit(op, key, value)
        self.settle()
        return next(payload for kind, payload in self.sent[first:]
                    if kind in REQUEST_KINDS)

    def requests(self) -> list[wire.Request]:
        """Every request frame sent so far, decoded."""
        return [wire.decode_request(wire.unseal(self.runtime.scheme, payload))
                for kind, payload in self.sent if kind in REQUEST_KINDS]

    def replies(self) -> list[bytes]:
        """Every reply frame sent so far."""
        return [payload for kind, payload in self.sent
                if kind in ("c_reply", "s_reply")]

    def settle(self) -> None:
        """Deliver everything in flight."""
        self.runtime.loop.run_until_idle()

    def value_of(self, key: int) -> bytes:
        """The value the owning bucket holds for ``key``."""
        return self.owner(key).server.search(key).value


@pytest.fixture
def rig(request):
    with use_registry(MetricsRegistry()) as registry:
        made = Rig(request.param)
        made.registry = registry
        yield made


KEY = 6


@pytest.mark.parametrize("rig", KINDS, indirect=True)
class TestSharedFrontEnd:
    def test_redelivered_request_executes_once(self, rig):
        frame = rig.call(wire.OP_INSERT, KEY, b"first")
        node = rig.owner(KEY)
        served = node.service.served
        answer = rig.replies()[-1]
        node.receive_request(frame)
        rig.settle()
        # Answered from the cache: the same sealed bytes, no execution
        # (a second insert would have answered "duplicate").
        assert rig.replies()[-1] == answer
        assert node.service.served == served
        assert rig.registry.total(f"{rig.prefix}.replays") == 1
        request_id = wire.decode_request(wire.unseal(
            rig.runtime.scheme, frame)).request_id
        assert node.replies[request_id >> 32][request_id] == answer

    def test_update_keeps_the_stored_signature_current(self, rig):
        scheme = rig.runtime.scheme
        rig.call(wire.OP_INSERT, KEY, b"a" * 16)
        rig.call(wire.OP_UPDATE, KEY, b"b" * 16)
        server = rig.owner(KEY).server
        assert server.record_signature(KEY) == scheme.sign(b"b" * 16,
                                                           strict=False)
        # The pseudo-update filter compares the stored signature, so a
        # stale one would swallow this update back to the old value.
        rig.call(wire.OP_UPDATE, KEY, b"a" * 16)
        assert rig.value_of(KEY) == b"a" * 16
        assert server.record_signature(KEY) == scheme.sign(b"a" * 16,
                                                           strict=False)

    def test_flipped_byte_is_counted_and_never_executes(self, rig):
        frame = bytearray(wire.seal(rig.runtime.scheme, wire.encode_request(
            wire.OP_INSERT, 0, KEY, b"never")))
        frame[20] ^= 0x40
        node = rig.owner(KEY)
        node.receive_request(bytes(frame))
        rig.settle()
        assert rig.registry.total(f"{rig.prefix}.corruptions_detected",
                                  where="request") == 1
        assert node.service.served == 0
        assert node.server.search(KEY) is None
        assert rig.replies() == []

    def test_redelivered_resolved_update_is_stale(self, rig):
        rig.call(wire.OP_INSERT, KEY, b"v0")
        old = rig.call(wire.OP_UPDATE, KEY, b"v1")
        rig.call(wire.OP_UPDATE, KEY, b"v2")
        replies = len(rig.replies())
        rig.owner(KEY).receive_request(old)
        rig.settle()
        # The client resolved the old update before it sent the newer
        # one, so the node drops it: no execution, no reply.
        assert rig.value_of(KEY) == b"v2"
        assert rig.registry.total(f"{rig.prefix}.stale_requests") == 1
        assert len(rig.replies()) == replies


@pytest.mark.parametrize("rig", KINDS, indirect=True)
class TestSharedClient:
    def test_flipped_reply_is_counted_and_leaves_the_op_pending(self, rig):
        pending = rig.client.submit(wire.OP_INSERT, KEY, b"v")
        reply = bytearray(wire.seal(rig.runtime.scheme, wire.encode_reply(
            wire.ST_INSERTED, pending.request_id)))
        reply[5] ^= 0x01
        rig.client.receive_reply(bytes(reply))
        assert rig.registry.total(f"{rig.prefix}.corruptions_detected",
                                  where="reply") == 1
        assert rig.client.pending == {pending.request_id: pending}
        assert pending.status is None
        if rig.kind == "cluster":
            # The client's recorder dumped the evidence.
            assert [(dump.node, dump.reason) for dump in rig.runtime.dumps] \
                == [(rig.client.name, "seal_failure")]
        rig.settle()
        # The genuine reply still resolves the operation.
        assert pending.status == wire.ST_INSERTED
        assert rig.client.pending == {}

    def test_duplicated_reply_is_stale_once(self, rig):
        rig.call(wire.OP_INSERT, KEY, b"v")
        # The first copy resolved the insert; a duplicate of it is
        # stale and resolves nothing a second time.
        rig.client.receive_reply(rig.replies()[-1])
        assert rig.registry.total(f"{rig.prefix}.stale_replies") == 1
        assert rig.registry.total(f"{rig.prefix}.ops") == 1

    def test_low_water_is_the_oldest_unresolved_id(self, rig):
        client = rig.client
        first = client.submit(wire.OP_INSERT, KEY, b"a")
        second = client.submit(wire.OP_UPDATE, KEY, b"b")
        rig.runtime.loop.run_until(
            1.0, stop=lambda: first.request_id not in client.pending)
        assert list(client.pending) == [second.request_id]
        third = client.submit(wire.OP_UPDATE, KEY, b"c")
        rig.settle()
        rig.call(wire.OP_UPDATE, KEY, b"d")
        marks = [(request.request_id, request.low_water)
                 for request in rig.requests()]
        fourth = third.request_id + 1
        assert marks == [(first.request_id, first.request_id),
                         (second.request_id, first.request_id),
                         (third.request_id, second.request_id),
                         (fourth, fourth)]


@pytest.mark.parametrize("kind", KINDS)
def test_sends_stop_at_the_budget(kind):
    # A black-hole network: every attempt times out; the client must
    # stop at the budget, not at max_attempts.
    with use_registry(MetricsRegistry()) as registry:
        rig = Rig(kind, plan=FaultPlan(default=LinkFaults(drop=1.0)),
                  retry=RetryPolicy(timeout=0.01, max_attempts=8, budget=3))
        pending = rig.client.submit(wire.OP_SEARCH, 5)
        rig.settle()
    assert len(rig.requests()) == 3
    assert pending.budget.spent == 3
    assert pending.status is None and rig.client.pending == {}
    assert registry.total(f"{rig.prefix}.timeouts", op="search") == 3
    assert registry.total(f"{rig.prefix}.retries", op="search") == 2


def test_queued_duplicate_is_dropped_and_counted():
    with use_registry(MetricsRegistry()) as registry:
        rig = Rig("serve")
        frame = wire.seal(rig.runtime.scheme, wire.encode_request(
            wire.OP_INSERT, 0, KEY, b"queued"))
        node = rig.owner(KEY)
        # The second copy arrives while the first still executes.
        node.receive_request(frame)
        node.receive_request(frame)
        rig.runtime.settle()
        assert registry.total("serve.duplicates") == 1
        assert node.service.served == 1
        assert len(rig.replies()) == 1
        assert rig.value_of(KEY) == b"queued"


def test_closed_loop_cluster_caches_one_reply_per_client():
    # Dropped, duplicated and reordered frames make late copies of
    # resolved requests arrive after their client has moved on.
    faults = LinkFaults(drop=0.05, duplicate=0.1, reorder=0.2, jitter=2e-4)
    with use_registry(MetricsRegistry()) as registry:
        cluster = Cluster(servers=3, seed=4, plan=FaultPlan(default=faults),
                          retry=RetryPolicy.patient())
        clients = [cluster.client(), cluster.client()]
        operations = 0
        for step in range(130):
            for index, client in enumerate(clients):
                key = step * 2 + index
                assert client.insert(key, b"x" * (key % 40 + 1)).ok
                assert client.update(key, b"y" * (key % 30 + 1)).ok
                operations += 2
        cluster.settle()
    assert operations >= 500
    for node in cluster.nodes:
        assert set(node.replies) <= {0, 1}
        assert all(len(cached) <= 1 for cached in node.replies.values())
    assert registry.total("cluster.stale_requests") > 0


def test_crash_loses_the_reply_cache_so_a_retry_executes_again(tmp_path):
    # The insert executes at about 0.1 ms and its reply is lost; node0
    # crashes at 1 ms and recovers from its log at 2 ms; the client's
    # first timeout (5 ms) retries into the recovered node.
    plan = FaultPlan(crashes=(Crash("node0", at=1e-3, recover_at=2e-3),))
    with use_registry(MetricsRegistry()) as registry:
        cluster = Cluster(servers=2, seed=1, plan=plan, durable_dir=tmp_path)
        node = cluster.nodes[0]
        network = cluster.faulty_network
        transmit = network.transmit
        lost = []

        def losing_first_reply(source, destination, kind, payload, deliver):
            if kind == "c_reply" and not lost:
                lost.append(payload)
                return
            transmit(source, destination, kind, payload, deliver)

        network.transmit = losing_first_reply
        recovered = []
        cluster.loop.at(3e-3, lambda: recovered.append(
            (node.is_up, dict(node.replies), dict(node.marks))))
        result = cluster.client().insert(0, b"once")
    assert wire.decode_reply(wire.unseal(cluster.scheme, lost[0])).status \
        == wire.ST_INSERTED
    assert registry.total("cluster.durable_recoveries") == 1
    # The reply cache and the marks are volatile: recovery starts empty.
    assert recovered == [(True, {}, {})]
    # So the retry is not a replay: it executes again and the bucket,
    # already holding the record, answers "duplicate" -- which the
    # at-least-once client reads as success.
    assert registry.total("cluster.replays") == 0
    assert (result.status, result.attempts, result.ok) == ("duplicate", 2, True)
    keys = [record.key for record in deserialize_bucket(node.image_bytes())]
    assert keys == [0]
    assert node.server.search(0).value == b"once"
