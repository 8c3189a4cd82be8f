"""The request front end both node runtimes share (PROTOCOLS.md §10).

Each behaviour is checked once over the fault-injected cluster and once
over the serving plane: replay of a redelivered request from the reply
cache, seal rejection of a corrupted request, duplicate suppression
under a queued policy, and the low-water bound on the reply cache.
"""

import pytest

from repro.cluster import Cluster, FaultPlan, LinkFaults, RetryPolicy
from repro.cluster import wire
from repro.obs import MetricsRegistry, use_registry
from repro.serve import ServingPlane

#: Cluster client method of each operation these tests issue.
METHODS = {wire.OP_INSERT: "insert", wire.OP_UPDATE: "update"}
REQUEST_KINDS = {"c_insert", "c_update", "s_request"}


class Rig:
    """One runtime, one client, and every frame put on its network."""

    def __init__(self, kind: str):
        self.kind = kind
        if kind == "cluster":
            self.runtime = Cluster(servers=2, seed=1)
            self.client = self.runtime.client()
            self.prefix = "cluster"
        else:
            self.runtime = ServingPlane(buckets=2, family="lh", seed=1,
                                        split_threshold=1 << 20)
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
        """Run one operation to completion; returns its request frame."""
        first = len(self.sent)
        if self.kind == "cluster":
            getattr(self.client, METHODS[op])(key, value)
        else:
            self.client.submit(op, key, value)
            self.runtime.settle()
        return next(payload for kind, payload in self.sent[first:]
                    if kind in REQUEST_KINDS)

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


@pytest.mark.parametrize("rig", ["cluster", "serve"], indirect=True)
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
