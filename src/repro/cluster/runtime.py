"""The cluster runtime: nodes, parity group, clients, and self-healing.

:class:`Cluster` composes the existing subsystems into the multi-node
SDDS the paper envisions, running under injected failure:

* client operations route by ``key mod n`` to :class:`ClusterNode`
  buckets over the :class:`~repro.cluster.network.FaultyNetwork`, each
  payload sealed with a 4-byte algebraic signature and retried under a
  :class:`~repro.cluster.retry.RetryPolicy` until it lands;
* every mutation also feeds an :class:`~repro.parity.lhrs.LHRSStore`
  reliability group (k parity columns over the n node buckets), so a
  crashed node's records are reconstructible from the survivors;
* every node's bucket image is mirrored best-effort on its successor;
  divergence (dropped or corrupted mirror traffic, crashes) is healed
  by :func:`repro.sync.sync_by_tree` anti-entropy passes that ship only
  signature-detected differing pages;
* scheduled crashes trigger the self-healing pipeline: LH*RS
  reconstruction over the recovery channel, bucket rebuild, then
  anti-entropy to re-converge both mirror relationships.

Everything -- fault draws, event ordering, backoff jitter -- is a
deterministic function of the run seed, so identical seeds produce
byte-identical run-report JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from ..errors import ReproError
from ..obs import (
    FlightRecorder,
    RecorderDump,
    TraceStore,
    activate,
    frame_digest,
    get_registry,
)
from ..parity import LHRSStore
from ..sdds.record import Record
from ..sig.engine import get_batch_signer
from ..sig.scheme import AlgebraicSignatureScheme, make_scheme
from ..sim.clock import SimClock
from ..sim.network import NetworkModel, SimNetwork
from ..store.pagestore import PageStore
from ..sync import sync_by_locator, sync_by_tree
from .events import EventLoop
from .faults import Crash, FaultPlan
from .network import FaultyNetwork
from .node import (
    REQUEST_KINDS,
    ClusterNode,
    NodeState,
    deserialize_bucket,
)
from .retry import RetryExhaustedError, RetryPolicy
from . import wire


class ClusterError(ReproError):
    """Cluster configuration or routing failure."""


#: Recovery-channel message kinds.
RECOVERY_SHARD = "c_recovery_shard"


@dataclass(frozen=True, slots=True)
class ClusterResult:
    """Outcome of one client operation against the cluster."""

    op: str
    status: str
    value: bytes = b""
    attempts: int = 1
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the operation took effect.

        At-least-once caveats: a retried insert answered ``duplicate``
        (or a retried delete answered ``missing``) means an earlier
        attempt already landed before its reply was lost.
        """
        if self.status in ("inserted", "applied", "deleted", "found"):
            return True
        if self.attempts > 1:
            return ((self.op == "insert" and self.status == "duplicate")
                    or (self.op == "delete" and self.status == "missing"))
        return False


class Cluster:
    """A seeded, fault-injected multi-node SDDS cluster."""

    def __init__(self, servers: int = 4, seed: int = 0,
                 plan: FaultPlan | None = None,
                 retry: RetryPolicy | None = None,
                 scheme: AlgebraicSignatureScheme | None = None,
                 parity_buckets: int = 2,
                 record_bytes: int = 256,
                 page_bytes: int = 128,
                 header_bytes: int = 16,
                 durable_dir: str | Path | None = None,
                 durable_checkpoint_every: int | None = 64,
                 durable_flush: str = "frame",
                 recovery_workers: int | None = None,
                 service: "ServicePolicy | None" = None,
                 sync_protocol: str = "tree"):
        if servers < 2:
            raise ClusterError("a cluster needs at least 2 server nodes")
        if sync_protocol not in ("tree", "locator"):
            raise ClusterError(
                f"unknown sync protocol {sync_protocol!r}; "
                "use 'tree' or 'locator'"
            )
        self.seed = seed
        #: Anti-entropy protocol for mirror repair: ``"tree"`` walks
        #: the signature tree; ``"locator"`` ships the O(d^2 log^2 N)
        #: group-testing locator first and falls back to the tree on
        #: decode overflow (PR 10).
        self.sync_protocol = sync_protocol
        #: Per-node request-service policy (PR 7).  ``None`` keeps the
        #: original inline semantics; a queued policy gives every node
        #: a bounded inbox with deadline/queue-depth load shedding.
        self.service = service
        self.scheme = scheme if scheme is not None else make_scheme()
        self.plan = plan if plan is not None else FaultPlan()
        self.retry = retry if retry is not None else RetryPolicy()
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.network = SimNetwork(
            clock=self.clock, model=NetworkModel(header_bytes=header_bytes)
        )
        self.faulty_network = FaultyNetwork(self.network, self.loop,
                                            self.plan, seed=seed)
        #: The telemetry plane: one trace store assembling per-op
        #: cross-node trees, one bounded flight recorder per node (and
        #: per client), and the run-level list of sealed post-mortem
        #: dumps every recorder drains into.
        self.traces = TraceStore(seed=seed, clock=self.clock)
        self.recorders: dict[str, FlightRecorder] = {}
        self.dumps: list[RecorderDump] = []
        self.traces.on_finish = self._on_span_finished
        self.faulty_network.listeners.append(self._on_link_fault)
        self.parity = LHRSStore(self.scheme, data_buckets=servers,
                                parity_buckets=parity_buckets,
                                record_bytes=record_bytes)
        self.nodes = [
            ClusterNode(index, self, self.scheme, page_bytes,
                        policy=service)
            for index in range(servers)
        ]
        for node in self.nodes:
            self._add_recorder(node.name)
        #: Durable mode (PR 5): every node appends its image extents to
        #: a sealed per-node log; a ``Crash`` then recovers by certified
        #: local replay instead of LH*RS reconstruction.
        self.durable_dir = Path(durable_dir) if durable_dir is not None \
            else None
        self.durable_checkpoint_every = durable_checkpoint_every
        #: Write-path flush policy for the per-node logs and the worker
        #: count for the segment-sharded certification scan (PR 9).
        self.durable_flush = durable_flush
        self.recovery_workers = recovery_workers
        if self.durable_dir is not None:
            for node in self.nodes:
                node.attach_store(self._fresh_store(node))
        for node in self.nodes:
            host = self.mirror_host(node.index)
            host.make_mirror(node.name, node.image_bytes())
        self.clients: list["ClusterClient"] = []
        for crash in self.plan.crashes:
            self._schedule_crash(crash)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def server_count(self) -> int:
        """Number of server nodes."""
        return len(self.nodes)

    @property
    def max_value_bytes(self) -> int:
        """Largest record value the parity slots accommodate."""
        return self.parity.max_value_bytes

    def node_for(self, key: int) -> ClusterNode:
        """The node owning ``key`` (static ``key mod n`` partitioning)."""
        return self.nodes[key % len(self.nodes)]

    def mirror_host(self, index: int) -> ClusterNode:
        """The node hosting ``index``'s bucket-image mirror."""
        return self.nodes[(index + 1) % len(self.nodes)]

    def mirror_of(self, index: int):
        """The hosted mirror replica of node ``index``'s image."""
        return self.mirror_host(index).mirror

    def client(self, name: str | None = None) -> "ClusterClient":
        """Create (and register) a new cluster client."""
        index = len(self.clients)
        client = ClusterClient(index, name or f"client{index}", self)
        self.clients.append(client)
        self._add_recorder(client.name)
        return client

    def client_for_request(self, request_id: int) -> "ClusterClient":
        """Resolve the client a request id belongs to (reply routing)."""
        index = request_id >> 32
        if index >= len(self.clients):
            raise ClusterError(f"request id {request_id} from unknown client")
        return self.clients[index]

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------

    def _add_recorder(self, name: str) -> FlightRecorder:
        """Create the participant's flight recorder, sunk into dumps."""
        recorder = FlightRecorder(name, self.scheme, clock=self.clock)
        recorder.sinks.append(self.dumps.append)
        self.recorders[name] = recorder
        return recorder

    def recorder_for(self, name: str) -> FlightRecorder | None:
        """The named participant's flight recorder (None if unknown)."""
        return self.recorders.get(name)

    def _on_span_finished(self, span) -> None:
        """Ring every finished span into its emitting node's recorder."""
        recorder = self.recorders.get(span.node)
        if recorder is not None:
            recorder.record_span(span)

    def _on_link_fault(self, kind: str, source: str,
                       destination: str) -> None:
        """Ring each injected network fault into the receiver's recorder.

        The receiver is the party that must *detect* the damage (or
        never learns the frame existed, for drops); its post-mortem
        bundle therefore carries the ground-truth injection alongside
        whatever its seal verification saw.
        """
        recorder = self.recorders.get(destination)
        if recorder is not None:
            recorder.record_fault(f"link_{kind}", source=source)

    def report_seal_failure(self, name: str, where: str,
                            frame: bytes) -> None:
        """Dump a post-mortem bundle for one failed seal verification.

        Called by nodes and clients the moment :func:`wire.unseal`
        rejects a frame: the bundle names the failing frame by its
        signature-tail digest, so every ``corruptions_detected``
        increment has matching sealed evidence.
        """
        recorder = self.recorders.get(name)
        if recorder is None:
            return
        digest = frame_digest(self.scheme, frame)
        recorder.record_fault("seal_failure", digest=digest, where=where)
        recorder.dump("seal_failure", digest=digest, where=where)

    # ------------------------------------------------------------------
    # Crashes and self-healing
    # ------------------------------------------------------------------

    def _schedule_crash(self, crash: Crash) -> None:
        node = self._node_by_name(crash.node)
        self.loop.at(crash.at, lambda: self._crash(node, crash))

    def _node_by_name(self, name: str) -> ClusterNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ClusterError(f"no node named {name!r}")

    def _fresh_store(self, node: ClusterNode) -> PageStore:
        """Create (wiping any leftovers) the node's durable page store."""
        directory = self.durable_dir / node.name
        directory.mkdir(parents=True, exist_ok=True)
        for leftover in list(directory.glob("seg-*.log")) \
                + list(directory.glob("*.ckpt")):
            leftover.unlink()
        return PageStore(self.scheme, directory,
                         checkpoint_every=self.durable_checkpoint_every,
                         flush=self.durable_flush,
                         verify_workers=self.recovery_workers)

    def _crash(self, node: ClusterNode, crash: Crash) -> None:
        if not node.is_up:
            return  # already down; overlapping plans are a no-op
        durable = node.store is not None
        node.crash()
        if not durable:
            # A durable node's bucket survives in its sealed log, so
            # the parity group's column is *not* lost; only a volatile
            # node's crash degrades the LH*RS store.
            self.parity.fail_bucket(node.index)
        get_registry().counter("cluster.crashes", node=node.name).inc()
        recorder = self.recorder_for(node.name)
        if recorder is not None:
            recorder.record_fault("crash", durable=str(durable).lower())
            recorder.dump("crash")
        self.loop.at(crash.recover_at,
                     lambda: self._recover(node, crashed_at=crash.at))

    def _recover(self, node: ClusterNode, crashed_at: float) -> None:
        """Recovery dispatch: certified local replay, else LH*RS.

        The whole pipeline runs inside a ``node.recover`` trace root,
        so the storage-plane and parity spans it triggers assemble into
        one recovery tree per crash.
        """
        registry = get_registry()
        node.state = NodeState.RECOVERING
        with activate(self.traces), \
                self.traces.begin("node.recover", node=node.name) as span:
            durable = node.store_dir is not None and \
                self._recover_durable(node)
            if not durable:
                if node.store_dir is not None:
                    # The local log could not certify the bucket: fall
                    # back to full LH*RS reconstruction.
                    self.parity.fail_bucket(node.index)
                    registry.counter("cluster.durable_fallbacks",
                                     node=node.name).inc()
                self._recover_parity(node)
                if node.store_dir is not None:
                    # Re-seed the durable log from the recovered state.
                    node.attach_store(self._fresh_store(node))
            span.event("bucket_rebuilt",
                       path="durable" if durable else "parity")
            predecessor = self.nodes[(node.index - 1) % len(self.nodes)]
            node.make_mirror(predecessor.name)
            node.state = NodeState.UP
            self._repair_pair(predecessor, phase="recovery")
            self._repair_pair(node, phase="recovery")
        registry.counter("cluster.recoveries", node=node.name).inc()
        registry.histogram("cluster.recovery_seconds").observe(
            self.clock.now - crashed_at
        )

    def _recover_durable(self, node: ClusterNode) -> bool:
        """Certified local replay of the node's sealed log.

        Returns True when the bucket was re-certified from local state:
        checkpoint + fold, torn tail truncated, and every condemned
        page patched from the hosted mirror with its replacement
        *verified* against the certified expected signature.  Any
        uncertainty (unverifiable patch, undecodable image -- including
        a torn mutation's duplicate key) returns
        False and the caller falls back to LH*RS reconstruction.
        """
        registry = get_registry()
        try:
            store, report = PageStore.recover(
                self.scheme, node.store_dir,
                checkpoint_every=self.durable_checkpoint_every,
                verify_workers=self.recovery_workers,
                flush=self.durable_flush,
            )
        except (ReproError, OSError):
            return False
        recorder = self.recorder_for(node.name)
        if recorder is not None:
            for volume_name, pages in sorted(report.condemned.items()):
                if pages:
                    recorder.record_fault("page_condemned",
                                          pages=list(pages),
                                          volume=volume_name)
                    recorder.dump("page_condemned", pages=list(pages),
                                  volume=volume_name)
        volume = node.IMAGE_VOLUME
        if volume not in store.volumes():
            store.close()
            return False
        condemned = report.condemned.get(volume, ())
        if condemned:
            if not self._patch_condemned(node, store, condemned,
                                         report.expected.get(volume, {})):
                store.close()
                return False
        try:
            # A torn size-changing update leaves its key twice, which
            # the decoder refuses: never adopt half a mutation.
            records = node.adopt_image(store.image(volume))
        except wire.WireError:
            store.close()
            return False
        for record in records:
            node.server.insert(record)
        node.store = store
        node.store_dir = store.directory
        registry.counter("cluster.durable_recoveries", node=node.name).inc()
        registry.counter("cluster.durable_frames_folded").inc(
            report.frames_folded
        )
        return True

    def _patch_condemned(self, node: ClusterNode, store: PageStore,
                         condemned: tuple[int, ...],
                         expected: dict) -> bool:
        """Fetch condemned pages from the hosted mirror, verified.

        Each replacement page must re-sign to the *certified* expected
        signature from the recovery report -- a stale or damaged mirror
        page fails the check and the whole durable path is abandoned.
        """
        registry = get_registry()
        host = self.mirror_host(node.index)
        mirror = host.mirror if host.is_up else None
        if mirror is None:
            return False
        volume = node.IMAGE_VOLUME
        page_bytes = store.page_bytes_of(volume)
        signer = get_batch_signer(self.scheme)
        for page in condemned:
            certified = expected.get(page)
            if certified is None:
                return False
            patch = bytes(mirror.data[page * page_bytes:
                                      (page + 1) * page_bytes])
            if not patch:
                return False
            actual = signer.sign_map(patch,
                                     page_bytes // self.scheme.scheme_id
                                     .symbol_bytes).signatures[0]
            if actual != certified:
                return False
            self.network.send(host.name, node.name, RECOVERY_SHARD,
                              len(patch))
            store.write_page(volume, page, patch)
            registry.counter("cluster.condemned_pages_patched",
                             node=node.name).inc()
            registry.counter("cluster.repair_bytes", phase="condemned").inc(
                len(patch)
            )
        return True

    def _recover_parity(self, node: ClusterNode) -> None:
        """LH*RS reconstruction over the recovery channel."""
        registry = get_registry()
        # 1. LH*RS reconstruction: read one shard per surviving group
        #    member per rank over the (reliable, accounted) recovery
        #    channel, then solve the code for the lost column.
        shard_bytes = self.parity.rank_count * self.parity.record_bytes
        for survivor in self.nodes:
            if survivor is not node and survivor.is_up:
                self.network.send(survivor.name, node.name, RECOVERY_SHARD,
                                  shard_bytes)
        for parity_index in range(self.parity.k):
            self.network.send(f"parity{parity_index}", node.name,
                              RECOVERY_SHARD, shard_bytes)
        self.parity.recover()
        records = [
            Record(key, self.parity.get(key)) for key in self.parity.keys()
            if self.parity.bucket_of(key) == node.index
        ]
        node.rebuild_from(records)
        parity_bytes = shard_bytes * (self.server_count - 1 + self.parity.k)
        registry.counter("cluster.repair_bytes", phase="parity").inc(
            parity_bytes
        )

    def _repair_pair(self, source: ClusterNode, phase: str) -> int:
        """Anti-entropy one (source image, hosted mirror) pair."""
        host = self.mirror_host(source.index)
        if not (source.is_up and host.is_up) or host.mirror is None:
            return 0
        if self.sync_protocol == "locator":
            report = sync_by_locator(source.image, host.mirror,
                                     self.network)
        else:
            report = sync_by_tree(source.image, host.mirror, self.network)
        registry = get_registry()
        registry.counter("cluster.repair_bytes", phase=phase).inc(
            report.total_bytes
        )
        registry.counter("cluster.repair_pages", phase=phase).inc(
            report.pages_shipped
        )
        return report.pages_shipped

    def anti_entropy(self) -> int:
        """Run one full anti-entropy sweep; returns pages repaired."""
        return sum(self._repair_pair(node, phase="anti_entropy")
                   for node in self.nodes)

    # ------------------------------------------------------------------
    # Run control and invariants
    # ------------------------------------------------------------------

    def settle(self, max_seconds: float = 3600.0) -> None:
        """Drain in-flight events, then heal every replica."""
        self.loop.run_until_idle(max_seconds)
        self.anti_entropy()
        self.loop.run_until_idle(max_seconds)

    def converged(self) -> bool:
        """True when every up node's mirror matches its source image."""
        for node in self.nodes:
            mirror = self.mirror_of(node.index)
            if not (node.is_up and self.mirror_host(node.index).is_up):
                continue
            if mirror is None or bytes(mirror.data) != node.image_bytes():
                return False
        return True

    def check_replicas(self) -> None:
        """Assert convergence *and* that images decode to the buckets."""
        if not self.converged():
            raise ClusterError("mirror replicas diverge from their sources")
        for node in self.nodes:
            if not node.is_up:
                continue
            try:
                decoded = {r.key: r.value for r in
                           deserialize_bucket(node.image_bytes())}
            except wire.WireError as error:
                raise ClusterError(
                    f"{node.name} image does not decode: {error}") from error
            stored = {key: node.server.bucket.get(key).value
                      for key in node.server.bucket.keys()}
            if decoded != stored:
                raise ClusterError(
                    f"{node.name} image out of step with its bucket"
                )


class ClusterClient:
    """A client of the fault-injected cluster: retries + verification."""

    def __init__(self, index: int, name: str, cluster: Cluster):
        self.index = index
        self.name = name
        self.cluster = cluster
        self._seq = 0
        self._pending: set[int] = set()
        self._replies: dict[int, tuple[int, bytes]] = {}
        self._rng = random.Random(f"{cluster.seed}|{name}|retry")

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def insert(self, key: int, value: bytes) -> ClusterResult:
        """Insert a record."""
        return self._call(wire.OP_INSERT, key, value)

    def search(self, key: int) -> ClusterResult:
        """Fetch a record's value (in ``result.value``)."""
        return self._call(wire.OP_SEARCH, key)

    def update(self, key: int, value: bytes) -> ClusterResult:
        """Overwrite a record's value (pseudo-updates filtered server-side)."""
        return self._call(wire.OP_UPDATE, key, value)

    def delete(self, key: int) -> ClusterResult:
        """Remove a record."""
        return self._call(wire.OP_DELETE, key)

    # ------------------------------------------------------------------
    # The retry loop
    # ------------------------------------------------------------------

    def _call(self, op: int, key: int, value: bytes = b"") -> ClusterResult:
        if len(value) > self.cluster.max_value_bytes:
            raise ClusterError(
                f"value of {len(value)} bytes exceeds the "
                f"{self.cluster.max_value_bytes}-byte parity slot"
            )
        op_name = wire.OP_NAMES[op]
        node = self.cluster.node_for(key)
        request_id = (self.index << 32) | self._seq
        self._seq += 1
        registry = get_registry()
        policy = self.cluster.retry
        loop = self.cluster.loop
        traces = self.cluster.traces
        recorder = self.cluster.recorder_for(self.name)
        started = loop.clock.now
        self._pending.add(request_id)
        try:
            with activate(traces), \
                    traces.begin(f"rpc.{op_name}", node=self.name,
                                 key=str(key), target=node.name) as root:
                sealed = wire.seal(self.cluster.scheme, wire.encode_traced(
                    root.context,
                    wire.encode_request(op, request_id, key, value),
                ))
                budget = policy.begin(loop.clock.now)
                while True:
                    if not budget.allow(loop.clock.now):
                        # Budget or operation deadline exhausted -- the
                        # retry loop may not add pressure past either.
                        registry.counter("cluster.ops", op=op_name,
                                         status="gave_up").inc()
                        root.finish("gave_up")
                        raise RetryExhaustedError(
                            f"{op_name}({key}) failed after "
                            f"{budget.spent} attempts"
                        )
                    attempt = budget.spend()
                    if attempt:
                        registry.counter("cluster.retries",
                                         op=op_name).inc()
                        root.event("retry", attempt=attempt + 1)
                    if recorder is not None:
                        recorder.record_frame("send", "request", node.name,
                                              sealed)
                    self.cluster.faulty_network.transmit(
                        self.name, node.name, REQUEST_KINDS[op], sealed,
                        node.receive_request,
                    )
                    deadline = loop.clock.now + budget.attempt_timeout(
                        attempt, self._rng, loop.clock.now
                    )
                    if loop.run_until(
                            deadline,
                            stop=lambda: request_id in self._replies):
                        if self._replies[request_id][0] != wire.ST_SHED:
                            break
                        # An overloaded node refused admission.  Back
                        # off along the timeout ladder (spending the
                        # budget) before offering the request again.
                        self._replies.pop(request_id)
                        registry.counter("cluster.shed_replies",
                                         op=op_name).inc()
                        root.event("shed", attempt=attempt + 1)
                        loop.run_until(loop.clock.now
                                       + policy.timeout_for(attempt,
                                                            self._rng))
                        continue
                    registry.counter("cluster.timeouts", op=op_name).inc()
        finally:
            self._pending.discard(request_id)
        status_code, reply_value = self._replies.pop(request_id)
        status = wire.ST_NAMES[status_code]
        attempts = budget.spent
        elapsed = loop.clock.now - started
        registry.counter("cluster.ops", op=op_name, status=status).inc()
        registry.histogram("cluster.op_seconds", op=op_name).observe(elapsed)
        registry.histogram("cluster.op_attempts", op=op_name).observe(attempts)
        return ClusterResult(op=op_name, status=status, value=reply_value,
                             attempts=attempts, elapsed=elapsed)

    def receive_reply(self, data: bytes) -> None:
        """Handle one delivered reply payload (verify, then match)."""
        body = wire.unseal(self.cluster.scheme, data)
        registry = get_registry()
        if body is None:
            registry.counter("cluster.corruptions_detected",
                             where="reply").inc()
            self.cluster.report_seal_failure(self.name, "reply", data)
            return
        recorder = self.cluster.recorder_for(self.name)
        if recorder is not None:
            recorder.record_frame("recv", "reply", "", data)
        _context, inner = wire.decode_traced(body)
        status, request_id, value = wire.decode_reply(inner)
        if request_id not in self._pending or request_id in self._replies:
            # A late or duplicated reply for a settled operation.
            registry.counter("cluster.stale_replies").inc()
            return
        self._replies[request_id] = (status, value)
