"""The serving plane: LH*/RP* buckets taking open-loop traffic live.

A :class:`ServingPlane` assembles, on one deterministic event loop:

* one SDDS **file** -- an :class:`~repro.sdds.file.LHFile` or
  :class:`~repro.sdds.rp.RPFile` -- that owns the file state, the
  split algorithm, server forwarding and key placement;
* N **bucket nodes**, each one of the file's servers behind a queued
  :class:`~repro.serve.service.RequestService` -- the modelled
  single-CPU server with admission control;
* thousands of **sessions** -- the shared non-blocking client of
  :mod:`repro.serve.session`, each learning addressing through LH*/RP*
  Image Adjustment Messages;
* live **splits**: the file splits a bucket (``file.split``) while
  requests for the moving keys sit in their queues; the plane only
  times the split and accounts its transfer.

Correctness under a racing split rests on two re-checks: a node
verifies ownership at *delivery* (forwarding misdirected frames, the
[LNS96] at-most-two-hops walk) and again at *execution* (a key that
moved while the request queued is forwarded, never answered from the
wrong bucket).  The plane keeps a ground-truth oracle keyed by
execution order; :meth:`verify` re-renders every bucket from the
oracle and compares algebraic signatures of the canonical images, so
"no acked operation was lost" is certified by the paper's own
machinery rather than by trusting the data structures.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from ..obs import get_registry
from ..sdds.bucket import Bucket
from ..sdds.file import LHFile
from ..sdds.image import serialize_bucket
from ..sdds.lh import ClientImage
from ..sdds.rp import KEY_SPACE, RPFile
from ..sdds.record import Record
from ..sdds.server import SDDSServer
from ..sig.scheme import AlgebraicSignatureScheme, make_scheme
from ..sim.clock import SimClock
from ..sim.network import NetworkModel, SimNetwork
from ..cluster import wire as cwire
from ..cluster.events import EventLoop
from ..cluster.faults import FaultPlan
from ..cluster.network import FaultyNetwork
from ..cluster.retry import RetryPolicy
from ..errors import ReproError
from .frontend import RequestFrontEnd
from .ops import MUTATING_EFFECTS, apply_operation
from .service import ServeRequest, ServicePolicy
from .session import PendingOp, Session

#: Knuth's multiplicative hash constant: an odd multiplier, so
#: ``index -> key`` is a bijection on u32 and keys spread uniformly
#: over both the LH* hash space and the RP* key range.
_KEY_MIX = 2654435761

#: LH* splits when the file holds this share of its bucket capacity.
_SPLIT_LOAD = 0.85

#: Serve-plane message kinds (TrafficStats / net.* categories).
REQUEST_KIND = "s_request"
FORWARD_KIND = "s_forward"
REPLY_KIND = "s_reply"
IAM_KIND = "s_iam"
SPLIT_KIND = "s_split_transfer"


def key_for(index: int) -> int:
    """Deterministic workload-index -> 32-bit key mapping."""
    return (index * _KEY_MIX) & 0xFFFFFFFF


class ServeError(ReproError):
    """Serving-plane configuration or invariant failure."""


class BucketNode(RequestFrontEnd):
    """One serving bucket: a file's server behind a request front end."""

    prefix = "serve"
    reply_kind = REPLY_KIND

    def __init__(self, plane: "ServingPlane", server: SDDSServer):
        self.plane = plane
        self.server = server
        self.bucket_id = server.server_id
        self.scheme = plane.scheme
        super().__init__(plane.loop, plane.policy, plane.faulty_network,
                         plane.sessions)
        self.split_pending = False

    @property
    def name(self) -> str:
        """Network name of this bucket node (``b<id>``)."""
        return f"b{self.bucket_id}"

    @property
    def level(self) -> int:
        """LH* bucket level (meaningless under RP*)."""
        return self.server.bucket.level

    def owns(self, key: int) -> bool:
        """True when ``key`` belongs to this bucket right now."""
        return self.forward_target(key) is None

    def forward_target(self, key: int) -> int | None:
        """Bucket to forward ``key`` to, or None when it belongs here."""
        if self.plane.family == "lh":
            return self.plane.file.addressing.server_forward(
                key, self.bucket_id, self.level)
        return self.server.forward_target(key)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------

    def _route(self, request: cwire.Request, data: bytes,
               forwarded: bool) -> bool:
        """Forward a misdirected request, with the IAM its client needs."""
        plane = self.plane
        session = plane.sessions[request.request_id >> 32]
        target = self.forward_target(request.key)
        if target is not None:
            get_registry().counter("serve.forwards", node=self.name).inc()
            if plane.family == "lh":
                # LH* IAM: the *first wrong* server reports its own
                # level/address; the client image adjustment never
                # overshoots the true file state.
                self._send_iam(session, self.bucket_id, self.level,
                               0, KEY_SPACE)
            plane.forward_frame(self, target, data)
            return False
        if forwarded and plane.family == "rp":
            # RP* IAM: the owning server reports its range.
            self._send_iam(session, self.bucket_id, 0,
                           self.server.low, self.server.high)
        return True

    def _execute(self, group: ServeRequest) -> tuple[int, bytes, None] | None:
        """Execute one request (plus coalesced riders) at queue head."""
        plane = self.plane
        target = self.forward_target(group.key)
        if target is not None:
            # The key moved while the request queued (a live split won
            # the race).  Forward every frame of the group; the new
            # owner answers -- never this bucket, which would serve
            # stale or vanished data.
            registry = get_registry()
            for member in (group, *group.riders):
                registry.counter("serve.requeues", node=self.name).inc()
                plane.forward_frame(self, target, member.meta[1])
            return None
        status, reply_value, effect = apply_operation(
            self.server, plane.scheme, group.op, group.key, group.value)
        plane.record_execution(self, group, status, effect)
        return status, reply_value, None

    def _send_iam(self, session: "PlaneSession", bucket: int, level: int,
                  low: int, high: int) -> None:
        get_registry().counter("serve.iams", node=self.name).inc()
        sealed = cwire.seal(self.plane.scheme,
                            cwire.encode_iam(bucket, level, low, high))
        self.plane.faulty_network.transmit(
            self.name, session.name, IAM_KIND, sealed,
            session.receive_iam,
        )


class PlaneSession(Session):
    """The shared client addressing keys through a private LH*/RP* image.

    Image Adjustment Messages refine the image; every operation is
    filed under the plane's load step current at submission.
    """

    __slots__ = ("plane", "image", "_bounds", "_owners", "served")

    prefix = "serve"
    request_kinds = dict.fromkeys(cwire.OP_NAMES, REQUEST_KIND)

    def __init__(self, plane: "ServingPlane", index: int):
        super().__init__(plane, index, f"s{index}")
        self.plane = plane
        #: LH* image snapshot (refined by IAMs).
        self.image = ClientImage(plane.file.state.level,
                                 plane.file.state.pointer) \
            if plane.family == "lh" else None
        #: RP* image: sorted range lows and their owning buckets.
        if plane.family == "rp":
            pairs = sorted((node.server.low, node.bucket_id)
                           for node in plane.nodes)
            self._bounds = [low for low, _ in pairs]
            self._owners = [owner for _, owner in pairs]
        else:
            self._bounds = []
            self._owners = []
        self.served = 0

    def submit(self, op: int, key: int, value: bytes = b"") -> PendingOp:
        """Fire one open-loop operation (non-blocking)."""
        pending = super().submit(op, key, value)
        pending.tag = self.plane.op_started()
        return pending

    def _target(self, key: int) -> BucketNode:
        """The bucket this session's image addresses ``key`` to."""
        plane = self.plane
        if plane.family == "lh":
            address = plane.file.addressing.client_address(
                key, self.image.level, self.image.pointer)
            return plane.nodes[address]
        index = bisect_right(self._bounds, key) - 1
        return plane.nodes[self._owners[index]]

    def _resolved(self, pending: PendingOp) -> None:
        self.plane.record_completion(self, pending)

    def _failed(self, pending: PendingOp, reason: str) -> None:
        get_registry().counter("serve.client_failures", reason=reason).inc()
        self.plane.record_failure(pending, reason)

    def receive_iam(self, data: bytes) -> None:
        """Refine this session's private image from an IAM frame."""
        plane = self.plane
        body = cwire.unseal(plane.scheme, data)
        if body is None:
            get_registry().counter("serve.corruptions_detected",
                                   where="iam").inc()
            return
        bucket, level, low, _high = cwire.decode_iam(body)
        if plane.family == "lh":
            self.image = plane.file.addressing.adjust_image(
                self.image, level, bucket)
            return
        index = bisect_right(self._bounds, low) - 1
        if index >= 0 and self._bounds[index] == low:
            self._owners[index] = bucket
        else:
            insort(self._bounds, low)
            self._owners.insert(self._bounds.index(low), bucket)


class StepStats:
    """Accumulator for one offered-load step of the open-loop sweep."""

    def __init__(self, name: str):
        from ..obs.registry import BucketedHistogram
        self.name = name
        self.hist = BucketedHistogram(name, ())
        self.ok = 0
        self.not_ok = 0
        self.failures = {"timeout": 0, "shed": 0}
        self.attempts = 0
        self.sessions: set[int] = set()
        #: Sim time of the last in-step resolution -- goodput's span
        #: runs to here, not to the last *arrival*, so a queue that
        #: drains long after the offered burst shows up as lower
        #: goodput instead of being laundered by the drain.
        self.last_resolved = 0.0

    @property
    def completed(self) -> int:
        """Operations that got a definitive server answer."""
        return self.ok + self.not_ok

    @property
    def resolved(self) -> int:
        """Completed plus failed operations -- everything accounted for."""
        return self.completed + sum(self.failures.values())


class ServingPlane:
    """Deterministic many-client serving simulation over LH*/RP* buckets."""

    def __init__(self, buckets: int = 4, family: str = "lh", seed: int = 0,
                 scheme: AlgebraicSignatureScheme | None = None,
                 policy: ServicePolicy | None = None,
                 retry: RetryPolicy | None = None,
                 plan: FaultPlan | None = None,
                 split_threshold: int = 512,
                 split_delay: float = 2e-3):
        if family not in ("lh", "rp"):
            raise ServeError(f"unknown SDDS family {family!r}")
        if buckets < 1:
            raise ServeError("need at least one bucket")
        if family == "rp" and buckets != 1:
            raise ServeError("RP* grows from one bucket; preload splits it")
        self.family = family
        self.seed = seed
        self.scheme = scheme if scheme is not None else make_scheme()
        self.policy = policy if policy is not None \
            else ServicePolicy.serving(rate=2000.0, inbox_limit=64)
        if self.policy.inline:
            raise ServeError("the serving plane needs a queued policy")
        self.retry = retry if retry is not None else RetryPolicy(
            timeout=10e-3, backoff=2.0, max_timeout=0.08, max_attempts=6,
            jitter=0.1, budget=4, op_deadline=0.25)
        self.plan = plan if plan is not None else FaultPlan()
        self.split_delay = split_delay
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.network = SimNetwork(
            clock=self.clock, model=NetworkModel(header_bytes=16))
        self.faulty_network = FaultyNetwork(self.network, self.loop,
                                            self.plan, seed=seed)
        registry = get_registry()
        # High-volume series must be bounded *before* first touch.
        registry.set_histogram_backend("serve.wait_seconds", "bucketed")
        registry.set_histogram_backend("serve.latency_seconds", "bucketed")
        if family == "lh":
            self.file = LHFile(self.scheme, capacity_records=split_threshold,
                               network=self.network, initial_buckets=buckets,
                               split_load_factor=_SPLIT_LOAD,
                               store_signatures=True)
        else:
            self.file = RPFile(self.scheme, capacity_records=split_threshold,
                               network=self.network, store_signatures=True)
        self.sessions: list[PlaneSession] = []
        self.nodes: list[BucketNode] = [
            BucketNode(self, server) for server in self.file.servers
        ]
        #: Ground truth applied in execution order (key -> value).
        self.oracle: dict[int, bytes] = {}
        #: Keys whose mutations were acknowledged to some session.
        self.acked: dict[int, str] = {}
        #: Keys ever mutated at a bucket (the execution journal).
        self.executed_keys: set[int] = set()
        self.splits = 0
        self.split_log: list[tuple[float, int, int, int]] = []
        self._lh_split_pending = False
        self.step = 0
        self.stats = StepStats("warmup")
        self.max_inflight = 0
        self._inflight_now = 0
        self._inserted = 0

    # ------------------------------------------------------------------
    # Topology and routing
    # ------------------------------------------------------------------

    def session(self) -> PlaneSession:
        """Create (and register) one client session."""
        session = PlaneSession(self, len(self.sessions))
        self.sessions.append(session)
        return session

    def owner_of(self, key: int) -> BucketNode:
        """The bucket that owns ``key`` under the *true* current state."""
        return self.nodes[self.file.owner(key)]

    def forward_frame(self, source: BucketNode, target: int,
                      data: bytes) -> None:
        """Ship a misdirected request frame one hop toward its owner."""
        if target >= len(self.nodes):
            raise ServeError(
                f"{source.name} forwarded to unknown bucket {target}")
        node = self.nodes[target]
        self.faulty_network.transmit(
            source.name, node.name, FORWARD_KIND, data,
            lambda payload: node.receive_request(payload, forwarded=True),
        )

    def op_started(self) -> int:
        """Track one more in-flight operation; returns the current step."""
        self._inflight_now += 1
        if self._inflight_now > self.max_inflight:
            self.max_inflight = self._inflight_now
        return self.step

    # ------------------------------------------------------------------
    # Execution accounting, split triggers
    # ------------------------------------------------------------------

    def record_execution(self, node: BucketNode, request: ServeRequest,
                         status: int, effect: str) -> None:
        """Account a server-side execution and keep the oracle in step."""
        registry = get_registry()
        op_name = cwire.OP_NAMES[request.op]
        group = 1 + len(request.riders)
        registry.counter("serve.executions", node=node.name,
                         op=op_name).inc()
        if effect == "pseudo":
            registry.counter("serve.pseudo_updates").inc()
            # A pseudo-update is a real, ackable execution: the server
            # proved the key exists with an identical value signature.
            # Journal it so verify() doesn't flag the ack as fabricated.
            self.executed_keys.add(request.key)
        if effect in MUTATING_EFFECTS:
            self.executed_keys.add(request.key)
            if effect == "delete":
                self.oracle.pop(request.key, None)
            else:
                self.oracle[request.key] = request.value
            if effect == "insert":
                self._inserted += 1
                self._maybe_split(node)
        if group > 1:
            registry.counter("serve.coalesced_group", node=node.name) \
                .inc(group)

    def record_completion(self, session: PlaneSession,
                          pending: PendingOp) -> None:
        """Account a client-visible completion against the current step."""
        self._inflight_now -= 1
        session.served += 1
        registry = get_registry()
        op_name = cwire.OP_NAMES[pending.op]
        status_name = cwire.ST_NAMES[pending.status]
        latency = self.clock.now - pending.start
        registry.counter("serve.ops", op=op_name, status=status_name).inc()
        registry.histogram("serve.latency_seconds", op=op_name) \
            .observe(latency)
        ok = pending.status in (cwire.ST_INSERTED, cwire.ST_FOUND,
                                cwire.ST_APPLIED, cwire.ST_DELETED)
        if ok and op_name in ("insert", "update", "delete"):
            # "Acked" records what some session was *told* happened;
            # verify() cross-checks it against the execution journal.
            self.acked[pending.key] = op_name
        stats = self.stats
        if pending.tag == self.step:
            stats.hist.observe(latency)
            stats.attempts += pending.budget.spent
            stats.sessions.add(session.index)
            stats.last_resolved = self.clock.now
            if ok:
                stats.ok += 1
            else:
                stats.not_ok += 1

    def record_failure(self, pending: PendingOp, reason: str) -> None:
        """Account an operation the session gave up on (timeout/shed)."""
        self._inflight_now -= 1
        if pending.tag == self.step:
            self.stats.failures[reason] += 1
            self.stats.attempts += pending.budget.spent
            self.stats.last_resolved = self.clock.now

    def begin_step(self, name: str) -> StepStats:
        """Open a fresh per-step accumulator; returns the previous one."""
        previous = self.stats
        self.step += 1
        self.stats = StepStats(name)
        return previous

    def _maybe_split(self, node: BucketNode) -> None:
        if self.family == "rp":
            if not node.split_pending and node.server.bucket.is_overfull:
                node.split_pending = True
                self.loop.after(self.split_delay, lambda: self._split(node))
            return
        if (not self._lh_split_pending
                and self.file.load_factor > self.file.split_load_factor):
            self._lh_split_pending = True
            self.loop.after(self.split_delay, self._split)

    # ------------------------------------------------------------------
    # Live splits
    # ------------------------------------------------------------------

    def _split(self, source: BucketNode | None = None) -> None:
        """Split live: the bucket at the LH* split pointer, or the
        overfull RP* bucket ``source`` at its median key."""
        if source is None:
            self._lh_split_pending = False
            source = self.nodes[self.file.state.pointer]
            server, moved = self.file.split()
        else:
            source.split_pending = False
            if not source.server.bucket.is_overfull:
                return
            server, moved = self.file.split(source.server)
        target = BucketNode(self, server)
        self.nodes.append(target)
        shipped = sum(8 + len(record.value) for record in moved)
        if shipped:
            self.network.account(source.name, target.name,
                                 SPLIT_KIND, shipped)
        self.splits += 1
        self.split_log.append((self.clock.now, source.bucket_id,
                               target.bucket_id, shipped))
        registry = get_registry()
        registry.counter("serve.splits", family=self.family).inc()
        registry.counter("serve.split_bytes").inc(shipped)
        registry.gauge("serve.buckets").set(len(self.nodes))

    # ------------------------------------------------------------------
    # Preload (synchronous, before traffic)
    # ------------------------------------------------------------------

    def preload(self, count: int, value_bytes: int = 64) -> None:
        """Insert ``count`` records directly (no traffic), splitting as
        needed, so sweeps start from a populated, multi-bucket file."""
        if self.sessions:
            raise ServeError("preload must run before sessions exist")
        for index in range(count):
            key = key_for(index)
            value = self._value_for(key, 0, value_bytes)
            node = self.owner_of(key)
            status, _reply, effect = apply_operation(
                node.server, self.scheme, cwire.OP_INSERT, key, value)
            if status != cwire.ST_INSERTED:
                raise ServeError(f"preload collision on key {key}")
            self.oracle[key] = value
            # Split synchronously during preload: the live-split path
            # needs traffic; here we only want the starting topology.
            if self.family == "rp":
                if node.server.bucket.is_overfull:
                    self._split(node)
            elif self.file.load_factor > self.file.split_load_factor:
                self._split()

    @staticmethod
    def _value_for(key: int, version: int, value_bytes: int) -> bytes:
        seed = (key * 1315423911 + version * 2654435761) & 0xFFFFFFFF
        return seed.to_bytes(4, "little") * (value_bytes // 4)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def settle(self, max_seconds: float = 3600.0) -> None:
        """Drain every queued event (timers, queues, forwards)."""
        self.loop.run_until_idle(max_seconds)

    def verify(self) -> dict:
        """Certify the final file against the execution oracle.

        Re-renders each bucket's expected canonical image from the
        oracle through the *true* final addressing state and compares
        algebraic signatures (Proposition 1: any discrepancy within
        the n-symbol bound is detected with certainty).  Also checks
        LH*/RP* placement invariants and that every acknowledged
        mutation survived whatever splits raced it.
        """
        expected = {node.bucket_id: Bucket(node.bucket_id)
                    for node in self.nodes}
        for key, value in self.oracle.items():
            expected[self.owner_of(key).bucket_id].insert(Record(key, value))
        buckets_ok = 0
        mismatched: list[int] = []
        for node in self.nodes:
            image = serialize_bucket(node.server.bucket)
            want = serialize_bucket(expected[node.bucket_id])
            if (self.scheme.sign(image, strict=False)
                    == self.scheme.sign(want, strict=False)
                    and image == want):
                buckets_ok += 1
            else:
                mismatched.append(node.bucket_id)
        placement_ok = all(
            node.owns(key)
            for node in self.nodes for key in node.server.bucket.keys()
        )
        # An ack without a matching execution would be fabrication; an
        # executed record missing from the images is caught by the
        # signature comparison above.  Together: no acked op was lost.
        acked_lost = [key for key in self.acked
                      if key not in self.executed_keys]
        surviving = sum(1 for key in self.acked if key in self.oracle)
        return {
            "buckets": len(self.nodes),
            "buckets_verified": buckets_ok,
            "mismatched": mismatched,
            "placement_ok": placement_ok,
            "records": len(self.oracle),
            "acked_keys": len(self.acked),
            "acked_surviving": surviving,
            "acked_lost": acked_lost,
            "splits": self.splits,
            "ok": (buckets_ok == len(self.nodes) and placement_ok
                   and not acked_lost),
        }
