"""The request front end both SDDS node runtimes share (PROTOCOLS.md §10).

The paper's SDDS servers answer LH* and RP* clients through one message
flow (Section 2.2).  :class:`RequestFrontEnd` is that flow, from a
delivered sealed frame to a sealed reply on the wire, for the cluster's
:class:`~repro.cluster.node.ClusterNode` and the serving plane's
:class:`~repro.serve.plane.BucketNode` alike:

1. verify the seal -- a corrupt frame is counted under
   ``<prefix>.corruptions_detected{where=request}`` and never parsed;
2. drop a request below its client's low-water mark
   (``<prefix>.stale_requests``): the client has already resolved it,
   so nobody waits for the answer;
3. raise the client's mark to the request's ``low_water`` and prune the
   cached replies below it -- this is what bounds the reply cache;
4. answer a retry from the cached sealed reply (``<prefix>.replays``)
   instead of executing it twice;
5. drop a duplicate of a request still queued (``<prefix>.duplicates``):
   the queued copy will answer;
6. admit through the node's :class:`~repro.serve.service.RequestService`;
   a refused request gets an uncached ``SHED`` reply, so a backed-off
   retry may still execute;
7. seal, cache and route the reply to client ``request_id >> 32``.

The cache and the marks are volatile: a crash loses both, and a retry
of an operation that executed before the crash executes again.

A runtime subclasses the front end and keeps only its own decisions in
the hooks: :meth:`_accepting` (the cluster's down-node drop),
:meth:`_frame_corrupt` and :meth:`_replayed` (its flight-recorder dumps
and trace spans), :meth:`_route` (the serving plane's forwarding and
IAMs) and :meth:`_execute`.
"""

from __future__ import annotations

from ..cluster import wire
from ..obs import get_registry
from ..obs.trace import TraceContext
from .service import RequestService, ServeRequest, ServicePolicy


class RequestFrontEnd:
    """Seal check, replay, duplicate suppression, admission and replies.

    Subclasses provide ``name`` and ``scheme`` and call
    ``RequestFrontEnd.__init__`` with their event loop, service policy,
    faulty network and the live list of clients that request ids index.
    """

    #: Metric name prefix of the front-end counters.
    prefix = ""
    #: Network message kind of reply frames.
    reply_kind = ""
    #: Flight recorder of received requests and sent replies, if any.
    recorder = None

    def __init__(self, loop, policy: ServicePolicy, network, clients: list):
        self.service = RequestService(self.name, loop, policy,
                                      execute=self._answer, shed=self._shed)
        self._network = network
        self._clients = clients
        #: client index -> {request_id: sealed reply}, at-least-once replay.
        self.replies: dict[int, dict[int, bytes]] = {}
        #: client index -> highest low-water mark seen from that client.
        self.marks: dict[int, int] = {}
        #: request ids queued or executing (duplicate suppression).
        self._inflight: set[int] = set()

    def forget_requests(self) -> None:
        """Lose the reply cache, the marks and the in-flight set (a crash)."""
        self.replies.clear()
        self.marks.clear()
        self._inflight.clear()

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def _frame_corrupt(self, data: bytes) -> None:
        """A request frame failed its seal (already counted)."""

    def _accepting(self) -> bool:
        """False drops every verified request before it is parsed."""
        return True

    def _replayed(self, request: wire.Request) -> None:
        """A retry is about to be answered from the reply cache."""

    def _route(self, request: wire.Request, data: bytes,
               forwarded: bool) -> bool:
        """False when the runtime took the request elsewhere."""
        return True

    def _execute(self, group: ServeRequest
                 ) -> tuple[int, bytes, TraceContext | None] | None:
        """Execute ``group``; ``(status, value, reply context)`` or None.

        None means the runtime answered nothing (it forwarded the
        group); otherwise every member of the group gets the reply.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def receive_request(self, data: bytes, forwarded: bool = False) -> None:
        """Handle one delivered (possibly forwarded) request frame."""
        registry = get_registry()
        body = wire.unseal(self.scheme, data)
        if body is None:
            registry.counter(f"{self.prefix}.corruptions_detected",
                             where="request").inc()
            self._frame_corrupt(data)
            return
        if self.recorder is not None:
            self.recorder.record_frame("recv", "request", "", data)
        if not self._accepting():
            return
        request = wire.decode_request(body)
        request_id = request.request_id
        client = request_id >> 32
        mark = self.marks.get(client, 0)
        if request_id < mark:
            registry.counter(f"{self.prefix}.stale_requests",
                             node=self.name).inc()
            return
        cached = self.replies.get(client)
        if request.low_water > mark:
            self.marks[client] = request.low_water
            if cached:
                for old in [old for old in cached
                            if old < request.low_water]:
                    del cached[old]
        if cached and request_id in cached:
            registry.counter(f"{self.prefix}.replays", node=self.name).inc()
            self._replayed(request)
            self._send_reply(request_id, cached[request_id])
            return
        if request_id in self._inflight:
            # A retransmit raced the queue; the queued copy will answer.
            # Re-queueing it would amplify the backlog the retry flees.
            registry.counter(f"{self.prefix}.duplicates",
                             node=self.name).inc()
            return
        if not self._route(request, data, forwarded):
            return
        self._inflight.add(request_id)
        self.service.offer(ServeRequest(
            request.op, request.key, request.value,
            read=request.op == wire.OP_SEARCH, deadline=request.deadline,
            meta=(request, data)))

    def _answer(self, group: ServeRequest) -> None:
        """Service completion: execute once, answer every member."""
        members = (group, *group.riders)
        for member in members:
            self._inflight.discard(member.meta[0].request_id)
        outcome = self._execute(group)
        if outcome is None:
            return
        status, value, context = outcome
        for member in members:
            request_id = member.meta[0].request_id
            sealed = wire.seal(self.scheme, wire.encode_reply(
                status, request_id, value, context=context))
            self.replies.setdefault(request_id >> 32, {})[request_id] = sealed
            self._send_reply(request_id, sealed)

    def _shed(self, request: ServeRequest, reason: str) -> None:
        """Admission refused: an explicit ``SHED`` reply, never cached."""
        request_id = request.meta[0].request_id
        self._inflight.discard(request_id)
        self._send_reply(request_id, wire.seal(
            self.scheme, wire.encode_reply(wire.ST_SHED, request_id)))

    def _send_reply(self, request_id: int, sealed: bytes) -> None:
        client = self._clients[request_id >> 32]
        if self.recorder is not None:
            self.recorder.record_frame("send", "reply", client.name, sealed)
        self._network.transmit(self.name, client.name, self.reply_kind,
                               sealed, client.receive_reply)
