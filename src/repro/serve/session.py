"""The client half of the SDDS message flow both node runtimes share.

The paper's LH*/RP* clients reach the servers through one message flow
(Section 2.2).  :class:`~repro.serve.frontend.RequestFrontEnd` is its
server half and :class:`Session` its client half, under the cluster's
:class:`~repro.cluster.runtime.ClusterClient` and the serving plane's
:class:`~repro.serve.plane.PlaneSession`: seal each request with the
oldest pending id as its ``low_water``, send it under an
:class:`~repro.cluster.retry.OpBudget`, resend on timeout or after a
``SHED`` backoff until the budget runs out, and verify and match the
replies.  A session never drives the event loop; a blocking call is
:meth:`Session.submit` plus ``loop.run_until(..., stop=resolved)``.
"""

from __future__ import annotations

import random

from ..cluster import wire
from ..obs import get_registry


class PendingOp:
    """One in-flight operation; ``status`` stays None unless answered.

    ``span`` is the trace root it carries, ``tag`` the runtime's own.
    """

    __slots__ = ("request_id", "op", "key", "start", "sealed", "budget",
                 "span", "timer", "tag", "status", "value")

    def __init__(self, request_id: int, op: int, key: int, start: float,
                 sealed: bytes, budget, span):
        self.request_id = request_id
        self.op = op
        self.key = key
        self.start = start
        self.sealed = sealed
        self.budget = budget
        self.span = span
        self.timer = None
        self.tag = None
        self.status = None
        self.value = b""


class Session:
    """Submit, time out, back off, verify and match -- never blocking.

    A runtime sets ``prefix`` and ``request_kinds`` and keeps its own
    decisions in the hooks below and the frame ``recorder``.
    """

    __slots__ = ("index", "name", "loop", "network", "scheme", "retry",
                 "pending", "_seq", "_rng")

    #: Metric name prefix of the client counters.
    prefix = ""
    #: Network message kind of each operation's request frames.
    request_kinds: dict[int, str] = {}
    #: Flight recorder of sent requests and received replies, if any.
    recorder = None

    def __init__(self, runtime, index: int, name: str):
        self.index = index
        self.name = name
        self.loop = runtime.loop
        self.network = runtime.faulty_network
        self.scheme = runtime.scheme
        self.retry = runtime.retry
        #: request id -> operation, in submission (= id) order.
        self.pending: dict[int, PendingOp] = {}
        self._seq = 0
        self._rng = random.Random(f"{runtime.seed}|{name}|retry")

    def _target(self, key: int):
        """The node this session sends ``key``'s request to."""

    def _resolved(self, pending: PendingOp) -> None:
        """A reply settled ``pending`` (``status`` and ``value`` set)."""

    def _failed(self, pending: PendingOp, reason: str) -> None:
        """The budget ran out on ``pending`` (``timeout`` or ``shed``)."""

    def _frame_corrupt(self, data: bytes) -> None:
        """A reply frame failed its seal (already counted)."""

    def submit(self, op: int, key: int, value: bytes = b"",
               span=None) -> PendingOp:
        """Seal and send one operation; returns its pending record."""
        now = self.loop.clock.now
        request_id = (self.index << 32) | self._seq
        self._seq += 1
        budget = self.retry.begin(now)
        # Pending ids are inserted in increasing order, so the first one
        # is the lowest this session has not resolved.
        sealed = wire.seal(self.scheme, wire.encode_request(
            op, request_id, key, value,
            low_water=next(iter(self.pending), request_id),
            deadline=0.0 if self.retry.op_deadline is None
            else budget.deadline,
            context=None if span is None else span.context))
        pending = PendingOp(request_id, op, key, now, sealed, budget, span)
        self.pending[request_id] = pending
        self._send(pending)
        return pending

    def _send(self, pending: PendingOp) -> None:
        attempt = pending.budget.spend()
        if attempt:
            get_registry().counter(f"{self.prefix}.retries",
                                   op=wire.OP_NAMES[pending.op]).inc()
            if pending.span is not None:
                pending.span.event("retry", attempt=attempt + 1)
        target = self._target(pending.key)
        if self.recorder is not None:
            self.recorder.record_frame("send", "request", target.name,
                                       pending.sealed)
        self.network.transmit(self.name, target.name,
                              self.request_kinds[pending.op], pending.sealed,
                              target.receive_request)
        wait = pending.budget.attempt_timeout(attempt, self._rng,
                                              self.loop.clock.now)
        pending.timer = self.loop.after(
            wait, lambda: self._resend(pending, "timeout"))

    def _resend(self, pending: PendingOp, reason: str) -> None:
        """A timer fired: resend while the budget allows, else give up."""
        if reason == "timeout":
            get_registry().counter(f"{self.prefix}.timeouts",
                                   op=wire.OP_NAMES[pending.op]).inc()
        if pending.budget.allow(self.loop.clock.now):
            self._send(pending)
        else:
            del self.pending[pending.request_id]
            self._failed(pending, reason)

    def receive_reply(self, data: bytes) -> None:
        """Handle a sealed reply frame: resolve, shed-backoff, or drop."""
        registry = get_registry()
        body = wire.unseal(self.scheme, data)
        if body is None:
            registry.counter(f"{self.prefix}.corruptions_detected",
                             where="reply").inc()
            self._frame_corrupt(data)
            return
        if self.recorder is not None:
            self.recorder.record_frame("recv", "reply", "", data)
        _context, status, request_id, value = wire.decode_reply(body)
        pending = self.pending.get(request_id)
        if pending is None:
            # A late or duplicated reply for a settled operation.
            registry.counter(f"{self.prefix}.stale_replies").inc()
            return
        pending.timer.cancel()
        if status != wire.ST_SHED:
            del self.pending[request_id]
            pending.status = status
            pending.value = value
            self._resolved(pending)
            return
        registry.counter(f"{self.prefix}.client_sheds").inc()
        budget = pending.budget
        now = self.loop.clock.now
        if not budget.allow(now):
            self._resend(pending, "shed")  # gives up
            return
        # Back off along the same ladder a timeout would use -- shedding
        # must *reduce* inbound pressure, not turn the client into an
        # immediate-retry battering ram.
        wait = budget.attempt_timeout(
            min(budget.spent, self.retry.max_attempts - 1), self._rng, now)
        pending.timer = self.loop.after(
            wait, lambda: self._resend(pending, "shed"))
