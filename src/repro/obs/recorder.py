"""Per-node flight recorder: bounded forensics for the SDDS cluster.

The paper's detection guarantee (Proposition 2: an n-symbol seal
certainly catches up to n changed symbols) tells a node *that* a wire
frame was tampered with, but a bare counter increment says nothing
about *what the node saw* at that moment.  This module keeps, per node,
a bounded ring of the most recent telemetry -- finished spans, digests
of the wire frames handled, fault events -- and, when something goes
wrong (a seal verification fails, a node crashes, recovery condemns a
page), dumps the ring as a post-mortem bundle.

The bundle itself is *sealed with the same algebraic signature scheme
the cluster uses on the wire*: the evidence about an integrity failure
carries its own integrity certificate, the discipline Idalino et al.
apply to locating modifications in signed data.  Memory is O(capacity)
regardless of run length; the ring is a ``collections.deque`` with
``maxlen``, so old entries fall off for free.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .registry import get_registry


def frame_digest(scheme, frame: bytes) -> str:
    """Name a sealed wire frame by its own signature tail.

    Every cluster frame already ends with its algebraic signature
    (``body || sig(body)``), so the frame's last ``signature_bytes``
    bytes *are* a collision-resistant-enough handle for forensics --
    no second hash pass over the body.  Frames shorter than a seal
    (impossible on the real wire, possible after truncating faults)
    digest their whole content.
    """
    # A slice from -width is the whole frame when it is shorter.
    return f"{bytes(frame[-scheme.signature_bytes:]).hex()}/{len(frame)}"


def _rendered(entry: dict) -> dict:
    """A ring entry as a dump shows it: a frame's kept seal tail and
    length become its :func:`frame_digest`."""
    if entry["kind"] != "frame":
        return entry
    rendered = entry.copy()
    rendered["digest"] = f"{rendered.pop('tail').hex()}/" \
        f"{rendered.pop('length')}"
    return rendered


@dataclass(frozen=True, slots=True)
class RecorderDump:
    """One sealed post-mortem bundle emitted by a flight recorder.

    ``payload`` is the stable-JSON evidence document encoded as UTF-8;
    ``sealed`` is ``payload || sig(payload)`` under the cluster's wire
    scheme, so the dump can be shipped, stored, and later verified with
    :func:`repro.cluster.wire.unseal` like any other frame.
    """

    node: str
    reason: str
    at: float
    payload: bytes
    sealed: bytes

    def document(self) -> dict:
        """Decode the evidence document back into a dict."""
        return json.loads(self.payload.decode("utf-8"))

    def frames(self) -> list[str]:
        """Digests of every wire frame captured in the bundle."""
        return [entry["digest"] for entry in self.document()["entries"]
                if entry["kind"] == "frame"]


class FlightRecorder:
    """A bounded ring of recent telemetry for one cluster node.

    Records three kinds of entries -- finished trace spans, wire frames,
    fault events -- into a ``deque(maxlen=capacity)``.  A frame entry
    keeps the frame's seal tail and length; its hex digest is rendered
    only when a dump reads the ring.  On
    :meth:`dump` the ring is serialized (sorted-key JSON, simulated
    timestamps only, so same-seed runs dump byte-identical evidence),
    sealed with the node's signature scheme, counted in
    ``obs.recorder_dumps``, and handed to every registered sink.
    """

    def __init__(self, node: str, scheme, clock=None, capacity: int = 64):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.node = node
        self.scheme = scheme
        self.clock = clock
        self.capacity = capacity
        self._seal_bytes = scheme.signature_bytes
        self.entries: deque[dict] = deque(maxlen=capacity)
        self.dumps: list[RecorderDump] = []
        #: External consumers of dumps (the cluster registers one that
        #: collects every node's bundles into a run-level list).
        self.sinks: list[Callable[[RecorderDump], None]] = []

    def _now(self) -> float:
        return 0.0 if self.clock is None else self.clock.now

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_span(self, span) -> None:
        """Ring a finished :class:`~repro.obs.trace.TraceSpan`."""
        self.entries.append({
            "at": self._now(),
            "kind": "span",
            "name": span.name,
            "span_id": span.span_id,
            "status": span.status,
            "trace_id": span.trace_id,
        })

    def record_frame(self, direction: str, kind: str, peer: str,
                     frame: bytes) -> None:
        """Ring a wire frame (``direction`` is recv/send)."""
        self.entries.append({
            "at": self._now(),
            "direction": direction,
            "frame_kind": kind,
            "kind": "frame",
            "length": len(frame),
            "peer": peer,
            "tail": bytes(frame[-self._seal_bytes:]),
        })

    def record_fault(self, fault: str, **detail) -> None:
        """Ring a fault event (seal failure, crash, condemned page...)."""
        self.entries.append({
            "at": self._now(),
            "detail": dict(sorted(detail.items())),
            "fault": fault,
            "kind": "fault",
        })

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------

    def dump(self, reason: str, **detail) -> RecorderDump:
        """Seal the current ring into a post-mortem bundle.

        The ring is *not* cleared: a burst of failures produces
        overlapping bundles, each a complete picture at its instant.
        """
        from ..sig.seal import seal     # repro.sig imports repro.obs

        document = {
            "at": self._now(),
            "capacity": self.capacity,
            "detail": dict(sorted(detail.items())),
            "entries": [_rendered(entry) for entry in self.entries],
            "node": self.node,
            "reason": reason,
        }
        payload = json.dumps(document, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        sealed = payload + seal(self.scheme, [payload])
        dump = RecorderDump(node=self.node, reason=reason, at=self._now(),
                            payload=payload, sealed=sealed)
        self.dumps.append(dump)
        get_registry().counter("obs.recorder_dumps", node=self.node,
                               reason=reason).inc()
        for sink in self.sinks:
            sink(dump)
        return dump
