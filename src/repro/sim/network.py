"""Simulated network between SDDS client and server nodes.

Models the paper's test bed -- nodes on a 100 Mb/s Ethernet -- as a
latency + bandwidth cost per message, with full byte/message accounting.
The update protocol's headline results (useless transfers avoided for
pseudo-updates) are reproduced primarily through this accounting; the
latency model recovers the *shape* of the paper's millisecond figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import HandleCache, MetricsRegistry
from .clock import SimClock
from .stats import TrafficStats

#: 100 Mb/s Ethernet in bytes/second.
ETHERNET_100_MBPS = 100e6 / 8


@dataclass(frozen=True, slots=True)
class NetworkModel:
    """Cost model for one message: fixed latency + size / bandwidth."""

    latency: float = 100e-6          #: per-message fixed cost (s)
    bandwidth: float = ETHERNET_100_MBPS  #: payload throughput (bytes/s)
    #: Per-message framing overhead (bytes) added to every payload in
    #: both transfer time and traffic accounting, so signature probes
    #: and other tiny messages are not modeled as free beyond latency.
    header_bytes: int = 0

    def wire_bytes(self, payload_bytes: int) -> int:
        """Bytes actually on the wire: payload plus framing."""
        return payload_bytes + self.header_bytes

    def transfer_time(self, payload_bytes: int) -> float:
        """Seconds to deliver a message with the given payload."""
        return self.latency + self.wire_bytes(payload_bytes) / self.bandwidth


class SimNetwork:
    """Message transport with cost accounting between named nodes.

    ``send`` advances the shared simulated clock by the modeled transfer
    time and tallies the traffic; the caller then delivers the payload
    to the destination object directly (protocols in this code base are
    synchronous request/response, like the SDDS-2000 RPCs the paper
    measures).
    """

    def __init__(self, clock: SimClock | None = None,
                 model: NetworkModel | None = None,
                 registry: MetricsRegistry | None = None):
        self.clock = clock if clock is not None else SimClock()
        self.model = model if model is not None else NetworkModel()
        self.stats = TrafficStats()
        self.per_node: dict[str, TrafficStats] = {}
        #: Pinned metrics registry; None follows the process-wide one.
        self.registry = registry
        self._obs = HandleCache(self._bind)

    def _bind(self, active: MetricsRegistry, kind: str) -> tuple:
        registry = self.registry if self.registry is not None else active
        return (registry.counter("net.messages", kind=kind),
                registry.counter("net.bytes", kind=kind))

    def _emit(self, kind: str, payload_bytes: int) -> None:
        """Emit ``net.*`` series through per-kind bound handles."""
        handles = self._obs[kind]
        handles[0].inc()
        handles[1].inc(payload_bytes)

    def account(self, source: str, destination: str, kind: str,
                payload_bytes: int) -> float:
        """Tally one message *without* advancing the clock.

        Returns the modeled transfer time, for transports that schedule
        delivery on an event loop instead of blocking the world (the
        cluster runtime's :class:`~repro.cluster.FaultyNetwork`).
        """
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        wire = self.model.wire_bytes(payload_bytes)
        self.stats.record(kind, wire)
        self._emit(kind, wire)
        per_node = self.per_node
        for node, direction in ((source, "out"), (destination, "in")):
            stats = per_node.get(node)
            if stats is None:
                stats = per_node[node] = TrafficStats()
            stats.record(f"{direction}:{kind}", wire)
        return self.model.transfer_time(payload_bytes)

    def send(self, source: str, destination: str, kind: str, payload_bytes: int) -> float:
        """Account one message and advance the clock; returns elapsed seconds."""
        elapsed = self.account(source, destination, kind, payload_bytes)
        self.clock.advance(elapsed)
        return elapsed

    def local_compute(self, seconds: float) -> float:
        """Advance the clock for node-local processing (no traffic)."""
        self.clock.advance(seconds)
        return seconds

    def reset_stats(self) -> None:
        """Zero all counters (clock keeps running)."""
        self.stats.reset()
        for stats in self.per_node.values():
            stats.reset()
