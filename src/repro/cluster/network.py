"""An unreliable message transport over the accounted simulated network.

:class:`FaultyNetwork` is the adversary of the cluster runtime: it
carries real payload bytes (so corruption is a byte flip the receiver
must *detect*, not a flag it is told about), schedules deliveries on the
:class:`~repro.cluster.events.EventLoop` instead of advancing the world
clock synchronously, and perturbs every transfer according to the run's
:class:`~repro.cluster.faults.FaultPlan`:

* **drop** -- the delivery is never scheduled (the bytes still burn
  wire accounting: the sender transmitted them);
* **duplicate** -- two independent deliveries are scheduled;
* **corrupt** -- one payload byte is XOR-flipped with a non-zero mask,
  guaranteeing at least a one-symbol change that the algebraic seal
  detects with certainty (Proposition 2's n-symbol bound);
* **jitter / reorder** -- extra delivery delay, letting later messages
  overtake earlier ones;
* **partition** -- cross-partition sends are dropped until the
  partition's scheduled heal time.

Every random decision comes from a per-link ``random.Random`` stream
seeded by ``(run seed, source, destination)``, so runs are reproducible
and adding traffic on one link never perturbs another link's draws.
"""

from __future__ import annotations

import random
from typing import Callable

from ..obs import get_registry
from ..sim.network import SimNetwork
from .events import EventLoop
from .faults import FaultPlan


class FaultyNetwork:
    """Fault-injecting, event-scheduled transport wrapping a SimNetwork."""

    def __init__(self, inner: SimNetwork, loop: EventLoop, plan: FaultPlan,
                 seed: int = 0):
        if inner.clock is not loop.clock:
            raise ValueError("network and event loop must share one clock")
        self.inner = inner
        self.loop = loop
        self.plan = plan
        self.seed = seed
        self._rngs: dict[tuple[str, str], random.Random] = {}
        #: Injected-fault counts by type (mirrors ``cluster.faults_injected``).
        self.injected: dict[str, int] = {}
        #: Fault listeners ``fn(kind, source, destination)`` -- the
        #: cluster runtime registers one that rings each injected fault
        #: into the destination node's flight recorder.
        self.listeners: list[Callable[[str, str, str], None]] = []

    def _rng(self, source: str, destination: str) -> random.Random:
        key = (source, destination)
        rng = self._rngs.get(key)
        if rng is None:
            # Seeding with a string hashes it with SHA-512 internally --
            # stable across processes, unlike hash().
            rng = random.Random(f"{self.seed}|{source}->{destination}")
            self._rngs[key] = rng
        return rng

    def _fault(self, kind: str, source: str, destination: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        get_registry().counter("cluster.faults_injected", type=kind).inc()
        for listener in self.listeners:
            listener(kind, source, destination)

    def transmit(self, source: str, destination: str, kind: str,
                 payload: bytes,
                 deliver: Callable[[bytes], None]) -> None:
        """Send ``payload``; ``deliver`` fires per surviving copy.

        Traffic is accounted at send time (the bytes went on the wire
        whether or not they arrive); the clock is *not* advanced here --
        each surviving copy's delivery is an event at
        ``now + transfer_time + noise``.
        """
        base_delay = self.inner.account(source, destination, kind,
                                        len(payload))
        now = self.loop.clock.now
        if self.plan.severed(now, source, destination):
            self._fault("partition_drop", source, destination)
            return
        faults = self.plan.link(source, destination)
        if faults.is_clean:
            self.loop.after(base_delay, lambda: deliver(payload))
            return
        rng = self._rng(source, destination)
        # Fixed draw order per message keeps the stream deterministic.
        if rng.random() < faults.drop:
            self._fault("drop", source, destination)
            return
        copies = 1
        if faults.duplicate and rng.random() < faults.duplicate:
            self._fault("duplicate", source, destination)
            copies = 2
        for _ in range(copies):
            delay = base_delay
            if faults.jitter:
                extra = rng.random() * faults.jitter
                if extra:
                    self._fault("delay", source, destination)
                delay += extra
            if faults.reorder and rng.random() < faults.reorder:
                self._fault("reorder", source, destination)
                delay += faults.reorder_delay
            body = payload
            if faults.corrupt and rng.random() < faults.corrupt and payload:
                position = rng.randrange(len(payload))
                mask = rng.randrange(1, 256)
                corrupted = bytearray(payload)
                corrupted[position] ^= mask
                body = bytes(corrupted)
                self._fault("corrupt", source, destination)
            self.loop.after(delay, lambda body=body: deliver(body))
