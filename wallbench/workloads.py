"""The benchmark workloads, driven through public APIs only.

Each workload builds its inputs from the seed once (set-up), then runs
*rounds*.  A round rebuilds the system under test from the same inputs,
so every round of a run does identical work and yields an identical
behaviour digest; only wall time differs between rounds and between
runs.  Inside a round, :class:`Phase` times the measured section and,
on traced rounds, installs the layer wrappers around exactly that
section.  Every round checks its outputs and lists what failed in
``RoundResult.problems``.

* ``kv_durable``   -- one closed-loop client against a durable cluster.
* ``recover_repair`` -- certified recovery and repair of a damaged log.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro import make_scheme
from repro.cluster import Cluster
from repro.obs import MetricsRegistry, use_registry
from repro.obs.registry import Counter, HistogramBase
from repro.sig.engine import get_batch_signer
from repro.store import PageStore


class SetupDone(Exception):
    """Raised at the first timed operation of a set-up-only run."""


def counter_totals(registry: MetricsRegistry) -> dict[str, float]:
    """Counter values summed over labels, by metric name."""
    totals: dict[str, float] = {}
    for series in registry.series():
        if isinstance(series, Counter):
            totals[series.name] = totals.get(series.name, 0) + series.value
    return totals


def counter_series(registry: MetricsRegistry) -> dict[str, float]:
    """Every counter series by name and labels (the digest's registry part).

    Histograms are left out: ``store.recovery_seconds`` records wall time.
    """
    return {f"{series.name}{{{','.join(f'{k}={v}' for k, v in series.labels)}}}":
            series.value
            for series in registry.series() if isinstance(series, Counter)}


def histogram_samples(registry: MetricsRegistry) -> int:
    """Observations held by every histogram series of the registry."""
    return sum(series.count for series in registry.series()
               if isinstance(series, HistogramBase))


def digest(document) -> str:
    """Stable short hash of a JSON-able document."""
    text = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: Iterations of the host probe: about 0.2 ms of pure interpreter work.
PROBE_LOOPS = 3000


def host_probe() -> float:
    """Wall seconds of a fixed interpreter loop: the host's current speed.

    Co-tenants on a shared host slow this process by a third or more for
    seconds at a time.  A probe next to each latency sample measures the
    host's speed while the sample ran, and the sample is scaled by it
    (``worker.at_reference_speed``).  ``kv_durable`` probes before each
    of its short operations; ``recover_repair`` takes the slower of the
    probes before and after each of its long ones.
    """
    start = perf_counter()
    total = 0
    for index in range(PROBE_LOOPS):
        total += index * index % 7
    return perf_counter() - start


class Phase:
    """Times one round's measured section; traces it when given a tracer."""

    def __init__(self, tracer=None, stop_at_start: bool = False):
        self.tracer = tracer
        self.stop_at_start = stop_at_start
        self.seconds = 0.0
        #: CLOCK_MONOTONIC at the first timed operation (system-wide, so
        #: the parent process can subtract its spawn time).
        self.started_at = 0.0
        #: Counter deltas over the measured section, by metric name.
        self.counters: dict[str, float] = {}

    def probe(self) -> float:
        """The host probe, skipped (0.0) on traced rounds."""
        return 0.0 if self.tracer is not None else host_probe()

    @contextmanager
    def measure(self, registry: MetricsRegistry):
        """Context manager around the measured section of a round."""
        self.started_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        if self.stop_at_start:
            raise SetupDone()
        before = counter_totals(registry)
        if self.tracer is not None:
            self.tracer.install()
        start = perf_counter()
        try:
            yield self
        finally:
            self.seconds = perf_counter() - start
            if self.tracer is not None:
                self.tracer.uninstall()
        after = counter_totals(registry)
        self.counters = {name: value - before.get(name, 0)
                         for name, value in after.items()}


@dataclass
class RoundResult:
    """What one round did, measured and checked."""

    ops: int                      #: operations completed in the timed phase
    attempted: int
    failed: int
    latencies: list[float]        #: wall seconds per operation
    #: Per latency sample: the host probe that scales it (see
    #: :func:`host_probe`).
    hosts: list[float]
    kinds: list[str]              #: operation kind per latency sample
    digest: str                   #: behaviour fingerprint of the round
    problems: list[str] = field(default_factory=list)
    #: Workload counts over the timed phase (events fired, spans, ...).
    extras: dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# kv_durable
# ----------------------------------------------------------------------

_KEY_MIX = 2654435761


def _key(index: int) -> int:
    return (index * _KEY_MIX) & 0xFFFFFFFF


def _value(key: int, version: int, size: int) -> bytes:
    word = ((key * 1315423911) ^ (version * 2654435761)) & 0xFFFFFFFF
    return word.to_bytes(4, "little") * (size // 4)


@dataclass(frozen=True, slots=True)
class _KvOp:
    kind: str          #: "search", "insert", "update" or "pseudo"
    key: int
    value: bytes       #: value sent (insert/update) or expected (search)


class KvDurable:
    """Closed-loop client against a durable, fault-free 4-node cluster.

    ``Cluster(durable_dir=..., durable_flush="frame")`` with checkpoints
    every 64 frames; Zipf keys over the records inserted so far; a
    30/45/25 search/update/insert mix, a quarter of updates pseudo.
    Per-frame flushing keeps the commit count independent of wall time.
    Each round is one fresh cluster: preload, timed operations, then the
    convergence and durability checks.
    """

    name = "kv_durable"
    VALUE_BYTES = 100
    SKEW = 0.99

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.scheme = make_scheme()
        preload, count = (40, 80) if tiny else (200, 1200)
        rng = random.Random(f"kv_durable|{seed}")
        keys = [_key(index) for index in range(preload)]
        model = {key: _value(key, 0, self.VALUE_BYTES) for key in keys}
        # Ascending preload appends at each node's image end; the timed
        # inserts land at random positions and shift the image.
        self.preload = sorted(model.items())
        limit = preload + count
        weights = [1.0 / (rank + 1) ** self.SKEW for rank in range(limit)]
        prefix = []
        running = 0.0
        for weight in weights:
            running += weight
            prefix.append(running)
        # Exact kind counts, shuffled: an insert costs several times any
        # other operation, so a seed-dependent insert count would shift
        # every timing from one seed to the next.
        searches, inserts = count * 30 // 100, count // 4
        pseudos = (count - searches - inserts) // 4
        kinds = (["search"] * searches + ["insert"] * inserts
                 + ["pseudo"] * pseudos
                 + ["update"] * (count - searches - inserts - pseudos))
        rng.shuffle(kinds)
        ops: list[_KvOp] = []
        for serial, kind in enumerate(kinds):
            if kind == "insert":
                key = _key(len(keys))
                keys.append(key)
                value = _value(key, 0, self.VALUE_BYTES)
                model[key] = value
                ops.append(_KvOp("insert", key, value))
                continue
            rank = bisect.bisect_left(prefix, rng.random() * prefix[len(keys) - 1],
                                      0, len(keys) - 1)
            key = keys[rank]
            if kind == "update":
                model[key] = _value(key, serial + 1, self.VALUE_BYTES)
            ops.append(_KvOp(kind, key, model[key]))
        self.ops = ops
        self.rounds = 0
        # Warm-up: one round over the first operations.
        self.run_round(Phase(), limit=min(count, 100))

    _EXPECTED = {"search": "found", "insert": "inserted", "update": "applied",
                 "pseudo": "applied"}

    def run_round(self, phase: Phase, limit: int | None = None) -> RoundResult:
        """One fresh durable cluster driven through the operation list."""
        ops = self.ops if limit is None else self.ops[:limit]
        self.rounds += 1
        directory = self.workdir / f"kv-{self.rounds}"
        registry = MetricsRegistry()
        problems: list[str] = []
        with use_registry(registry):
            cluster = Cluster(servers=4, seed=self.seed, scheme=self.scheme,
                              durable_dir=directory, durable_flush="frame",
                              durable_checkpoint_every=64,
                              recovery_workers=1)
            client = cluster.client()
            for key, value in self.preload:
                if client.insert(key, value).status != "inserted":
                    problems.append(f"preload insert of {key} failed")
            fired = cluster.loop.fired
            spans = len(cluster.traces.finished)
            samples = histogram_samples(registry)
            latencies: list[float] = []
            results = []
            calls = {"search": lambda op: client.search(op.key),
                     "insert": lambda op: client.insert(op.key, op.value),
                     "update": lambda op: client.update(op.key, op.value),
                     "pseudo": lambda op: client.update(op.key, op.value)}
            hosts: list[float] = []
            with phase.measure(registry):
                for op in ops:
                    hosts.append(phase.probe())
                    start = perf_counter()
                    result = calls[op.kind](op)
                    latencies.append(perf_counter() - start)
                    results.append(result)
            extras = {"fired": cluster.loop.fired - fired,
                      "spans": len(cluster.traces.finished) - spans,
                      "histogram_samples": histogram_samples(registry)
                      - samples}
            failed = 0
            acked_bytes = 0
            for op, result in zip(ops, results):
                good = (result.status == self._EXPECTED[op.kind]
                        and result.attempts == 1
                        and (op.kind != "search" or result.value == op.value))
                if not good:
                    failed += 1
                elif op.kind in ("insert", "update"):
                    # Pseudo-updates change no bytes and append nothing.
                    acked_bytes += len(op.value)
            if failed:
                problems.append(f"{failed} operations returned a wrong answer")
            extras["acked_value_bytes"] = acked_bytes
            problems += self._check(cluster, ops, directory)
            counters = counter_series(registry)
            images = [hashlib.sha256(node.image_bytes()).hexdigest()[:16]
                      for node in cluster.nodes]
            for node in cluster.nodes:
                node.store.close()
        shutil.rmtree(directory, ignore_errors=True)
        return RoundResult(
            ops=len(ops), attempted=len(ops), failed=failed,
            latencies=latencies, hosts=hosts, kinds=[op.kind for op in ops],
            digest=digest({"statuses": [(r.status, r.attempts,
                                         hashlib.sha256(r.value).hexdigest()[:8])
                                        for r in results],
                           "counters": counters, "images": images}),
            problems=problems, extras=extras,
        )

    def _check(self, cluster: Cluster, ops, directory: Path) -> list[str]:
        """Convergence, model equality, and durability of every node's log."""
        problems = []
        cluster.settle()
        try:
            cluster.check_replicas()
        except Exception as error:  # ClusterError: report, don't crash
            problems.append(f"replicas diverge: {error}")
        expected = dict(self.preload)
        for op in ops:
            if op.kind in ("insert", "update"):
                expected[op.key] = op.value
        stored = {}
        for node in cluster.nodes:
            for key in node.server.bucket.keys():
                stored[key] = node.server.bucket.get(key).value
        if stored != expected:
            problems.append("cluster contents differ from the client's model")
        # Durability: each node's flushed log, recovered from a copy,
        # must reproduce the node's live image byte for byte.
        for node in cluster.nodes:
            copy = directory / f"copy-{node.name}"
            shutil.copytree(node.store_dir, copy)
            recovered, report = PageStore.recover(
                self.scheme, copy, verify_workers=1)
            if recovered.image(node.IMAGE_VOLUME) != node.image_bytes():
                problems.append(f"{node.name}: recovered log differs from "
                                "the live image")
            if not report.clean:
                problems.append(f"{node.name}: recovery of a clean log "
                                "was not clean")
            recovered.close()
            shutil.rmtree(copy)
        return problems


# ----------------------------------------------------------------------
# recover_repair
# ----------------------------------------------------------------------

class RecoverRepair:
    """Certified recovery plus verified repair of one damaged volume.

    The volume's log spans more than 4 MiB over 1-MiB segments: four full
    image writes, scattered deltas, a checkpoint, a delta tail, three
    rotted frames (two deltas and one page, on distinct pages) and a torn
    final frame.  Each operation recovers a fresh copy of that log with
    the d = 4 locator, then patches every condemned page from the mirror
    after checking it against its certified signature.  The copy is made
    outside the timed operation.
    """

    name = "recover_repair"
    VOLUME = "volume"
    PAGE_BYTES = 4096
    LOCATE_D = 4

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.scheme = make_scheme()
        self.page_symbols = \
            self.PAGE_BYTES // self.scheme.scheme_id.symbol_bytes
        self.pristine = workdir / "pristine"
        self.injected, self.final = self._build(
            random.Random(f"recover_repair|{seed}"), 64 if tiny else 256)
        self.rounds = 0
        # Warm-up: one untimed recovery.
        self.run_round(Phase())

    def _build(self, rng: random.Random,
               pages: int) -> tuple[tuple[int, ...], bytes]:
        """Write and damage the pristine log; returns (damaged pages,
        last durable image)."""
        size = pages * self.PAGE_BYTES
        store = PageStore(self.scheme, self.pristine)
        image = bytearray(rng.randbytes(size))
        store.write_image(self.VOLUME, bytes(image), self.PAGE_BYTES)
        for _rewrite in range(3):
            last_rewrite = store.log_bytes
            rewritten = rng.sample(range(pages), pages // 4)
            for page in rewritten:
                start = page * self.PAGE_BYTES
                image[start:start + self.PAGE_BYTES] = \
                    rng.randbytes(self.PAGE_BYTES)
            store.write_image(self.VOLUME, bytes(image), self.PAGE_BYTES)
        page_frame_bytes = (store.log_bytes - last_rewrite) // pages
        page_frames_end = store.log_bytes
        mutations: list[tuple[int, bytes, int]] = []

        def mutate(count: int) -> None:
            for _ in range(count):
                at = (rng.randrange(pages) * self.PAGE_BYTES
                      + rng.randrange(0, self.PAGE_BYTES - 64, 2))
                before = bytes(image[at:at + 64])
                after = rng.randbytes(64)
                store.record_extent(self.VOLUME, at, before, after, size)
                image[at:at + 64] = after
                mutations.append((at, before, store.log_bytes))

        mutate(200)
        store.checkpoint()
        mutate(100)
        store.close()
        # Rot two pre-checkpoint delta frames and one page frame of the
        # last rewrite, on three distinct pages (<= d, so the locator
        # decodes them exactly); then tear the final frame.  The page
        # frame is one the last rewrite changed: losing a frame that
        # rewrote identical bytes damages nothing the scrub could certify.
        while True:
            victims = rng.sample(range(200), 2)
            damaged = {mutations[index][0] // self.PAGE_BYTES
                       for index in victims}
            if len(damaged) == 2:
                break
        page_victim = rng.choice(sorted(set(rewritten) - damaged))
        for index in victims:
            store.corrupt_log(mutations[index][2] - 40, b"\xff\xff")
        page_frame_end = (page_frames_end
                          - (pages - 1 - page_victim) * page_frame_bytes)
        store.corrupt_log(page_frame_end - 40, b"\xff\xff")
        last_at, last_before, last_end = mutations[-1]
        last_start = mutations[-2][2]
        store.crash_cut(last_start + rng.randrange(1, last_end - last_start))
        # The torn frame never became durable: its region reverts.
        image[last_at:last_at + 64] = last_before
        return tuple(sorted(damaged | {page_victim})), bytes(image)

    def run_round(self, phase: Phase) -> RoundResult:
        """Recover a fresh copy of the damaged log and repair it."""
        self.rounds += 1
        copy = self.workdir / f"recover-{self.rounds}"
        shutil.copytree(self.pristine, copy)
        registry = MetricsRegistry()
        problems: list[str] = []
        page_bytes = self.PAGE_BYTES
        with use_registry(registry):
            samples = histogram_samples(registry)
            before = phase.probe()
            with phase.measure(registry):
                store, report = PageStore.recover(
                    self.scheme, copy, locate_d=self.LOCATE_D,
                    verify_workers=1)
                condemned = report.condemned.get(self.VOLUME, ())
                certified = report.expected.get(self.VOLUME, {})
                for page in condemned:
                    patch = self.final[page * page_bytes:
                                       (page + 1) * page_bytes]
                    signature = get_batch_signer(self.scheme).sign_map(
                        patch, self.page_symbols).signatures[0]
                    if signature != certified.get(page):
                        problems.append(f"mirror page {page} does not match "
                                        "its certified signature")
                        break
                    store.write_page(self.VOLUME, page, patch)
            extras = {"fired": 0, "spans": 0, "acked_value_bytes": 0,
                      "histogram_samples": histogram_samples(registry)
                      - samples}
            if condemned != self.injected:
                problems.append(f"condemned {condemned}, injected "
                                f"{self.injected}")
            # An overflow falls back to the tree or map, which still
            # condemns the right pages but times the fallback instead of
            # the locator.
            totals = counter_totals(registry)
            overflows = (totals.get("sig.locate.overflows", 0)
                         + totals.get("store.locate.overflows", 0))
            if overflows:
                problems.append(f"locator overflowed {overflows} times")
            if store.image(self.VOLUME) != self.final:
                problems.append("patched image differs from the last "
                                "durable state")
            if not (report.used_checkpoint and report.torn_bytes
                    and report.corrupt_frames == 3):
                problems.append(f"unexpected recovery report: {report}")
            outcome = {
                "condemned": list(condemned),
                "report": [report.used_checkpoint, report.frames_valid,
                           report.frames_folded, report.bytes_replayed,
                           report.torn_bytes, report.corrupt_frames,
                           report.log_bytes],
                "counters": counter_series(registry),
            }
            store.close()
        shutil.rmtree(copy, ignore_errors=True)
        return RoundResult(
            ops=1, attempted=1, failed=1 if problems else 0,
            latencies=[phase.seconds], hosts=[max(before, phase.probe())],
            kinds=[],
            digest=digest(outcome), problems=problems, extras=extras,
        )


WORKLOADS = {cls.name: cls for cls in (KvDurable, RecoverRepair)}
