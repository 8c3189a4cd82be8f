"""One workload run in a fresh process: set up, run rounds, report.

``run.py`` starts this script with the pinned environment and reads the
JSON object it prints last.  ``--mode setup`` stops at the first timed
operation and reports only when that was (the set-up samples);
``--mode run`` measures rounds for ``--seconds``.  With ``--trace 1``
odd rounds run under the layer wrappers and even rounds without them,
so the tracing overhead is measured in the same process.

    PYTHONPATH=src python3 wallbench/worker.py --workload kv_durable \\
        --seed 1 --seconds 5 --trace 0 --mode run [--tiny]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOADS, Phase, SetupDone  # noqa: E402

#: Directory, under the working directory, that holds durable state.
WORK_DIR = ".wallbench_work"

#: The paper's Section 5.2 update figures ([H03], 1.8 GHz P4, 100 Mb/s).
PAPER_UPDATES = ("paper 5.2: 1 KB normal update 0.614 ms vs pseudo 0.043 ms "
                 "(excl. record access); 100 B incl. search 0.63 vs 0.25 ms")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_ok(count: int, p: float) -> bool:
    """True when at least 10 samples lie beyond the p-th percentile."""
    return count * (100 - p) / 100 >= 10


def run_rounds(workload, seconds: float, trace: bool, setup_only: bool):
    """Round loop; returns ``(rounds, tracer, first_started_at)``."""
    tracer = LayerTracer() if trace else None
    rounds = []
    began = None
    while True:
        traced = trace and len(rounds) % 2 == 1
        phase = Phase(tracer if traced else None,
                      stop_at_start=setup_only and not rounds)
        round_began = perf_counter()
        try:
            result = workload.run_round(phase)
        except SetupDone:
            return [], None, phase.started_at
        if began is None:
            began, first_started_at = round_began, phase.started_at
        rounds.append((traced, phase, result))
        gc.collect()
        now = perf_counter()
        if (now - began + (now - round_began) / 2 >= seconds
                and (not trace or len(rounds) >= 2)):
            return rounds, tracer, first_started_at


#: Host speed the end-to-end timings are scaled to: the time the host
#: probe (``workloads.host_probe``) takes on an unloaded 2-vCPU x86
#: host.  Co-tenants on a shared host slow the probe and the workload
#: alike, by 1.5x or more for seconds to minutes at a time.  Over eight
#: 40-s runs on such a host, scaling every sample by its own probe cut
#: the interquartile spread of ops_per_s from 5% to 3% (kv_durable) and
#: from 8% to 2% (recover_repair), against keeping only the samples
#: whose probe was near the run's fastest.  The value only sets the
#: scale: two versions compare the same under any constant.
REFERENCE_PROBE_S = 200e-6


def at_reference_speed(samples: list[tuple[float, float]]) -> list[float]:
    """Latencies of ``(latency, host probe)`` samples at reference speed.

    A sample taken while the probe ran k times slower than
    :data:`REFERENCE_PROBE_S` is divided by k.
    """
    return [value * REFERENCE_PROBE_S / host for value, host in samples]


def e2e_metrics(rounds, peak_rss_mib: float) -> tuple[dict, list[str]]:
    """End-to-end metrics over untraced rounds, plus report lines."""
    samples = [(value, host) for traced, _phase, result in rounds
               if not traced
               for value, host in zip(result.latencies, result.hosts)]
    scaled = at_reference_speed(samples)
    metrics = {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": percentile(scaled, 50) * 1e3,
        "op_p90_ms": percentile(scaled, 90) * 1e3,
        "peak_rss_mib": peak_rss_mib,
    }
    raw = [value for value, _host in samples]
    probes = [host for _value, host in samples]
    lines = [f"untraced: {sum(1 for r in rounds if not r[0])} rounds, "
             f"{len(scaled)} latency samples at reference host speed: "
             f"{metrics['ops_per_s']:.2f} ops/s, p50 "
             f"{metrics['op_p50_ms']:.4f} ms, p90 "
             f"{metrics['op_p90_ms']:.4f} ms"
             + (f", p99 {percentile(scaled, 99) * 1e3:.4f} ms"
                if tail_ok(len(scaled), 99) else " (too few for p99)"),
             f"host probe p5/p50/p95 {percentile(probes, 5) * 1e6:.1f}/"
             f"{percentile(probes, 50) * 1e6:.1f}/"
             f"{percentile(probes, 95) * 1e6:.1f} us (reference "
             f"{REFERENCE_PROBE_S * 1e6:.0f} us); raw wall: "
             f"{len(raw) / sum(raw):.2f} ops/s, "
             f"p50 {percentile(raw, 50) * 1e3:.4f} ms, p90 "
             f"{percentile(raw, 90) * 1e3:.4f} ms"]
    if not tail_ok(len(scaled), 90):
        lines.append(f"warning: only {len(scaled)} samples; p90 has fewer "
                     "than 10 beyond it")
    kinds = [(kind, value) for traced, _phase, result in rounds if not traced
             for kind, value in zip(result.kinds, result.latencies)]
    if kinds:
        by_kind: dict[str, list[float]] = {}
        for kind, value in kinds:
            by_kind.setdefault(kind, []).append(value)
        lines.append("per kind (raw wall median ms, samples): " + ", ".join(
            f"{kind} {statistics.median(values) * 1e3:.4f} ({len(values)})"
            for kind, values in sorted(by_kind.items())))
        if "update" in by_kind and "pseudo" in by_kind:
            normal = statistics.median(by_kind["update"]) * 1e3
            pseudo = statistics.median(by_kind["pseudo"]) * 1e3
            lines.append(f"normal update {normal:.4f} ms vs pseudo-update "
                         f"{pseudo:.4f} ms ({1 - pseudo / normal:.0%} saved); "
                         + PAPER_UPDATES)
    return metrics, lines


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rounds, tracer: LayerTracer) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced rounds, plus the report table."""
    traced = [(phase, result) for was_traced, phase, result in rounds
              if was_traced]
    plain = [(phase, result) for was_traced, phase, result in rounds
             if not was_traced]
    wall = sum(phase.seconds for phase, _result in traced)
    ops = sum(result.ops for _phase, result in traced)
    counters: dict[str, float] = {}
    extras: dict[str, float] = {}
    for phase, result in traced:
        for name, value in phase.counters.items():
            counters[name] = counters.get(name, 0) + value
        for name, value in result.extras.items():
            extras[name] = extras.get(name, 0) + value
    stats = tracer.stats
    metrics: dict[str, float] = {}
    lines = [f"{'layer':<16} {'calls/op':>10} {'self_s':>10} "
             f"{'ms/op':>9} {'share':>7}"]
    for layer in LAYERS:
        stat = stats[layer]
        metrics[f"{layer}.calls"] = stat.calls / ops
        metrics[f"{layer}.share"] = 100.0 * stat.self_s / wall
        lines.append(f"{layer:<16} {stat.calls / ops:>10.3f} "
                     f"{stat.self_s:>10.4f} {stat.self_s / ops * 1e3:>9.4f} "
                     f"{100.0 * stat.self_s / wall:>6.2f}%")
    attributed = tracer.self_total()
    metrics["unattributed.share"] = 100.0 * (wall - attributed) / wall
    lines.append(f"{'(unattributed)':<16} {'':>10} {wall - attributed:>10.4f} "
                 f"{(wall - attributed) / ops * 1e3:>9.4f} "
                 f"{metrics['unattributed.share']:>6.2f}%")
    wire = stats["cluster.wire"].counts
    ops_layer = stats["serve.ops"].counts
    metrics.update({
        "cluster.wire.frames": wire["frames"] / ops,
        "cluster.wire.bytes_sealed": wire["bytes_sealed"] / ops,
        "sig.bytes_per_op": counters.get("sig.bytes_signed", 0) / ops,
        "cluster.events.fired": extras["fired"] / ops,
        "cluster.network.messages": counters.get("net.messages", 0) / ops,
        "cluster.network.bytes": counters.get("net.bytes", 0) / ops,
        "serve.shed_ratio": _ratio(counters.get("serve.sheds", 0),
                                   stats["serve.service"].calls),
        "serve.coalesce_ratio": _ratio(counters.get("serve.coalesced", 0),
                                       stats["serve.service"].calls),
        "sdds.pseudo_ratio": _ratio(ops_layer["pseudo"],
                                    ops_layer["updates"]),
        "cluster.node.extents_per_mutation": _ratio(
            counters.get("cluster.mirror_deltas", 0),
            stats["cluster.node"].calls),
        "store.flushes_per_op": counters.get("store.log.fsyncs", 0) / ops,
        "store.checkpoints": counters.get("store.checkpoints", 0) / ops,
        "store.write_amp": _ratio(counters.get("store.bytes_appended", 0),
                                  extras["acked_value_bytes"]),
        "store.recover.frames_certified":
            counters.get("store.frames_replayed", 0) / ops,
        "store.recover.corrupt_frames":
            counters.get("store.corrupt_frames_detected", 0) / ops,
        "store.recover.condemned_pages":
            counters.get("store.pages_condemned", 0) / ops,
        "sig.locate.overflows": counters.get("sig.locate.overflows", 0),
        "obs.spans_retained": extras["spans"] / ops,
        "obs.histogram_samples": extras["histogram_samples"] / ops,
        "trace.wall_s": wall,
    })
    def rate(group) -> float:
        values = [value for _phase, result in group
                  for value in result.latencies]
        return len(values) / sum(values)

    traced_rate = rate(traced)
    plain_rate = rate(plain)
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = plain_rate
    metrics["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1)
    lines.append(f"tracing overhead: traced {traced_rate:.1f} ops/s vs "
                 f"untraced {plain_rate:.1f} ops/s "
                 f"({metrics['trace.overhead_pct']:+.1f}%); "
                 f"self times sum {attributed:.4f} s of {wall:.4f} s traced")
    signature = metrics["sig.engine.share"] + metrics["sig.locate.share"]
    transfer = (metrics["cluster.wire.share"]
                + metrics["cluster.network.share"])
    store = sum(metrics[f"{layer}.share"] for layer in LAYERS
                if layer.startswith("store."))
    lines.append(f"signature {signature:.1f}% vs wire {transfer:.1f}% vs "
                 f"store {store:.1f}% of traced wall time")
    lines.append("counts/op: " + ", ".join(
        f"{name} {value:.4g}" for name, value in metrics.items()
        if not name.endswith((".calls", ".share"))))
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes instead of benchmark sizes")
    args = parser.parse_args(argv)
    workdir = Path.cwd() / WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        gc.collect()
        gc.freeze()
        rounds, tracer, started_at = run_rounds(
            workload, args.seconds, bool(args.trace), args.mode == "setup")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass   # another run still uses it
    if args.mode == "setup":
        print(json.dumps({"started_at": started_at}))
        return 0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [result for _traced, _phase, result in rounds]
    digests = sorted({result.digest for result in results})
    problems = [problem for result in results for problem in result.problems]
    if len(digests) != 1:
        problems.append(f"rounds disagree on their behaviour: {digests}")
    lines = [f"{args.workload} seed {args.seed}: fingerprint "
             f"{digests[0] if len(digests) == 1 else 'MIXED'}"]
    metrics, report = e2e_metrics(rounds, peak_rss_mib)
    lines += report
    if args.trace:
        metrics, report = layer_metrics(rounds, tracer)
        lines += report
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "started_at": started_at,
        "fingerprint": digests[0] if len(digests) == 1 else None,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
