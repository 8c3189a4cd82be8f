"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``info``        -- version, configuration, and paper identification
* ``selftest``    -- run the full unit/property/integration test suite
* ``bench``       -- run the benchmark harness (E1..E10, X1, X2) and
                     print the paper-reproduction tables; with
                     ``--json [--quick]`` run the signing-throughput
                     harness instead and print its stable JSON document
                     (the ``BENCH_pr4.json`` format)
* ``examples``    -- run every example script in sequence
* ``recommend <page_bytes>`` -- print the scheme the Section 5.2
                     reasoning picks for that page size
* ``report [script.py] [--json]`` -- run a workload (a script, or a
                     built-in demo touching every subsystem) under a
                     fresh metrics registry and print the observability
                     run report (table, or stable JSON with ``--json``)
* ``cluster [--json] [--seed N]`` -- run the fault-injected cluster
                     demo (unreliable network, retries, a crash with
                     signature-driven recovery) and print its run
                     report; identical seeds yield identical JSON
* ``store [--json] [--seed N] [--flush MODE] [--segment-bytes B]`` -- run
                     the durable-store demo: write a volume through the
                     sealed log (``--flush group`` coalesces frames into
                     group commits, ``--segment-bytes`` sizes the log's
                     segment files), checkpoint, inject mid-log bit rot
                     and a torn tail write, then run certified recovery
                     and verify the condemned-page report against the
                     injected faults
* ``serve [--json] [--seed N]`` -- run the high-concurrency serving
                     plane under open-loop load: thousands of
                     non-blocking sessions sweep offered load past
                     saturation while LH* buckets split under the
                     traffic; prints goodput and p50/p99/p999 per step
                     plus the final signature verification; identical
                     seeds yield byte-identical JSON
* ``trace [--json] [--seed N]`` -- run a traced fault-injected cluster
                     scenario and print the cross-node telemetry: the
                     assembled per-operation trace trees, Chrome
                     trace-event output, flight-recorder post-mortem
                     dumps, and the metrics snapshot; identical seeds
                     yield byte-identical JSON
* ``locate [--json] [--seed N]`` -- run the corruption-localization
                     demo: build a d-cover-free group-testing locator
                     over a volume, inject scattered damage, certify
                     the exact damaged pages from O(d^2 log^2 N)
                     aggregate signatures (including the OVERFLOW
                     fallback beyond the budget), and reconcile a
                     diverged replica by locator exchange; identical
                     seeds yield byte-identical JSON

``report`` additionally accepts ``--prom`` to print the run's metrics
in Prometheus text exposition format instead of the table.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys


def _info() -> int:
    import repro
    from repro import make_scheme

    scheme = make_scheme()
    print(f"repro {repro.__version__} -- Algebraic Signatures for SDDS "
          "(Litwin & Schwarz, ICDE 2004)")
    print(f"default scheme: GF(2^{scheme.field.f}), n={scheme.n}, "
          f"{scheme.signature_bytes}-byte signatures, "
          f"generator {scheme.field.generator:#x}")
    print(f"certainty bound: {scheme.max_page_symbols} symbols "
          f"({scheme.max_page_symbols * 2 // 1024} KiB pages)")
    print("see DESIGN.md for the system inventory and EXPERIMENTS.md for")
    print("paper-vs-measured results")
    return 0


def _selftest() -> int:
    import pytest

    return pytest.main(["tests/", "-q"])


def _bench(arguments: list[str]) -> int:
    if "--json" in arguments:
        from repro.bench import main as bench_main

        return bench_main(arguments)
    import pytest

    return pytest.main(["benchmarks/", "--benchmark-only"])


def _examples() -> int:
    examples_dir = pathlib.Path(__file__).resolve().parents[2] / "examples"
    if not examples_dir.is_dir():
        print("examples/ directory not found next to src/", file=sys.stderr)
        return 1
    for script in sorted(examples_dir.glob("*.py")):
        print(f"\n===== {script.name} =====")
        result = subprocess.run([sys.executable, str(script)])
        if result.returncode != 0:
            return result.returncode
    return 0


def _recommend(arguments: list[str]) -> int:
    from repro.analysis import expected_collision_interval_years, recommend_scheme

    if not arguments:
        print("usage: python -m repro recommend <page_bytes>", file=sys.stderr)
        return 2
    page_bytes = int(arguments[0])
    recommendation = recommend_scheme(page_bytes)
    scheme = recommendation.build()
    years = expected_collision_interval_years(scheme, 1.0)
    print(f"pages of {page_bytes} bytes -> GF(2^{recommendation.f}), "
          f"n={recommendation.n}")
    print(f"  signature size:        {recommendation.signature_bytes} bytes")
    print(f"  collision probability: 2^-{recommendation.n * recommendation.f}")
    print(f"  certain detection of:  any <= {recommendation.n}-symbol change")
    print(f"  at 1 comparison/s:     one expected collision per "
          f"{years:,.0f} years")
    return 0


def _demo_workload():
    """Exercise every instrumented subsystem once; returns its trace store.

    The workload is deterministic (seeded records, simulated clock) so
    ``report --json`` emits the same document on every run.
    """
    from repro import make_scheme
    from repro.backup import BackupEngine
    from repro.obs import TraceStore
    from repro.parity import LHRSStore
    from repro.sdds import LHFile
    from repro.sim import SimDisk, SimNetwork
    from repro.workloads import make_records

    scheme = make_scheme()
    network = SimNetwork()
    traces = TraceStore(seed=0, clock=network.clock)
    file = LHFile(scheme, capacity_records=64, network=network)
    client = file.client()
    records = make_records(48, 256, seed=7)
    with traces.span("sdds.workload", records=len(records)):
        for record in records:
            client.insert(record)
        for record in records[:16]:
            client.search(record.key)
        value = records[0].value
        client.update_normal(records[0].key, value, value)     # pseudo
        client.update_normal(records[0].key, value, b"Z" * len(value))
        client.update_blind(records[1].key, records[1].value)  # pseudo
    disk = SimDisk(clock=network.clock)
    engine = BackupEngine(scheme, disk, page_bytes=4096)
    image = bytearray(16 * 4096)
    with traces.span("backup.pass", pages=16):
        engine.backup("demo", bytes(image))
        image[0] ^= 0xFF
        engine.backup("demo", bytes(image))
    store = LHRSStore(scheme, data_buckets=3, parity_buckets=2,
                      record_bytes=64)
    with traces.span("parity.cycle"):
        for key in range(12):
            store.insert(key, f"record {key}".encode())
        store.update(3, b"updated record")
        store.fail_bucket(1)
        store.recover()
        store.audit_rank(0)
    return traces


def _report(arguments: list[str]) -> int:
    """Run a workload under a fresh registry and print its run report."""
    import contextlib
    import io
    import runpy

    from repro.obs import MetricsRegistry, RunReport, to_prometheus, use_registry

    as_json = "--json" in arguments
    as_prom = "--prom" in arguments
    paths = [a for a in arguments if a not in ("--json", "--prom")]
    if len(paths) > 1 or (as_json and as_prom):
        print("usage: python -m repro report [script.py] [--json | --prom]",
              file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    traces = None
    meta: dict[str, str] = {}
    # In machine-readable modes the workload's own stdout would corrupt
    # the document; swallow it and emit only the report.
    sink = io.StringIO() if (as_json or as_prom) else sys.stdout
    with use_registry(registry):
        if paths:
            script = pathlib.Path(paths[0])
            if not script.is_file():
                print(f"no such script: {script}", file=sys.stderr)
                return 2
            meta["source"] = script.name
            with contextlib.redirect_stdout(sink):
                runpy.run_path(str(script), run_name="__main__")
        else:
            meta["source"] = "demo"
            with contextlib.redirect_stdout(sink):
                traces = _demo_workload()
    report = RunReport(registry, traces=traces, meta=meta)
    if as_prom:
        print(to_prometheus(registry), end="")
    elif as_json:
        print(report.to_json())
    else:
        print()
        print(report.render())
    return 0


def _cluster(arguments: list[str]) -> int:
    """Run the fault-injected cluster demo and print its run report."""
    from repro.cluster import Cluster, Crash, FaultPlan, RetryPolicy
    from repro.obs import MetricsRegistry, RunReport, use_registry

    as_json = "--json" in arguments
    rest = [a for a in arguments if a != "--json"]
    seed = 42
    if rest and rest[0] == "--seed":
        if len(rest) < 2:
            print("usage: python -m repro cluster [--json] [--seed N]",
                  file=sys.stderr)
            return 2
        seed = int(rest[1])
        rest = rest[2:]
    if rest:
        print("usage: python -m repro cluster [--json] [--seed N]",
              file=sys.stderr)
        return 2
    lossy = FaultPlan.lossy(drop=0.10, corrupt=0.005)
    plan = FaultPlan(default=lossy.default,
                     crashes=(Crash("node1", at=0.05, recover_at=0.12),))
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = Cluster(servers=4, seed=seed, plan=plan,
                          retry=RetryPolicy.patient())
        client = cluster.client()
        results = [client.insert(key, f"record {key}".encode() * 4)
                   for key in range(80)]
        results += [client.update(key, f"updated {key}".encode() * 3)
                    for key in range(0, 80, 3)]
        results += [client.search(key) for key in range(0, 80, 5)]
        cluster.settle()
        cluster.check_replicas()
    failed = sum(1 for result in results if not result.ok)
    injected = cluster.faulty_network.injected.get("corrupt", 0)
    detected = registry.total("cluster.corruptions_detected")
    report = RunReport(registry, meta={"source": "cluster-demo",
                                       "seed": str(seed)})
    if as_json:
        print(report.to_json())
    else:
        print(f"fault-injected cluster, seed {seed}: "
              f"{len(results)} operations over 4 servers")
        print(f"  failed operations:     {failed}")
        print(f"  corruptions injected:  {injected}")
        print(f"  corruptions detected:  {detected} "
              "(signature seal, 0 silent acceptances)")
        print(f"  replicas converged:    {cluster.converged()}")
        print()
        print(report.render())
    if failed or injected != detected:
        return 1
    return 0


def _store(arguments: list[str]) -> int:
    """Run the durable-store crash/rot/recovery demo."""
    import random
    import tempfile

    from repro import make_scheme
    from repro.obs import MetricsRegistry, RunReport, use_registry
    from repro.sig.compound import SignatureMap
    from repro.store import SEGMENT_BYTES, PageStore

    usage = ("usage: python -m repro store [--json] [--seed N] "
             "[--flush frame|group] [--segment-bytes B]")
    as_json = "--json" in arguments
    rest = [a for a in arguments if a != "--json"]
    seed = 42
    flush = "frame"
    segment_bytes = SEGMENT_BYTES
    while rest:
        if rest[0] == "--seed" and len(rest) >= 2:
            seed = int(rest[1])
        elif rest[0] == "--flush" and len(rest) >= 2 \
                and rest[1] in ("frame", "group"):
            flush = rest[1]
        elif rest[0] == "--segment-bytes" and len(rest) >= 2:
            segment_bytes = int(rest[1])
        else:
            print(usage, file=sys.stderr)
            return 2
        rest = rest[2:]
    rng = random.Random(seed)
    scheme = make_scheme()
    page_bytes = 1024
    registry = MetricsRegistry()
    checks: list[tuple[str, bool]] = []
    with use_registry(registry), tempfile.TemporaryDirectory() as tmp:
        store = PageStore(scheme, tmp, flush=flush,
                          segment_bytes=segment_bytes)
        image = bytes(rng.randrange(256) for _ in range(48 * page_bytes))
        store.write_image("demo", image, page_bytes)
        # Scattered journaled deltas, a checkpoint, then more deltas.
        # Each mutation remembers where its frame ends, so the "last
        # durable state" for any cut position is reconstructible.
        reference = bytearray(image)
        mutations: list[tuple[int, bytes, int]] = []

        def mutate(count):
            for _ in range(count):
                at = rng.randrange(0, len(reference) - 64, 2)
                after = bytes(rng.randrange(256) for _ in range(64))
                store.record_extent("demo", at, bytes(reference[at:at + 64]),
                                    after, len(reference))
                reference[at:at + 64] = after
                mutations.append((at, after, store.log_bytes))

        mutate(40)
        store.checkpoint()
        mutate(24)
        # Fault injection: one symbol of bit rot inside the delta data
        # of a *pre-checkpoint* sealed frame (so the persisted warm
        # state certifies what the page should hold), plus a torn tail
        # cutting mid-way through the final frame.
        victim_at, _victim_after, victim_end = mutations[10]
        victim_pages = tuple(range(victim_at // page_bytes,
                                   (victim_at + 63) // page_bytes + 1))
        last_start = mutations[-2][2]
        cut = last_start + rng.randrange(1, mutations[-1][2] - last_start)
        store.close()
        store.corrupt_log(victim_end - 40, b"\xff\xff")
        store.crash_cut(cut)
        # Last durable state: every mutation whose frame survived the cut,
        # with the rotted frame's *original* content (it was durable).
        final = bytearray(image)
        for at, after, end in mutations:
            if end <= cut:
                final[at:at + 64] = after
        recovered, report = PageStore.recover(scheme, tmp, flush=flush,
                                              segment_bytes=segment_bytes)
        checks.append(("torn tail detected and truncated",
                       report.torn_bytes > 0))
        checks.append(("mid-log corruption detected",
                       report.corrupt_frames >= 1))
        condemned = report.condemned.get("demo", ())
        checks.append(("condemned exactly the corrupted page(s)",
                       condemned == victim_pages))
        checks.append(("recovered map equals a from-scratch recompute",
                       recovered.signature_map("demo")
                       == SignatureMap.compute(
                           scheme, recovered.image("demo"),
                           page_bytes
                           // scheme.scheme_id.symbol_bytes)))
        # Patch the condemned page from redundancy (the reference plays
        # the mirror), verifying it against the certified signature.
        expected = report.expected.get("demo", {})
        patched = True
        for page in condemned:
            patch = bytes(final[page * page_bytes:(page + 1) * page_bytes])
            certified = expected.get(page)
            from repro.sig.engine import get_batch_signer
            actual = get_batch_signer(scheme).sign_map(
                patch, page_bytes // scheme.scheme_id.symbol_bytes
            )[0]
            if certified is None or actual != certified:
                patched = False
                break
            recovered.write_page("demo", page, patch)
        checks.append(("condemned pages patched and verified", patched))
        checks.append(("post-patch image equals last durable state",
                       recovered.image("demo") == bytes(final)))
        recovered.close()
    ok = all(passed for _name, passed in checks)
    report_doc = RunReport(registry, meta={"source": "store-demo",
                                           "seed": str(seed)})
    if as_json:
        print(report_doc.to_json())
    else:
        print(f"durable store demo, seed {seed}: 48-page volume, "
              "64 journaled deltas, 1 checkpoint")
        print(f"  injected: 2-byte rot in one sealed frame + torn tail")
        for name, passed in checks:
            print(f"  [{'ok' if passed else 'FAIL'}] {name}")
        print(f"  recovery: {report.frames_valid} certified frames, "
              f"{report.frames_folded} folded past the checkpoint, "
              f"{report.torn_bytes} torn bytes truncated")
        print()
        print(report_doc.render())
    return 0 if ok else 1


def _trace(arguments: list[str]) -> int:
    """Run a traced faulty-cluster scenario; print the telemetry export.

    The scenario is the cluster demo's adversary in miniature: a lossy,
    corrupting network plus one crash/recovery.  Every RPC is traced
    end to end (client root span, per-node handling spans, mirror
    shipping), every injected corruption lands as a sealed
    flight-recorder dump, and the whole document is deterministic --
    two runs with the same seed print byte-identical JSON.
    """
    import json

    from repro.cluster import Cluster, Crash, FaultPlan, RetryPolicy
    from repro.obs import MetricsRegistry, use_registry

    as_json = "--json" in arguments
    rest = [a for a in arguments if a != "--json"]
    seed = 42
    if rest and rest[0] == "--seed":
        if len(rest) < 2:
            print("usage: python -m repro trace [--json] [--seed N]",
                  file=sys.stderr)
            return 2
        seed = int(rest[1])
        rest = rest[2:]
    if rest:
        print("usage: python -m repro trace [--json] [--seed N]",
              file=sys.stderr)
        return 2
    lossy = FaultPlan.lossy(drop=0.08, corrupt=0.01)
    plan = FaultPlan(default=lossy.default,
                     crashes=(Crash("node1", at=0.05, recover_at=0.12),))
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = Cluster(servers=3, seed=seed, plan=plan,
                          retry=RetryPolicy.patient())
        client = cluster.client()
        for key in range(24):
            client.insert(key, f"record {key}".encode() * 4)
        for key in range(0, 24, 3):
            client.update(key, f"updated {key}".encode() * 3)
        for key in range(0, 24, 4):
            client.search(key)
        cluster.settle()
        snapshot = registry.snapshot()
    traces = cluster.traces
    export = traces.to_dict()
    document = {
        "schema": "repro.obs/trace-run/v1",
        "seed": seed,
        "export": export,
        "chrome": traces.to_chrome(),
        "dumps": [dump.document() for dump in cluster.dumps],
        "metrics": snapshot,
    }
    if as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    spans = sum(trace["span_count"] for trace in export["traces"])
    print(f"traced cluster scenario, seed {seed}: "
          f"{len(export['traces'])} traces, {spans} spans, "
          f"{len(cluster.dumps)} flight-recorder dumps")
    for dump in cluster.dumps:
        frames = dump.frames()
        detail = f", frames {', '.join(frames)}" if frames else ""
        print(f"  dump: {dump.reason} on {dump.node} at {dump.at:.3f}"
              f"{detail}")
    print()

    def render(span, depth):
        indent = "  " * depth
        duration = (span["end"] - span["start"]) * 1000.0
        print(f"{indent}{span['name']} [{span['node']}] "
              f"{duration:.3f}ms {span['status']}")
        for child in span["children"]:
            render(child, depth + 1)

    for trace in export["traces"][:4]:
        print(f"trace {trace['trace_id']:016x}:")
        for root in trace["spans"]:
            render(root, 1)
    remaining = len(export["traces"]) - 4
    if remaining > 0:
        print(f"... and {remaining} more traces")
    return 0


def _serve(arguments: list[str]) -> int:
    """Run the open-loop serving-plane sweep; print its run report.

    Four LH* buckets behind queued request services (2000 ops/s each,
    64-deep inboxes) take 1200 concurrent sessions through an offered
    load sweep that crosses saturation; buckets split under the live
    traffic.  The report shows per-step goodput and latency tails, the
    admission-control ledger, and the final algebraic-signature
    verification of every bucket image against the execution oracle.
    """
    import json

    from repro.obs import MetricsRegistry, use_registry
    from repro.serve import LoadGenerator, LoadMix, ServingPlane

    as_json = "--json" in arguments
    rest = [a for a in arguments if a != "--json"]
    seed = 42
    if rest and rest[0] == "--seed":
        if len(rest) < 2:
            print("usage: python -m repro serve [--json] [--seed N]",
                  file=sys.stderr)
            return 2
        seed = int(rest[1])
        rest = rest[2:]
    if rest:
        print("usage: python -m repro serve [--json] [--seed N]",
              file=sys.stderr)
        return 2
    rates = [2000.0, 5000.0, 9000.0, 14000.0, 20000.0]
    ops_per_step = 2400
    registry = MetricsRegistry()
    with use_registry(registry):
        plane = ServingPlane(buckets=4, family="lh", seed=seed)
        generator = LoadGenerator(plane, LoadMix(sessions=1200,
                                                 n_items=1400))
        report = generator.sweep(rates, ops_per_step)
        snapshot = registry.snapshot()
    summary = report["summary"]
    verify = report["verify"]
    document = {
        "schema": "repro.serve/run-report/v1",
        "seed": seed,
        "family": report["family"],
        "config": {
            "buckets": 4,
            "rates_ops_per_s": rates,
            "ops_per_step": ops_per_step,
            "mix": report["mix"],
        },
        "steps": report["steps"],
        "summary": summary,
        "verify": verify,
        "metrics": snapshot,
    }
    if as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if (verify["ok"] and summary["graceful"]) else 1
    print(f"serving plane, seed {seed}: {summary['sessions']} sessions, "
          f"LH* file grew {document['config']['buckets']} -> "
          f"{summary['buckets']} buckets ({summary['splits']} live splits)")
    print(f"{'offered/s':>10} {'goodput/s':>10} {'p50 ms':>8} "
          f"{'p99 ms':>8} {'p999 ms':>9} {'sheds':>6} {'coalesced':>10}")
    for step in report["steps"]:
        sheds = sum(step["server_sheds"].values())
        print(f"{step['offered_ops_per_s']:>10.0f} "
              f"{step['goodput_ops_per_s']:>10.1f} "
              f"{step['p50_ms']:>8.3f} {step['p99_ms']:>8.3f} "
              f"{step['p999_ms']:>9.3f} {sheds:>6d} "
              f"{step['coalesced']:>10d}")
    print(f"  peak goodput:          "
          f"{summary['peak_goodput_ops_per_s']:.1f} ops/s")
    print(f"  post-saturation floor: "
          f"{summary['post_saturation_min_goodput_ops_per_s']:.1f} ops/s "
          f"({summary['post_saturation_ratio']:.0%} of peak, "
          f"graceful={summary['graceful']})")
    print(f"  sessions served:       {summary['sessions_served']} "
          f"(max in flight {summary['max_inflight']})")
    print(f"  verification:          {verify['buckets_verified']}/"
          f"{verify['buckets']} bucket images signature-match the "
          f"oracle; acked ops lost: {len(verify['acked_lost'])}")
    if not (verify["ok"] and summary["graceful"]):
        return 1
    return 0


def _locate(arguments: list[str]) -> int:
    """Run the corruption-localization demo; print its document.

    One seeded volume; a handful of trials inject ``<= d`` scattered
    rot events and the group-testing decode must certify *exactly* the
    damaged pages from the locator's few aggregate signatures; one
    trial overshoots the budget and must surface ``OVERFLOW`` (falling
    back to the per-page map) instead of a wrong answer.  A final pass
    reconciles a diverged replica with ``sync_by_locator`` and compares
    its signature traffic against a full map exchange.  The whole
    document is deterministic: same seed, byte-identical JSON.
    """
    import json
    import random

    from repro.obs import MetricsRegistry, use_registry
    from repro.sig import make_scheme
    from repro.sig.locate import (CLEAN, LOCATED, OVERFLOW, LocateDesign,
                                  LocatorMap, decode)
    from repro.sim.network import SimNetwork
    from repro.sync import Replica, sync_by_locator

    as_json = "--json" in arguments
    rest = [a for a in arguments if a != "--json"]
    seed = 42
    if rest and rest[0] == "--seed":
        if len(rest) < 2:
            print("usage: python -m repro locate [--json] [--seed N]",
                  file=sys.stderr)
            return 2
        seed = int(rest[1])
        rest = rest[2:]
    if rest:
        print("usage: python -m repro locate [--json] [--seed N]",
              file=sys.stderr)
        return 2

    rng = random.Random(seed)
    scheme = make_scheme()
    pages = 16384
    page_bytes = 64
    d = 4
    design = LocateDesign.build(pages, d=d, seed=seed)
    image = rng.randbytes(pages * page_bytes)
    page_symbols = page_bytes // scheme.scheme_id.symbol_bytes

    registry = MetricsRegistry()
    with use_registry(registry):
        expected = LocatorMap.compute(design, scheme, image, page_symbols)
        trials = []
        ok = True
        for damage_count in (0, 1, 2, 3, 4, 9):
            damaged = sorted(rng.sample(range(pages), damage_count))
            rotted = bytearray(image)
            for page in damaged:
                offset = page * page_bytes + rng.randrange(page_bytes)
                rotted[offset] ^= rng.randint(1, 255)
            actual = LocatorMap.compute(design, scheme, bytes(rotted),
                                        page_symbols)
            verdict = decode(expected, actual)
            if damage_count == 0:
                exact = verdict.status == CLEAN
            elif damage_count <= d:
                exact = (verdict.status == LOCATED
                         and list(verdict.pages) == damaged)
            else:
                # Beyond the budget: OVERFLOW (fall back to the map) or
                # -- never -- a wrong page set.
                exact = verdict.status == OVERFLOW or (
                    verdict.status == LOCATED
                    and list(verdict.pages) == damaged)
            ok = ok and exact
            trials.append({
                "damaged": damaged,
                "status": verdict.status,
                "located": list(verdict.pages),
                "failing_groups": len(verdict.failing_groups),
                "exact": exact,
            })

        # Reconcile a diverged replica by locator exchange.
        network = SimNetwork()
        source = Replica("source", scheme, image, page_bytes)
        rotted = bytearray(image)
        sync_damaged = sorted(rng.sample(range(pages), 3))
        for page in sync_damaged:
            rotted[page * page_bytes] ^= 0x42
        target = Replica("target", scheme, bytes(rotted), page_bytes)
        report = sync_by_locator(source, target, network, d=d, seed=seed)
        converged = target.data == source.data
        ok = ok and converged and report.pages_shipped == len(sync_damaged)
        map_signature_bytes = 16 + 4 * pages + 4 + 4 * len(sync_damaged)
        snapshot = registry.snapshot()

    per_page_map_bytes = pages * scheme.scheme_id.signature_bytes
    document = {
        "schema": "repro.sig/locate-run/v1",
        "seed": seed,
        "scheme": f"GF(2^{scheme.field.f}) n={scheme.n}",
        "design": design.describe(),
        "volume": {
            "pages": pages,
            "page_bytes": page_bytes,
            "bytes": pages * page_bytes,
        },
        "state_bytes": {
            "per_page_map": per_page_map_bytes,
            "locator": expected.locator_bytes,
            "reduction": round(per_page_map_bytes
                               / expected.locator_bytes, 2),
        },
        "trials": trials,
        "sync": {
            "damaged_pages": sync_damaged,
            "pages_shipped": report.pages_shipped,
            "signature_bytes": report.signature_bytes,
            "map_exchange_signature_bytes": map_signature_bytes,
            "reduction": round(map_signature_bytes
                               / report.signature_bytes, 2),
            "converged": converged,
        },
        "verified": ok,
        "metrics": snapshot,
    }
    if as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if ok else 1
    state = document["state_bytes"]
    print(f"corruption localization, seed {seed}: {pages} pages of "
          f"{page_bytes} B, design {design.kind} q={design.q} "
          f"k={design.k} -> {design.group_count} group signatures")
    print(f"  locator state: {state['locator']} B vs per-page map "
          f"{state['per_page_map']} B ({state['reduction']}x smaller)")
    for trial in trials:
        print(f"  damage {len(trial['damaged']):>2} pages -> "
              f"{trial['status']:<8} located {len(trial['located']):>2} "
              f"({'exact' if trial['exact'] else 'WRONG'})")
    sync = document["sync"]
    print(f"  locator sync: {sync['pages_shipped']} pages repaired with "
          f"{sync['signature_bytes']} signature B vs "
          f"{sync['map_exchange_signature_bytes']} B by map exchange "
          f"({sync['reduction']}x less), converged={sync['converged']}")
    print(f"  verified: {ok}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Dispatch a CLI command; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv else "info"
    handlers = {
        "info": lambda: _info(),
        "selftest": lambda: _selftest(),
        "bench": lambda: _bench(argv[1:]),
        "examples": lambda: _examples(),
        "recommend": lambda: _recommend(argv[1:]),
        "report": lambda: _report(argv[1:]),
        "cluster": lambda: _cluster(argv[1:]),
        "store": lambda: _store(argv[1:]),
        "serve": lambda: _serve(argv[1:]),
        "trace": lambda: _trace(argv[1:]),
        "locate": lambda: _locate(argv[1:]),
    }
    if command not in handlers:
        print(__doc__, file=sys.stderr)
        return 2
    return handlers[command]()


if __name__ == "__main__":
    raise SystemExit(main())
