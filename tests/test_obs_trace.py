"""Tests for the cross-node telemetry plane.

Covers trace propagation through the signature-sealed wire frames of
the cluster transport (golden same-seed export, one assembled tree per
RPC), the bounded mergeable histogram backend, the per-node flight
recorder and its sealed post-mortem dumps, and the Prometheus / Chrome
export surfaces.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, Crash, FaultPlan, RetryPolicy
from repro.cluster import wire
from repro.obs import trace as trace_module
from repro.obs import (
    BucketedHistogram,
    FlightRecorder,
    MetricError,
    MetricsRegistry,
    RecorderDump,
    SpanHandle,
    TRACE_SCHEMA,
    TraceContext,
    TraceError,
    TraceStore,
    activate,
    active_store,
    frame_digest,
    span_if_active,
    to_prometheus,
    use_registry,
)
from repro.sig import make_scheme
from repro.sim import SimClock

TRACE_GOLDEN = pathlib.Path(__file__).parent / "data" / \
    "trace_export_golden.json"


class TestTraceContext:
    def test_ids_must_fit_64_bits(self):
        for bad in (-1, 1 << 64):
            with pytest.raises(TraceError):
                TraceContext(bad, 1)
            with pytest.raises(TraceError):
                TraceContext(1, bad)

    def test_wire_roundtrip(self):
        context = TraceContext(0x1234, 0x5678)
        traced = wire.encode_traced(context, b"body")
        decoded, inner = wire.decode_traced(traced)
        assert decoded == context and inner == b"body"

    def test_untraced_envelope_is_all_zero(self):
        traced = wire.encode_traced(None, b"body")
        assert traced.startswith(bytes(16))
        decoded, inner = wire.decode_traced(traced)
        assert decoded is None and inner == b"body"

    def test_truncated_envelope_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode_traced(b"\x00" * 15)


class TestTraceStore:
    def test_same_seed_same_ids(self):
        a, b = TraceStore(seed=9), TraceStore(seed=9)
        for _ in range(5):
            assert a._new_id() == b._new_id()
        assert TraceStore(seed=10)._new_id() != TraceStore(seed=9)._new_id()

    def test_span_nests_under_current_context(self):
        store = TraceStore(seed=1)
        with store.begin("rpc.op", node="client") as root:
            assert store.current == root.context
            with store.span("inner", node="client") as inner:
                assert inner.span.parent_id == root.span.span_id
                assert inner.span.trace_id == root.span.trace_id
        assert store.current is None
        assert [s.name for s in store.finished] == ["inner", "rpc.op"]

    def test_child_parents_on_explicit_context_not_stack(self):
        store = TraceStore(seed=1)
        with store.begin("rpc.a") as a:
            remote = a.context
        with store.begin("rpc.b"):
            with store.child("handled", remote, node="node0") as handled:
                assert handled.span.trace_id == remote.trace_id
                assert handled.span.parent_id == remote.span_id

    def test_exception_marks_span_error(self):
        store = TraceStore(seed=1)
        with pytest.raises(RuntimeError):
            with store.begin("rpc.fail"):
                raise RuntimeError("boom")
        assert store.finished[0].status == "error"

    def test_finish_is_idempotent(self):
        store = TraceStore(seed=1)
        handle = store.begin("rpc.op")
        handle.finish("gave_up")
        handle.finish("ok")
        assert store.finished[0].status == "gave_up"
        assert len(store.finished) == 1

    def test_events_use_sim_clock(self):
        clock = SimClock()
        store = TraceStore(seed=1, clock=clock)
        with store.begin("rpc.op") as span:
            clock.advance(0.25)
            span.event("retry", attempt=2)
        event = store.finished[0].events[0]
        assert event["at"] == pytest.approx(0.25)
        assert event["fields"] == {"attempt": 2}

    def test_empty_name_rejected(self):
        with pytest.raises(TraceError):
            TraceStore(seed=1).begin("")

    def test_export_is_deterministic(self):
        def run():
            clock = SimClock()
            store = TraceStore(seed=3, clock=clock)
            with store.begin("rpc.op", node="c") as root:
                clock.advance(0.1)
                with store.child("handled", root.context, node="n"):
                    clock.advance(0.1)
            return store

        assert run().to_json() == run().to_json()
        document = run().to_dict()
        assert document["schema"] == TRACE_SCHEMA
        assert document["trace_count"] == 1
        (trace,) = document["traces"]
        assert trace["span_count"] == 2
        (root,) = trace["spans"]
        assert root["name"] == "rpc.op"
        assert [child["name"] for child in root["children"]] == ["handled"]

    def test_chrome_export_shape(self):
        clock = SimClock()
        store = TraceStore(seed=3, clock=clock)
        with store.begin("rpc.op", node="c"):
            clock.advance(0.002)
        document = store.to_chrome()
        (event,) = document["traceEvents"]
        assert event["ph"] == "X" and event["pid"] == "c"
        assert event["dur"] == 2000  # microseconds

    def test_trace_spans_counter(self):
        with use_registry(MetricsRegistry()) as registry:
            store = TraceStore(seed=1)
            with store.begin("rpc.op"):
                pass
        assert registry.total("obs.trace_spans", span="rpc.op") == 1


class TestSpanIfActive:
    def test_noop_without_active_store(self):
        assert active_store() is None
        with span_if_active("sdds.search") as span:
            assert span is None

    def test_noop_outside_any_open_span(self):
        store = TraceStore(seed=1)
        with activate(store):
            with span_if_active("sdds.search") as span:
                assert span is None
        assert not store.finished

    def test_attaches_under_open_root(self):
        store = TraceStore(seed=1)
        with activate(store):
            with store.begin("rpc.op") as root:
                with span_if_active("sdds.search", node="s0") as span:
                    assert isinstance(span, SpanHandle)
                    assert span.span.parent_id == root.span.span_id
        assert [s.name for s in store.finished] == ["sdds.search", "rpc.op"]

    def test_activation_is_reentrant_and_restores(self):
        outer, inner = TraceStore(seed=1), TraceStore(seed=2)
        with activate(outer):
            with activate(inner):
                assert active_store() is inner
            assert active_store() is outer
        assert active_store() is None

    def test_activating_handle_activates_for_its_block(self):
        outer, store = TraceStore(seed=1), TraceStore(seed=2)
        with activate(outer):
            with store.begin("rpc.op").activating() as root:
                assert active_store() is store
                with span_if_active("sdds.search") as span:
                    assert span.span.parent_id == root.span.span_id
            assert active_store() is outer
        assert [s.name for s in store.finished] == ["sdds.search", "rpc.op"]
        assert not outer.finished

    def test_activating_handle_restores_on_error(self):
        store = TraceStore(seed=1)
        with pytest.raises(RuntimeError):
            with store.begin("rpc.op").activating():
                raise RuntimeError("boom")
        assert active_store() is None
        assert store.finished[0].status == "error"

    def test_activating_handle_restores_when_finishing_raises(self):
        outer, store = TraceStore(seed=1), TraceStore(seed=2)

        def fail(_span):
            raise RuntimeError("recorder down")

        store.on_finish = fail
        with activate(outer):
            with pytest.raises(RuntimeError):
                with store.begin("rpc.op").activating():
                    pass
            assert active_store() is outer
        assert active_store() is None

    def test_plain_handle_leaves_the_active_store_alone(self):
        store = TraceStore(seed=1)
        with store.begin("rpc.op"):
            assert active_store() is None
            with span_if_active("sdds.search") as span:
                assert span is None


class TestTraceStoreRing:
    def test_oldest_spans_drop_and_are_counted(self, monkeypatch):
        monkeypatch.setattr(trace_module, "MAX_SPANS", 3)
        with use_registry(MetricsRegistry()) as registry:
            store = TraceStore(seed=1)
            for index in range(3):
                with store.begin(f"rpc.op{index}"):
                    pass
            assert "obs.spans_dropped" not in registry.snapshot()
            for index in range(3, 8):
                with store.begin(f"rpc.op{index}"):
                    pass
        assert [span.name for span in store.finished] == \
            ["rpc.op5", "rpc.op6", "rpc.op7"]
        assert registry.total("obs.spans_dropped") == 5
        assert registry.total("obs.trace_spans") == 8
        assert store.to_dict()["trace_count"] == 3

    def test_a_kv_durable_sized_run_keeps_a_bounded_ring(self, tmp_path):
        # The benchmark's cluster shape and op count: 200 preloaded keys,
        # then 1200 operations, about 5 spans each.
        with use_registry(MetricsRegistry()) as registry:
            cluster = Cluster(servers=4, seed=3, durable_dir=tmp_path,
                              durable_flush="frame",
                              durable_checkpoint_every=64,
                              recovery_workers=1)
            client = cluster.client()
            for key in range(200):
                client.insert(key, b"v" * 100)
            for key in range(1200):
                if key % 2:
                    client.update(key % 200, key.to_bytes(4, "little") * 25)
                else:
                    client.search(key % 200)
            for node in cluster.nodes:
                node.store.close()
        finished = len(cluster.traces.finished)
        spans = registry.total("obs.trace_spans")
        assert finished == trace_module.MAX_SPANS < spans
        assert registry.total("obs.spans_dropped") == spans - finished

    def test_default_bound_holds_the_demo_runs(self):
        cluster, registry, _ = _traced_cluster(seed=11)
        assert cluster.traces.finished.maxlen == trace_module.MAX_SPANS == 4096
        assert len(cluster.traces.finished) == \
            registry.total("obs.trace_spans") < 4096
        assert "obs.spans_dropped" not in registry.snapshot()


class TestTracerZeroStart:
    def test_zero_sim_start_is_a_real_clock(self):
        # A clock sitting at exactly t=0.0 must not be mistaken for "no
        # clock": event times are read from it, not zeroed out.
        clock = SimClock()
        store = TraceStore(seed=1, clock=clock)
        with store.span("op") as handle:
            assert handle.span.start == 0.0
            clock.advance(0.5)
            handle.event("tick")
        assert handle.span.events[0]["at"] == pytest.approx(0.5)
        assert store.finished[0].sim_seconds == pytest.approx(0.5)

    def test_no_clock_reports_no_sim_offset(self):
        store = TraceStore(seed=1)
        with store.span("op") as handle:
            handle.event("tick")
        assert handle.span.events[0]["at"] == 0.0
        assert 0.0 <= handle.span.wall_offsets[0] <= handle.span.wall_seconds


class TestBucketedHistogram:
    def test_percentiles_within_5pct_of_exact(self):
        rng = random.Random(20040301)
        registry = MetricsRegistry()
        registry.set_histogram_backend("obs.lat.bucketed", "bucketed")
        exact = registry.histogram("obs.lat.exact")
        bucketed = registry.histogram("obs.lat.bucketed")
        for _ in range(20_000):
            value = math.exp(rng.gauss(-7.0, 1.2))
            exact.observe(value)
            bucketed.observe(value)
        assert isinstance(bucketed, BucketedHistogram)
        for p in (50.0, 90.0, 99.0, 99.9):
            reference = exact.percentile(p)
            assert bucketed.percentile(p) == pytest.approx(reference,
                                                           rel=0.05)
        # Bounded memory: O(buckets), not O(samples).
        assert len(bucketed.buckets()) < 1000

    def test_extremes_are_exact(self):
        histogram = BucketedHistogram("obs.lat", ())
        for value in (0.001, 0.5, 42.0):
            histogram.observe(value)
        assert histogram.percentile(0) == 0.001
        assert histogram.percentile(100) == 42.0

    def test_zero_and_negative_values(self):
        histogram = BucketedHistogram("obs.delta", ())
        for value in (-2.0, 0.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.min == -2.0 and histogram.max == 2.0
        assert histogram.percentile(50) == pytest.approx(0.0, abs=1e-9)

    def test_merge_adds_bucket_counts(self):
        a, b = BucketedHistogram("h", ()), BucketedHistogram("h", ())
        for value in (1.0, 2.0, 3.0):
            a.observe(value)
            b.observe(value)
        a.merge_from(b)
        assert a.count == 6
        assert a.sum == pytest.approx(12.0)

    def test_exact_cannot_absorb_bucketed(self):
        registry = MetricsRegistry()
        exact = registry.histogram("h")
        with pytest.raises(MetricError):
            exact.merge_from(BucketedHistogram("h", ()))

    def test_backend_choice_locked_after_first_touch(self):
        registry = MetricsRegistry()
        registry.histogram("obs.lat")
        with pytest.raises(MetricError):
            registry.set_histogram_backend("obs.lat", "bucketed")

    def test_snapshot_keys_include_p999_and_stddev(self):
        histogram = BucketedHistogram("h", ())
        histogram.observe(1.0)
        assert set(histogram.snapshot()["value"]) == {
            "count", "max", "min", "p50", "p90", "p99", "p999", "stddev",
            "sum"}

    def test_stddev_matches_exact(self):
        rng = random.Random(7)
        exact = MetricsRegistry().histogram("h")
        bucketed = BucketedHistogram("h", ())
        values = [rng.uniform(0, 100) for _ in range(500)]
        for value in values:
            exact.observe(value)
            bucketed.observe(value)
        assert bucketed.stddev == pytest.approx(exact.stddev)


class TestRegistryMerge:
    def test_fleet_view_merges_all_series_kinds(self):
        fleet, node = MetricsRegistry(), MetricsRegistry()
        node.counter("cluster.ops", op="insert").inc(4)
        node.gauge("obs.histogram_buckets").set(7)
        node.set_histogram_backend("lat.bucketed", "bucketed")
        for value in (1.0, 2.0):
            node.histogram("lat.exact").observe(value)
            node.histogram("lat.bucketed").observe(value)
        fleet.merge_from(node)
        fleet.merge_from(node)
        assert fleet.total("cluster.ops", op="insert") == 8
        assert fleet.histogram("lat.exact").count == 4
        assert fleet.histogram("lat.bucketed").count == 4
        assert isinstance(fleet.histogram("lat.bucketed"), BucketedHistogram)

    def test_snapshot_reports_bucket_footprint(self):
        registry = MetricsRegistry()
        registry.set_histogram_backend("lat", "bucketed")
        registry.histogram("lat").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["obs.histogram_buckets"][""] >= 1


class TestFlightRecorder:
    def make(self, capacity=4):
        scheme = make_scheme()
        clock = SimClock()
        return FlightRecorder("node0", scheme, clock, capacity=capacity), \
            scheme, clock

    def test_ring_is_bounded(self):
        recorder, _, _ = self.make(capacity=4)
        for index in range(10):
            recorder.record_fault("link_drop", source=f"peer{index}")
        assert len(recorder.entries) == 4
        assert recorder.entries[0]["detail"]["source"] == "peer6"

    def test_dump_is_sealed_and_verifiable(self):
        recorder, scheme, clock = self.make()
        recorder.record_frame("recv", "request", "client0", b"frame-bytes")
        clock.advance(0.5)
        dump = recorder.dump("seal_failure", where="request")
        assert isinstance(dump, RecorderDump)
        assert dump.node == "node0" and dump.at == 0.5
        payload = wire.unseal(scheme, dump.sealed)
        assert payload is not None
        document = json.loads(payload)
        assert document == dump.document()
        assert document["reason"] == "seal_failure"
        assert document["detail"]["where"] == "request"

    def test_dump_names_recorded_frames(self):
        recorder, scheme, _ = self.make()
        frame = b"some sealed frame"
        recorder.record_frame("recv", "request", "client0", frame)
        dump = recorder.dump("seal_failure")
        assert frame_digest(scheme, frame) in dump.frames()

    def test_dump_counted_and_sunk(self):
        recorder, _, _ = self.make()
        collected = []
        recorder.sinks.append(collected.append)
        with use_registry(MetricsRegistry()) as registry:
            recorder.dump("crash")
        assert registry.total("obs.recorder_dumps", node="node0",
                              reason="crash") == 1
        assert len(collected) == 1


class TestPrometheusExposition:
    def test_counters_gauges_and_both_histogram_kinds(self):
        registry = MetricsRegistry()
        registry.counter("cluster.ops", op="insert").inc(3)
        registry.gauge("obs.histogram_buckets").set(5)
        registry.set_histogram_backend("lat.bucketed", "bucketed")
        registry.histogram("lat.exact").observe(0.25)
        registry.histogram("lat.bucketed").observe(0.25)
        text = to_prometheus(registry)
        assert '# TYPE repro_cluster_ops_total counter' in text
        assert 'repro_cluster_ops_total{op="insert"} 3' in text
        assert '# TYPE repro_lat_exact summary' in text
        assert 'repro_lat_exact{quantile="0.5"}' in text
        assert '# TYPE repro_lat_bucketed histogram' in text
        assert 'le="+Inf"' in text
        assert 'repro_lat_bucketed_count 1' in text

    def test_output_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b.second").inc()
            registry.counter("a.first").inc()
            return to_prometheus(registry)

        first = build()
        assert first == build()
        assert first.index("repro_a_first") < first.index("repro_b_second")


def _traced_cluster(seed):
    """The golden telemetry scenario: lossy network, one crash."""
    lossy = FaultPlan.lossy(drop=0.08, corrupt=0.01)
    plan = FaultPlan(default=lossy.default,
                     crashes=(Crash("node1", at=0.05, recover_at=0.12),))
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = Cluster(servers=3, seed=seed, plan=plan,
                          retry=RetryPolicy.patient())
        client = cluster.client()
        results = [client.insert(key, f"record {key}".encode() * 4)
                   for key in range(12)]
        results += [client.search(key) for key in range(0, 12, 3)]
        cluster.settle()
    return cluster, registry, results


class TestClusterTraceGolden:
    def test_same_seed_byte_identical_export(self):
        first, _, _ = _traced_cluster(seed=11)
        second, _, _ = _traced_cluster(seed=11)
        assert first.traces.to_json() == second.traces.to_json()

    def test_different_seed_differs(self):
        first, _, _ = _traced_cluster(seed=11)
        second, _, _ = _traced_cluster(seed=12)
        assert first.traces.to_json() != second.traces.to_json()

    def test_matches_golden_file(self):
        cluster, _, _ = _traced_cluster(seed=11)
        assert cluster.traces.to_json() + "\n" == TRACE_GOLDEN.read_text()

    def test_default_export_ignores_the_wall_clock(self, monkeypatch):
        # Spans read perf_counter at open, at finish and at every event;
        # what it returns must reach only the include_wall export.
        runs = []
        for step in (1.0, 7.25):
            monkeypatch.setattr(trace_module, "perf_counter",
                                itertools.count(0.0, step).__next__)
            cluster, _, _ = _traced_cluster(seed=11)
            runs.append((cluster.traces.to_json(),
                         [dump.sealed for dump in cluster.dumps],
                         cluster.traces.to_json(include_wall=True)))
        (json_a, dumps_a, wall_a), (json_b, dumps_b, wall_b) = runs
        assert json_a == json_b and dumps_a == dumps_b
        assert wall_a != wall_b

    def test_one_mirror_patch_per_mutation(self):
        # Each mutation seals its changed extents into one mirror patch,
        # so a trace applies at most as many patches as it shipped.  This
        # holds only because the scenario's lossy plan never duplicates a
        # frame (duplicate=0): a duplicated patch would be applied twice.
        cluster, _, _ = _traced_cluster(seed=11)
        assert cluster.plan.default.duplicate == 0
        shipped = applied = 0
        for spans in cluster.traces.traces().values():
            names = [span.name for span in spans]
            assert names.count("node.mirror_apply") \
                <= names.count("node.mirror_ship")
            shipped += names.count("node.mirror_ship")
            applied += names.count("node.mirror_apply")
        assert 0 < applied <= shipped

    def test_rpc_trees_span_nodes(self):
        cluster, _, results = _traced_cluster(seed=11)
        export = cluster.traces.to_dict()
        rpc_roots = [trace["spans"][0] for trace in export["traces"]
                     if trace["spans"][0]["name"].startswith("rpc.")]
        assert len(rpc_roots) == len(results)
        crossed = 0
        for root in rpc_roots:
            assert root["node"] == "client0"
            nodes = {child["node"] for child in root["children"]}
            if nodes - {"client0"}:
                crossed += 1
        assert crossed == len(rpc_roots)  # every RPC reached a server


class TestClusterRecorderIntegration:
    def test_every_corruption_detection_dumps(self):
        cluster, registry, _ = _traced_cluster(seed=11)
        injected = cluster.faulty_network.injected.get("corrupt", 0)
        detected = registry.total("cluster.corruptions_detected")
        assert injected == detected
        seal_dumps = [dump for dump in cluster.dumps
                      if dump.reason == "seal_failure"]
        assert len(seal_dumps) == detected
        scheme = cluster.scheme
        for dump in seal_dumps:
            assert wire.unseal(scheme, dump.sealed) is not None
            document = dump.document()
            assert document["detail"]["digest"]  # names the failing frame

    def test_crash_dumps_postmortem(self):
        cluster, _, _ = _traced_cluster(seed=11)
        reasons = [dump.reason for dump in cluster.dumps]
        assert "crash" in reasons
        crash = next(dump for dump in cluster.dumps
                     if dump.reason == "crash")
        assert crash.node == "node1"

    def test_entries_stay_dicts(self):
        cluster, _, _ = _traced_cluster(seed=11)
        entries = [entry for recorder in cluster.recorders.values()
                   for entry in recorder.entries]
        assert entries and all(isinstance(entry, dict) for entry in entries)
        frames = [entry for entry in entries if entry["kind"] == "frame"]
        assert frames and all(
            isinstance(entry["tail"], bytes) and entry["length"] > 0
            for entry in frames)

    def test_lazy_digests_dump_what_eager_ones_did(self, monkeypatch):
        """Each dump's payload equals the document rendered from the same
        ring with every frame digested eagerly by ``frame_digest``."""
        frames = {}   # id(entry) -> (entry, frame)
        pairs = []    # (dumped payload, eagerly rendered payload)
        record_frame, dump = FlightRecorder.record_frame, FlightRecorder.dump

        def keeping(self, direction, kind, peer, frame):
            record_frame(self, direction, kind, peer, frame)
            entry = self.entries[-1]
            frames[id(entry)] = (entry, bytes(frame))

        def eager(self, entry):
            if entry["kind"] != "frame":
                return entry
            kept, frame = frames[id(entry)]
            assert kept is entry
            return {"at": entry["at"],
                    "digest": frame_digest(self.scheme, frame),
                    "direction": entry["direction"],
                    "frame_kind": entry["frame_kind"],
                    "kind": "frame", "peer": entry["peer"]}

        def checking(self, reason, **detail):
            entries = [eager(self, entry) for entry in self.entries]
            made = dump(self, reason, **detail)
            document = {"at": made.at, "capacity": self.capacity,
                        "detail": dict(sorted(detail.items())),
                        "entries": entries, "node": self.node,
                        "reason": reason}
            pairs.append((made.payload, json.dumps(
                document, sort_keys=True,
                separators=(",", ":")).encode("utf-8")))
            return made

        monkeypatch.setattr(FlightRecorder, "record_frame", keeping)
        monkeypatch.setattr(FlightRecorder, "dump", checking)
        cluster, _, _ = _traced_cluster(seed=11)
        assert any(dump.frames() for dump in cluster.dumps)
        assert len(pairs) == len(cluster.dumps) > 0
        for payload, rendered in pairs:
            assert payload == rendered

    def test_link_faults_ring_into_recorders(self):
        cluster, _, _ = _traced_cluster(seed=11)
        kinds = {entry["fault"]
                 for recorder in cluster.recorders.values()
                 for entry in recorder.entries
                 if entry["kind"] == "fault"}
        assert any(kind.startswith("link_") for kind in kinds)


class TestEveryRpcLandsInOneTrace:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16),
           drop=st.floats(0.0, 0.15),
           corrupt=st.floats(0.0, 0.02),
           operations=st.integers(4, 20))
    def test_one_assembled_tree_per_rpc(self, seed, drop, corrupt,
                                        operations):
        plan = FaultPlan.lossy(drop=drop, corrupt=corrupt)
        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = Cluster(servers=3, seed=seed, plan=plan,
                              retry=RetryPolicy.patient())
            client = cluster.client()
            results = [client.insert(key, f"r{key}".encode() * 3)
                       for key in range(operations)]
            results += [client.search(key)
                        for key in range(0, operations, 2)]
            cluster.settle()
        assert all(result.ok for result in results)
        traces = cluster.traces
        assert traces.open_spans == 0
        rpc_roots = [span for span in traces.roots()
                     if span.name.startswith("rpc.")]
        # One root per client call, each in its own trace tree.
        assert len(rpc_roots) == len(results)
        assert len({span.trace_id for span in rpc_roots}) == len(results)
        # Every span of an rpc trace belongs to exactly one tree whose
        # root is that rpc span.
        grouped = traces.traces()
        for root in rpc_roots:
            spans = grouped[root.trace_id]
            roots_here = [s for s in spans if s.parent_id is None]
            assert roots_here == [root]
            span_ids = {s.span_id for s in spans}
            for span in spans:
                if span.parent_id is not None:
                    assert span.parent_id in span_ids
