"""Tests for the observability layer: registry, span clocks, run reports."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.obs import (
    BucketedHistogram,
    Counter,
    Gauge,
    HandleCache,
    Histogram,
    MetricError,
    MetricsRegistry,
    RunReport,
    SCHEMA,
    Snapshotable,
    TraceError,
    TraceStore,
    get_registry,
    labels_to_str,
    set_registry,
    use_registry,
)
from repro.sim import DiskStats, SimClock, TrafficStats

GOLDEN = pathlib.Path(__file__).parent / "data" / "run_report_golden.json"


class TestRegistryLabels:
    def test_same_labels_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("net.bytes", kind="insert", node="s1")
        b = registry.counter("net.bytes", node="s1", kind="insert")
        assert a is b

    def test_different_labels_different_series(self):
        registry = MetricsRegistry()
        a = registry.counter("net.bytes", kind="insert")
        b = registry.counter("net.bytes", kind="search")
        assert a is not b
        assert len(registry) == 2

    def test_labels_canonical_order(self):
        registry = MetricsRegistry()
        counter = registry.counter("net.bytes", zz="1", aa="2")
        assert labels_to_str(counter.labels) == "aa=2,zz=1"

    def test_label_values_coerced_to_str(self):
        registry = MetricsRegistry()
        counter = registry.counter("sdds.ops", server=3)
        assert counter.labels == (("server", "3"),)

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        for bad in ("Net.bytes", "net..bytes", "9net", "net-bytes", ""):
            with pytest.raises(MetricError):
                registry.counter(bad)

    def test_invalid_label_key_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("net.bytes", **{"Kind": "x"})

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("net.bytes")
        with pytest.raises(MetricError):
            registry.gauge("net.bytes")

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("net.bytes").inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("backup.file_buckets")
        gauge.set(4)
        gauge.inc(-1)
        assert gauge.value == 3

    def test_total_sums_matching_series(self):
        registry = MetricsRegistry()
        registry.counter("net.bytes", kind="insert").inc(100)
        registry.counter("net.bytes", kind="search").inc(40)
        registry.counter("net.messages", kind="insert").inc(1)
        assert registry.total("net.bytes") == 140
        assert registry.total("net.bytes", kind="search") == 40
        assert registry.total("net.bytes", kind="missing") == 0

    def test_reset_drops_series(self):
        registry = MetricsRegistry()
        registry.counter("net.bytes").inc(7)
        registry.reset()
        assert len(registry) == 0


class TestHistogram:
    def test_percentiles_exact_ranks(self):
        hist = MetricsRegistry().histogram("sdds.op_seconds")
        for value in (4, 1, 3, 2):  # unsorted on purpose
            hist.observe(value)
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 4
        assert hist.percentile(50) == 2.5

    def test_percentile_interpolation(self):
        hist = MetricsRegistry().histogram("sdds.op_seconds")
        for value in (0, 10):
            hist.observe(value)
        assert hist.percentile(90) == pytest.approx(9.0)

    def test_percentile_out_of_range(self):
        hist = MetricsRegistry().histogram("sdds.op_seconds")
        with pytest.raises(MetricError):
            hist.percentile(101)

    def test_empty_histogram_snapshot(self):
        hist = MetricsRegistry().histogram("sdds.op_seconds")
        assert hist.snapshot()["value"] == {
            "count": 0, "max": 0, "min": 0, "p50": 0, "p90": 0, "p99": 0,
            "p999": 0, "stddev": 0, "sum": 0,
        }

    def test_summary_statistics(self):
        hist = MetricsRegistry().histogram("backup.tree_depth")
        for value in (1, 2, 3):
            hist.observe(value)
        assert (hist.count, hist.sum, hist.min, hist.max) == (3, 6, 1, 3)


class TestRegistryInjection:
    def test_use_registry_restores_previous(self):
        outer = get_registry()
        fresh = MetricsRegistry()
        with use_registry(fresh) as active:
            assert active is fresh
            assert get_registry() is fresh
        assert get_registry() is outer

    def test_set_registry_returns_previous(self):
        outer = get_registry()
        fresh = MetricsRegistry()
        assert set_registry(fresh) is outer
        assert set_registry(outer) is fresh

    def test_instrumented_code_hits_injected_registry(self):
        from repro.sig import make_scheme

        scheme = make_scheme(f=8, n=2)
        first, second = MetricsRegistry(), MetricsRegistry()
        with use_registry(first):
            scheme.sign(b"abcd")
        with use_registry(second):
            scheme.sign(b"abcdefgh")
        assert first.total("sig.bytes_signed") == 4
        assert second.total("sig.bytes_signed") == 8


class TestHandleCache:
    """The epoch-invalidated table of bound handles hot paths keep."""

    @staticmethod
    def by_op():
        return HandleCache(lambda registry, op: registry.counter(
            "cluster.ops", op=op, status="found"))

    def test_a_handle_bound_under_one_registry_feeds_only_that_one(self):
        table = self.by_op()
        first, second = MetricsRegistry(), MetricsRegistry()
        with use_registry(first):
            bound = table["search"]
            table["search"].inc()
        with use_registry(second):
            assert table["search"] is not bound
            table["search"].inc(2)
        assert first.total("cluster.ops") == 1
        assert second.total("cluster.ops") == 2

    def test_keys_resolve_once_per_registry(self):
        made = []

        def factory(registry, key):
            made.append(key)
            return registry.counter("net.bytes", kind=key)

        table = HandleCache(factory)
        with use_registry(MetricsRegistry()) as registry:
            for kind in ("insert", "search", "insert", "insert"):
                table[kind].inc()
            assert made == ["insert", "search"]
            assert registry.total("net.bytes", kind="insert") == 3

    def test_unkeyed_form_shares_the_epoch(self):
        table = HandleCache()
        first, second = MetricsRegistry(), MetricsRegistry()
        with use_registry(first):
            table.get(lambda registry: registry.counter("disk.writes")).inc()
        with use_registry(second):
            table.get(lambda registry: registry.counter("disk.writes")).inc()
        assert first.total("disk.writes") == second.total("disk.writes") == 1

    def test_kwargs_in_either_order_reach_one_series(self):
        registry = MetricsRegistry()
        a = registry.counter("cluster.ops", op="insert", status="inserted")
        b = registry.counter("cluster.ops", status="inserted", op="insert")
        a.inc()
        b.inc()
        assert a is b and len(registry) == 1
        assert registry.counter("cluster.ops", status="inserted",
                                op="insert").value == 2

    def test_invalid_name_or_label_still_raises_on_first_touch(self):
        with use_registry(MetricsRegistry()):
            with pytest.raises(MetricError):
                HandleCache(lambda registry, _key: registry.counter(
                    "Bad-Name"))["x"]
            with pytest.raises(MetricError):
                HandleCache(lambda registry, _key: registry.counter(
                    "net.bytes", **{"Kind": "x"}))["x"]
            registry = get_registry()
            registry.counter("net.bytes", kind="x")
            with pytest.raises(MetricError):
                registry.gauge("net.bytes", kind="x")

    def test_label_values_match_by_their_text(self):
        registry = MetricsRegistry()
        registry.counter("cluster.ops", ok=True).inc()
        registry.counter("cluster.ops", ok=1).inc()
        registry.counter("cluster.ops", ok=1.0).inc()
        assert registry.counter("cluster.ops", ok="True").value == 1
        assert registry.counter("cluster.ops", ok="1").value == 1
        assert len(registry) == 3

    def test_reset_leaves_no_stale_handle(self):
        table = self.by_op()
        with use_registry(MetricsRegistry()) as registry:
            table["insert"].inc(5)
            registry.reset()
            table["insert"].inc()
            assert registry.total("cluster.ops") == 1
            assert registry.counter("cluster.ops", op="insert",
                                    status="found").value == 1

    def test_histogram_backend_is_honoured(self):
        table = HandleCache(lambda registry, op: registry.histogram(
            "cluster.op_seconds", op=op))
        with use_registry(MetricsRegistry()) as registry:
            registry.set_histogram_backend("cluster.op_seconds", "bucketed")
            table["insert"].observe(0.5)
            assert isinstance(table["insert"], BucketedHistogram)
            assert registry.histogram("cluster.op_seconds",
                                      op="insert") is table["insert"]
            with pytest.raises(MetricError):
                registry.set_histogram_backend("cluster.op_seconds", "exact")


class TestSnapshotable:
    def test_metric_series_conform(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("net.bytes"), Snapshotable)
        assert isinstance(registry.gauge("net.depth"), Snapshotable)
        assert isinstance(registry.histogram("net.lat"), Snapshotable)
        assert isinstance(registry, Snapshotable)

    def test_sim_stats_conform(self):
        assert isinstance(TrafficStats(), Snapshotable)
        assert isinstance(DiskStats(), Snapshotable)

    def test_traffic_snapshot_key_order(self):
        stats = TrafficStats()
        stats.record("update", 10)
        stats.record("ack", 2)
        snapshot = stats.snapshot()
        assert list(snapshot) == ["bytes", "by_kind", "messages"]
        assert list(snapshot["by_kind"]) == ["ack", "update"]

    def test_disk_snapshot_key_order(self):
        assert list(DiskStats().snapshot()) == [
            "bytes_read", "bytes_written", "reads", "writes",
        ]


class TestTracer:
    """One span model: every ``TraceStore`` span runs on both clocks."""

    def test_nesting_under_sim_clock(self):
        clock = SimClock()
        traces = TraceStore(clock=clock)
        with traces.span("outer", phase="e5") as outer:
            clock.advance(1.0)
            with traces.span("inner") as inner:
                clock.advance(0.25)
                inner.event("wrote", pages=3)
            clock.advance(0.5)
        assert traces.current is None
        first, second = traces.finished
        assert (first.name, first.parent_id) == ("inner", outer.span.span_id)
        assert (second.name, second.parent_id) == ("outer", None)
        assert first.trace_id == second.trace_id
        assert first.sim_seconds == pytest.approx(0.25)
        assert second.sim_seconds == pytest.approx(1.75)
        assert second.labels == {"phase": "e5"}
        event = first.events[0]
        assert (event["name"], event["fields"]) == ("wrote", {"pages": 3})
        assert event["at"] - first.start == pytest.approx(0.25)
        assert 0 <= first.wall_offsets[0] <= first.wall_seconds \
            <= second.wall_seconds

    def test_wall_only_without_clock(self):
        traces = TraceStore()
        with traces.span("solo"):
            pass
        span = traces.finished[0]
        assert span.start == span.end == 0.0
        assert span.wall_end >= span.wall_start
        assert "  solo  -  " in RunReport(MetricsRegistry(),
                                          traces=traces).render()

    def test_snapshot_excludes_wall_by_default(self):
        traces = TraceStore(clock=SimClock())
        with traces.span("a") as span:
            span.event("tick")
        body = traces.to_dict()["traces"][0]["spans"][0]
        assert "wall_seconds" not in body
        assert "wall_offset" not in body["events"][0]
        assert "wall" not in traces.to_json()
        assert "wall" not in json.dumps(traces.to_chrome())
        with_wall = traces.to_dict(include_wall=True)["traces"][0]["spans"][0]
        assert with_wall["wall_seconds"] == traces.finished[0].wall_seconds
        assert "wall_offset" in with_wall["events"][0]
        assert "wall_offset" not in traces.finished[0].events[0]

    def test_empty_span_name_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(TraceError):
            TraceStore().span("")
        assert issubclass(TraceError, ReproError)


def _golden_report() -> RunReport:
    """The fixed workload behind the golden-file test (no wall clock)."""
    registry = MetricsRegistry()
    registry.counter("sig.bytes_signed", field="gf16",
                     variant="standard").inc(4096)
    registry.counter("net.messages", kind="insert").inc(3)
    registry.gauge("backup.file_buckets").set(4)
    hist = registry.histogram("sdds.op_seconds", op="search")
    for value in (1.0, 2.0, 3.0, 4.0):
        hist.observe(value)
    clock = SimClock()
    traces = TraceStore(clock=clock)
    with traces.span("workload", experiment="golden"):
        clock.advance(1.5)
        with traces.span("backup") as span:
            clock.advance(0.25)
            span.event("wrote", pages=2)
    return RunReport(registry, traces=traces, meta={"source": "golden"})


class TestRunReport:
    def test_json_matches_golden_file(self):
        assert _golden_report().to_json() + "\n" == GOLDEN.read_text()

    def test_json_is_stable_across_runs(self):
        assert _golden_report().to_json() == _golden_report().to_json()

    def test_schema_tag_present(self):
        document = _golden_report().to_dict()
        assert document["schema"] == SCHEMA
        assert set(document) == {"meta", "metrics", "schema", "spans"}

    def test_metrics_snapshot_shape(self):
        metrics = _golden_report().to_dict()["metrics"]
        assert metrics["net.messages"]["kind=insert"] == 3
        summary = metrics["sdds.op_seconds"]["op=search"]
        assert summary["count"] == 4
        assert summary["p50"] == pytest.approx(2.5)

    def test_render_groups_by_subsystem(self):
        text = _golden_report().render()
        for section in ("== backup ==", "== net ==", "== sdds ==",
                        "== sig ==", "== spans =="):
            assert section in text
        assert "source=golden" in text
        # The spans table indents children under their parents.
        assert "\n  workload  1750.000 ms sim  " in text
        assert "\n    backup  250.000 ms sim  " in text

    def test_render_empty_registry(self):
        text = RunReport(MetricsRegistry()).render()
        assert "(no metrics recorded)" in text

    def test_json_round_trips(self):
        document = json.loads(_golden_report().to_json(indent=None))
        assert document["meta"] == {"source": "golden"}


class TestSeriesReprs:
    def test_reprs_are_informative(self):
        registry = MetricsRegistry()
        counter = registry.counter("net.bytes", kind="x")
        counter.inc(5)
        assert repr(counter) == "Counter(net.bytes{kind=x}=5)"
        gauge = registry.gauge("net.depth")
        gauge.set(2)
        assert repr(gauge) == "Gauge(net.depth{}=2)"
        hist = registry.histogram("net.lat")
        hist.observe(1)
        assert repr(hist) == "Histogram(net.lat{}, n=1)"

    def test_counter_and_gauge_are_distinct_types(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("a.b"), Counter)
        assert isinstance(registry.gauge("a.c"), Gauge)
        assert isinstance(registry.histogram("a.d"), Histogram)
