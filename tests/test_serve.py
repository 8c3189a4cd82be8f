"""Tests for the high-concurrency serving plane (``repro.serve``).

Covers the non-blocking request service in isolation (admission
control, deadline shedding, read coalescing), retry budgets at the
cluster client, live LH*/RP* splits under open-loop traffic with
algebraic-signature verification of the final bucket images, and the
determinism of the whole report.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (Cluster, EventLoop, FaultPlan, LinkFaults,
                           RetryExhaustedError, RetryPolicy)
from repro.cluster import wire as cwire
from repro.errors import ReproError
from repro.obs import MetricsRegistry, use_registry
from repro.serve import (LoadGenerator, LoadMix, RequestService,
                         ServeRequest, ServicePolicy, ServingPlane, key_for)


def make_service(policy, log):
    loop = EventLoop()
    service = RequestService(
        "svc", loop, policy,
        execute=lambda request: log.append(("exec", request)),
        shed=lambda request, reason: log.append(("shed", request, reason)),
    )
    return loop, service


class TestRequestService:
    def test_inline_policy_executes_synchronously(self):
        log = []
        _loop, service = make_service(ServicePolicy(), log)
        request = ServeRequest(1, 10, b"v")
        assert service.offer(request)
        assert log == [("exec", request)]
        assert service.served == 1

    def test_default_policy_is_inline(self):
        assert ServicePolicy().inline
        assert not ServicePolicy.serving(1000.0).inline

    def test_queued_policy_charges_service_time(self):
        log = []
        loop, service = make_service(ServicePolicy.serving(100.0), log)
        service.offer(ServeRequest(1, 10))
        assert log == []            # nothing executed yet: costs 10ms
        loop.run_until_idle()
        assert len(log) == 1
        assert loop.clock.now == pytest.approx(0.01)

    def test_inbox_bound_sheds_excess(self):
        log = []
        loop, service = make_service(
            ServicePolicy.serving(100.0, inbox_limit=4), log)
        for key in range(8):
            service.offer(ServeRequest(1, key))
        sheds = [entry for entry in log if entry[0] == "shed"]
        # One executes (busy), four queue, the rest shed with "queue".
        assert len(sheds) == 3
        assert all(entry[2] == "queue" for entry in sheds)
        assert service.sheds["queue"] == 3
        loop.run_until_idle()
        assert sum(1 for entry in log if entry[0] == "exec") == 5

    def test_deadline_shed_rejects_dead_on_arrival_work(self):
        log = []
        loop, service = make_service(ServicePolicy.serving(100.0), log)
        for key in range(5):        # backlog drains at t=50ms
            service.offer(ServeRequest(1, key))
        late = ServeRequest(1, 99, deadline=loop.clock.now + 0.02)
        assert not service.offer(late)
        assert service.sheds["deadline"] == 1
        fits = ServeRequest(1, 98, deadline=loop.clock.now + 1.0)
        assert service.offer(fits)
        loop.run_until_idle()
        executed = [entry[1].key for entry in log if entry[0] == "exec"]
        assert 99 not in executed
        assert 98 in executed

    def test_same_key_reads_coalesce(self):
        log = []
        loop, service = make_service(ServicePolicy.serving(100.0), log)
        service.offer(ServeRequest(1, 1, read=True))   # executing
        head = ServeRequest(1, 7, read=True)
        service.offer(head)                            # queued
        for _ in range(3):
            service.offer(ServeRequest(1, 7, read=True))
        assert service.coalesced == 3
        assert len(head.riders) == 3
        loop.run_until_idle()
        # Four reads of key 7 cost one execution.
        assert sum(1 for entry in log if entry[0] == "exec") == 2
        assert service.served == 5

    def test_reads_do_not_coalesce_onto_executing_head(self):
        log = []
        loop, service = make_service(ServicePolicy.serving(100.0), log)
        first = ServeRequest(1, 7, read=True)
        service.offer(first)        # dequeued immediately: executing
        second = ServeRequest(1, 7, read=True)
        service.offer(second)
        assert second.riders == [] and first.riders == []
        loop.run_until_idle()
        assert sum(1 for entry in log if entry[0] == "exec") == 2

    def test_writes_never_coalesce(self):
        log = []
        loop, service = make_service(ServicePolicy.serving(100.0), log)
        for _ in range(4):
            service.offer(ServeRequest(2, 7, b"x"))
        assert service.coalesced == 0
        loop.run_until_idle()
        assert sum(1 for entry in log if entry[0] == "exec") == 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ServicePolicy(inbox_limit=-1)
        with pytest.raises(ValueError):
            ServicePolicy(service_seconds=-1.0)
        with pytest.raises(ValueError):
            ServicePolicy.serving(0.0)


class TestRetryBudget:
    def test_budget_caps_attempts_below_max(self):
        policy = RetryPolicy(max_attempts=6, budget=3)
        budget = policy.begin(0.0)
        assert budget.allowed == 3
        spent = 0
        while budget.allow(0.0):
            budget.spend()
            spent += 1
        assert spent == 3
        with pytest.raises(ReproError):
            budget.spend()

    def test_deadline_stops_spending(self):
        policy = RetryPolicy(max_attempts=10, op_deadline=0.05)
        budget = policy.begin(1.0)
        assert budget.allow(1.0)
        assert budget.allow(1.049)
        assert not budget.allow(1.05)
        assert not budget.allow(2.0)

    def test_attempt_timeout_clamped_to_deadline(self):
        policy = RetryPolicy(timeout=0.1, jitter=0.0, op_deadline=0.15)
        budget = policy.begin(0.0)

        class _NoJitter:
            def uniform(self, lo, hi):
                return 1.0

        budget_rng = _NoJitter()
        first = budget.attempt_timeout(0, budget_rng, 0.0)
        assert first == pytest.approx(0.1)
        clamped = budget.attempt_timeout(1, budget_rng, 0.12)
        assert clamped == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(budget=0)
        with pytest.raises(ValueError):
            RetryPolicy(op_deadline=0.0)

    def test_cluster_client_total_attempts_respect_budget(self):
        # A black-hole network: every attempt times out; the client
        # must stop at the budget, not at max_attempts.
        plan = FaultPlan(default=LinkFaults(drop=1.0))
        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = Cluster(
                servers=2, seed=3, plan=plan,
                retry=RetryPolicy(timeout=0.01, max_attempts=8, budget=3))
            client = cluster.client()
            with pytest.raises(RetryExhaustedError, match="3 attempts"):
                client.search(5)
        assert registry.total("cluster.timeouts") == 3

    def test_cluster_client_default_budget_is_max_attempts(self):
        plan = FaultPlan(default=LinkFaults(drop=1.0))
        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = Cluster(
                servers=2, seed=3, plan=plan,
                retry=RetryPolicy(timeout=0.01, max_attempts=4))
            client = cluster.client()
            with pytest.raises(RetryExhaustedError, match="4 attempts"):
                client.search(5)
        assert registry.total("cluster.timeouts") == 4


def small_plane(seed=0, family="lh", buckets=4, threshold=64, **kwargs):
    return ServingPlane(
        buckets=buckets, family=family, seed=seed,
        policy=ServicePolicy.serving(2000.0, inbox_limit=64),
        split_threshold=threshold, **kwargs)


class TestServingPlane:
    def test_preload_and_verify_without_traffic(self):
        with use_registry(MetricsRegistry()):
            plane = small_plane(threshold=1 << 20)
            plane.preload(200)
            plane.settle()
            verification = plane.verify()
        assert verification["ok"]
        assert verification["records"] == 200

    def test_rp_family_requires_single_root(self):
        with use_registry(MetricsRegistry()):
            with pytest.raises(ReproError):
                small_plane(family="rp", buckets=2)

    def test_inline_policy_rejected(self):
        with use_registry(MetricsRegistry()):
            with pytest.raises(ReproError):
                ServingPlane(buckets=2, family="lh", seed=0,
                             policy=ServicePolicy())

    def test_live_split_under_traffic_verifies_lh(self):
        with use_registry(MetricsRegistry()):
            plane = small_plane(seed=5, threshold=48)
            generator = LoadGenerator(
                plane, LoadMix(sessions=64, n_items=100,
                               insert_fraction=0.30, read_fraction=0.50,
                               update_fraction=0.15))
            generator.run_step(3000.0, 600)
            plane.settle()
            verification = plane.verify()
        assert plane.splits >= 1, "test must actually exercise a live split"
        assert verification["ok"]
        assert verification["acked_lost"] == []
        assert verification["mismatched"] == []
        assert verification["placement_ok"]

    def test_live_split_under_traffic_verifies_rp(self):
        with use_registry(MetricsRegistry()):
            plane = small_plane(seed=6, family="rp", buckets=1,
                                threshold=80)
            generator = LoadGenerator(
                plane, LoadMix(sessions=64, n_items=120,
                               insert_fraction=0.30, read_fraction=0.50,
                               update_fraction=0.15))
            generator.run_step(3000.0, 600)
            plane.settle()
            verification = plane.verify()
        assert plane.splits >= 1
        assert verification["ok"]

    def test_thousand_session_smoke(self):
        with use_registry(MetricsRegistry()):
            plane = small_plane(seed=1, threshold=1 << 20)
            generator = LoadGenerator(
                plane, LoadMix(sessions=1000, n_items=1200))
            step = generator.run_step(6000.0, 2000)
            plane.settle()
            verification = plane.verify()
        assert step["sessions_served"] >= 1000
        assert step["ops"] == 2000
        assert verification["ok"]

    def test_goodput_does_not_collapse_past_saturation(self):
        # Capacity is ~4 buckets x 2000 ops/s; offer up to 3x that.
        with use_registry(MetricsRegistry()):
            plane = small_plane(seed=2, threshold=1 << 20)
            generator = LoadGenerator(
                plane, LoadMix(sessions=400, n_items=600))
            report = generator.sweep([4000.0, 12000.0, 24000.0], 1200)
        summary = report["summary"]
        assert summary["graceful"], summary
        assert summary["post_saturation_ratio"] >= 0.8
        assert report["verify"]["ok"]

    def test_step_report_shape(self):
        with use_registry(MetricsRegistry()):
            plane = small_plane(seed=3, threshold=1 << 20)
            generator = LoadGenerator(
                plane, LoadMix(sessions=32, n_items=64))
            step = generator.run_step(2000.0, 200)
        for field in ("offered_ops_per_s", "ops", "ok", "goodput_ops_per_s",
                      "p50_ms", "p99_ms", "p999_ms", "server_sheds",
                      "coalesced", "failed_timeout", "failed_shed",
                      "sessions_served", "splits", "buckets",
                      "max_inflight", "attempts"):
            assert field in step
        assert step["ops"] == 200

    def test_same_seed_same_report(self):
        def one_run():
            with use_registry(MetricsRegistry()):
                plane = small_plane(seed=9, threshold=96)
                generator = LoadGenerator(
                    plane, LoadMix(sessions=128, n_items=160,
                                   insert_fraction=0.25,
                                   read_fraction=0.55))
                return generator.sweep([3000.0, 8000.0], 500)

        assert one_run() == one_run()

    def test_different_seeds_differ(self):
        def one_run(seed):
            with use_registry(MetricsRegistry()):
                plane = small_plane(seed=seed, threshold=1 << 20)
                generator = LoadGenerator(
                    plane, LoadMix(sessions=32, n_items=64))
                return generator.run_step(2000.0, 300)

        assert one_run(1) != one_run(2)

    def test_overload_sheds_and_recovers(self):
        # A tiny inbox at huge offered load must shed, yet every
        # operation resolves (success or explicit failure -- never
        # silently lost) and the plane still verifies.
        with use_registry(MetricsRegistry()):
            plane = ServingPlane(
                buckets=2, family="lh", seed=4,
                policy=ServicePolicy.serving(500.0, inbox_limit=8),
                split_threshold=1 << 20)
            generator = LoadGenerator(
                plane, LoadMix(sessions=200, n_items=300))
            step = generator.run_step(20000.0, 1500)
            plane.settle()
            verification = plane.verify()
        sheds = sum(step["server_sheds"].values())
        assert sheds > 0
        assert step["ok"] + step["not_ok"] + step["failed_timeout"] \
            + step["failed_shed"] == 1500
        assert verification["ok"]


class TestPseudoUpdateFilter:
    """Section 2.2's filter skips only true no-ops.

    Algebraic signatures ignore trailing zero symbols, so ``b""`` and
    ``b"\\x00"`` sign alike; the filter must also compare lengths, or
    the update is acked while the stored value stays unchanged.
    """

    CHANGES = [(b"", b"\x00"), (b"ab", b"ab\x00\x00"), (b"ab\x00", b"ab")]

    @pytest.mark.parametrize("old, new", CHANGES)
    def test_cluster_writes_trailing_zero_changes(self, old, new):
        with use_registry(MetricsRegistry()) as registry:
            cluster = Cluster(servers=2, seed=1)
            client = cluster.client()
            assert client.insert(4, old).ok
            assert client.update(4, new).status == "applied"
            assert client.search(4).value == new
            assert registry.total("cluster.pseudo_updates") == 0
            assert client.update(4, new).status == "applied"
            assert registry.total("cluster.pseudo_updates") == 1
            cluster.settle()
            cluster.check_replicas()

    @pytest.mark.parametrize("old, new", CHANGES)
    def test_serving_plane_writes_trailing_zero_changes(self, old, new):
        with use_registry(MetricsRegistry()) as registry:
            plane = small_plane(threshold=1 << 20)
            session = plane.session()
            key = key_for(3)
            session.submit(cwire.OP_INSERT, key, old)
            plane.settle()
            session.submit(cwire.OP_UPDATE, key, new)
            plane.settle()
            assert plane.owner_of(key).server.search(key).value == new
            assert plane.oracle[key] == new
            assert registry.total("serve.pseudo_updates") == 0
            assert registry.total("serve.ops", op="update",
                                  status="applied") == 1
            assert plane.verify()["ok"]


class TestLoadMix:
    def test_fraction_validation(self):
        with pytest.raises(ReproError):
            LoadMix(read_fraction=0.9, update_fraction=0.3,
                    insert_fraction=0.2)
        with pytest.raises(ReproError):
            LoadMix(sessions=0)

    def test_run_step_validation(self):
        with use_registry(MetricsRegistry()):
            plane = small_plane(threshold=1 << 20)
            generator = LoadGenerator(plane, LoadMix(sessions=4, n_items=8))
            with pytest.raises(ReproError):
                generator.run_step(0.0, 10)
            with pytest.raises(ReproError):
                generator.run_step(100.0, 0)


@st.composite
def racing_schedules(draw):
    """A burst of keyed operations racing one or more live splits."""
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(("insert", "update", "delete", "search")),
            st.integers(min_value=0, max_value=119),
        ),
        min_size=40, max_size=120))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return ops, seed


class TestRacingSplits:
    @given(schedule=racing_schedules())
    @settings(max_examples=12, deadline=None)
    def test_acked_writes_survive_racing_splits(self, schedule):
        ops, seed = schedule
        with use_registry(MetricsRegistry()):
            plane = small_plane(seed=seed, threshold=40,
                                split_delay=5e-4)
            plane.preload(60)
            sessions = [plane.session() for _ in range(8)]
            at = plane.clock.now
            for position, (kind, index) in enumerate(ops):
                key = key_for(index)
                session = sessions[position % len(sessions)]
                value = plane._value_for(key, position + 1, 64)
                op = {"insert": cwire.OP_INSERT,
                      "update": cwire.OP_UPDATE,
                      "delete": cwire.OP_DELETE,
                      "search": cwire.OP_SEARCH}[kind]
                if op == cwire.OP_SEARCH:
                    value = b""
                at += 0.0002
                plane.loop.at(at, lambda s=session, o=op, k=key,
                              v=value: s.submit(o, k, v))
            plane.settle()
            verification = plane.verify()
        # Every acked mutation must be in the execution journal and the
        # final images must signature-match the oracle: an acked write
        # that a racing split dropped would fail both.
        assert verification["acked_lost"] == []
        assert verification["mismatched"] == []
        assert verification["ok"], verification


class TestServeCLI:
    def test_usage_errors(self, capsys):
        from repro.__main__ import main
        assert main(["serve", "--seed"]) == 2
        assert main(["serve", "extra"]) == 2
        capsys.readouterr()
