"""Self-tests of the benchmark: contract, correctness, determinism, tracing.

    python3 -m pytest wallbench -q

Each workload runs at its tiny size in a fresh worker process (the same
entry point the benchmark uses), so these tests also cover the pinned
environment and the worker's JSON protocol.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import LAYERS, LayerTracer  # noqa: E402
from run import PINNED_ENV, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_worker(workload: str, seed: int, tmp_path: Path,
               trace: int = 1) -> tuple[dict, list[str]]:
    """One tiny worker run; returns (result object, report lines)."""
    env = {"PATH": "/usr/bin:/bin", **PINNED_ENV,
           "PYTHONPATH": str(ROOT / "src")}
    completed = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--mode", "run", "--tiny"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    lines = completed.stdout.splitlines()
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(lines[-1]), lines[:-1]


def test_benchmark_json_meets_the_contract():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["wallbench"]
    assert 1 <= document["run_seconds"] <= 60
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = [e for e in document["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in
                                   document["end_to_end"])}]
    for entry in document["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = set()
    for entry in document["end_to_end"] + document["per_layer"]:
        assert NAME.match(entry["name"]) and entry["name"] not in names
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
        names.add(entry["name"])
    for layer in LAYERS:
        assert f"{layer}.calls" in names and f"{layer}.share" in names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_attributed(workload, tmp_path):
    result, lines = run_worker(workload, 3, tmp_path)
    assert result["correct"] and result["failed"] == 0, lines
    metrics = result["metrics"]
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {e["name"] for e in document["per_layer"]} <= set(metrics)
    # Self times never overlap, so they sum to at most the traced wall.
    shares = sum(metrics[f"{layer}.share"] for layer in LAYERS)
    assert shares <= 100.0 + 1e-9
    assert metrics["unattributed.share"] >= -1e-9
    assert metrics["sig.locate.overflows"] == 0
    assert not (tmp_path / ".wallbench_work").exists()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_fingerprint(workload, tmp_path):
    first, _ = run_worker(workload, 5, tmp_path, trace=0)
    second, _ = run_worker(workload, 5, tmp_path, trace=0)
    other, _ = run_worker(workload, 6, tmp_path, trace=0)
    assert first["fingerprint"] == second["fingerprint"] is not None
    assert other["fingerprint"] != first["fingerprint"]


def test_tracer_restores_every_entry_point():
    import importlib

    def current(target):
        module_name, path = target.split(":")
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = owner.__dict__[part]
        return owner

    targets = [t for targets in LAYERS.values() for t in targets]
    before = [current(target) for target in targets]
    with LayerTracer():
        during = [current(target) for target in targets]
    assert all(now is not then for now, then in zip(during, before))
    assert [current(target) for target in targets] == before
