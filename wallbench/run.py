"""Wall-clock benchmark of the request, durable-write and recovery paths.

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout.  Every workload run happens in a fresh
``worker.py`` process with the variance sources pinned (:data:`PINNED_ENV`).
Set-up time is sampled :data:`SETUP_SAMPLES` times per run -- each sample
a fresh process timed from spawn to its first timed operation -- and
reported as the median.  The last line of standard output is the result
object; with ``--trace 0`` it carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  A failed correctness check prints
``"correct": false`` with no metrics and exits non-zero.

End-to-end timings are wall-clock latencies of single operations (for
``kv_durable`` one client call, for ``recover_repair`` one recovery plus
repair), each scaled to a reference host speed by a fixed probe loop run
next to it (``worker.at_reference_speed``): co-tenants on a shared host
slow it by 1.5x or more for seconds at a time.  The raw wall figures are
printed beside them.

Durable state lives in ``.wallbench_work/`` under the checkout (the run
may write nowhere else, so ``/dev/shm`` is not used).  Log flushes are
Python-level ``flush()`` calls without ``fsync``: they land in the page
cache, so flush cost is the operating system's, not a storage device's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("kv_durable", "recover_repair")

#: Variance pins for every worker process.  One signing and one recovery
#: worker: the process pool's shared-memory arena would live in /dev/shm,
#: outside the checkout, and a second process on a 2-CPU host adds more
#: scheduling noise than it saves.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "REPRO_SIGN_WORKERS": "1",
    "REPRO_RECOVERY_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Set-up samples per run (the last is the measuring process itself).
SETUP_SAMPLES = 3

#: Whole-run budget; a worker still running past it is killed.
BUDGET_SECONDS = 170.0


def monotonic() -> float:
    """CLOCK_MONOTONIC, the clock the workers report their first op on."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, mode: str, deadline: float) -> tuple[float, dict, list[str]]:
    """Run one worker; returns (set-up seconds, result, report lines)."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mode", mode]
    spawned = monotonic()
    completed = subprocess.run(command, env=env, capture_output=True,
                               text=True,
                               timeout=max(1.0, deadline - monotonic()))
    lines = completed.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"worker ({mode}) exited {completed.returncode} "
                         "without a result")
    if completed.returncode not in (0, 1) or "started_at" not in result:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"worker ({mode}) exited {completed.returncode}")
    return result["started_at"] - spawned, result, lines[:-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "repro").is_dir():
        raise SystemExit("run from the root of a checkout: src/repro "
                         "is missing")
    deadline = monotonic() + BUDGET_SECONDS
    setups = []
    for _sample in range(SETUP_SAMPLES - 1):
        setup_s, _result, _lines = spawn(args, "setup", deadline)
        setups.append(setup_s)
    setup_s, result, lines = spawn(args, "run", deadline)
    setups.append(setup_s)
    for line in lines:
        print(line)
    print(f"setup_s samples: {', '.join(f'{value:.4f}' for value in setups)}"
          f"; pins: {' '.join(f'{k}={v}' for k, v in PINNED_ENV.items())}")
    if not result["correct"]:
        print(json.dumps({"correct": False, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": {}}))
        return 1
    catalogue = json.loads(Path("BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
