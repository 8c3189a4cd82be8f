"""Lean seal lane vs the batch engine: the per-call cost of one seal.

    PYTHONPATH=src python benchmarks/seal_lane.py [--repeats 15]

Almost every seal of the durable write path covers one small body.
This script times the four one-body seal entry points -- ``wire.seal``
(a 141-byte request body), ``wire.unseal`` (its 145-byte sealed frame),
a one-frame ``frames.encode_many`` (a 28-byte header and volume name
plus a 101-byte payload) and a checkpoint-sized seal (a 1 KiB body;
the checkpoints of a small durable 4-node cluster run 150-900 B) --
on two lanes: the lean lane of :mod:`repro.sig.seal`, and every seal
routed through ``BatchSigner.concat_components`` and serialized, the
lane a lone body took before.  The lanes' seals are checked byte for
byte before anything is timed.  Prints the median and interquartile
range of the per-call wall time in microseconds; the results are
recorded in docs/PERFORMANCE.md ("One lean seal lane").
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.cluster import wire
from repro.sig import get_batch_signer, make_scheme
from repro.sig import seal as sig_seal
from repro.store import frames

LEAN = sig_seal.seal


def batched(scheme, parts) -> bytes:
    """One body's seal through the batch engine's component rows."""
    row = get_batch_signer(scheme).concat_components([parts], strict=False)
    return row.astype(f"<u{scheme.scheme_id.symbol_bytes}").tobytes()


#: Lane name -> the function installed as ``repro.sig.seal.seal``, which
#: ``wire.seal``, ``opened`` and a one-body ``seals`` all call.
LANES = {"lean": LEAN, "batch": batched}


def per_call_us(run, calls: int, repeats: int) -> dict[str, tuple[float, float]]:
    """Median and IQR of the per-call time on each lane, in microseconds.

    The lanes alternate sample by sample, so a co-tenant's burst on a
    shared host slows both rather than biasing one.
    """
    samples: dict[str, list[float]] = {lane: [] for lane in LANES}
    try:
        for _ in range(repeats):
            for lane, seal in LANES.items():
                sig_seal.seal = seal
                start = time.perf_counter()
                for _ in range(calls):
                    run()
                samples[lane].append(
                    (time.perf_counter() - start) / calls * 1e6)
    finally:
        sig_seal.seal = LEAN
    out = {}
    for lane, values in samples.items():
        quartiles = statistics.quantiles(values, n=4)
        out[lane] = (statistics.median(values), quartiles[2] - quartiles[0])
    return out


def cases(scheme, rng) -> dict:
    """The timed calls, by name."""
    request = rng.bytes(141)
    sealed = wire.seal(scheme, request)
    frame = frames.Frame(frames.KIND_DELTA, 7, "node0:image", rng.bytes(101))
    checkpoint = rng.bytes(1024)
    return {
        "wire.seal 141 B": lambda: wire.seal(scheme, request),
        "wire.unseal 145 B": lambda: wire.unseal(scheme, sealed),
        "frames.encode_many 1 frame": lambda: frames.encode_many(
            scheme, [frame]),
        "checkpoint seal 1 KiB": lambda: sig_seal.seal(scheme, [checkpoint]),
    }


def check_identical(named) -> None:
    """Every case yields the same bytes on both lanes, and the batch run
    really seals through the batch engine (before timing)."""
    for name, run in named.items():
        routed = []

        def counted(scheme, parts):
            routed.append(parts)
            return batched(scheme, parts)

        results = []
        for seal in (LEAN, counted):
            sig_seal.seal = seal
            try:
                results.append(run())
            finally:
                sig_seal.seal = LEAN
        if not routed:
            raise SystemExit(f"{name}: the batch lane was not exercised")
        if results[0] != results[1]:
            raise SystemExit(f"{name}: the lanes' seals differ")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    scheme = make_scheme()
    named = cases(scheme, np.random.default_rng(0))
    check_identical(named)
    print(f"{'call':<28} {'lean us (IQR)':>15} {'batch us (IQR)':>15} "
          f"{'batch/lean':>10}")
    for name, run in named.items():
        timings = per_call_us(run, 2000, args.repeats)
        (lean, lean_iqr), (batch, batch_iqr) = \
            timings["lean"], timings["batch"]
        print(f"{name:<28} {lean:>8.1f} ({lean_iqr:>4.1f}) "
              f"{batch:>8.1f} ({batch_iqr:>4.1f}) {batch / lean:>10.2f}")


if __name__ == "__main__":
    main()
