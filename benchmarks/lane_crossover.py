"""Small lane vs packed matrix lane: the measurement behind SMALL_RUN_SYMBOLS.

    PYTHONPATH=src python benchmarks/lane_crossover.py [--repeats 15]

Signs the same runs through ``BatchSigner.sign_concat_many`` twice --
once with every run forced onto the small lane, once onto the packed
matrix lane -- and prints the median and interquartile range of the
per-call wall time in microseconds.  Shapes cover a lone body of 40 B to
16 KiB (the wire and log frames of the durable write path are 40-200 B)
and many-body runs such as a mutation's burst of delta frames.  The
crossover in :mod:`repro.sig.engine` is the total symbol count where
the matrix lane starts to win; the results are recorded in
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.sig import BatchSigner, engine, make_scheme
from repro.sig.engine import SMALL_RUN_SYMBOLS

LONE = (40, 100, 200, 1024, 4096, 8192, 16384)
MANY = ((18, 80), (18, 200), (100, 40), (8, 1024), (40, 200), (64, 256))


def per_call_us(run, calls: int, repeats: int) -> dict[str, tuple[float, float]]:
    """Median and IQR of the per-call time of each lane, in microseconds.

    The lanes alternate sample by sample, so a co-tenant's burst on a
    shared host slows both rather than biasing one.
    """
    samples: dict[str, list[float]] = {"small": [], "matrix": []}
    for _ in range(repeats):
        for lane, crossover in (("small", 1 << 62), ("matrix", 0)):
            engine.SMALL_RUN_SYMBOLS = crossover
            start = time.perf_counter()
            for _ in range(calls):
                run()
            samples[lane].append((time.perf_counter() - start) / calls * 1e6)
    engine.SMALL_RUN_SYMBOLS = SMALL_RUN_SYMBOLS
    out = {}
    for lane, values in samples.items():
        quartiles = statistics.quantiles(values, n=4)
        out[lane] = (statistics.median(values), quartiles[2] - quartiles[0])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    print(f"{'field':<6} {'bodies':>6} {'bytes':>6} {'symbols':>8} "
          f"{'small us (IQR)':>16} {'matrix us (IQR)':>16} {'matrix/small':>12}")
    for f, n in ((16, 2), (8, 4)):
        scheme = make_scheme(f=f, n=n)
        signer = BatchSigner(scheme)
        cap = scheme.max_page_symbols * scheme.scheme_id.symbol_bytes
        shapes = [(1, size) for size in LONE] + list(MANY)
        for count, size in dict.fromkeys((c, min(s, cap)) for c, s in shapes):
            bodies = [[rng.integers(0, 256, size, dtype=np.uint8).tobytes()]
                      for _ in range(count)]
            calls = max(10, 40000 // (count * size // 16 + 40))
            timings = per_call_us(
                lambda: signer.sign_concat_many(bodies, strict=False),
                calls, args.repeats)
            symbols = count * size // scheme.scheme_id.symbol_bytes
            (small, small_iqr), (matrix, matrix_iqr) = \
                timings["small"], timings["matrix"]
            print(f"gf{f:<4} {count:>6} {size:>6} {symbols:>8} "
                  f"{small:>9.1f} ({small_iqr:>4.1f}) "
                  f"{matrix:>9.1f} ({matrix_iqr:>4.1f}) "
                  f"{matrix / small:>12.2f}")


if __name__ == "__main__":
    main()
