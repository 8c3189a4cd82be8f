"""Row-block budget of the batch kernel: the measurement behind KERNEL_BLOCK_SYMBOLS.

    PYTHONPATH=src python benchmarks/kernel_blocks.py [--repeats 25]

Times ``repro.gf.vectorized.batch_signature_matrix`` on the matrix
shapes the engine packs -- a 1 MiB log segment of 4 KiB page frames
(254 x 2064 symbols) and of delta frames (300 x 52), the bench's 64 KiB
pages under both fields, and GF(2^8) pages at the certainty bound --
once per candidate budget of symbols per row block.  The budgets
alternate call by call, so a co-tenant's burst on a shared host slows
them all alike.  Prints the median milliseconds per call; the committed
budget is the one that wins or ties on every shape, recorded in
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.gf import vectorized
from repro.sig import make_scheme

BUDGETS = (1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17)
#: (f, n, rows, width) per measured matrix.
SHAPES = ((16, 2, 254, 2064), (16, 2, 300, 52), (16, 2, 48, 32768),
          (8, 4, 48, 65536), (8, 4, 512, 255))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=25)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    committed = vectorized.KERNEL_BLOCK_SYMBOLS
    print(f"{'field':<6} {'rows x width':>14}"
          + "".join(f"{budget:>9}" for budget in BUDGETS) + "   (ms)")
    try:
        for f, n, rows, width in SHAPES:
            scheme = make_scheme(f=f, n=n)
            field = scheme.field
            matrix = rng.integers(0, field.size, size=(rows, width)).astype(
                vectorized.symbol_dtype(field))
            samples: dict[int, list[float]] = {budget: [] for budget in BUDGETS}
            for _ in range(args.repeats):
                for budget in BUDGETS:
                    vectorized.KERNEL_BLOCK_SYMBOLS = budget
                    start = time.perf_counter()
                    vectorized.batch_signature_matrix(field, matrix,
                                                      scheme.base.betas)
                    samples[budget].append(time.perf_counter() - start)
            print(f"gf{f:<4} {f'{rows} x {width}':>14}"
                  + "".join(f"{statistics.median(samples[budget]) * 1e3:>9.3f}"
                            for budget in BUDGETS))
    finally:
        vectorized.KERNEL_BLOCK_SYMBOLS = committed


if __name__ == "__main__":
    main()
