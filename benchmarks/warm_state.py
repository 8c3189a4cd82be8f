"""Warm signature state: the per-call cost of its stages on one volume.

    PYTHONPATH=src python benchmarks/warm_state.py [--repeats 15]

Certified recovery of a durable store loads a checkpoint, folds the
log tail written after it into the warm map, tree and locator, and
builds trees and group-testing locators over signature maps.  This
script times those stages on a 256-page volume (4 KiB pages, the
paper's GF(2^16), n = 2 scheme, fanout 16, a d = 4 locator design):

* ``checkpoint encode`` / ``checkpoint decode`` -- one volume's map and
  tree through :mod:`repro.store.checkpoint` (seal included);
* ``tail fold 100 deltas`` -- one ``Replica.signature_map()`` call
  folding 100 journaled 64-byte writes into the warm map, tree and
  locator (Proposition 3, then Proposition 5 per tree level);
* ``tree build`` -- ``SignatureTree.from_map``;
* ``locator build`` -- ``LocatorMap.from_map``.

It uses only entry points older than the array representation of the
warm state, so the same file runs on a checkout from before it for a
before/after comparison.  Each stage's result is checked against a
rebuild before anything is timed.  Prints the median and interquartile
range of the per-call wall time in microseconds; the results are
recorded in docs/PERFORMANCE.md ("Warm state as component arrays").
"""

from __future__ import annotations

import argparse
import random
import statistics
import time

from repro.sig import (LocateDesign, LocatorMap, SignatureTree,
                       get_batch_signer, make_scheme)
from repro.store import checkpoint as ckpt
from repro.sync import Replica

PAGES = 256
PAGE_BYTES = 4096
FANOUT = 16
TAIL_DELTAS = 100
DELTA_BYTES = 64


def per_call_us(run, calls: int, repeats: int) -> tuple[float, float]:
    """Median and IQR of the per-call time of ``run()``, in microseconds.

    ``run`` returns the seconds to count (so a stage can keep its own
    set-up out of the measurement).
    """
    samples = []
    for _ in range(repeats):
        total = 0.0
        for _ in range(calls):
            total += run()
        samples.append(total / calls * 1e6)
    quartiles = statistics.quantiles(samples, n=4) if len(samples) > 1 \
        else [samples[0]] * 3
    return statistics.median(samples), quartiles[2] - quartiles[0]


def timed(fn):
    """Wrap ``fn`` so a call returns its wall time in seconds."""
    def run() -> float:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    return run


class Volume:
    """The benchmark volume: its image, warm state and a checkpoint."""

    def __init__(self, seed: int = 0):
        self.scheme = make_scheme()
        self.rng = random.Random(seed)
        self.image = self.rng.randbytes(PAGES * PAGE_BYTES)
        self.page_symbols = PAGE_BYTES // self.scheme.scheme_id.symbol_bytes
        self.map = get_batch_signer(self.scheme).sign_map(
            self.image, self.page_symbols)
        self.tree = SignatureTree.from_map(self.map, FANOUT)
        self.design = LocateDesign.build(PAGES, 4, 0)
        self.checkpoint = ckpt.Checkpoint(len(self.image), 1, {
            "volume": ckpt.VolumeCheckpoint(PAGE_BYTES, len(self.image),
                                            self.map, self.tree)})
        self.encoded = ckpt.encode(self.scheme, self.checkpoint)

    def warm_replica(self) -> Replica:
        """A replica seeded from a decoded checkpoint, with a warm
        locator, and a 100-write journal pending."""
        state = ckpt.decode(self.encoded, self.scheme).volumes["volume"]
        replica = Replica.from_warm("bench", self.scheme, self.image,
                                    PAGE_BYTES, state.map, state.tree)
        replica.locator_map(design=self.design)
        for _ in range(TAIL_DELTAS):
            at = self.rng.randrange(0, len(self.image) - DELTA_BYTES, 2)
            replica.write_at(at, self.rng.randbytes(DELTA_BYTES))
        return replica

    def fold(self) -> float:
        """One timed tail fold (journal set-up untimed)."""
        replica = self.warm_replica()
        start = time.perf_counter()
        replica.signature_map()
        return time.perf_counter() - start

    def check(self) -> None:
        """Every stage reproduces a from-scratch rebuild."""
        decoded = ckpt.decode(self.encoded, self.scheme)
        if decoded is None or ckpt.encode(self.scheme, decoded) \
                != self.encoded:
            raise SystemExit("checkpoint did not round-trip")
        replica = self.warm_replica()
        folded = replica.signature_map()
        fresh = get_batch_signer(self.scheme).sign_map(
            bytes(replica.data), self.page_symbols)
        if folded != fresh:
            raise SystemExit("tail fold diverged from a rebuild")
        fresh_tree = SignatureTree.from_map(fresh, FANOUT)
        if replica.signature_tree(FANOUT).diff(fresh_tree).changed_leaves:
            raise SystemExit("folded tree diverged from a rebuild")
        if replica.locator_map(design=self.design) \
                != LocatorMap.from_map(self.design, fresh):
            raise SystemExit("folded locator diverged from a rebuild")

    def cases(self) -> dict:
        """The timed stages, by name: ``(run, calls per sample)``."""
        return {
            "checkpoint encode": (timed(lambda: ckpt.encode(
                self.scheme, self.checkpoint)), 50),
            "checkpoint decode": (timed(lambda: ckpt.decode(
                self.encoded, self.scheme)), 50),
            f"tail fold {TAIL_DELTAS} deltas": (self.fold, 5),
            "tree build": (timed(lambda: SignatureTree.from_map(
                self.map, FANOUT)), 50),
            "locator build": (timed(lambda: LocatorMap.from_map(
                self.design, self.map)), 50),
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    volume = Volume()
    volume.check()
    print(f"{PAGES} pages of {PAGE_BYTES} B, fanout {FANOUT}, "
          f"{volume.design.group_count} locator groups, checkpoint "
          f"{len(volume.encoded)} B")
    print(f"{'stage':<24} {'us/call':>10} {'(IQR)':>8}")
    for name, (run, calls) in volume.cases().items():
        median, iqr = per_call_us(run, calls, args.repeats)
        print(f"{name:<24} {median:>10.1f} ({iqr:>6.1f})")


if __name__ == "__main__":
    main()
