"""Signing-throughput benchmark harness: ``python -m repro bench --json``.

Times the signing paths over identical 64 KiB random pages and emits
one stable JSON document (``BENCH_pr4.json`` at the repo root is a
committed run):

* ``scalar``  -- :meth:`~repro.sig.scheme.AlgebraicSignatureScheme.sign_scalar`,
  the paper's symbol-at-a-time loop (Section 5.1's pseudo-code).
* ``vector``  -- ``scheme.sign`` per page: the single-page numpy kernel.
* ``batch``   -- :class:`~repro.sig.engine.BatchSigner.sign_many`: all
  pages in 2-D kernel passes through the shared power-ladder cache.
* ``batch_workers`` -- the same engine signing per-worker row spans
  across the shared-memory process pool.
* ``map_rescan`` -- ``BatchSigner.sign_map`` over the whole image: the
  full batched signature-map rebuild an update cycle pays without the
  incremental plane.
* ``incremental`` -- the O(|delta|) cycle: a journal holding
  ``dirty_fraction`` of the image's bytes is folded into a warm
  :class:`~repro.sig.incremental.IncrementalSignatureMap`
  (Proposition 3 batched); the resulting map is verified byte-identical
  to the ``map_rescan`` rebuild before either is timed.

The ``store`` block times certified crash recovery of a durable
:class:`~repro.store.PageStore` whose log holds a churned image, a
sealed checkpoint, and a sparse post-checkpoint delta tail:

* ``full_rescan`` -- recovery ignoring the checkpoint: every seal
  verified, every frame replayed cold, maps re-signed from the bytes.
* ``checkpoint_fold`` -- load the sealed warm state, verify every seal,
  fold only the post-checkpoint frames (Proposition 3).
* ``checkpoint_fold_tail`` -- the production path: trust the sealed
  checkpoint for the prefix it covers, verify only the tail's seals.

All three recoveries are verified to materialize byte-identical images
and signature maps equal to a from-scratch
:meth:`~repro.sig.compound.SignatureMap.compute` before being timed.

The ``obs`` block compares the observability plane's bounded
(log-bucketed, mergeable) histogram backend against the exact one on a
deterministic latency stream: per-quantile relative error must stay
under 5% with O(buckets) memory, or the harness fails.

The ``serve`` block runs the high-concurrency serving plane's
saturation sweep (:mod:`repro.serve`): thousands of open-loop sessions
step offered load past the plane's capacity while LH* buckets split
under the live traffic.  The harness fails unless goodput past
saturation holds at >= 80% of its peak (admission control worked) and
the final bucket images signature-verify against the execution oracle
with no acked operation lost (the live splits were safe).  The block's
numbers are simulated time, so they are deterministic and live in the
document's stable region.

The ``copies`` block (schema v6) is the zero-copy plane's accounting
sweep: the sign -> delta-fold -> seal pipeline is run twice per field,
once with the **legacy shapes** (per-page ``int64`` widenings, per-row
matrix packing, ``b"".join`` body and delta materializations --
reimplemented inline with every materialization charged explicitly)
and once through the **arena path** (the engine's narrow lanes, charged
by the live :data:`~repro.sig.arena.LEDGER`).  Both runs are verified
byte-identical before their ledgers are compared, and the harness
fails unless the arena path moves at least
:data:`COPIES_MIN_REDUCTION` times fewer bytes per payload byte.
Copies-per-byte is deterministic (it counts bytes, not seconds), so
the whole block lives in the stable region CI compares across runs.

The ``cores`` block sweeps the batch engine's worker axis: 1/2/4/N
workers (N = ``os.cpu_count()``); one worker signs in-process, more
sign through the shared-memory **process pool** (``BatchSigner(
workers=K)`` -- workers map the page arena by name and sign row blocks
with zero page serialization).  Every swept configuration is
exactness-verified before timing.  On hosts with at
least :data:`CORES_TARGET_MIN_CPUS` cores the harness additionally
enforces the process backend at >= :data:`CORES_MIN_PROCESS_SPEEDUP` x
the single-worker throughput; below that the speedup is recorded but
not enforced (``target_enforced`` says which happened).

The ``recovery`` block (schema v7) sweeps the parallel certification
scan (:mod:`repro.store.recovery`): a multi-segment log carrying
mid-log bit rot and a torn tail is scanned with 1/2/4/N workers, each
sweep's partition (certified frames, corrupt regions, torn-tail start)
verified identical to the sequential scan before it is timed.  On
hosts with at least :data:`RECOVERY_TARGET_MIN_CPUS` cores the best
parallel scan must beat the sequential one by
:data:`RECOVERY_MIN_SPEEDUP` x; below that the ratio is recorded but
not enforced (``target_enforced``).

The ``group_commit`` block (schema v7) times
:meth:`~repro.store.SegmentedLog.append_encoded` bursts under
``flush="frame"`` (a write + flush syscall pair per frame) and
``flush="group"`` (frames coalesce into one write + one flush per
group).  Both modes are first verified to lay down byte-identical
segment files at identical offsets; the grouped path must then reach
:data:`GROUP_MIN_SPEEDUP` x the per-frame throughput at a burst of at
least :data:`GROUP_MIN_BURST` frames -- enforced on every host, since
coalescing syscalls needs no extra cores.

The ``locate`` block (schema v8) is the corruption-localization cost
sweep (:mod:`repro.sig.locate`): volumes growing to ~1M pages carry
``d`` scattered rot events, and three audit paths must name the
damaged pages -- a full per-page map rescan, a signature-tree walk,
and the d-cover-free group-testing locator decode.  Exactness is
enforced before any timing: every trial with damage <= d must locate
*exactly* the injected set, and an over-budget trial must surface
``OVERFLOW`` rather than a wrong answer.  Signature state held and
signature bytes exchanged during an anti-entropy pass are recorded per
path (deterministic -- bytes, not seconds), and the harness fails
unless the locator moves at least :data:`LOCATE_MIN_REDUCTION` x fewer
signature bytes than the per-page map at d=4 from
:data:`LOCATE_MIN_REDUCTION_PAGES` pages up.

Both production-strength schemes are measured: GF(2^16) n=2 and
GF(2^8) n=4 (equal 4-byte signatures).  Every path's output is checked
byte-identical against ``scheme.sign`` before its timing is reported --
a wrong-answer fast path fails the harness rather than winning it.

The document's ``config`` block is fully deterministic (no timings, no
hostnames); CI runs the harness twice and asserts the blocks match.
Timings live under ``results`` and naturally vary run to run.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from pathlib import Path

import numpy as np

from .errors import ReproError
from .gf.vectorized import batch_signature_matrix, delta_signature_matrix
from .sig import (LEDGER, BatchSigner, IncrementalSignatureMap,
                  JournalEntry, SignatureMap, SignatureTree, make_scheme,
                  resolve_workers)
from .sig.engine import get_batch_signer
from .sig.locate import LOCATED, LocateDesign, LocatorMap, decode
from .sig.signature import Signature
from .sim.network import SimNetwork
from .store import PageStore
from .sync import Replica, sync_by_locator, sync_by_map, sync_by_tree

#: Document schema tag; bump on any shape change.
SCHEMA = "repro.bench/batch-engine/v9"

PAGE_BYTES = 64 * 1024
SEED = 20040301          # ICDE 2004 -- the paper's venue
WORKERS = 4
#: Fraction of the image's bytes journaled for the incremental path
#: (the sparse-update regime the O(|delta|) plane is built for).
DIRTY_FRACTION = 0.01
#: Journaled write region size in bytes (symbol-aligned for both fields).
DIRTY_REGION_BYTES = 64

#: (field width f, components n): equal 4-byte signature strength.
FIELDS = ((16, 2), (8, 4))

#: Durable-store recovery bench: volume geometry and churn shape.
STORE_PAGE_BYTES = 32 * 1024
STORE_VOLUME = "bench"
#: Pre-checkpoint full-page rewrite rounds (log length ~= rounds x image).
STORE_CHURN_ROUNDS = 1
#: Post-checkpoint journaled write region size in bytes.
STORE_DIRTY_REGION_BYTES = 512
STORE_PATHS = ("full_rescan", "checkpoint_fold", "checkpoint_fold_tail")

#: Observability histogram bench: samples fed to both backends and the
#: quantiles compared; the bucketed backend must land within this
#: relative error of the exact one.
OBS_QUANTILES = (50.0, 90.0, 99.0, 99.9)
OBS_MAX_RELATIVE_ERROR = 0.05

#: Serving-plane saturation sweep: offered-load steps (ops/s) and the
#: open-loop population.  The full sweep crosses the plane's ~10k
#: ops/s capacity by nearly 3x; the quick sweep jumps straight from
#: below to above saturation.
SERVE_RATES = (2000.0, 4000.0, 7000.0, 10000.0, 14000.0, 20000.0,
               28000.0)
SERVE_RATES_QUICK = (3000.0, 9000.0, 18000.0)
SERVE_SESSIONS = 2000
SERVE_SESSIONS_QUICK = 1024
SERVE_OPS_PER_STEP = 4000
SERVE_OPS_PER_STEP_QUICK = 2048
#: Goodput past saturation must hold at this fraction of peak.
SERVE_MIN_POST_SATURATION = 0.8

#: Copies-per-byte sweep: the arena path must move at least this many
#: times fewer bytes per payload byte than the legacy shapes.
COPIES_MIN_REDUCTION = 3.0
#: Delta regions and sealed bodies folded into the copies pipeline.
COPIES_REGIONS = 32
COPIES_BODY_HEADER = b"frame-header-17b!"

#: Cores sweep: the process backend must reach this multiple of the
#: single-worker batch throughput -- enforced only on hosts with at
#: least ``CORES_TARGET_MIN_CPUS`` cores (parallel signing cannot be
#: demonstrated on a single-core container; the ratio is still
#: recorded there).
CORES_MIN_PROCESS_SPEEDUP = 2.0
CORES_TARGET_MIN_CPUS = 4

#: Parallel-recovery sweep (schema v7): a multi-segment faulted log is
#: certification-scanned with 1/2/4/N workers; every worker count must
#: produce a byte-identical partition before it is timed.  The best
#: parallel scan must beat the sequential one by this factor -- like
#: the cores sweep, enforced only on hosts with enough cores.
RECOVERY_SEGMENT_BYTES = 256 * 1024
RECOVERY_FRAME_BYTES = 16 * 1024
RECOVERY_FRAMES = 512
RECOVERY_FRAMES_QUICK = 128
RECOVERY_MIN_SPEEDUP = 2.0
RECOVERY_TARGET_MIN_CPUS = 4

#: Group-commit sweep (schema v7): bursts of pre-sealed frames are
#: appended under ``flush="frame"`` (write + flush per frame) and
#: ``flush="group"`` (one write + one flush per group); both modes are
#: verified to produce byte-identical logs and offsets first.  At any
#: burst of at least ``GROUP_MIN_BURST`` frames the grouped path must
#: run at this multiple of the per-frame path -- enforced everywhere
#: (coalescing syscalls needs no extra cores).
GROUP_FRAME_BYTES = 256
GROUP_FRAMES = 512
GROUP_FRAMES_QUICK = 256
GROUP_BURSTS = (1, 8, 32, 128)
GROUP_MIN_SPEEDUP = 2.0
GROUP_MIN_BURST = 32

#: Localization-cost sweep (schema v8): small pages so the top volume
#: reaches ~1M pages in a 16 MiB image; ``d`` scattered rot events per
#: trial; per-page map / tree walk / locator decode must all name the
#: damaged pages before anything is timed.  The locator's reduction in
#: signature bytes (state held and exchanged in anti-entropy) vs the
#: per-page map is enforced from LOCATE_MIN_REDUCTION_PAGES up.
LOCATE_PAGE_BYTES = 16
LOCATE_D = 4
LOCATE_FANOUT = 16
LOCATE_TRIALS = 3
LOCATE_VOLUMES = (4096, 65536, 1 << 20)
LOCATE_VOLUMES_QUICK = (4096, 65536)
LOCATE_MIN_REDUCTION = 4.0
LOCATE_MIN_REDUCTION_PAGES = 65536


class BenchError(ReproError):
    """A timed path produced a wrong signature."""


def _make_pages(count: int, seed: int) -> list[bytes]:
    """Deterministic random 64 KiB pages."""
    rng = np.random.default_rng(seed)
    blob = rng.integers(0, 256, size=count * PAGE_BYTES, dtype=np.uint8)
    return [blob[i * PAGE_BYTES:(i + 1) * PAGE_BYTES].tobytes()
            for i in range(count)]


def _best_seconds(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` (minimum filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _make_dirty_journal(buffer: bytes, seed: int) -> tuple[bytes, list[JournalEntry]]:
    """Journal ``DIRTY_FRACTION`` of ``buffer`` as scattered region writes.

    Returns the mutated buffer and the (offset, before, after) entries,
    deterministic in ``seed``.  Regions are disjoint, symbol-aligned and
    spread over the whole image, so the fold exercises page splitting
    and per-page grouping rather than one contiguous run.
    """
    rng = np.random.default_rng(seed + 1)
    slots = len(buffer) // DIRTY_REGION_BYTES
    count = max(1, int(len(buffer) * DIRTY_FRACTION) // DIRTY_REGION_BYTES)
    offsets = rng.choice(slots, size=min(count, slots), replace=False)
    mutated = bytearray(buffer)
    entries = []
    for slot in sorted(int(o) for o in offsets):
        offset = slot * DIRTY_REGION_BYTES
        before = bytes(mutated[offset:offset + DIRTY_REGION_BYTES])
        after = rng.integers(0, 256, size=DIRTY_REGION_BYTES,
                             dtype=np.uint8).tobytes()
        mutated[offset:offset + DIRTY_REGION_BYTES] = after
        entries.append(JournalEntry(offset, before, after))
    return bytes(mutated), entries


def _entry(path: str, pages: int, seconds: float) -> dict:
    """One result row: throughput in pages/s and MiB/s."""
    seconds = max(seconds, 1e-9)
    return {
        "path": path,
        "pages": pages,
        "seconds": round(seconds, 6),
        "pages_per_s": round(pages / seconds, 3),
        "mib_per_s": round(pages * PAGE_BYTES / (1 << 20) / seconds, 3),
    }


def _bench_field(f: int, n: int, pages: list[bytes], scalar_pages: int,
                 repeats: int, workers: int) -> dict:
    """Time every path for one field; verify each against the reference."""
    scheme = make_scheme(f=f, n=n)
    reference = [scheme.sign(page, strict=False) for page in pages]

    single = BatchSigner(scheme)
    pooled = BatchSigner(scheme, workers=workers)

    scalar_subset = pages[:scalar_pages]
    checks = {
        "scalar": lambda: [scheme.sign_scalar(p, strict=False)
                           for p in scalar_subset],
        "vector": lambda: [scheme.sign(p, strict=False) for p in pages],
        "batch": lambda: single.sign_many(pages, strict=False),
        "batch_workers": lambda: pooled.sign_many(pages, strict=False),
    }
    for path, fn in checks.items():
        produced = fn()
        expected = reference[:len(produced)]
        if produced != expected:
            raise BenchError(f"{path} path diverged from scheme.sign "
                             f"on GF(2^{f})")

    # Incremental maintenance cycle: fold a sparse journal into a warm
    # map vs rebuilding the whole signature map from the image.
    buffer = b"".join(pages)
    symbol_bytes = scheme.scheme_id.symbol_bytes
    page_symbols = min(PAGE_BYTES // symbol_bytes, scheme.max_page_symbols)
    mutated, entries = _make_dirty_journal(buffer, SEED)
    base_map = SignatureMap.compute(scheme, buffer, page_symbols)

    def rescan() -> SignatureMap:
        return single.sign_map(mutated, page_symbols)

    def fold() -> SignatureMap:
        warm = IncrementalSignatureMap(SignatureMap(
            scheme, page_symbols, list(base_map.signatures),
            base_map.total_symbols,
        ))
        journal = warm.new_journal()
        journal.entries.extend(entries)
        warm.apply_journal(journal, total_bytes=len(mutated))
        return warm.map

    rebuilt, folded = rescan(), fold()
    if (folded.signatures != rebuilt.signatures
            or folded.total_symbols != rebuilt.total_symbols):
        raise BenchError(f"incremental fold diverged from the full map "
                         f"rescan on GF(2^{f})")

    results = [
        _entry("scalar", len(scalar_subset),
               _best_seconds(checks["scalar"], repeats)),
        _entry("vector", len(pages), _best_seconds(checks["vector"], repeats)),
        _entry("batch", len(pages), _best_seconds(checks["batch"], repeats)),
        _entry("batch_workers", len(pages),
               _best_seconds(checks["batch_workers"], repeats)),
        _entry("map_rescan", len(pages), _best_seconds(rescan, repeats)),
        _entry("incremental", len(pages), _best_seconds(fold, repeats)),
    ]
    rates = {row["path"]: row["pages_per_s"] for row in results}
    return {
        "field": f"gf{f}",
        "f": f,
        "n": n,
        "map_page_symbols": page_symbols,
        "dirty_bytes": sum(len(e.after) for e in entries),
        "results": results,
        "speedups": {
            "batch_vs_scalar": round(rates["batch"] / rates["scalar"], 2),
            "batch_vs_vector": round(rates["batch"] / rates["vector"], 2),
            "workers_vs_batch": round(rates["batch_workers"] / rates["batch"],
                                      2),
            "incremental_vs_batch": round(
                rates["incremental"] / rates["map_rescan"], 2),
        },
    }


def _build_store(directory: Path, page_count: int, seed: int) -> bytes:
    """Build a churned durable store; returns the final image bytes.

    Shape mirrors a long-lived volume: initial image, two rounds of
    full-page rewrites, a sealed checkpoint, then a sparse tail of
    ``DIRTY_FRACTION`` journaled delta frames -- the regime where
    checkpoint-plus-fold recovery should beat a full log rescan.
    """
    rng = np.random.default_rng(seed + 2)
    store = PageStore(make_scheme(), directory)
    image = bytearray(rng.integers(
        0, 256, size=page_count * STORE_PAGE_BYTES, dtype=np.uint8
    ).tobytes())
    store.write_image(STORE_VOLUME, bytes(image), STORE_PAGE_BYTES)
    for _ in range(STORE_CHURN_ROUNDS):
        for index in rng.permutation(page_count):
            index = int(index)
            page = rng.integers(0, 256, size=STORE_PAGE_BYTES,
                                dtype=np.uint8).tobytes()
            store.write_page(STORE_VOLUME, index, page)
            start = index * STORE_PAGE_BYTES
            image[start:start + STORE_PAGE_BYTES] = page
    store.checkpoint()
    region = STORE_DIRTY_REGION_BYTES
    slots = len(image) // region
    count = max(1, int(len(image) * DIRTY_FRACTION) // region)
    chosen = rng.choice(slots, size=min(count, slots), replace=False)
    for slot in sorted(int(o) for o in chosen):
        offset = slot * region
        before = bytes(image[offset:offset + region])
        after = rng.integers(0, 256, size=region, dtype=np.uint8).tobytes()
        image[offset:offset + region] = after
        store.record_extent(STORE_VOLUME, offset, before, after, len(image))
    store.close()
    return bytes(image)


#: Recovery variants: kwargs for :meth:`PageStore.recover` per path.
_STORE_VARIANTS = {
    "full_rescan": {"use_checkpoint": False},
    "checkpoint_fold": {"verify": "full"},
    "checkpoint_fold_tail": {"verify": "tail"},
}


def _bench_store(page_count: int, repeats: int) -> dict:
    """Time the three recovery paths; verify each against a rescan."""
    scheme = make_scheme()
    symbol_bytes = scheme.scheme_id.symbol_bytes
    page_symbols = STORE_PAGE_BYTES // symbol_bytes
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "store"
        image = _build_store(directory, page_count, SEED)
        expected = SignatureMap.compute(scheme, image, page_symbols)
        rows = []
        for path, kwargs in _STORE_VARIANTS.items():
            store, report = PageStore.recover(scheme, directory, **kwargs)
            try:
                recovered = store.image(STORE_VOLUME)
                recovered_map = store.signature_map(STORE_VOLUME)
            finally:
                store.close()
            if recovered != image:
                raise BenchError(f"{path} recovery diverged from the "
                                 f"durable image")
            if (recovered_map.signatures != expected.signatures
                    or recovered_map.total_symbols != expected.total_symbols):
                raise BenchError(f"{path} recovered map diverged from a "
                                 f"from-scratch compute")
            if not report.clean:
                raise BenchError(f"{path} recovery reported damage on a "
                                 f"clean log")
            if report.used_checkpoint != kwargs.get("use_checkpoint", True):
                raise BenchError(f"{path} checkpoint use did not match "
                                 f"the requested mode")

            def timed(kwargs=kwargs) -> None:
                opened, _ = PageStore.recover(scheme, directory, **kwargs)
                opened.close()

            seconds = max(_best_seconds(timed, repeats), 1e-9)
            rows.append({
                "path": path,
                "seconds": round(seconds, 6),
                "used_checkpoint": report.used_checkpoint,
                "frames_valid": report.frames_valid,
                "frames_folded": report.frames_folded,
                "log_mib_per_s": round(
                    report.log_bytes / (1 << 20) / seconds, 3),
            })
        log_bytes = report.log_bytes
    times = {row["path"]: row["seconds"] for row in rows}
    return {
        "log_bytes": log_bytes,
        "frames": rows[0]["frames_valid"],
        "results": rows,
        "speedups": {
            "fold_vs_rescan": round(
                times["full_rescan"] / times["checkpoint_fold"], 2),
            "tail_vs_rescan": round(
                times["full_rescan"] / times["checkpoint_fold_tail"], 2),
        },
    }


def _bench_obs(samples: int, repeats: int) -> dict:
    """Compare the bucketed histogram backend against the exact one.

    Both backends observe the same deterministic lognormal latency
    stream; the block reports per-quantile relative error (enforced
    under :data:`OBS_MAX_RELATIVE_ERROR` -- a drifting sketch fails the
    harness rather than shipping wrong percentiles), the bucket count
    (the O(buckets) memory the mergeable backend holds versus the exact
    backend's O(samples)), and observation throughput for both.
    """
    from .obs.registry import BucketedHistogram, Histogram

    rng = np.random.default_rng(SEED + 3)
    values = np.exp(rng.normal(loc=-7.0, scale=1.2, size=samples)).tolist()
    exact = Histogram("obs.bench.exact", ())
    bucketed = BucketedHistogram("obs.bench.bucketed", ())
    for value in values:
        exact.observe(value)
        bucketed.observe(value)
    quantiles = []
    for p in OBS_QUANTILES:
        reference = exact.percentile(p)
        estimate = bucketed.percentile(p)
        error = abs(estimate - reference) / reference
        if error > OBS_MAX_RELATIVE_ERROR:
            raise BenchError(
                f"bucketed p{p:g} drifted {error:.1%} from exact "
                f"(bound {OBS_MAX_RELATIVE_ERROR:.0%})")
        quantiles.append({
            "quantile": p,
            "relative_error": round(error, 5),
        })

    def observe_exact() -> None:
        histogram = Histogram("obs.bench.exact", ())
        for value in values:
            histogram.observe(value)

    def observe_bucketed() -> None:
        histogram = BucketedHistogram("obs.bench.bucketed", ())
        for value in values:
            histogram.observe(value)

    exact_seconds = max(_best_seconds(observe_exact, repeats), 1e-9)
    bucketed_seconds = max(_best_seconds(observe_bucketed, repeats), 1e-9)
    return {
        "samples": samples,
        "bucket_count": len(bucketed.buckets()),
        "max_relative_error": OBS_MAX_RELATIVE_ERROR,
        "quantiles": quantiles,
        "results": [
            {"path": "exact", "seconds": round(exact_seconds, 6),
             "samples_per_s": round(samples / exact_seconds, 3)},
            {"path": "bucketed", "seconds": round(bucketed_seconds, 6),
             "samples_per_s": round(samples / bucketed_seconds, 3)},
        ],
    }


def _bench_serve(quick: bool) -> dict:
    """Run the serving plane's saturation sweep and enforce its story.

    Raises :class:`BenchError` if goodput collapses past saturation
    (admission control failed), if any final bucket image fails the
    algebraic-signature verification against the execution oracle, or
    if any acknowledged operation was lost across the live splits.
    """
    from .obs import MetricsRegistry, use_registry
    from .serve import LoadGenerator, LoadMix, ServingPlane

    rates = list(SERVE_RATES_QUICK if quick else SERVE_RATES)
    sessions = SERVE_SESSIONS_QUICK if quick else SERVE_SESSIONS
    ops_per_step = SERVE_OPS_PER_STEP_QUICK if quick \
        else SERVE_OPS_PER_STEP
    with use_registry(MetricsRegistry()):
        plane = ServingPlane(buckets=4, family="lh", seed=SEED)
        generator = LoadGenerator(
            plane, LoadMix(sessions=sessions, n_items=1400))
        report = generator.sweep(rates, ops_per_step)
    summary = report["summary"]
    verify = report["verify"]
    if not verify["ok"]:
        raise BenchError(
            f"serving plane failed verification: "
            f"{len(verify['mismatched'])} bucket images mismatched, "
            f"{len(verify['acked_lost'])} acked operations lost")
    if summary["post_saturation_ratio"] < SERVE_MIN_POST_SATURATION:
        raise BenchError(
            f"goodput collapsed past saturation: floor is "
            f"{summary['post_saturation_ratio']:.0%} of peak "
            f"(bound {SERVE_MIN_POST_SATURATION:.0%})")
    return {
        "sessions": sessions,
        "rates_ops_per_s": rates,
        "ops_per_step": ops_per_step,
        "family": report["family"],
        "steps": report["steps"],
        "summary": summary,
        "verify": {
            "ok": verify["ok"],
            "buckets": verify["buckets"],
            "buckets_verified": verify["buckets_verified"],
            "placement_ok": verify["placement_ok"],
            "records": verify["records"],
            "acked_keys": verify["acked_keys"],
            "acked_surviving": verify["acked_surviving"],
            "acked_lost": len(verify["acked_lost"]),
            "splits": verify["splits"],
        },
    }


def _legacy_batch_sign(scheme, pages: list[bytes]) -> list[Signature]:
    """The pre-arena batch pipeline, every materialization charged.

    This is the shape ``BatchSigner.sign_many`` had before the arena:
    one ``int64`` widening per page (8 bytes moved per payload byte
    under GF(2^8), 4 under GF(2^16)), a twisted-map gather where the
    scheme has one, and a per-row Python loop packing the padded page
    matrix.  The charges are explicit because the legacy shapes no
    longer exist in the engine to instrument.
    """
    rows = []
    for page in pages:
        symbols = scheme.to_symbols(page)
        LEDGER.count(symbols.nbytes)          # int64 widening
        mapped = scheme.map_symbols(symbols)
        if mapped is not symbols:
            LEDGER.count(mapped.nbytes)       # twisted phi gather
        rows.append(mapped)
    if not rows:
        return []
    width = max(row.size for row in rows)
    matrix = np.zeros((len(rows), width), dtype=np.int64)
    for index, row in enumerate(rows):        # the per-row pack loop
        matrix[index, :row.size] = row
    LEDGER.count(matrix.nbytes)
    components = batch_signature_matrix(scheme.field, matrix,
                                        scheme.base.betas)
    return [Signature(tuple(int(c) for c in comp), scheme.scheme_id)
            for comp in components]


def _legacy_delta_fold(scheme, regions) -> list[Signature]:
    """The pre-arena delta pipeline: joined sides, widened, packed."""
    positions = [position for position, _b, _a in regions]
    joined_before = b"".join(b for _p, b, _a in regions)
    LEDGER.count(len(joined_before))
    joined_after = b"".join(a for _p, _b, a in regions)
    LEDGER.count(len(joined_after))
    before_symbols = scheme.signable_symbols(joined_before)
    LEDGER.count(before_symbols.nbytes)
    after_symbols = scheme.signable_symbols(joined_after)
    LEDGER.count(after_symbols.nbytes)
    if not scheme.is_linear:
        # signable_symbols mapped each side: one more gather per side.
        LEDGER.count(before_symbols.nbytes + after_symbols.nbytes)
    xor = before_symbols ^ after_symbols
    LEDGER.count(xor.nbytes)
    matrix = xor.reshape(len(regions), -1)    # uniform regions
    components = delta_signature_matrix(
        scheme.field, matrix, np.asarray(positions, dtype=np.int64),
        scheme.base.betas)
    return [Signature(tuple(int(c) for c in comp), scheme.scheme_id)
            for comp in components]


def _legacy_seal_many(scheme, bodies) -> list[Signature]:
    """The pre-arena sealing shape: join each body, sign owned bytes."""
    joined = []
    for parts in bodies:
        body = b"".join(parts)
        LEDGER.count(len(body))
        joined.append(body)
    return _legacy_batch_sign(scheme, joined)


def _bench_copies(f: int, n: int, pages: list[bytes]) -> dict:
    """Copies-per-byte of the sign -> fold -> seal pipeline, both modes.

    Both modes are verified byte-identical before their ledgers are
    compared; the reduction is enforced at :data:`COPIES_MIN_REDUCTION`.
    """
    scheme = make_scheme(f=f, n=n)
    signer = BatchSigner(scheme)
    symbol_bytes = scheme.scheme_id.symbol_bytes
    rng = np.random.default_rng(SEED + 4)
    region_bytes = DIRTY_REGION_BYTES
    region_symbols = region_bytes // symbol_bytes
    # Positions stay inside the Proposition-1 certainty bound: a shifted
    # region must fit within one signable page.
    position_slots = scheme.max_page_symbols - region_symbols + 1
    regions = []
    for index in range(COPIES_REGIONS):
        before = rng.integers(0, 256, size=region_bytes,
                              dtype=np.uint8).tobytes()
        after = rng.integers(0, 256, size=region_bytes,
                             dtype=np.uint8).tobytes()
        regions.append(((index * region_symbols) % position_slots,
                        before, after))
    bodies = [[COPIES_BODY_HEADER, page] for page in pages]
    payload = (sum(len(page) for page in pages)
               + 2 * COPIES_REGIONS * region_bytes
               + sum(len(part) for parts in bodies for part in parts))

    with LEDGER.counting() as ledger:
        legacy = (_legacy_batch_sign(scheme, pages),
                  _legacy_delta_fold(scheme, regions),
                  _legacy_seal_many(scheme, bodies))
        legacy_copied, legacy_events = ledger.bytes_copied, ledger.events
    with LEDGER.counting() as ledger:
        arena = (signer.sign_many(pages, strict=False),
                 signer.delta_signature_many(regions),
                 signer.sign_concat_many(bodies, strict=False))
        arena_copied, arena_events = ledger.bytes_copied, ledger.events
    if legacy != arena:
        raise BenchError(f"legacy and arena pipelines diverged on GF(2^{f})")

    legacy_cpb = legacy_copied / payload
    arena_cpb = arena_copied / payload
    reduction = legacy_cpb / max(arena_cpb, 1e-9)
    if reduction < COPIES_MIN_REDUCTION:
        raise BenchError(
            f"arena path reduced copies-per-byte only {reduction:.2f}x on "
            f"GF(2^{f}) (bound {COPIES_MIN_REDUCTION:g}x)")
    return {
        "field": f"gf{f}",
        "payload_bytes": payload,
        "legacy": {
            "bytes_copied": legacy_copied,
            "events": legacy_events,
            "copies_per_byte": round(legacy_cpb, 4),
        },
        "arena": {
            "bytes_copied": arena_copied,
            "events": arena_events,
            "copies_per_byte": round(arena_cpb, 4),
        },
        "reduction": round(reduction, 2),
    }


def _bench_cores(pages: list[bytes], repeats: int) -> dict:
    """Worker-scaling sweep over the process pool, exactness first."""
    scheme = make_scheme()
    cpu_count = os.cpu_count() or 1
    counts = sorted({1, 2, 4, cpu_count})
    reference = BatchSigner(scheme).sign_many(pages, strict=False)
    rows = []
    rates: dict[int, float] = {}
    for workers in counts:
        signer = BatchSigner(scheme, workers=workers)

        def sweep(signer=signer):
            return signer.sign_many(pages, strict=False)

        if sweep() != reference:
            raise BenchError(
                f"{workers} workers diverged from scheme.sign")
        seconds = max(_best_seconds(sweep, repeats), 1e-9)
        rates[workers] = len(pages) / seconds
        rows.append({
            "workers": workers,
            "pages": len(pages),
            "seconds": round(seconds, 6),
            "pages_per_s": round(rates[workers], 3),
            "mib_per_s": round(
                len(pages) * PAGE_BYTES / (1 << 20) / seconds, 3),
        })
    process_speedup = max(rates.values()) / rates[1]
    enforced = cpu_count >= CORES_TARGET_MIN_CPUS
    if enforced and process_speedup < CORES_MIN_PROCESS_SPEEDUP:
        raise BenchError(
            f"process pool reached only {process_speedup:.2f}x the "
            f"single-worker throughput on {cpu_count} cores "
            f"(bound {CORES_MIN_PROCESS_SPEEDUP:g}x)")
    return {
        "cpu_count": cpu_count,
        "workers_swept": counts,
        "results": rows,
        "speedups": {
            "process_best_vs_single": round(process_speedup, 2),
        },
        "target_enforced": enforced,
        "min_process_speedup": CORES_MIN_PROCESS_SPEEDUP,
    }


def _scan_fingerprint(result) -> tuple:
    """A scan's full observable partition, for exactness comparison.

    Covers every certified frame's coordinates, seq and payload bytes,
    every corrupt region, and the torn-tail start -- two scans with
    equal fingerprints recovered byte-identical state.
    """
    return (
        tuple((f.start, f.end, f.frame.kind, f.frame.seq, f.frame.volume,
               bytes(f.frame.payload)) for f in result.frames),
        tuple((r.start, r.end, r.reason) for r in result.corrupt),
        result.torn_start,
        result.total_bytes,
    )


def _build_recovery_log(directory: Path, frame_count: int):
    """A multi-segment faulted log: churn, mid-log rot, torn tail."""
    from .store import frames as store_frames
    from .store.log import SegmentedLog

    rng = np.random.default_rng(SEED + 5)
    log = SegmentedLog(directory, make_scheme(),
                       segment_bytes=RECOVERY_SEGMENT_BYTES, flush="group")
    batch = [
        store_frames.Frame(
            store_frames.KIND_PAGE, seq, STORE_VOLUME,
            rng.integers(0, 256, size=RECOVERY_FRAME_BYTES,
                         dtype=np.uint8).tobytes())
        for seq in range(frame_count)
    ]
    log.append_many(batch)
    log.corrupt_bytes(log.total_bytes // 2, b"\xff")
    log.crash_cut(log.total_bytes - RECOVERY_FRAME_BYTES // 4)
    return log


def _bench_recovery(quick: bool, repeats: int) -> dict:
    """Certification-scan the faulted log with 1/2/4/N workers.

    Every swept worker count's partition (frames, corrupt regions, torn
    tail) is verified identical to the sequential scan before timing;
    a diverging parallel scan fails the harness.  The speedup target is
    enforced only on hosts with ``RECOVERY_TARGET_MIN_CPUS`` cores.
    """
    frame_count = RECOVERY_FRAMES_QUICK if quick else RECOVERY_FRAMES
    cpu_count = os.cpu_count() or 1
    counts = sorted({1, 2, 4, cpu_count})
    with tempfile.TemporaryDirectory() as tmp:
        log = _build_recovery_log(Path(tmp) / "log", frame_count)
        baseline = log.scan(verify_workers=1)
        reference = _scan_fingerprint(baseline)
        rows = []
        seconds_by_workers = {}
        for workers in counts:
            if _scan_fingerprint(
                    log.scan(verify_workers=workers)) != reference:
                raise BenchError(
                    f"parallel scan with {workers} workers diverged from "
                    f"the sequential partition")
            seconds = max(_best_seconds(
                lambda workers=workers: log.scan(verify_workers=workers),
                repeats), 1e-9)
            seconds_by_workers[workers] = seconds
            rows.append({
                "workers": workers,
                "seconds": round(seconds, 6),
                "log_mib_per_s": round(
                    log.total_bytes / (1 << 20) / seconds, 3),
            })
        document = {
            "log_bytes": log.total_bytes,
            "segments": log.segment_count,
            "frames_valid": len(baseline.frames),
            "corrupt_regions": len(baseline.corrupt),
            "torn_bytes": baseline.torn_bytes,
            "cpu_count": cpu_count,
            "workers_swept": counts,
            "exact": True,   # every sweep checked against sequential
            "results": rows,
        }
        log.close()
    single = seconds_by_workers[1]
    best_parallel = min((s for w, s in seconds_by_workers.items() if w > 1),
                        default=single)
    speedup = single / best_parallel
    enforced = cpu_count >= RECOVERY_TARGET_MIN_CPUS
    if enforced and speedup < RECOVERY_MIN_SPEEDUP:
        raise BenchError(
            f"parallel recovery scan reached only {speedup:.2f}x the "
            f"sequential time on {cpu_count} cores "
            f"(bound {RECOVERY_MIN_SPEEDUP:g}x)")
    document["speedups"] = {"parallel_best_vs_single": round(speedup, 2)}
    document["target_enforced"] = enforced
    document["min_speedup"] = RECOVERY_MIN_SPEEDUP
    return document


def _bench_group_commit(quick: bool, repeats: int) -> dict:
    """Append-throughput sweep: per-frame flush vs group commit.

    Both flush modes are first verified to lay down byte-identical
    segment files at identical frame offsets; then bursts of pre-sealed
    frames are timed through :meth:`SegmentedLog.append_encoded`.  The
    grouped path must reach ``GROUP_MIN_SPEEDUP`` x the per-frame path
    at some burst of at least ``GROUP_MIN_BURST`` frames.
    """
    from .obs import MetricsRegistry, use_registry
    from .store import frames as store_frames
    from .store.log import SegmentedLog

    frame_count = GROUP_FRAMES_QUICK if quick else GROUP_FRAMES
    scheme = make_scheme()
    rng = np.random.default_rng(SEED + 6)
    batch = [
        store_frames.Frame(
            store_frames.KIND_DELTA, seq, STORE_VOLUME,
            rng.integers(0, 256, size=GROUP_FRAME_BYTES,
                         dtype=np.uint8).tobytes())
        for seq in range(frame_count)
    ]
    encoded = store_frames.encode_many(scheme, batch)
    kinds = [frame.kind for frame in batch]

    def write_all(flush: str, burst: int, directory: str) -> list[int]:
        log = SegmentedLog(directory, scheme, flush=flush)
        offsets = []
        for at in range(0, len(encoded), burst):
            offsets += log.append_encoded(encoded[at:at + burst],
                                          kinds[at:at + burst])
        log.close()
        return offsets

    # Exactness first: identical bytes and offsets, and the flush
    # ledger showing the syscall coalescing the timing claims.
    images, offsets, fsyncs = {}, {}, {}
    for flush in ("frame", "group"):
        registry = MetricsRegistry()
        with tempfile.TemporaryDirectory() as tmp, use_registry(registry):
            offsets[flush] = write_all(flush, GROUP_MIN_BURST, tmp)
            images[flush] = b"".join(
                path.read_bytes()
                for path in sorted(Path(tmp).glob("seg-*.log")))
        fsyncs[flush] = int(registry.total("store.log.fsyncs"))
    if images["frame"] != images["group"] \
            or offsets["frame"] != offsets["group"]:
        raise BenchError("group commit changed the encoded log")

    def timed_once(flush: str, burst: int) -> float:
        # The tempdir setup/teardown happens outside the clock: the
        # sweep times the append path, not the filesystem fixture.
        with tempfile.TemporaryDirectory() as tmp:
            log = SegmentedLog(tmp, scheme, flush=flush)
            start = time.perf_counter()
            for at in range(0, len(encoded), burst):
                log.append_encoded(encoded[at:at + burst],
                                   kinds[at:at + burst])
            log.close()               # lands any pending group
            return time.perf_counter() - start

    rows = []
    best_eligible = 0.0
    for burst in GROUP_BURSTS:
        seconds = {}
        for flush in ("frame", "group"):
            seconds[flush] = max(
                min(timed_once(flush, burst)
                    for _ in range(max(repeats, 5))), 1e-9)
        speedup = seconds["frame"] / seconds["group"]
        if burst >= GROUP_MIN_BURST:
            best_eligible = max(best_eligible, speedup)
        rows.append({
            "burst": burst,
            "frame_seconds": round(seconds["frame"], 6),
            "group_seconds": round(seconds["group"], 6),
            "frame_frames_per_s": round(frame_count / seconds["frame"], 1),
            "group_frames_per_s": round(frame_count / seconds["group"], 1),
            "speedup": round(speedup, 2),
        })
    if best_eligible < GROUP_MIN_SPEEDUP:
        raise BenchError(
            f"group commit reached only {best_eligible:.2f}x the "
            f"per-frame flush throughput at bursts >= {GROUP_MIN_BURST} "
            f"(bound {GROUP_MIN_SPEEDUP:g}x)")
    return {
        "frames": frame_count,
        "frame_bytes": GROUP_FRAME_BYTES,
        "bursts": list(GROUP_BURSTS),
        "exact": True,       # both modes checked byte-identical above
        "fsyncs": fsyncs,    # flush syscalls per mode (same frame count)
        "results": rows,
        "speedups": {"group_best_vs_frame": round(best_eligible, 2)},
        "target_enforced": True,
        "min_speedup": GROUP_MIN_SPEEDUP,
        "min_burst": GROUP_MIN_BURST,
    }


def _bench_locate(quick: bool, repeats: int) -> dict:
    """Localization-cost sweep: map rescan vs tree walk vs locator."""
    scheme = make_scheme()
    signer = get_batch_signer(scheme)
    page_symbols = LOCATE_PAGE_BYTES // scheme.scheme_id.symbol_bytes
    sig_bytes = scheme.scheme_id.signature_bytes
    volumes = LOCATE_VOLUMES_QUICK if quick else LOCATE_VOLUMES
    rows = []
    for count in volumes:
        image = np.random.RandomState((SEED ^ count) & 0xFFFFFFFF).bytes(
            count * LOCATE_PAGE_BYTES
        )
        design = LocateDesign.build(count, LOCATE_D, SEED)
        expected_map = signer.sign_map(image, page_symbols)
        expected_tree = SignatureTree.from_map(expected_map, LOCATE_FANOUT)
        expected_locator = LocatorMap.from_map(design, expected_map)
        rng = random.Random(SEED + count)
        # Exactness first: every <= d trial must certify the injected
        # set precisely, or the harness fails before timing anything.
        damage: list[int] = []
        rotted = bytearray(image)
        for _ in range(LOCATE_TRIALS):
            damage = sorted(rng.sample(range(count), LOCATE_D))
            rotted = bytearray(image)
            for page in damage:
                offset = (page * LOCATE_PAGE_BYTES
                          + rng.randrange(LOCATE_PAGE_BYTES))
                rotted[offset] ^= rng.randint(1, 255)
            actual_map = signer.sign_map(bytes(rotted), page_symbols)
            verdict = decode(expected_locator,
                             LocatorMap.from_map(design, actual_map))
            if verdict.status != LOCATED or list(verdict.pages) != damage:
                raise BenchError(
                    f"locate missed at {count} pages: injected {damage}, "
                    f"got {verdict.status} {list(verdict.pages)}"
                )
        # Over-budget guard: 3d damaged pages must overflow to the
        # per-page fallback (or still be exactly right) -- a silently
        # wrong page set fails the harness.
        over_damage = sorted(rng.sample(range(count), 3 * LOCATE_D))
        over = bytearray(image)
        for page in over_damage:
            over[page * LOCATE_PAGE_BYTES] ^= 0x80
        over_map = signer.sign_map(bytes(over), page_symbols)
        over_verdict = decode(expected_locator,
                              LocatorMap.from_map(design, over_map))
        if over_verdict.status == LOCATED \
                and list(over_verdict.pages) != over_damage:
            raise BenchError(
                f"locate mislocated over-budget damage at {count} pages"
            )

        # Timed audits: certified warm state vs the last trial's rotted
        # bytes; each path re-signs the image (the unavoidable cost) and
        # then localizes through its own structure.
        frozen = bytes(rotted)

        def audit_rescan() -> list[int]:
            actual = signer.sign_map(frozen, page_symbols)
            return expected_map.changed_pages(actual)

        def audit_tree() -> list[int]:
            actual = signer.sign_map(frozen, page_symbols)
            tree = SignatureTree.from_map(actual, LOCATE_FANOUT)
            return sorted(expected_tree.diff(tree).changed_leaves)

        def audit_locator() -> list[int]:
            actual = signer.sign_map(frozen, page_symbols)
            verdict = decode(expected_locator,
                             LocatorMap.from_map(design, actual))
            return sorted(verdict.pages)

        audits = (("map_rescan", audit_rescan), ("tree_walk", audit_tree),
                  ("locator", audit_locator))
        results = []
        for path, audit in audits:
            located = audit()
            if sorted(located) != damage:
                raise BenchError(
                    f"{path} missed at {count} pages: {located} != {damage}"
                )
            seconds = max(min(_time_once(audit)
                              for _ in range(repeats)), 1e-9)
            results.append({
                "path": path,
                "seconds": round(seconds, 6),
                "pages_per_s": round(count / seconds, 1),
            })

        # Anti-entropy exchange: reconcile a replica diverged at the
        # same d pages under each protocol; signature traffic is
        # deterministic (bytes, not seconds).
        network = SimNetwork()
        source = Replica("bench-src", scheme, image, LOCATE_PAGE_BYTES)
        exchange = {}
        protocols = (
            ("map", sync_by_map),
            ("tree", sync_by_tree),
            ("locator", lambda s, t, n: sync_by_locator(
                s, t, n, d=LOCATE_D, seed=SEED)),
        )
        for name, protocol in protocols:
            target = Replica("bench-tgt", scheme, frozen, LOCATE_PAGE_BYTES)
            report = protocol(source, target, network)
            if bytes(target.data) != image:
                raise BenchError(f"{name} sync failed to converge")
            exchange[name] = report.signature_bytes

        tree_nodes = sum(len(level) for level in expected_tree.levels)
        state = {
            "map": count * sig_bytes,
            "tree": tree_nodes * sig_bytes,
            "locator": expected_locator.locator_bytes,
        }
        reductions = {
            "state": round(state["map"] / state["locator"], 2),
            "exchange": round(exchange["map"] / exchange["locator"], 2),
        }
        if count >= LOCATE_MIN_REDUCTION_PAGES:
            for axis, reduction in reductions.items():
                if reduction < LOCATE_MIN_REDUCTION:
                    raise BenchError(
                        f"locator {axis} reduction {reduction:.2f}x at "
                        f"{count} pages below the bound "
                        f"{LOCATE_MIN_REDUCTION:g}x"
                    )
        rows.append({
            "pages": count,
            "design": design.describe(),
            "state_bytes": state,
            "exchange_signature_bytes": exchange,
            "reductions": reductions,
            "results": results,
        })
    return {
        "page_bytes": LOCATE_PAGE_BYTES,
        "d": LOCATE_D,
        "fanout": LOCATE_FANOUT,
        "trials": LOCATE_TRIALS,
        "exact": True,          # every <= d trial located precisely
        "overflow_safe": True,  # over-budget trials never mislocated
        "min_reduction": LOCATE_MIN_REDUCTION,
        "min_reduction_pages": LOCATE_MIN_REDUCTION_PAGES,
        "target_enforced": True,
        "volumes": rows,
    }


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run(quick: bool = False, workers: int = WORKERS) -> dict:
    """Run the harness; returns the JSON-able benchmark document."""
    page_count = 8 if quick else 48
    scalar_pages = 1 if quick else 2
    repeats = 2 if quick else 3
    store_pages = 16 if quick else 128
    obs_samples = 20_000 if quick else 100_000
    pages = _make_pages(page_count, SEED)
    document = {
        "schema": SCHEMA,
        "config": {
            "page_bytes": PAGE_BYTES,
            "pages": page_count,
            "scalar_pages": scalar_pages,
            "repeats": repeats,
            "workers": workers,
            "seed": SEED,
            "quick": quick,
            "dirty_fraction": DIRTY_FRACTION,
            "dirty_region_bytes": DIRTY_REGION_BYTES,
            "fields": [{"f": f, "n": n} for f, n in FIELDS],
            "paths": ["scalar", "vector", "batch", "batch_workers",
                      "map_rescan", "incremental"],
            "store": {
                "page_bytes": STORE_PAGE_BYTES,
                "pages": store_pages,
                "churn_rounds": STORE_CHURN_ROUNDS,
                "dirty_fraction": DIRTY_FRACTION,
                "dirty_region_bytes": STORE_DIRTY_REGION_BYTES,
                "paths": list(STORE_PATHS),
            },
            "obs": {
                "samples": obs_samples,
                "quantiles": list(OBS_QUANTILES),
                "max_relative_error": OBS_MAX_RELATIVE_ERROR,
            },
            "serve": {
                "sessions": SERVE_SESSIONS_QUICK if quick
                else SERVE_SESSIONS,
                "rates_ops_per_s": list(SERVE_RATES_QUICK if quick
                                        else SERVE_RATES),
                "ops_per_step": SERVE_OPS_PER_STEP_QUICK if quick
                else SERVE_OPS_PER_STEP,
                "min_post_saturation": SERVE_MIN_POST_SATURATION,
            },
            "sign": {
                "default_workers": resolve_workers(),
                "workers_env": "REPRO_SIGN_WORKERS",
                "cpu_count": os.cpu_count() or 1,
            },
            "copies": {
                "regions": COPIES_REGIONS,
                "region_bytes": DIRTY_REGION_BYTES,
                "min_reduction": COPIES_MIN_REDUCTION,
            },
            "cores": {
                "min_process_speedup": CORES_MIN_PROCESS_SPEEDUP,
                "target_min_cpus": CORES_TARGET_MIN_CPUS,
            },
            "recovery": {
                "segment_bytes": RECOVERY_SEGMENT_BYTES,
                "frame_bytes": RECOVERY_FRAME_BYTES,
                "frames": RECOVERY_FRAMES_QUICK if quick
                else RECOVERY_FRAMES,
                "min_speedup": RECOVERY_MIN_SPEEDUP,
                "target_min_cpus": RECOVERY_TARGET_MIN_CPUS,
                "workers_env": "REPRO_RECOVERY_WORKERS",
            },
            "group_commit": {
                "frame_bytes": GROUP_FRAME_BYTES,
                "frames": GROUP_FRAMES_QUICK if quick else GROUP_FRAMES,
                "bursts": list(GROUP_BURSTS),
                "min_speedup": GROUP_MIN_SPEEDUP,
                "min_burst": GROUP_MIN_BURST,
            },
            "locate": {
                "page_bytes": LOCATE_PAGE_BYTES,
                "d": LOCATE_D,
                "fanout": LOCATE_FANOUT,
                "trials": LOCATE_TRIALS,
                "volumes": list(LOCATE_VOLUMES_QUICK if quick
                                else LOCATE_VOLUMES),
                "min_reduction": LOCATE_MIN_REDUCTION,
                "min_reduction_pages": LOCATE_MIN_REDUCTION_PAGES,
            },
        },
        "fields": [
            _bench_field(f, n, pages, scalar_pages, repeats, workers)
            for f, n in FIELDS
        ],
        "copies": [_bench_copies(f, n, pages) for f, n in FIELDS],
        "cores": _bench_cores(pages, repeats),
        "recovery": _bench_recovery(quick, repeats),
        "group_commit": _bench_group_commit(quick, repeats),
        "locate": _bench_locate(quick, repeats),
        "store": _bench_store(store_pages, repeats),
        "obs": _bench_obs(obs_samples, repeats),
        "serve": _bench_serve(quick),
        "verified": True,   # every path checked against scheme.sign above
    }
    return document


def main(argv: list[str]) -> int:
    """``python -m repro bench --json`` entry: print the document."""
    quick = "--quick" in argv
    print(json.dumps(run(quick=quick), indent=2, sort_keys=False))
    return 0
