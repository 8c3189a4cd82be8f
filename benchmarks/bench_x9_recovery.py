"""X9 -- the certified recovery scan and group-commit log writes.

The certification scan of :class:`repro.store.SegmentedLog` checks
every frame's seal alone (Proposition 1), one segment after another in
one process (:mod:`repro.store.recovery`); the log's write path has a
group-commit mode that coalesces bursts of frames into one OS write +
one flush.

Two measurements:

* **scan** -- a multi-segment faulted log (mid-log bit rot, torn tail)
  must scan to the expected partition (one corrupt region, the torn
  tail cut at the last whole frame) before it is timed.
* **flush mode** -- bursts of pre-sealed frames are appended under
  ``flush="frame"`` vs ``flush="group"``; both modes must lay down
  byte-identical segment files at identical offsets, and the grouped
  path must beat the per-frame path at large bursts.
"""

import shutil
import time

import numpy as np

from repro.sig import make_scheme
from repro.store import SegmentedLog
from repro.store import frames as fr

SEED = 20040301
VOLUME = "x9"
SEGMENT_BYTES = 256 * 1024
SCAN_FRAME_BYTES = 16 * 1024
SCAN_FRAMES = 256                # ~4 MiB log, ~17 segments
GROUP_FRAME_BYTES = 256
GROUP_FRAMES = 512
GROUP_BURSTS = (1, 8, 32, 128)


def _build_faulted_log(directory) -> SegmentedLog:
    """A multi-segment log with mid-log rot and a torn tail."""
    rng = np.random.default_rng(SEED)
    log = SegmentedLog(directory, make_scheme(),
                       segment_bytes=SEGMENT_BYTES, flush="group")
    log.append_many([
        fr.Frame(fr.KIND_PAGE, seq, VOLUME,
                 rng.integers(0, 256, size=SCAN_FRAME_BYTES,
                              dtype=np.uint8).tobytes())
        for seq in range(SCAN_FRAMES)
    ])
    log.corrupt_bytes(log.total_bytes // 2, b"\xff")
    log.crash_cut(log.total_bytes - SCAN_FRAME_BYTES // 4)
    return log


def _best(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_x9_scan(benchmark, report_table, tmp_path):
    """The expected partition first, then the timing."""
    log = _build_faulted_log(tmp_path / "log")
    scan = log.scan()
    # One rotted frame mid-log; the tear cuts into the last frame.
    assert [region.reason for region in scan.corrupt] == ["seal"]
    assert scan.frame_count == SCAN_FRAMES - 2
    assert 0 < scan.torn_bytes < SCAN_FRAME_BYTES
    seconds = _best(log.scan)
    benchmark(log.scan)
    log.close()
    report_table(
        "X9: certification scan "
        f"({log.total_bytes / (1 << 20):.1f} MiB, "
        f"{log.segment_count} segments)",
        ["scan ms", "log MiB/s"],
        [[round(seconds * 1e3, 2),
          round(log.total_bytes / (1 << 20) / seconds, 1)]],
        notes="the partition (certified frames, corrupt regions, torn "
              "tail) is checked before timing",
    )


def test_x9_group_commit(benchmark, report_table, tmp_path):
    """Identical bytes in both flush modes, then the burst sweep."""
    scheme = make_scheme()
    rng = np.random.default_rng(SEED + 1)
    batch = [
        fr.Frame(fr.KIND_DELTA, seq, VOLUME,
                 rng.integers(0, 256, size=GROUP_FRAME_BYTES,
                              dtype=np.uint8).tobytes())
        for seq in range(GROUP_FRAMES)
    ]
    encoded = fr.encode_many(scheme, batch)
    kinds = [frame.kind for frame in batch]

    def write_all(flush: str, burst: int, directory) -> list[int]:
        log = SegmentedLog(directory, scheme, flush=flush)
        offsets = []
        for at in range(0, len(encoded), burst):
            offsets += log.append_encoded(encoded[at:at + burst],
                                          kinds[at:at + burst])
        log.close()
        return offsets

    images, offsets = {}, {}
    for flush in ("frame", "group"):
        directory = tmp_path / f"exact-{flush}"
        offsets[flush] = write_all(flush, 32, directory)
        images[flush] = b"".join(path.read_bytes() for path
                                 in sorted(directory.glob("seg-*.log")))
    assert images["frame"] == images["group"]
    assert offsets["frame"] == offsets["group"]

    rows = []
    for burst in GROUP_BURSTS:
        seconds = {}
        for flush in ("frame", "group"):
            best = float("inf")
            for repeat in range(5):
                directory = tmp_path / f"run-{flush}-{burst}-{repeat}"
                directory.mkdir()
                log = SegmentedLog(directory, scheme, flush=flush)
                start = time.perf_counter()
                for at in range(0, len(encoded), burst):
                    log.append_encoded(encoded[at:at + burst],
                                       kinds[at:at + burst])
                log.close()
                best = min(best, time.perf_counter() - start)
            seconds[flush] = best
        rows.append([f"burst {burst}",
                     round(seconds["frame"] * 1e3, 3),
                     round(seconds["group"] * 1e3, 3),
                     round(seconds["frame"] / seconds["group"], 2)])
    def anchor():
        directory = tmp_path / "anchor"
        write_all("group", 32, directory)
        shutil.rmtree(directory)

    benchmark(anchor)
    report_table(
        f"X9: group commit vs per-frame flush ({GROUP_FRAMES} frames of "
        f"{GROUP_FRAME_BYTES} B)",
        ["burst", "frame ms", "group ms", "speedup"],
        rows,
        notes="group commit lands a burst as one write + one flush; "
              "per-frame flush pays the syscall pair per frame",
    )
    assert rows[-1][3] > 1.0, rows
