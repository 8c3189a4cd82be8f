"""One sealed burst per mutation: ``PageStore.record_extents``.

A burst logs a mutation's journaled extents through one sealing pass,
yet it must leave the store directory byte-identical to logging the
same regions one ``record_extent`` call at a time: the same frames, the
same sequence numbers, a flush per frame under ``flush="frame"``, and
checkpoints at the same frame boundaries.  Recovery must then replay
the log to the live image.  A durable cluster round is pinned to the
log digest of the per-extent loop it replaced, so the cluster path's
durable bytes cannot drift either.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.errors import StoreError
from repro.obs import MetricsRegistry, use_registry
from repro.sig import make_scheme
from repro.store import PageStore, SegmentedLog
from repro.store.checkpoint import FILENAME as CHECKPOINT_FILE

SCHEME = make_scheme(f=16, n=2)
PAGE = 64


def directory_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def page_regions(previous: bytes, current: bytes,
                 blanks: list[int]) -> list[tuple[int, bytes, bytes]]:
    """``(offset, before, after)`` for every page that differs.

    Pages past the shorter image count as differing (their ``before``
    or ``after`` side is short or empty); ``blanks`` adds zero-width
    regions at those positions of the list.
    """
    regions = []
    for lo in range(0, max(len(previous), len(current)), PAGE):
        before, after = previous[lo:lo + PAGE], current[lo:lo + PAGE]
        if before != after:
            regions.append((lo, before, after))
    for at in blanks:
        regions.insert(min(at, len(regions)), (at * PAGE, b"", b""))
    return regions


def log_mutations(directory: Path, initial: bytes, images: list[bytes],
                  blanks: list[list[int]], burst: bool,
                  checkpoint_every: int | None, flush: str):
    """Log every mutation, as bursts or one region per call.

    Returns ``(store, checkpoint bytes after each mutation, checkpoints
    taken)``; the store is left open.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        store = PageStore(SCHEME, directory,
                          checkpoint_every=checkpoint_every, flush=flush)
        store.write_image("v", initial, PAGE)
        snapshots = []
        previous = initial
        for image, spots in zip(images, blanks):
            regions = page_regions(previous, image, spots)
            if burst:
                store.record_extents("v", regions, len(image))
            else:
                for offset, before, after in regions:
                    store.record_extent("v", offset, before, after,
                                        len(image))
            checkpoint = directory / CHECKPOINT_FILE
            snapshots.append(checkpoint.read_bytes()
                             if checkpoint.exists() else None)
            previous = image
    return store, snapshots, registry.total("store.checkpoints")


def images_strategy():
    """An initial image and a run of mutated images (grow and shrink)."""
    image = st.binary(min_size=0, max_size=6 * PAGE).map(
        lambda data: data[:len(data) - len(data) % 2])
    return st.tuples(image, st.lists(image, min_size=1, max_size=6))


class TestBurstEqualsPerExtentLoop:

    @settings(max_examples=25, deadline=None)
    @given(images=images_strategy(),
           checkpoint_every=st.sampled_from([None, 1, 2, 3, 7]),
           flush=st.sampled_from(["frame", "group"]),
           data=st.data())
    def test_directory_byte_identical(self, images, checkpoint_every, flush,
                                      data):
        initial, mutated = images
        blanks = [data.draw(st.lists(st.integers(0, 8), max_size=2))
                  for _ in mutated]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            loop, loop_ckpts, loop_count = log_mutations(
                root / "loop", initial, mutated, blanks, False,
                checkpoint_every, flush)
            burst, burst_ckpts, burst_count = log_mutations(
                root / "burst", initial, mutated, blanks, True,
                checkpoint_every, flush)
            assert burst.image("v") == loop.image("v") == mutated[-1]
            assert burst.signature_map("v") == loop.signature_map("v")
            loop.close()
            burst.close()
            assert burst_count == loop_count
            assert burst_ckpts == loop_ckpts
            assert directory_digest(root / "burst") == \
                directory_digest(root / "loop")
            recovered, report = PageStore.recover(SCHEME, root / "burst")
            assert report.clean
            assert recovered.image("v") == mutated[-1]
            recovered.close()

    def test_burst_crossing_checkpoint_boundaries(self, tmp_path):
        initial = bytes(range(256)) * 4                  # 16 pages
        grown = bytes(reversed(initial)) + b"\x01\x02" * 40
        shrunk = grown[:3 * PAGE + 10]
        results = [
            log_mutations(tmp_path / name, initial, [grown, shrunk],
                          [[0, 5], [2]], burst, 4, "frame")
            for name, burst in (("loop", False), ("burst", True))
        ]
        (loop, loop_ckpts, loop_count), (burst, burst_ckpts,
                                          burst_count) = results
        # One checkpoint after the 17 image frames, then 18 and 15 delta
        # frames (the blanks log nothing): four checkpoints fall due
        # inside each burst.
        assert burst_count == loop_count == 9
        assert burst_ckpts == loop_ckpts
        assert burst.image("v") == shrunk
        loop.close()
        burst.close()
        assert directory_digest(tmp_path / "burst") == \
            directory_digest(tmp_path / "loop")

    def test_frames_take_sequence_numbers_in_order(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_image("v", bytes(4 * PAGE), PAGE)
        offsets = store.record_extents(
            "v", [(0, b"\x00\x00", b"ab"), (PAGE, b"", b""),
                  (2 * PAGE, b"\x00\x00", b"cd")], 4 * PAGE)
        assert len(offsets) == 2 and offsets == sorted(offsets)
        store.close()
        scan = SegmentedLog(tmp_path / "s", SCHEME).scan()
        seqs = [scanned.frame.seq for scanned in scan.frames]
        assert seqs == list(range(len(seqs)))
        assert [scanned.start for scanned in scan.frames][-2:] == offsets

    def test_empty_burst_logs_nothing(self, tmp_path):
        store = PageStore(SCHEME, tmp_path / "s")
        store.write_image("v", bytes(PAGE), PAGE)
        end = store.log_bytes
        assert store.record_extents("v", [], PAGE) == []
        assert store.record_extents("v", [(0, b"", b"")], PAGE) == []
        assert store.record_extents("missing", [(0, b"", b"")], PAGE) == []
        assert store.log_bytes == end
        with pytest.raises(StoreError):
            store.record_extents("missing", [(0, b"ab", b"cd")], PAGE)
        store.close()


# ----------------------------------------------------------------------
# The cluster's durable bytes, pinned
# ----------------------------------------------------------------------

#: Digest of every node's store directory after :func:`cluster_round`
#: (checkpoints every 5 frames, a flush per frame): slot images, one
#: ``DELTA`` frame per slot write -- 161 frames and 31 checkpoints.
CLUSTER_LOG_DIGEST = (
    "11ef457aaa4577e1655ffff4d30d1bd89d3e840b234cda0e9b38e4f0d0523144"
)


def cluster_round(root: Path) -> str:
    """Fixed-seed inserts, updates and deletes on a durable cluster."""
    cluster = Cluster(servers=4, seed=11, durable_dir=root,
                      durable_checkpoint_every=5, durable_flush="frame")
    client = cluster.client()
    rng = random.Random(5)
    keys: list[int] = []
    for _step in range(120):
        roll = rng.random()
        if roll < 0.45 or not keys:
            key = rng.randrange(1 << 20)
            keys.append(key)
            client.insert(key, bytes(rng.randrange(256)
                                     for _ in range(rng.randrange(1, 250))))
        elif roll < 0.8:
            client.update(rng.choice(keys), bytes(
                rng.randrange(256) for _ in range(rng.randrange(1, 250))))
        else:
            client.delete(keys.pop(rng.randrange(len(keys))))
    cluster.settle()
    for node in cluster.nodes:
        node.store.close()
    return directory_digest(root)


def test_durable_cluster_log_bytes_unchanged():
    root = Path(tempfile.mkdtemp())
    try:
        assert cluster_round(root) == CLUSTER_LOG_DIGEST
    finally:
        shutil.rmtree(root, ignore_errors=True)
