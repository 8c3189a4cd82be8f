#!/usr/bin/env python3
"""Durable storage plane: a page store that survives crashes, certified.

Three lives of one on-disk store (PROTOCOLS.md §11):

* **life 1** writes a volume, churns it, seals a checkpoint (warm
  signature map + tree persisted), journals more deltas -- and then the
  process dies mid-append, leaving a torn final frame;
* **life 2** recovers: the log scan finds the longest certified prefix,
  the torn tail is truncated with certainty (every frame carries an
  n-symbol algebraic seal, Prop 1), and the checkpoint means only the
  post-checkpoint tail is folded through the Proposition-3 incremental
  plane instead of re-signing the whole history.  Work then simply
  continues on the recovered store;
* **life 3** reopens with ``verify="tail"`` -- the production fast
  path: seals are checked only past the checkpoint, and the
  checkpoint-covered volume is scrubbed once against its sealed map
  instead -- and the recovered signature map is byte-compared against
  a from-scratch recompute of the materialized image.

A closing act runs the backup engine over a :class:`DurableDisk`, so
the signature-map backup of Section 2.1 lands on storage that itself
survives restarts.

Run:  python examples/durable_store.py
"""

import random
import tempfile

from repro import make_scheme
from repro.backup import BackupEngine
from repro.obs import get_registry
from repro.sig import SignatureMap
from repro.store import DurableDisk, PageStore

PAGE_BYTES = 1024
PAGES = 32
VOLUME = "ledger"
DELTA_BYTES = 64
SEED = 7


def life_1_write_and_crash(directory, rng) -> None:
    """Build a churned, checkpointed store; die mid-append."""
    # Group commit: delta bursts land as one write + one flush each.
    store = PageStore(make_scheme(), directory, flush="group")
    image = bytearray(rng.randrange(256) for _ in range(PAGES * PAGE_BYTES))
    store.write_image(VOLUME, bytes(image), PAGE_BYTES)

    def mutate(count):
        ends = []
        for _ in range(count):
            at = rng.randrange(0, len(image) - DELTA_BYTES, 2)
            after = bytes(rng.randrange(256) for _ in range(DELTA_BYTES))
            store.record_extent(VOLUME, at, bytes(image[at:at + DELTA_BYTES]),
                                after, len(image))
            image[at:at + DELTA_BYTES] = after
            ends.append(store.log_bytes)
        return ends

    mutate(30)
    store.checkpoint()
    ends = mutate(12)
    # The crash: the final frame only partially reached the disk.
    cut = ends[-2] + rng.randrange(1, ends[-1] - ends[-2])
    store.close()
    store.crash_cut(cut)
    print(f"life 1: {PAGES}x{PAGE_BYTES} B volume, 42 journaled deltas, "
          f"1 checkpoint; crashed mid-frame at byte {cut:,}")


def life_2_recover_and_continue(directory, rng) -> bytes:
    """Certified recovery, then keep writing as if nothing happened."""
    scheme = make_scheme()
    store, report = PageStore.recover(scheme, directory)
    print(f"life 2: recovered -- {report.frames_valid} certified frames, "
          f"{report.frames_folded} folded past the checkpoint, "
          f"{report.torn_bytes} torn bytes truncated")
    assert report.used_checkpoint
    assert report.torn_bytes > 0
    assert not report.condemned
    image = bytearray(store.image(VOLUME))
    for _ in range(6):
        at = rng.randrange(0, len(image) - DELTA_BYTES, 2)
        after = bytes(rng.randrange(256) for _ in range(DELTA_BYTES))
        store.record_extent(VOLUME, at, bytes(image[at:at + DELTA_BYTES]),
                            after, len(image))
        image[at:at + DELTA_BYTES] = after
    store.checkpoint()
    store.close()
    print("        ...then appended 6 more deltas and checkpointed cleanly")
    return bytes(image)


def life_3_fast_reopen(directory, expected_image: bytes) -> None:
    """The production fast path: checkpoint + tail-verify recovery."""
    scheme = make_scheme()
    registry = get_registry()
    scrubs = registry.total("store.scrubs")
    store, report = PageStore.recover(scheme, directory, verify="tail")
    try:
        assert report.clean and report.used_checkpoint
        # The trusted prefix is not taken on faith: one scrub per
        # checkpoint-backed volume re-signs the image against its map.
        assert registry.total("store.scrubs") == scrubs + 1
        assert store.image(VOLUME) == expected_image
        recomputed = SignatureMap.compute(
            scheme, expected_image,
            PAGE_BYTES // scheme.scheme_id.symbol_bytes)
        assert store.signature_map(VOLUME).signatures \
            == recomputed.signatures
        print("life 3: tail-verified reopen is clean (its scrub found no "
              "damage); the warm signature map byte-matches a "
              "from-scratch recompute")
    finally:
        store.close()


def durable_backup_act(directory, rng) -> None:
    """Section 2.1 backup, but the backup disk itself is durable."""
    scheme = make_scheme()
    disk = DurableDisk(PageStore(scheme, directory))
    engine = BackupEngine(scheme, disk, page_bytes=PAGE_BYTES)
    image = bytearray(rng.randrange(256) for _ in range(16 * PAGE_BYTES))
    engine.backup("bucket0", bytes(image))
    image[5 * PAGE_BYTES + 17] ^= 0x55          # touch exactly one page
    second = engine.backup("bucket0", bytes(image))
    print(f"backup: incremental pass rewrote "
          f"{second.pages_written}/{second.pages_total} pages "
          f"onto the durable disk")
    assert second.pages_written == 1
    disk.store.close()

    recovered, report = PageStore.recover(scheme, directory)
    try:
        assert report.clean
        fresh = DurableDisk(recovered)
        assert fresh.read_volume("bucket0") == bytes(image)
        print("        after a restart the backup volume reads back "
              "byte-identical")
    finally:
        recovered.close()


def main() -> None:
    rng = random.Random(SEED)
    registry = get_registry()
    with tempfile.TemporaryDirectory() as tmp:
        life_1_write_and_crash(tmp, rng)
        image = life_2_recover_and_continue(tmp, rng)
        life_3_fast_reopen(tmp, image)
    with tempfile.TemporaryDirectory() as tmp:
        durable_backup_act(tmp, rng)

    print("\nObservability totals:")
    for label, name in (
            ("log bytes appended", "store.bytes_appended"),
            ("frames sealed", "store.frames_sealed"),
            ("group commits", "store.log.group_commits"),
            ("log fsyncs", "store.log.fsyncs"),
            ("checkpoints", "store.checkpoints"),
            ("recoveries", "store.recoveries"),
            ("torn bytes truncated", "store.torn_bytes"),
            ("durable disk bytes written", "disk.bytes_written")):
        print(f"  {label:<28} {int(registry.total(name)):>10,}")


if __name__ == "__main__":
    main()
