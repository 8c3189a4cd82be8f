#!/usr/bin/env python3
"""Incremental O(|delta|) maintenance: journals, warm maps, delta shipping.

The sparse-update regime the incremental plane is built for: a large
bucket image where each pass touches a fraction of a percent of the
bytes.  Three stages, all driven by the same write journal machinery:

* a :class:`~repro.sdds.RecordHeap` capture listener feeds every write
  (inserts, updates, the zeroing done by deletes) into a
  :class:`~repro.sig.WriteJournal`;
* ``BackupEngine.backup_incremental`` folds the journal into the stored
  signature map through one batched Proposition-3 kernel pass and
  rewrites only the pages whose signature changed -- signature work is
  O(journaled bytes), not O(image);
* a cluster ships its bucket-image mirror updates as sealed
  ``(offset, delta, sig)`` frames, so wire bytes also track the change,
  not the image.

The closing report compares the three byte counts: journaled (what the
writes touched), stored (what the backup disk accepted), shipped (what
the mirrors cost on the wire).

Run:  python examples/incremental_backup.py
"""

import random

from repro import make_scheme
from repro.backup import BackupEngine, DirtyBitTracker
from repro.cluster import Cluster
from repro.obs import get_registry
from repro.sdds import Bucket, Record
from repro.sig import SignatureMap
from repro.sim import DiskModel, SimClock, SimDisk

PAGE_BYTES = 1024
RECORDS = 300
VALUE_BYTES = 120
SPARSE_UPDATES = 12


def incremental_backup_demo() -> None:
    scheme = make_scheme()  # GF(2^16), n=2
    bucket = Bucket(0, capacity_records=RECORDS + 8)
    engine = BackupEngine(scheme, SimDisk(SimClock(), model=DiskModel()),
                          page_bytes=PAGE_BYTES, use_tree=True)
    journal = engine.attach_heap(bucket.heap)
    tracker = DirtyBitTracker(bucket.heap, PAGE_BYTES)

    rng = random.Random(11)
    print(f"Loading {RECORDS} records of {VALUE_BYTES} B...")
    for key in range(RECORDS):
        bucket.insert(Record(key, bytes(rng.randrange(256)
                                        for _ in range(VALUE_BYTES))))
    report = engine.backup_incremental("bucket0", bucket.image,
                                       journal, tracker)
    print(f"  cold pass: {report.pages_written}/{report.pages_total} pages, "
          f"{report.bytes_written:,} B written\n")

    print(f"Updating {SPARSE_UPDATES} scattered records, "
          f"then an incremental pass:")
    for key in rng.sample(range(RECORDS), SPARSE_UPDATES):
        fresh = f"fresh content for {key} ".encode()
        bucket.update(key, (fresh * (VALUE_BYTES // len(fresh) + 1))
                      [:VALUE_BYTES])
    journaled = journal.byte_count
    report = engine.backup_incremental("bucket0", bucket.image,
                                       journal, tracker)
    image_bytes = len(bucket.image)
    print(f"  journaled {journaled:,} B of a {image_bytes:,} B image "
          f"({journaled / image_bytes:.2%} dirty)")
    print(f"  incremental pass: {report.pages_written}/{report.pages_total} "
          f"pages rewritten, {report.bytes_written:,} B written")
    assert report.pages_written < report.pages_total

    # The folded map must be byte-identical to a from-scratch scan.
    expected = SignatureMap.compute(scheme, bytes(bucket.image),
                                    PAGE_BYTES // 2)
    stored = engine.signature_map("bucket0")
    assert stored.signatures == expected.signatures
    print("  stored map byte-matches a from-scratch rescan of the image")


def delta_shipping_demo() -> None:
    registry = get_registry()
    print("\n3-node cluster: mirrors converge by sealed delta frames...")
    cluster = Cluster(servers=3, seed=5)
    client = cluster.client()
    for key in range(90):
        result = client.insert(key, f"record {key} ".encode() * 8)
        assert result.ok
    cluster.settle()

    image_bytes = sum(len(node.image_bytes()) for node in cluster.nodes)
    shipped_before = registry.total("cluster.mirror_delta_bytes")
    for key in range(0, 90, 8):
        result = client.update(key, f"update {key} ".encode() * 8)
        assert result.ok
    cluster.settle()
    shipped = registry.total("cluster.mirror_delta_bytes") - shipped_before
    regions = registry.total("cluster.mirror_deltas")
    frames = registry.total("net.messages", kind="c_mirror_delta")
    print(f"  {int(regions)} delta regions in {int(frames)} sealed frames "
          f"over the run; the sparse-update round shipped {int(shipped):,} B")
    print(f"  against {image_bytes:,} B of live bucket images")
    cluster.check_replicas()
    print("  every mirror byte-matches its source image")
    assert shipped < image_bytes


def main() -> None:
    registry = get_registry()
    incremental_backup_demo()
    delta_shipping_demo()

    print("\nObservability totals (journaled vs stored vs shipped):")
    rows = [
        ("journaled write bytes", "backup.bytes_journaled", {}),
        ("delta bytes signed", "sig.delta_bytes", {}),
        ("bytes stored by incremental backup", "backup.bytes_written",
         {"engine": "incremental"}),
        ("bytes folded into warm sync maps", "sync.bytes_folded", {}),
        ("mirror delta bytes shipped", "cluster.mirror_delta_bytes", {}),
    ]
    for label, name, labels in rows:
        print(f"  {label:<36} {int(registry.total(name, **labels)):>10,}")


if __name__ == "__main__":
    main()
