"""X1 -- extension benches: the Section 6 future-work features, measured.

Not tied to a table in the paper's evaluation; these quantify the
Section 6 applications this reproduction implements beyond the paper:

* the signature-validated client cache (Section 6.2);
* signature-cheap bucket eviction ([LSS02], Section 6.2).
"""

from repro.backup import BackupEngine, EvictionManager, serialize_bucket
from repro.sdds import Bucket, CachedClient, LHFile, Record
from repro.sig import make_scheme
from repro.sim import SimDisk
from repro.workloads import make_page, make_records


def test_x1_cache_report(benchmark, report_table):
    benchmark.pedantic(lambda: None, rounds=1)
    scheme = make_scheme(f=16, n=2)
    file = LHFile(scheme, capacity_records=256)
    loader = file.client("loader")
    records = make_records(100, 2048, seed=31)
    for record in records:
        loader.insert(record)

    plain = file.client("plain")
    cached = CachedClient(file.client("cached"), capacity=256)
    # Warm the cache.
    for record in records:
        cached.get(record.key)

    file.network.reset_stats()
    for record in records:
        plain.search(record.key)
    plain_bytes = file.network.stats.bytes

    file.network.reset_stats()
    for record in records:
        cached.get(record.key)
    cached_bytes = file.network.stats.bytes

    rows = [
        ["plain client, 100 re-reads of 2 KB records", plain_bytes],
        ["signature-validated cache, same reads", cached_bytes],
        ["bytes saved", plain_bytes - cached_bytes],
    ]
    report_table(
        "X1b: client cache coherence by 4 B signatures (network bytes)",
        ["scenario", "bytes"],
        rows,
        notes=f"hit rate {cached.stats.hits}/{cached.stats.validations}; "
              "every hit exchanged ~44 B instead of a 2 KB record",
    )
    assert cached_bytes < plain_bytes / 10
    assert cached.stats.hits == cached.stats.validations  # nothing changed


def test_x1_eviction_report(benchmark, report_table):
    benchmark.pedantic(lambda: None, rounds=1)
    scheme = make_scheme(f=16, n=2)
    engine = BackupEngine(scheme, SimDisk(), page_bytes=1024)
    manager = EvictionManager(engine, ram_budget_bytes=1 << 22)
    bucket = Bucket(1)
    for i in range(200):
        bucket.insert(Record(i, make_page("ascii", 200, seed=i)))
    image_pages = (len(serialize_bucket(bucket)) + 1023) // 1024
    manager.add(bucket)
    manager.evict(1)
    cold_writes = manager.stats.pages_written
    restored = manager.access(1)
    manager.evict(1)  # unchanged: free
    clean_writes = manager.stats.pages_written - cold_writes
    restored = manager.access(1)
    restored.update(5, b"z" * 200)
    manager.evict(1)
    dirty_writes = manager.stats.pages_written - cold_writes - clean_writes
    rows = [
        ["first eviction (cold)", cold_writes, image_pages],
        ["re-eviction, unchanged bucket", clean_writes, image_pages],
        ["re-eviction after 1 record update", dirty_writes, image_pages],
    ]
    report_table(
        "X1c: bucket eviction page writes ([LSS02] via signature maps)",
        ["event", "pages written", "bucket pages"],
        rows,
        notes="signatures make repeated evictions of mostly-clean "
              "buckets nearly free",
    )
    assert clean_writes == 0
    assert 0 < dirty_writes <= 2
