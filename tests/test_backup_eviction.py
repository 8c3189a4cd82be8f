"""Tests for RAM-pressure bucket eviction ([LSS02], Section 6.2)."""

import pytest

from repro.backup import BackupEngine, EvictionManager
from repro.errors import BackupError, WireError
from repro.sdds import Bucket, Record, deserialize_bucket, serialize_bucket
from repro.sig import make_scheme
from repro.sim import SimDisk
from repro.workloads import make_page


def make_bucket(bucket_id, n_records=30, value_bytes=100, seed=0):
    bucket = Bucket(bucket_id)
    for i in range(n_records):
        bucket.insert(Record(bucket_id * 10_000 + i,
                             make_page("ascii", value_bytes, seed=seed + i)))
    return bucket


def make_manager(ram_budget_bytes, page_bytes=512):
    scheme = make_scheme(f=16, n=2)
    engine = BackupEngine(scheme, SimDisk(), page_bytes=page_bytes)
    return EvictionManager(engine, ram_budget_bytes)


class TestSerialization:
    def test_roundtrip(self):
        bucket = make_bucket(1)
        image = serialize_bucket(bucket)
        assert deserialize_bucket(image) == list(bucket.records())
        restored = Bucket.from_image(1, image)
        assert list(restored.records()) == list(bucket.records())

    def test_deterministic_for_same_content(self):
        """Unchanged content serializes identically -- the property that
        makes re-eviction signature-cheap."""
        a = make_bucket(1, seed=5)
        b = make_bucket(1, seed=5)
        assert serialize_bucket(a) == serialize_bucket(b)

    def test_insertion_order_irrelevant(self):
        a = Bucket(0)
        b = Bucket(0)
        for key in (3, 1, 2):
            a.insert(Record(key, bytes([key])))
        for key in (1, 2, 3):
            b.insert(Record(key, bytes([key])))
        assert serialize_bucket(a) == serialize_bucket(b)

    def test_truncated_rejected(self):
        image = serialize_bucket(make_bucket(1))
        with pytest.raises(WireError):
            deserialize_bucket(image[:10])
        with pytest.raises(WireError):
            Bucket.from_image(1, image[:10])

    def test_empty_bucket(self):
        image = serialize_bucket(Bucket(9))
        assert deserialize_bucket(image) == []
        assert len(Bucket.from_image(9, image)) == 0


class TestResidency:
    def test_within_budget_nothing_evicted(self):
        manager = make_manager(ram_budget_bytes=1 << 22)
        for bucket_id in range(3):
            manager.add(make_bucket(bucket_id))
        assert manager.stats.evictions == 0
        assert len(manager.resident_ids) == 3

    def test_budget_pressure_evicts_lru(self):
        manager = make_manager(ram_budget_bytes=150_000)
        # Each bucket's heap is 64 KB+; four of them exceed the budget.
        for bucket_id in range(4):
            manager.add(make_bucket(bucket_id))
        assert manager.stats.evictions >= 1
        assert manager.resident_bytes <= 150_000

    def test_access_restores_evicted(self):
        manager = make_manager(ram_budget_bytes=150_000)
        originals = {}
        for bucket_id in range(4):
            bucket = make_bucket(bucket_id, seed=bucket_id)
            originals[bucket_id] = list(bucket.records())
            manager.add(bucket)
        for bucket_id in range(4):
            bucket = manager.access(bucket_id)
            assert list(bucket.records()) == originals[bucket_id]
        assert manager.stats.restores >= 1

    def test_unknown_bucket_rejected(self):
        manager = make_manager(1 << 20)
        with pytest.raises(BackupError):
            manager.access(7)

    def test_double_add_rejected(self):
        manager = make_manager(1 << 20)
        manager.add(make_bucket(1))
        with pytest.raises(BackupError):
            manager.add(make_bucket(1))

    def test_bad_budget_rejected(self):
        scheme = make_scheme(f=16, n=2)
        engine = BackupEngine(scheme, SimDisk(), page_bytes=512)
        with pytest.raises(BackupError):
            EvictionManager(engine, 0)


class TestSignatureEconomy:
    def test_reeviction_of_unchanged_bucket_writes_nothing(self):
        """The point of evicting through the signature map: a bucket
        whose content did not change since its last eviction costs zero
        disk writes to evict again."""
        manager = make_manager(ram_budget_bytes=1 << 22)
        bucket = make_bucket(1)
        manager.add(bucket)
        manager.evict(1)
        first_writes = manager.stats.pages_written
        assert first_writes > 0
        manager.access(1)           # restore, touch nothing
        manager.evict(1)            # evict again
        assert manager.stats.pages_written == first_writes
        assert manager.stats.pages_skipped > 0

    def test_reeviction_after_small_update_writes_little(self):
        manager = make_manager(ram_budget_bytes=1 << 22)
        bucket = make_bucket(1, n_records=60)
        manager.add(bucket)
        manager.evict(1)
        baseline = manager.stats.pages_written
        restored = manager.access(1)
        key = next(iter(restored.keys()))
        restored.update(key, b"x" * 100)
        manager.evict(1)
        delta = manager.stats.pages_written - baseline
        total_pages = (len(serialize_bucket(restored)) + 511) // 512
        assert 0 < delta < total_pages  # a few pages, not the bucket
