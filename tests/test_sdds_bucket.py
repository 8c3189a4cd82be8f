"""Tests for the record heap and buckets (the backup engine's substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    SDDSError,
)
from repro.sdds import (
    Bucket,
    Record,
    RecordHeap,
    SDDSServer,
    deserialize_bucket,
    serialize_bucket,
)
from repro.sig import make_scheme


class TestRecord:
    def test_size(self):
        assert Record(1, b"abc").size == 7  # 4 B key + 3 B value

    def test_key_range(self):
        Record((1 << 32) - 1, b"")
        with pytest.raises(SDDSError):
            Record(1 << 32, b"")
        with pytest.raises(SDDSError):
            Record(-1, b"")

    def test_with_value(self):
        record = Record(1, b"old")
        updated = record.with_value(b"new")
        assert updated.key == 1
        assert updated.value == b"new"
        assert record.value == b"old"  # immutable

    def test_value_coerced_to_bytes(self):
        assert isinstance(Record(1, bytearray(b"x")).value, bytes)


class TestRecordHeap:
    def test_allocate_write_read(self):
        heap = RecordHeap(64)
        offset = heap.allocate(10)
        heap.write(offset, b"0123456789")
        assert heap.read(offset, 10) == b"0123456789"

    def test_free_zeroes(self):
        heap = RecordHeap(64)
        offset = heap.allocate(8)
        heap.write(offset, b"AAAAAAAA")
        heap.free(offset, 8)
        assert heap.read(offset, 8) == bytes(8)

    def test_free_reuses_space(self):
        heap = RecordHeap(32)
        first = heap.allocate(16)
        heap.free(first, 16)
        second = heap.allocate(16)
        assert second == first

    def test_grows_on_demand(self):
        heap = RecordHeap(16)
        heap.allocate(16)
        offset = heap.allocate(100)
        assert heap.size >= offset + 100
        heap.check_invariants()

    def test_image_reflects_writes(self):
        heap = RecordHeap(16)
        offset = heap.allocate(4)
        heap.write(offset, b"data")
        assert bytes(heap.image[offset:offset + 4]) == b"data"

    def test_image_readonly(self):
        heap = RecordHeap(16)
        with pytest.raises(TypeError):
            heap.image[0] = 1

    def test_out_of_bounds_rejected(self):
        heap = RecordHeap(16)
        with pytest.raises(SDDSError):
            heap.read(10, 10)
        with pytest.raises(SDDSError):
            heap.write(-1, b"x")

    def test_listeners_notified(self):
        heap = RecordHeap(64)
        writes = []
        heap.add_write_listener(lambda offset, length: writes.append((offset, length)))
        offset = heap.allocate(4)
        heap.write(offset, b"abcd")
        assert (offset, 4) in writes

    def test_bad_allocation(self):
        with pytest.raises(SDDSError):
            RecordHeap(16).allocate(0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariants_under_random_ops(self, seed):
        rng = np.random.default_rng(seed)
        heap = RecordHeap(128)
        live = {}
        for step in range(200):
            if rng.random() < 0.6 or not live:
                size = int(rng.integers(1, 40))
                offset = heap.allocate(size)
                payload = bytes(rng.integers(0, 256, size, dtype=np.uint8))
                heap.write(offset, payload)
                live[offset] = payload
            else:
                offset = live and list(live)[int(rng.integers(0, len(live)))]
                payload = live.pop(offset)
                heap.free(offset, len(payload))
            heap.check_invariants()
        for offset, payload in live.items():
            assert heap.read(offset, len(payload)) == payload


class TestBucket:
    def test_insert_get(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"one"))
        assert bucket.get(1).value == b"one"
        assert len(bucket) == 1
        assert 1 in bucket

    def test_duplicate_insert(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"x"))
        with pytest.raises(DuplicateKeyError):
            bucket.insert(Record(1, b"y"))

    def test_get_missing(self):
        with pytest.raises(KeyNotFoundError):
            Bucket(0).get(5)

    def test_update_in_place(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"aaaa"))
        bucket.update(1, b"bbbb")
        assert bucket.get(1).value == b"bbbb"

    def test_update_resize(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"short"))
        bucket.update(1, b"a much longer value than before")
        assert bucket.get(1).value == b"a much longer value than before"
        bucket.update(1, b"s")
        assert bucket.get(1).value == b"s"
        bucket.heap.check_invariants()

    def test_delete(self):
        bucket = Bucket(0)
        bucket.insert(Record(1, b"gone"))
        assert bucket.delete(1).value == b"gone"
        assert 1 not in bucket

    def test_records_sorted(self):
        bucket = Bucket(0)
        for key in (30, 10, 20):
            bucket.insert(Record(key, b"v"))
        assert [r.key for r in bucket.records()] == [10, 20, 30]

    def test_overfull_flag(self):
        bucket = Bucket(0, capacity_records=2)
        bucket.insert(Record(1, b"a"))
        bucket.insert(Record(2, b"b"))
        assert not bucket.is_overfull
        bucket.insert(Record(3, b"c"))
        assert bucket.is_overfull

    def test_no_hard_capacity_stop(self):
        """Linear hashing splits buckets in pointer order, so a bucket
        may legitimately exceed capacity until its turn; buckets must be
        elastic."""
        bucket = Bucket(0, capacity_records=2)
        for key in range(10):
            bucket.insert(Record(key, b"x"))
        assert bucket.is_overfull
        assert len(bucket) == 10

    def test_median_key(self):
        bucket = Bucket(0)
        for key in (1, 5, 9, 13, 17):
            bucket.insert(Record(key, b"v"))
        assert bucket.median_key() == 9

    def test_median_of_empty(self):
        with pytest.raises(KeyNotFoundError):
            Bucket(0).median_key()

    def test_image_contains_records(self):
        bucket = Bucket(0)
        bucket.insert(Record(7, b"NEEDLE"))
        assert b"NEEDLE" in bytes(bucket.image)

    def test_deleted_record_zeroed_in_image(self):
        """Freed extents are zeroed so stale bytes cannot alias live data
        in page signatures."""
        bucket = Bucket(0)
        bucket.insert(Record(7, b"SECRET-PAYLOAD"))
        bucket.delete(7)
        assert b"SECRET-PAYLOAD" not in bytes(bucket.image)

    def test_index_pages(self):
        bucket = Bucket(0)
        for key in range(10):
            bucket.insert(Record(key, b"v"))
        pages = bucket.index_pages(page_bytes=32)
        assert b"".join(pages)[:8] == (0).to_bytes(8, "little")


bucket_keys = st.integers(0, 15)
bucket_steps = st.lists(st.one_of(
    st.tuples(st.just("insert"), bucket_keys, st.binary(max_size=40)),
    st.tuples(st.just("same_size"), bucket_keys, st.binary(max_size=40)),
    st.tuples(st.just("resize"), bucket_keys, st.binary(max_size=40)),
    st.tuples(st.just("delete"), bucket_keys, st.just(b"")),
), max_size=60)


class TestBucketImage:
    @settings(max_examples=60, deadline=None)
    @given(steps=bucket_steps)
    def test_image_decodes_to_the_records_and_rebuilds_exactly(self, steps):
        bucket = Bucket(0, initial_heap_bytes=64)
        model: dict[int, bytes] = {}
        for kind, key, value in steps:
            if kind == "insert":
                if key not in model:
                    bucket.insert(Record(key, value))
                    model[key] = value
            elif key not in model:
                continue
            elif kind == "delete":
                assert bucket.delete(key).value == model.pop(key)
            else:
                old = model[key]
                if kind == "same_size":
                    # Same 8-byte slot size, so the slot is rewritten
                    # in place; "resize" takes any other length.
                    value = value[:len(old)].ljust(len(old), b"\x7f")
                offset, size = bucket.index.search(key)
                bucket.update(key, value)
                new_offset, new_size = bucket.index.search(key)
                if new_size == size:
                    assert new_offset == offset
                else:
                    # The new slot was allocated while the old one was
                    # still live, so the two never overlap.
                    assert new_offset >= offset + size \
                        or new_offset + new_size <= offset
                model[key] = value
        bucket.heap.check_invariants()
        heap = bucket.heap
        image = bytes(heap.image[:heap.high_water])
        decoded = deserialize_bucket(image)
        assert {record.key: record.value for record in decoded} == model
        assert list(bucket.records()) == [Record(key, model[key])
                                          for key in sorted(model)]
        rebuilt = Bucket.from_image(0, image)
        assert bytes(rebuilt.heap.image[:rebuilt.heap.high_water]) == image
        assert list(rebuilt.index.items()) == list(bucket.index.items())
        rebuilt.heap.check_invariants()
        assert serialize_bucket(rebuilt) == serialize_bucket(bucket)


class TestServerMove:
    def test_move_records(self):
        scheme = make_scheme(f=8, n=2)
        source = SDDSServer(0, scheme, store_signatures=True)
        target = SDDSServer(1, scheme, store_signatures=True)
        for key in range(20):
            source.insert(Record(key, bytes([key]) * (key + 1)))
        signatures = {key: source.record_signature(key) for key in range(20)}
        signed = source.stats.sig_computations
        moved = source.move_records(target, moves=lambda key: key % 2 == 1)
        assert [record.key for record in moved] == list(range(1, 20, 2))
        assert list(source.bucket.keys()) == list(range(0, 20, 2))
        assert list(target.bucket.keys()) == list(range(1, 20, 2))
        for key in range(1, 20, 2):
            assert target.search(key).value == bytes([key]) * (key + 1)
            # The stored signature travels with the record: not re-signed.
            assert target.record_signature(key) is signatures[key]
        assert source.stats.sig_computations == signed
        assert target.stats.sig_computations == 0
        # Slot releases on one side, slot writes on the other: both
        # heaps still decode to exactly their bucket's records.
        for server in (source, target):
            heap = server.bucket.heap
            assert deserialize_bucket(heap.image[:heap.high_water]) \
                == sorted(server.bucket.records(),
                          key=lambda record: server.bucket.index.search(
                              record.key)[0])
