"""Tests for LH* addressing mathematics and the LH* file."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SDDSError
from repro.sdds import (
    Bucket,
    ClientImage,
    FileState,
    LHAddressing,
    LHFile,
    Record,
)
from repro.sig import make_scheme


class TestHashFamily:
    def test_h0_is_mod_n(self):
        addressing = LHAddressing(initial_buckets=4)
        for key in range(20):
            assert addressing.h(0, key) == key % 4

    def test_level_doubles_range(self):
        addressing = LHAddressing()
        assert addressing.h(3, 13) == 13 % 8

    def test_consistency_between_levels(self):
        """h_{i+1}(c) is either h_i(c) or h_i(c) + N*2^i -- the property
        linear hashing splits rely on."""
        addressing = LHAddressing()
        for key in range(1000):
            for level in range(5):
                low = addressing.h(level, key)
                high = addressing.h(level + 1, key)
                assert high in (low, low + (1 << level))

    def test_negative_level_rejected(self):
        with pytest.raises(SDDSError):
            LHAddressing().h(-1, 5)

    def test_bucket_count(self):
        addressing = LHAddressing()
        assert addressing.bucket_count(0, 0) == 1
        assert addressing.bucket_count(3, 5) == 13


class TestFileState:
    def test_split_advances_pointer(self):
        addressing = LHAddressing()
        state = FileState()
        state.after_split(addressing)
        assert (state.level, state.pointer) == (1, 0)  # 2^0 buckets: wraps

    def test_pointer_wraps_to_next_level(self):
        addressing = LHAddressing()
        state = FileState(level=1, pointer=1)
        state.after_split(addressing)
        assert (state.level, state.pointer) == (2, 0)


class TestClientAddressing:
    def test_fresh_image_goes_to_h0(self):
        addressing = LHAddressing()
        assert addressing.client_address(12345, 0, 0) == 0

    def test_image_ahead_of_pointer_uses_next_level(self):
        addressing = LHAddressing()
        # image (i'=1, n'=1): addresses below the pointer rehash at i'+1.
        key = 4  # h_1(4) = 0 < n' = 1, so h_2(4) = 0
        assert addressing.client_address(key, 1, 1) == addressing.h(2, key)

    def test_correct_with_exact_image(self):
        """With the true (i, n), the client address is the true address."""
        addressing = LHAddressing()
        state = FileState()
        # Simulate a sequence of splits and verify addresses stay in range.
        for _ in range(10):
            state.after_split(addressing)
        buckets = addressing.bucket_count(state.level, state.pointer)
        for key in range(500):
            address = addressing.client_address(key, state.level, state.pointer)
            assert 0 <= address < buckets


class TestServerForwarding:
    def test_owned_key_not_forwarded(self):
        addressing = LHAddressing()
        assert addressing.server_forward(8, bucket_id=0, bucket_level=3) is None

    def test_misdirected_key_forwarded_conservatively(self):
        """The [LNS96] correction: when h_{j-1} gives an address between
        this bucket and h_j, forward there first (the bucket may not have
        split as far as h_j assumes)."""
        addressing = LHAddressing()
        target = addressing.server_forward(5, bucket_id=0, bucket_level=3)
        assert target == addressing.h(2, 5) == 1

    def test_forwarding_reaches_owner_within_two_hops(self):
        """Simulate a consistent LH* file state and check the forwarding
        chain converges in <= 2 hops from every *legitimate* client
        guess -- i.e. from the address computed out of any image that is
        not ahead of the true file state (client images never are)."""
        addressing = LHAddressing()
        level, pointer = 3, 3  # buckets 0..10
        buckets = addressing.bucket_count(level, pointer)
        levels = [
            level + 1 if (b < pointer or b >= (1 << level)) else level
            for b in range(buckets)
        ]
        images = [
            (i, n)
            for i in range(level + 1)
            for n in range(0, (1 << i) if i < level else pointer + 1)
        ]
        for key in range(500):
            owner = addressing.client_address(key, level, pointer)
            for image_level, image_pointer in images:
                start = addressing.client_address(key, image_level, image_pointer)
                assert start < buckets, "stale image guessed a nonexistent bucket"
                current, hops = start, 0
                while True:
                    target = addressing.server_forward(
                        key, current, levels[current]
                    )
                    if target is None:
                        break
                    current, hops = target, hops + 1
                    assert hops <= 2, (key, image_level, image_pointer)
                assert current == owner, (key, image_level, image_pointer)


class TestImageAdjustment:
    def test_adjustment_moves_forward(self):
        addressing = LHAddressing()
        image = ClientImage(0, 0)
        adjusted = addressing.adjust_image(image, server_level=3, server_address=2)
        assert (adjusted.level, adjusted.pointer) == (2, 3)

    def test_pointer_overflow_rolls_level(self):
        addressing = LHAddressing()
        image = ClientImage(2, 0)
        adjusted = addressing.adjust_image(image, server_level=3, server_address=3)
        assert (adjusted.level, adjusted.pointer) == (3, 0)

    def test_stale_iam_ignored(self):
        addressing = LHAddressing()
        image = ClientImage(5, 2)
        adjusted = addressing.adjust_image(image, server_level=3, server_address=0)
        assert adjusted == image


class TestLHFileIntegration:
    def make_file(self, n_records=500, capacity=25, seed=3):
        scheme = make_scheme(f=8, n=2)
        file = LHFile(scheme, capacity_records=capacity)
        client = file.client()
        keys = random.Random(seed).sample(range(1_000_000), n_records)
        for key in keys:
            result = client.insert(Record(key, f"value-{key}".encode()))
            assert result.status == "inserted"
        return file, client, keys

    def test_grows_and_places_correctly(self):
        file, _client, _keys = self.make_file()
        assert file.bucket_count > 1
        assert file.load_factor <= file.split_load_factor + 1e-9
        file.check_placement()

    def test_every_key_found(self):
        file, client, keys = self.make_file()
        for key in keys:
            result = client.search(key)
            assert result.status == "found"
            assert result.record.key == key

    def test_stale_client_two_forward_bound(self):
        """The LH* theorem: any client image needs at most 2 forwards."""
        file, _client, keys = self.make_file(n_records=800)
        stale = file.client("stale")
        for key in keys:
            result = stale.search(key)
            assert result.status == "found"
            assert result.forwards <= 2

    def test_client_image_converges(self):
        """After IAMs, repeating the same accesses needs no forwards."""
        file, _client, keys = self.make_file()
        learner = file.client("learner")
        for key in keys:
            learner.search(key)
        second_pass_forwards = sum(
            learner.search(key).forwards for key in keys
        )
        assert second_pass_forwards == 0

    def test_duplicate_insert_reported(self):
        file, client, keys = self.make_file(n_records=50)
        result = client.insert(Record(keys[0], b"dup"))
        assert result.status == "duplicate"

    def test_delete_then_missing(self):
        file, client, keys = self.make_file(n_records=50)
        assert client.delete(keys[0]).status == "deleted"
        assert client.search(keys[0]).status == "missing"
        assert client.delete(keys[0]).status == "missing"

    def test_splits_preserve_all_records(self):
        file, client, keys = self.make_file(n_records=400, capacity=10)
        assert file.record_count == len(keys)
        assert sorted(
            key for server in file.servers for key in server.bucket.keys()
        ) == sorted(keys)

    def test_record_count_is_a_running_bucket_sum(self):
        """Inserts, deletes, split moves and an adopted bucket all keep
        the running count equal to the sum over the buckets."""
        file, client, keys = self.make_file(n_records=300, capacity=10)

        def bucket_sum():
            return sum(len(server.bucket) for server in file.servers)

        assert file.record_count == bucket_sum() == 300
        for key in keys[:40]:
            assert client.delete(key).status == "deleted"
        assert file.record_count == bucket_sum() == 260
        server = file.servers[0]
        heap = server.bucket.heap
        image = bytes(heap.image[:heap.high_water])
        server.adopt_bucket(Bucket.from_image(server.server_id, image))
        assert file.record_count == bucket_sum() == 260
        server.adopt_bucket(Bucket(server.server_id))
        assert file.record_count == bucket_sum()
        assert file.load_factor == bucket_sum() / (
            file.capacity_records * file.bucket_count)

    def test_split_traffic_accounted(self):
        file, _client, _keys = self.make_file()
        assert file.network.stats.by_kind["split_transfer"] == file.splits_performed

    def test_load_factor_controlled(self):
        file, _client, _keys = self.make_file(n_records=1000, capacity=20)
        assert file.load_factor <= 0.8 + 1e-9

    def test_bad_load_factor_rejected(self):
        with pytest.raises(SDDSError):
            LHFile(make_scheme(f=8, n=2), split_load_factor=0.0)

    def test_unknown_bucket_rejected(self):
        file, _client, _keys = self.make_file(n_records=10)
        with pytest.raises(SDDSError):
            file.server(999)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_placement_invariant_random_workloads(self, seed):
        rng = random.Random(seed)
        scheme = make_scheme(f=8, n=2)
        file = LHFile(scheme, capacity_records=8)
        client = file.client()
        live = set()
        for _step in range(300):
            if rng.random() < 0.7 or not live:
                key = rng.randrange(100_000)
                result = client.insert(Record(key, b"v"))
                if result.status == "inserted":
                    live.add(key)
            else:
                key = rng.choice(list(live))
                client.delete(key)
                live.discard(key)
        file.check_placement()
        assert file.record_count == len(live)
        for key in live:
            assert client.search(key).status == "found"
