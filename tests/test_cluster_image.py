"""Slot bucket images and one sealed mirror patch per mutation.

A cluster node's bucket holds its image in the SDDS slot layout: an
8-byte format tag, then one slot per record (header, value, zero
padding) written once at a first-fit offset and left there until a
size-changing update or a delete.  The invariant is "decoding the image gives the
bucket's records; records do not move".  Each mutation's slot writes
travel to the hosted mirror as *one* sealed multi-region delta frame
(Proposition 3 patches, one seal per mutation) and into the durable log
as one ``DELTA`` frame per slot write.  These tests pin the invariant
across crashes and both recovery paths, the allocator, the multi-region
wire codec, and the image decoder's refusal of every malformed image.
"""

from __future__ import annotations

import random
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterError,
    Crash,
    FaultPlan,
    LinkFaults,
    wire,
)
from repro.obs import MetricsRegistry, use_registry
from repro.sdds import IMAGE_TAG, deserialize_bucket, serialize_bucket
from repro.sig import make_scheme
from repro.sync.replica import JOURNAL_FOLD_ENTRIES

SCHEMES = {8: make_scheme(f=8, n=2), 16: make_scheme(f=16, n=2)}

_HEADER = struct.Struct("<II")
_LIVE = 1 << 31


def slot(key: int, value: bytes) -> bytes:
    """One live slot, built from the layout's definition."""
    body = _HEADER.pack(len(value) | _LIVE, key) + value
    return body + bytes(-len(body) % 8)


def slot_offsets(image: bytes) -> dict[int, tuple[int, int]]:
    """``key -> (offset, end)`` read straight off the image bytes."""
    slots = {}
    offset = len(IMAGE_TAG)
    while offset < len(image):
        word, key = _HEADER.unpack_from(image, offset)
        if not word:
            offset += 8
            continue
        end = offset + -(-(8 + (word ^ _LIVE)) // 8) * 8
        slots[key] = (offset, end)
        offset = end
    return slots


def slot_table(node) -> dict[int, tuple[int, int]]:
    """``key -> (offset, size)`` from the bucket's index."""
    return dict(node.server.bucket.index.items())


def gaps(node) -> list[tuple[int, int]]:
    """The bucket heap's free extents below its high-water mark."""
    heap = node.server.bucket.heap
    return [extent for extent in heap._free if extent[0] < heap.high_water]


def bucket_records(node) -> dict[int, bytes]:
    return {key: node.server.bucket.get(key).value
            for key in node.server.bucket.keys()}


def assert_images_exact(cluster: Cluster,
                        offsets_before: dict | None = None,
                        touched: int | None = None) -> dict:
    """Check every up node's image; returns its slot offsets per node.

    With ``offsets_before`` (a previous return value), every record but
    ``touched`` must still sit at the offset it had then.
    """
    offsets = {}
    for node in cluster.nodes:
        if not node.is_up:
            continue
        image = node.image_bytes()
        heap = node.server.bucket.heap
        assert image == bytes(heap.image[:heap.high_water])
        assert {record.key: record.value
                for record in deserialize_bucket(image)} == \
            bucket_records(node)
        if node.store is not None:
            # One image per durable node: the store's volume replica.
            assert node.image is node.store.replica(node.IMAGE_VOLUME)
        slots = slot_offsets(image)
        # The image ends at the high-water mark: no trailing free space.
        assert len(image) == max((end for _start, end in slots.values()),
                                 default=len(IMAGE_TAG))
        if offsets_before is not None and node.index in offsets_before:
            for key, (start, _end) in offsets_before[node.index].items():
                if key != touched and key in slots:
                    assert slots[key][0] == start, (node.name, key)
        offsets[node.index] = slots
    return offsets


def crash_and_recover(cluster: Cluster, index: int, wipe_log: bool) -> None:
    """Crash one node now and let the recovery pipeline run.

    With ``wipe_log`` the node's sealed log is zeroed while it is down,
    so certified replay fails and the node is rebuilt from parity.
    """
    node = cluster.nodes[index]
    store_dir = node.store_dir
    image = node.image_bytes()
    now = cluster.clock.now
    cluster._crash(node, Crash(node.name, at=now, recover_at=now + 1e-3))
    # The crash wiped the bucket, so the image and its slot table are
    # reset with it; recovery must rebuild both.
    assert node.image_bytes() == IMAGE_TAG
    assert slot_table(node) == {} and gaps(node) == []
    if wipe_log:
        for segment in store_dir.glob("seg-*.log"):
            segment.write_bytes(bytes(segment.stat().st_size))
    cluster.loop.run_until_idle()
    assert node.is_up
    if wipe_log:
        # Rebuilt from parity: the canonical packed image.
        assert node.image_bytes() == serialize_bucket(node.server.bucket)
    else:
        # Replayed from the log: every record where it was, holes kept.
        assert node.image_bytes() == image


keys = st.integers(0, 23)
values = st.binary(min_size=0, max_size=60)
steps = st.one_of(
    st.tuples(st.just("insert"), keys, values),
    st.tuples(st.just("update"), keys, values),
    st.tuples(st.just("pseudo"), keys, st.just(b"")),
    st.tuples(st.just("delete"), keys, st.just(b"")),
)


class TestInPlaceImage:
    @settings(max_examples=30, deadline=None)
    @given(field=st.sampled_from([8, 16]),
           first=st.lists(steps, min_size=1, max_size=25),
           second=st.lists(steps, min_size=1, max_size=15),
           third=st.lists(steps, min_size=1, max_size=15),
           victims=st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_image_tracks_serialized_bucket(self, field, first, second,
                                            third, victims):
        with tempfile.TemporaryDirectory() as root, \
                use_registry(MetricsRegistry()) as registry:
            scheme = SCHEMES[field]
            cluster = Cluster(servers=3, seed=field, scheme=scheme,
                              durable_dir=root)
            client = cluster.client()
            model: dict[int, bytes] = {}

            def run(ops):
                offsets = assert_images_exact(cluster)
                for kind, key, value in ops:
                    if kind == "insert":
                        result = client.insert(key, value)
                        assert result.status == (
                            "duplicate" if key in model else "inserted")
                        model.setdefault(key, value)
                    elif kind == "update":
                        result = client.update(key, value)
                        assert result.status == (
                            "applied" if key in model else "missing")
                        # The Section 2.2 filter skips an update only when
                        # the lengths match and the signatures agree; any
                        # other update is written.
                        if key in model and not (
                                len(model[key]) == len(value)
                                and scheme.sign(model[key], strict=False)
                                == scheme.sign(value, strict=False)):
                            model[key] = value
                    elif kind == "pseudo":
                        result = client.update(key, model.get(key, b""))
                        assert result.status == (
                            "applied" if key in model else "missing")
                    else:
                        result = client.delete(key)
                        assert result.status == (
                            "deleted" if key in model else "missing")
                        model.pop(key, None)
                    offsets = assert_images_exact(cluster, offsets, key)

            run(first)
            crash_and_recover(cluster, victims[0], wipe_log=False)
            run(second)
            crash_and_recover(cluster, victims[1], wipe_log=True)
            run(third)
            cluster.settle()
            cluster.check_replicas()
            stored = {key: value for node in cluster.nodes
                      for key, value in bucket_records(node).items()}
            assert stored == model
            assert registry.total("cluster.durable_recoveries") == 1
            assert registry.total("cluster.durable_fallbacks") == 1


class TestOneImagePerDurableNode:
    def test_image_journal_bounded_by_checkpoint_interval(self):
        """A durable node's image is its store's volume replica, so each
        checkpoint folds the journal the anti-entropy sweep left warm."""
        every = 16
        with tempfile.TemporaryDirectory() as root, \
                use_registry(MetricsRegistry()):
            cluster = Cluster(servers=3, seed=4, durable_dir=root,
                              durable_checkpoint_every=every)
            client = cluster.client()
            rng = random.Random(4)
            for key in range(60):
                assert client.insert(key, rng.randbytes(24)).ok
            cluster.settle()
            longest = 0
            for _step in range(400):
                assert client.update(rng.randrange(60), rng.randbytes(
                    rng.randrange(8, 48))).ok
                for node in cluster.nodes:
                    warm = node.image._incremental
                    assert warm is not None
                    longest = max(longest, len(warm.journal))
            assert 0 < longest <= every
            for node in cluster.nodes:
                assert node.image is node.store.replica(node.IMAGE_VOLUME)
                # Sync traffic is accounted to the node's own endpoint.
                assert node.image.name == f"{node.name}:image"
            cluster.settle()
            cluster.check_replicas()


class TestWarmJournalsBounded:
    @pytest.mark.parametrize("durable", [True, False])
    def test_journals_stay_bounded_between_sweeps(self, durable):
        """After the first anti-entropy sweep every hosted mirror (and a
        non-durable node's own image) is warm and journals each write
        until the next sweep; the journal folds at the fixed bound
        instead of growing (the mirrors reached 360/307/412 entries
        here when nothing folded them)."""
        with tempfile.TemporaryDirectory() as root, \
                use_registry(MetricsRegistry()):
            cluster = Cluster(servers=3, seed=4,
                              durable_dir=root if durable else None,
                              durable_checkpoint_every=16)
            client = cluster.client()
            rng = random.Random(4)
            for key in range(60):
                assert client.insert(key, rng.randbytes(24)).ok
            cluster.settle()
            longest = 0
            for _step in range(600):
                assert client.update(rng.randrange(60), rng.randbytes(
                    rng.randrange(8, 48))).ok
                for node in cluster.nodes:
                    for replica in (node.mirror, node.image):
                        warm = replica._incremental
                        assert warm is not None
                        longest = max(longest, len(warm.journal))
            assert JOURNAL_FOLD_ENTRIES // 2 < longest \
                <= JOURNAL_FOLD_ENTRIES
            cluster.settle()
            cluster.check_replicas()


# ----------------------------------------------------------------------
# The slot allocator
# ----------------------------------------------------------------------

def _node0_cluster() -> tuple[Cluster, object]:
    """Two nodes; even keys live on node0."""
    cluster = Cluster(servers=2, seed=3)
    return cluster, cluster.client()


class TestSlotAllocation:
    def test_inserts_append_then_reuse_the_first_fitting_gap(self):
        with use_registry(MetricsRegistry()):
            cluster, client = _node0_cluster()
            node = cluster.nodes[0]
            for key, size in ((2, 40), (4, 100), (6, 40), (8, 24)):
                assert client.insert(key, bytes([key]) * size).ok
            assert node.image_bytes() == IMAGE_TAG + slot(2, b"\x02" * 40) \
                + slot(4, b"\x04" * 100) + slot(6, b"\x06" * 40) \
                + slot(8, b"\x08" * 24)
            length = len(node.image_bytes())
            assert client.delete(4).ok      # a 112-byte gap at offset 56
            assert gaps(node) == [(56, 112)]
            assert client.insert(10, b"\x0a" * 30).ok   # 40 bytes: fits
            assert slot_offsets(node.image_bytes())[10] == (56, 96)
            assert gaps(node) == [(96, 72)]
            assert len(node.image_bytes()) == length

    def test_freed_neighbours_coalesce_and_tail_deletes_trim(self):
        with use_registry(MetricsRegistry()):
            cluster, client = _node0_cluster()
            node = cluster.nodes[0]
            for key in (2, 4, 6, 8):
                assert client.insert(key, bytes(16)).ok     # 24-byte slots
            assert client.delete(4).ok
            assert client.delete(2).ok
            assert gaps(node) == [(8, 48)]
            assert client.delete(8).ok      # the tail slot: image trimmed
            assert len(node.image_bytes()) == 8 + 3 * 24
            assert client.delete(6).ok      # trims through the gap too
            assert node.image_bytes() == IMAGE_TAG
            assert gaps(node) == [] \
                and node.server.bucket.heap.high_water == 8

    def test_size_changing_update_writes_new_slot_before_zeroing_old(self):
        with use_registry(MetricsRegistry()) as registry:
            cluster, client = _node0_cluster()
            node = cluster.nodes[0]
            for key in (2, 4):
                assert client.insert(key, bytes([key]) * 16).ok
            writes = []
            real = node.refresh_image

            def spy(extents, image_len):
                writes.append([offset for offset, _before, _after
                               in extents])
                real(extents, image_len)

            node.refresh_image = spy
            assert client.update(2, b"\x22" * 50).ok    # grow: append
            assert client.update(4, b"\x44" * 12).ok    # same 24-byte slot
            assert writes == [[56, 8], [32]]
            assert slot_offsets(node.image_bytes()) == {4: (32, 56),
                                                        2: (56, 120)}
            assert gaps(node) == [(8, 24)]
            cluster.settle()
            cluster.check_replicas()
            # Two slot writes, one sealed mirror patch.
            assert registry.total("cluster.mirror_deltas") == 2 + 2 + 1
            assert registry.total("net.messages", kind="c_mirror_delta") \
                == 4


# ----------------------------------------------------------------------
# The multi-region delta frame
# ----------------------------------------------------------------------

REGIONS = [(0, b"\x01\x02"), (130, bytes(range(40))), (4096, b""),
           (9000, b"\xff" * 128)]


class TestDeltaCodec:
    def test_roundtrip(self):
        body = wire.encode_deltas(12345, REGIONS)
        image_len, regions = wire.decode_deltas(body)
        assert image_len == 12345
        assert [(offset, bytes(delta)) for offset, delta in regions] == \
            REGIONS

    def test_empty_patch_roundtrip(self):
        assert wire.decode_deltas(wire.encode_deltas(7, [])) == (7, [])

    def test_truncated_bodies_rejected(self):
        body = wire.encode_deltas(500, REGIONS)
        for cut in (0, 5, 11, 12, 15, 20, len(body) - 1):
            with pytest.raises(wire.WireError):
                wire.decode_deltas(body[:cut])

    def test_over_long_body_rejected(self):
        body = wire.encode_deltas(500, REGIONS)
        with pytest.raises(wire.WireError):
            wire.decode_deltas(body + b"\x00")

    def test_region_count_must_match_length(self):
        body = bytearray(wire.encode_deltas(500, REGIONS))
        body[8] += 1                      # one region more than present
        with pytest.raises(wire.WireError):
            wire.decode_deltas(bytes(body))
        body[8] -= 2                      # one region fewer: bytes left over
        with pytest.raises(wire.WireError):
            wire.decode_deltas(bytes(body))


def _settled_cluster(plan: FaultPlan | None = None) -> Cluster:
    """Three nodes; node0 holds keys 30, 33, ..., 147 (14 image pages)."""
    cluster = Cluster(servers=3, seed=7, plan=plan)
    client = cluster.client()
    for key in range(30, 150, 3):
        assert client.insert(key, f"record {key} ".encode() * 4).ok
    cluster.settle()
    return cluster


class TestMirrorPatches:
    def test_one_frame_carries_every_extent_of_a_mutation(self):
        with use_registry(MetricsRegistry()) as registry:
            cluster = _settled_cluster()
            client = cluster.client()
            # Each mutation ships one frame holding one region per slot
            # write: one, or two for a size-changing update.
            for call, slot_writes in ((lambda: client.insert(0, b"front"), 1),
                                      (lambda: client.update(0, b"x" * 40), 2),
                                      (lambda: client.update(0, b"y" * 40), 1),
                                      (lambda: client.delete(30), 1)):
                frames = registry.total("net.messages", kind="c_mirror_delta")
                regions = registry.total("cluster.mirror_deltas")
                assert call().ok
                assert registry.total("net.messages",
                                      kind="c_mirror_delta") == frames + 1
                assert registry.total("cluster.mirror_deltas") \
                    == regions + slot_writes
            cluster.settle()
            cluster.check_replicas()

    def test_corrupt_multi_region_frame_is_dropped_whole(self):
        with use_registry(MetricsRegistry()) as registry:
            cluster = _settled_cluster()
            host = cluster.mirror_host(0)
            before = bytes(host.mirror.data)
            regions = [(0, b"\x01\x00"), (128, b"\xff" * 16),
                       (256, b"\x0f" * 4)]
            body = wire.encode_traced(
                None, wire.encode_deltas(len(before), regions))
            sealed = bytearray(wire.seal(cluster.scheme, body))
            sealed[len(sealed) // 2] ^= 0x10
            host.receive_mirror_delta(bytes(sealed))
            assert bytes(host.mirror.data) == before
            assert registry.total("cluster.corruptions_detected",
                                  where="mirror") == 1

    def test_valid_multi_region_frame_applies_every_region(self):
        with use_registry(MetricsRegistry()):
            cluster = _settled_cluster()
            host = cluster.mirror_host(0)
            before = bytes(host.mirror.data)
            regions = [(8, b"\x01\x02"), (130, b"\xf0\x0f\xff\x00")]
            body = wire.encode_traced(
                None, wire.encode_deltas(len(before), regions))
            host.receive_mirror_delta(wire.seal(cluster.scheme, body))
            expected = bytearray(before)
            for offset, delta in regions:
                for i, byte in enumerate(delta):
                    expected[offset + i] ^= byte
            assert bytes(host.mirror.data) == bytes(expected)

    def test_dropped_patch_stays_stale_until_anti_entropy(self):
        # Every mirror patch from node0 to its host (node1) is lost.
        plan = FaultPlan(links={("node0", "node1"): LinkFaults(drop=1.0)})
        with use_registry(MetricsRegistry()) as registry:
            cluster = _settled_cluster(plan)
            host = cluster.mirror_host(0)
            mirror = bytes(host.mirror.data)
            regions = registry.total("cluster.mirror_deltas")
            assert cluster.client().insert(0, b"front").ok
            cluster.loop.run_until_idle()
            assert registry.total("cluster.mirror_deltas") - regions == 1
            assert bytes(host.mirror.data) == mirror
            assert not cluster.converged()
            cluster.anti_entropy()
            cluster.loop.run_until_idle()
            cluster.check_replicas()


# ----------------------------------------------------------------------
# Image decoding refuses malformed images
# ----------------------------------------------------------------------

GOOD = IMAGE_TAG + slot(5, b"five") + bytes(16) + slot(3, b"three!!!!")


class TestImageDecoding:
    def _image(self) -> bytes:
        cluster = _settled_cluster()
        image = cluster.nodes[0].image_bytes()
        assert len(deserialize_bucket(image)) > 0
        return image

    def test_serialized_bucket_is_tag_then_sorted_packed_slots(self):
        cluster = _settled_cluster()
        server = cluster.nodes[0].server
        image = serialize_bucket(server.bucket)
        assert image == IMAGE_TAG + b"".join(
            slot(key, server.bucket.get(key).value)
            for key in sorted(server.bucket.keys()))
        assert {r.key: r.value for r in deserialize_bucket(image)} == \
            bucket_records(cluster.nodes[0])

    def test_holes_decode_in_offset_order(self):
        assert [(r.key, r.value) for r in deserialize_bucket(GOOD)] == \
            [(5, b"five"), (3, b"three!!!!")]

    def test_truncated_image_raises_wire_error(self):
        image = self._image()
        for cut in (0, 4, 8 + 16, len(image) - 8, len(image) - 1):
            with pytest.raises(wire.WireError):
                deserialize_bucket(image[:cut])

    def test_trailing_bytes_raise_wire_error(self):
        with pytest.raises(wire.WireError):
            deserialize_bucket(self._image() + b"\x00")

    def test_trailing_free_space_raises_wire_error(self):
        with pytest.raises(wire.WireError, match="past the last slot"):
            deserialize_bucket(GOOD + bytes(8))

    def test_unknown_tag_and_old_sorted_image_rejected(self):
        old_sorted = struct.pack("<Q", 1) + struct.pack("<II", 4, 5) + b"five"
        for image in (b"", IMAGE_TAG[:7], b"SDDSLOT2" + GOOD[8:],
                      bytes(8), old_sorted):
            with pytest.raises(wire.WireError, match="tag"):
                deserialize_bucket(image)

    def test_unaligned_length_rejected(self):
        with pytest.raises(wire.WireError, match="aligned"):
            deserialize_bucket(GOOD + b"\x00\x00\x00\x00")

    def test_nonzero_free_word_rejected(self):
        for at in (len(IMAGE_TAG) + 16, len(IMAGE_TAG) + 16 + 7):
            damaged = bytearray(GOOD)
            damaged[at] = 1
            with pytest.raises(wire.WireError, match="free word"):
                deserialize_bucket(bytes(damaged))

    def test_nonzero_padding_rejected(self):
        damaged = bytearray(GOOD)
        damaged[len(IMAGE_TAG) + 8 + 4] = 1     # after b"five"
        with pytest.raises(wire.WireError, match="padding"):
            deserialize_bucket(bytes(damaged))

    def test_truncated_slot_rejected(self):
        too_long = IMAGE_TAG + _HEADER.pack(64 | _LIVE, 1) + bytes(32)
        with pytest.raises(wire.WireError, match="truncated slot"):
            deserialize_bucket(too_long)

    def test_duplicate_key_rejected(self):
        with pytest.raises(wire.WireError, match="twice"):
            deserialize_bucket(GOOD + slot(5, b"again"))

    def test_adopt_rejects_and_keeps_the_current_image(self):
        with use_registry(MetricsRegistry()):
            cluster = _settled_cluster()
            node = cluster.nodes[0]
            image = node.image_bytes()
            with pytest.raises(wire.WireError):
                node.adopt_image(GOOD + slot(5, b"again"))
            assert node.image_bytes() == image
            node.adopt_image(GOOD)
            assert node.image_bytes() == GOOD
            assert bucket_records(node) == {5: b"five", 3: b"three!!!!"}
            assert slot_table(node) == {5: (8, 16), 3: (40, 24)}
            assert gaps(node) == [(24, 16)] \
                and node.server.bucket.heap.high_water == 64

    def test_check_replicas_rejects_trailing_garbage(self):
        with use_registry(MetricsRegistry()):
            cluster = _settled_cluster()
            node = cluster.nodes[0]
            garbage = b"\x00\x01"
            node.image.write_at(len(node.image.data), garbage)
            cluster.mirror_of(0).write_at(len(cluster.mirror_of(0).data),
                                          garbage)
            assert cluster.converged()
            with pytest.raises(ClusterError):
                cluster.check_replicas()
