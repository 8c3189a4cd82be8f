"""In-place bucket images and one sealed mirror patch per mutation.

A cluster node keeps its bucket image equal to ``serialize_bucket`` of
its bucket without re-serializing it: each mutation splices the record's
bytes into the image at an offset taken from the node's key index.  The
changed extents then travel to the hosted mirror as *one* sealed
multi-region delta frame (Proposition 3 patches, one seal per
mutation), and into the durable log as the same per-page ``DELTA``
frames as before.  These tests pin the image invariant across crashes
and both recovery paths, the extent differ against its per-byte
definition, the multi-region wire codec, and the image decoder's
refusal of truncated or over-long images.
"""

from __future__ import annotations

import random
import tempfile
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterError,
    Crash,
    FaultPlan,
    LinkFaults,
    deserialize_bucket,
    serialize_bucket,
    wire,
)
from repro.cluster.node import ClusterNode
from repro.obs import MetricsRegistry, use_registry
from repro.sig import make_scheme
from repro.sig.incremental import aligned_span

SCHEMES = {8: make_scheme(f=8, n=2), 16: make_scheme(f=16, n=2)}


def per_byte_extents(previous: bytes, current: bytes, page_bytes: int,
                     symbol_bytes: int) -> list[tuple[int, int]]:
    """The extent differ's definition: a per-byte scan of each page."""
    longest = max(len(previous), len(current))
    extents = []
    for lo in range(0, longest, page_bytes):
        hi = min(lo + page_bytes, longest)
        old_page = previous[lo:hi]
        new_page = current[lo:hi]
        if old_page == new_page:
            continue
        span = max(len(old_page), len(new_page))
        first = next(
            i for i in range(span)
            if (old_page[i:i + 1] or None) != (new_page[i:i + 1] or None)
        )
        last = next(
            i for i in range(span - 1, -1, -1)
            if (old_page[i:i + 1] or None) != (new_page[i:i + 1] or None)
        )
        a, b = aligned_span(lo + first, last - first + 1, symbol_bytes)
        extents.append((a, min(b, lo + span)))
    return extents


@contextmanager
def oracle_checked_extents():
    """Check every ``_changed_extents`` call against the per-byte oracle."""
    real = ClusterNode._changed_extents
    diffs = []

    def checked(node, previous, current):
        extents = real(node, previous, current)
        assert extents == per_byte_extents(
            previous, current, node.page_bytes,
            node.scheme.scheme_id.symbol_bytes)
        diffs.append(extents)
        return extents

    with mock.patch.object(ClusterNode, "_changed_extents", checked):
        yield diffs


def assert_images_exact(cluster: Cluster) -> None:
    for node in cluster.nodes:
        if not node.is_up:
            continue
        assert node.image_bytes() == serialize_bucket(node.server)
        assert node._keys == sorted(node.server.bucket.keys())
        assert node._sizes == [8 + len(node.server.bucket.get(key).value)
                               for key in node._keys]
        if node.store is not None:
            assert node.store.image(node.IMAGE_VOLUME) == node.image_bytes()


def crash_and_recover(cluster: Cluster, index: int, wipe_log: bool) -> None:
    """Crash one node now and let the recovery pipeline run.

    With ``wipe_log`` the node's sealed log is zeroed while it is down,
    so certified replay fails and the node is rebuilt from parity.
    """
    node = cluster.nodes[index]
    store_dir = node.store_dir
    now = cluster.clock.now
    cluster._crash(node, Crash(node.name, at=now, recover_at=now + 1e-3))
    # The crash wiped the bucket, so the image and its key index are
    # reset with it; recovery must rebuild both.
    assert node.image_bytes() == serialize_bucket(node.server)
    assert node._keys == node._sizes == []
    if wipe_log:
        for segment in store_dir.glob("seg-*.log"):
            segment.write_bytes(bytes(segment.stat().st_size))
    cluster.loop.run_until_idle()
    assert node.is_up


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
                use_registry(MetricsRegistry()) as registry, \
                oracle_checked_extents() as diffs:
            scheme = SCHEMES[field]
            cluster = Cluster(servers=3, seed=field, scheme=scheme,
                              durable_dir=root)
            client = cluster.client()
            model: dict[int, bytes] = {}

            def run(ops):
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
                        # The server filters pseudo-updates by signature
                        # (Section 2.2), so a value that differs from the
                        # stored one only by trailing zero symbols signs
                        # identically and is not written.
                        if key in model and scheme.sign(
                                model[key], strict=False) != scheme.sign(
                                value, strict=False):
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
                    assert_images_exact(cluster)

            run(first)
            crash_and_recover(cluster, victims[0], wipe_log=False)
            assert_images_exact(cluster)
            run(second)
            crash_and_recover(cluster, victims[1], wipe_log=True)
            assert_images_exact(cluster)
            run(third)
            cluster.settle()
            cluster.check_replicas()
            stored = {key: node.server.bucket.get(key).value
                      for node in cluster.nodes
                      for key in node.server.bucket.keys()}
            assert stored == model
            assert registry.total("cluster.durable_recoveries") == 1
            assert registry.total("cluster.durable_fallbacks") == 1
            assert diffs  # the oracle really checked the differ

    @settings(max_examples=200, deadline=None)
    @given(previous=st.binary(max_size=600), current=st.binary(max_size=600),
           page_bytes=st.sampled_from([8, 16, 128]),
           field=st.sampled_from([8, 16]))
    def test_extent_differ_matches_per_byte_scan(self, previous, current,
                                                 page_bytes, field):
        scheme = SCHEMES[field]
        node = mock.Mock(page_bytes=page_bytes, scheme=scheme)
        assert ClusterNode._changed_extents(node, previous, current) == \
            per_byte_extents(previous, current, page_bytes,
                             scheme.scheme_id.symbol_bytes)

    @pytest.mark.parametrize("field", [8, 16])
    def test_extent_differ_on_shifted_and_resized_images(self, field):
        rng = random.Random(field)
        scheme = SCHEMES[field]
        symbol_bytes = scheme.scheme_id.symbol_bytes
        node = mock.Mock(page_bytes=128, scheme=scheme)
        for _ in range(50):
            previous = rng.randbytes(rng.randrange(8, 2000))
            at = rng.randrange(len(previous))
            shifted = previous[:at] + rng.randbytes(rng.randrange(0, 60)) \
                + previous[at + rng.randrange(0, 30):]
            # Pure growth and shrinkage: the pages agree up to the
            # shorter length, so only the tail bytes differ.
            grown = previous + bytes(rng.randrange(1, 300))
            for old, new in ((previous, shifted), (previous, grown),
                             (grown, previous)):
                assert ClusterNode._changed_extents(node, old, new) == \
                    per_byte_extents(old, new, 128, symbol_bytes)


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

    def test_single_region_is_a_one_region_patch(self):
        assert wire.encode_delta(99, 17, b"\xab\xcd") == \
            wire.encode_deltas(99, [(17, b"\xab\xcd")])

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
            frames = registry.total("net.messages", kind="c_mirror_delta")
            regions = registry.total("cluster.mirror_deltas")
            # An insert at the front of node0's image shifts every page.
            assert cluster.client().insert(0, b"front").ok
            assert registry.total("net.messages", kind="c_mirror_delta") \
                == frames + 1
            assert registry.total("cluster.mirror_deltas") - regions > 1
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
            node = cluster.nodes[0]
            host = cluster.mirror_host(0)
            mirror = bytes(host.mirror.data)
            regions = registry.total("cluster.mirror_deltas")
            assert cluster.client().insert(0, b"front").ok
            cluster.loop.run_until_idle()
            assert registry.total("cluster.mirror_deltas") - regions > 1
            assert bytes(host.mirror.data) == mirror
            assert not cluster.converged()
            cluster.anti_entropy()
            cluster.loop.run_until_idle()
            cluster.check_replicas()


# ----------------------------------------------------------------------
# Image decoding refuses damaged images
# ----------------------------------------------------------------------

class TestImageDecoding:
    def _image(self) -> bytes:
        cluster = _settled_cluster()
        image = cluster.nodes[0].image_bytes()
        assert len(deserialize_bucket(image)) > 0
        return image

    def test_truncated_image_raises_wire_error(self):
        image = self._image()
        for cut in (0, 4, 8, 12, len(image) - 1):
            with pytest.raises(wire.WireError):
                deserialize_bucket(image[:cut])

    def test_trailing_bytes_raise_wire_error(self):
        with pytest.raises(wire.WireError):
            deserialize_bucket(self._image() + b"\x00")

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
