"""Crash-point sweep: durable recovery never replays half a mutation.

A fixed-seed durable 2-node :class:`~repro.cluster.Cluster` runs a short
preload that leaves a hole in node0's slot image, then one mutation of
each kind.  The owning node's sealed log is cut at every frame boundary
of that mutation's burst and at three offsets inside each of its frames
(a torn write), the node crashes, and the cluster recovers it.  The
recovered bucket must equal the client's model before or after the
mutation; where the log holds only part of a size-changing update, the
duplicate key it leaves makes recovery fall back to LH*RS
(``cluster.durable_fallbacks``) instead of adopting the image.
"""

from __future__ import annotations

import tempfile
from unittest import mock

import pytest

from repro.cluster import Cluster, Crash
from repro.obs import MetricsRegistry, use_registry
from repro.store.pagestore import PageStore

#: Even keys live on node0, odd keys on node1.  The preload leaves
#: node0 with slots 2, [hole of 112 bytes], 6, 8 (8 is the tail slot).
PRELOAD = [("insert", 2, b"\x02" * 40), ("insert", 4, b"\x04" * 100),
           ("insert", 6, b"\x06" * 40), ("insert", 8, b"\x08" * 40),
           ("delete", 4, b"")]

#: One mutation per kind: (kind, key, value, frames in its burst).
MUTATIONS = {
    "insert": ("insert", 10, b"\x0a" * 60, 1),          # into the hole
    "same_size_update": ("update", 6, b"\x66" * 40, 1),  # in place
    "grow": ("update", 2, b"\x22" * 200, 2),             # appended
    "shrink": ("update", 6, b"\x66" * 8, 2),             # into the hole
    "delete": ("delete", 6, b"", 1),
    "delete_tail": ("delete", 8, b"", 1),                # trims the image
}


def _apply(client, model: dict, kind: str, key: int, value: bytes) -> None:
    if kind == "insert":
        assert client.insert(key, value).ok
        model[key] = value
    elif kind == "update":
        assert client.update(key, value).ok
        model[key] = value
    else:
        assert client.delete(key).ok
        del model[key]


def _run(root: str, preload, mutation, cut=None):
    """Preload, mutate (cutting node's log at ``cut``), crash, recover.

    Returns the model before and after the mutation, the frame offsets
    of the mutation's burst and the log end, the recovered node's
    records, and the registry.
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = Cluster(servers=2, seed=5, durable_dir=root,
                          durable_checkpoint_every=3, recovery_workers=1)
        client = cluster.client()
        model: dict[int, bytes] = {}
        for kind, key, value in preload:
            _apply(client, model, kind, key, value)
        before = dict(model)
        kind, key, value = mutation
        node = cluster.node_for(key)
        offsets: list[int] = []
        real = PageStore.record_extents

        def spy(store, volume, regions, image_len):
            found = real(store, volume, regions, image_len)
            if store is node.store:
                offsets.extend(found)
            return found

        with mock.patch.object(PageStore, "record_extents", spy):
            _apply(client, model, kind, key, value)
        end = node.store.log_bytes
        if cut is not None:
            node.store.crash_cut(cut)
            now = cluster.clock.now
            cluster._crash(node, Crash(node.name, at=now,
                                       recover_at=now + 1e-3))
            cluster.loop.run_until_idle()
            assert node.is_up
            cluster.settle()
            cluster.check_replicas()
        recovered = {k: node.server.bucket.get(k).value
                     for k in node.server.bucket.keys()}
        before, after = ({k: v for k, v in state.items()
                          if cluster.node_for(k) is node}
                         for state in (before, model))
    return before, after, offsets, end, recovered, registry


def _cut_points(offsets: list[int], end: int) -> list[int]:
    """Every frame boundary of the burst, plus three torn offsets per frame."""
    bounds = offsets + [end]
    points = list(bounds)
    for start, stop in zip(bounds, bounds[1:]):
        points += [start + 1, (start + stop) // 2, stop - 1]
    return points


def sweep(preload, mutation) -> dict[str, int]:
    """Cut at every point of the mutation's burst; tally the outcomes."""
    with tempfile.TemporaryDirectory() as root:
        _, _, offsets, end, _, _ = _run(root, preload, mutation)
    outcomes = {"frames": len(offsets), "before": 0, "after": 0,
                "fallback": 0}
    for cut in _cut_points(offsets, end):
        with tempfile.TemporaryDirectory() as root:
            before, after, _, _, recovered, registry = _run(
                root, preload, mutation, cut)
        fell_back = registry.total("cluster.durable_fallbacks") == 1
        assert fell_back or registry.total("cluster.durable_recoveries") == 1
        # Never a mix: exactly one side of the mutation, whichever path.
        assert recovered in (before, after), cut
        if fell_back:
            # The parity group already holds the mutation.
            assert recovered == after
            outcomes["fallback"] += 1
        else:
            outcomes["before" if recovered == before else "after"] += 1
        if cut == end:
            assert not fell_back and recovered == after
        if cut == offsets[0]:
            assert not fell_back and recovered == before
    return outcomes


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_crash_point_sweep(name):
    kind, key, value, frames = MUTATIONS[name]
    outcomes = sweep(PRELOAD, (kind, key, value))
    assert outcomes["frames"] == frames
    if frames == 2:
        # Cuts after the new slot but before the old one is zeroed
        # leave the key twice: the boundary plus three torn offsets in
        # the second frame all fall back.
        assert outcomes["fallback"] == 4
    else:
        assert outcomes["fallback"] == 0


def test_torn_same_size_update_never_mixes_old_and_new_bytes():
    """240 B of 0x11 updated to 240 B of 0x22, cut at every point.

    With a key-sorted image this update logged two page frames, and a
    cut on the boundary between them recovered a value holding both
    0x11 and 0x22 bytes.  A slot write is one frame, so every cut
    recovers one of the two values.
    """
    preload = [("insert", 7, b"\x11" * 240)]
    outcomes = sweep(preload, ("update", 7, b"\x22" * 240))
    assert outcomes == {"frames": 1, "before": 4, "after": 1, "fallback": 0}
