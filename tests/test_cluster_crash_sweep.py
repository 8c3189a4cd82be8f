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

The same sweep runs under composed faults: the checkpoint falling due
inside the mutation dies half-written or before its rename; one symbol
of a preload frame rots before the cut; and the mirror host that would
supply condemned pages is down, or partitioned from the node, when it
recovers.  Every run still ends in an exact image or in an explicit,
counted fall-back, never in a mixed or wrong one.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest

from repro.cluster import Cluster, Crash, FaultPlan, Partition
from repro.obs import MetricsRegistry, use_registry
from repro.sig import make_scheme
from repro.store import checkpoint as ckpt
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


#: The checkpoint's temporary file, written and then renamed into place.
TEMPORARY = ckpt.FILENAME + ".tmp"


class Died(Exception):
    """The node's process dies inside a checkpoint write."""


class Run(NamedTuple):
    """What one harness run saw of the mutated node."""

    before: dict            #: the node's records before the mutation
    after: dict             #: ... and after it
    preload: list[int]      #: log offsets of the preload's frames
    offsets: list[int]      #: log offsets of the mutation's burst
    end: int                #: log end after the mutation
    node: str               #: the mutated node's name
    crashed_at: float       #: simulated time of the crash
    recovered: dict         #: the node's records as recovery left them
    registry: MetricsRegistry


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


def _records(node) -> dict:
    return {k: node.server.bucket.get(k).value
            for k in node.server.bucket.keys()}


@contextmanager
def dying_checkpoint(where: str):
    """Kill the next checkpoint: half its temp file, or its rename."""
    real_write, real_replace = Path.write_bytes, os.replace

    def write_bytes(path, data):
        if path.name != TEMPORARY:
            return real_write(path, data)
        real_write(path, data[:len(data) // 2])
        raise Died(where)

    def replace(source, target):
        if Path(source).name == TEMPORARY:
            raise Died(where)
        return real_replace(source, target)

    if where == "write":
        patch = mock.patch.object(Path, "write_bytes", write_bytes)
    else:
        patch = mock.patch.object(ckpt.os, "replace", replace)
    with patch:
        yield


def _run(root: str, preload, mutation, cut=None, *, rot=None,
         checkpoint_dies=None, mirror_down=False, partition=None) -> Run:
    """Preload, mutate (cutting node's log at ``cut``), crash, recover.

    Composed faults: ``rot`` XORs one symbol in the middle of that
    preload frame before the cut; ``checkpoint_dies`` ("write" or
    "replace") kills the checkpoint falling due inside the mutation;
    ``mirror_down`` crashes the mirror host with the node, recovering
    it later; ``partition=(at, node)`` severs that node from every
    other party, its mirror host included, from ``at`` on.  With no
    ``cut`` the run stops after the mutation (a probe of the burst).
    """
    registry = MetricsRegistry()
    plan = FaultPlan()
    if partition is not None:
        at, name = partition
        plan = FaultPlan(partitions=(Partition(at, at + 1.0, ((name,),)),))
    with use_registry(registry):
        cluster = Cluster(servers=2, seed=5, plan=plan, durable_dir=root,
                          durable_checkpoint_every=3)
        client = cluster.client()
        kind, key, value = mutation
        node = cluster.node_for(key)
        host = cluster.mirror_host(node.index)
        logged: list[int] = []
        real = PageStore.record_extents

        def spy(store, volume, regions, image_len):
            found = real(store, volume, regions, image_len)
            if store is node.store:
                logged.extend(found)
            return found

        model: dict[int, bytes] = {}
        with mock.patch.object(PageStore, "record_extents", spy):
            for op in preload:
                _apply(client, model, *op)
            preload_offsets, before = list(logged), dict(model)
            del logged[:]
            if checkpoint_dies is None:
                _apply(client, model, kind, key, value)
            else:
                with dying_checkpoint(checkpoint_dies), pytest.raises(Died):
                    _apply(client, model, kind, key, value)
                assert (node.store_dir / TEMPORARY).is_file()
        after = {k: v for k, v in model.items() if k != key}
        if kind != "delete":
            after[key] = value
        before, after = ({k: v for k, v in state.items()
                          if cluster.node_for(k) is node}
                         for state in (before, after))
        end = node.store.log_bytes
        now = cluster.clock.now
        recovered: dict = {}
        if cut is not None:
            if rot is not None:
                start = preload_offsets[rot]
                stop = (preload_offsets + logged)[rot + 1]
                node.store.corrupt_log((start + stop) // 2, b"\x5a")
            node.store.crash_cut(cut)
            real_recover = cluster._recover

            def recover(target, crashed_at):
                real_recover(target, crashed_at)
                if target is node:
                    recovered.update(_records(node))

            with mock.patch.object(cluster, "_recover", recover):
                cluster._crash(node, Crash(node.name, at=now,
                                           recover_at=now + 1e-3))
                if mirror_down:
                    cluster._crash(host, Crash(host.name, at=now,
                                               recover_at=now + 1.0))
                if partition is not None:
                    assert plan.severed(now + 1e-3, node.name, host.name)
                cluster.loop.run_until_idle()
            assert node.is_up and host.is_up
            cluster.settle()
            cluster.check_replicas()
            # A retried request the dying checkpoint abandoned may land
            # after recovery; it can only finish the mutation.
            assert _records(node) in (recovered, after)
    return Run(before, after, preload_offsets, logged, end, node.name, now,
               recovered, registry)


def _cut_points(offsets: list[int], end: int) -> list[int]:
    """Every frame boundary of the burst, plus three torn offsets per frame."""
    bounds = offsets + [end]
    points = list(bounds)
    for start, stop in zip(bounds, bounds[1:]):
        points += [start + 1, (start + stop) // 2, stop - 1]
    return points


def sweep(preload, mutation, partitioned=False, reasons=None,
          **faults) -> dict[str, int]:
    """Cut at every point of the mutation's burst; tally the outcomes.

    Every run ends in an exact image, before or after the mutation, or
    in an explicit, counted fall-back to LH*RS; with a rotted frame an
    exact image must also have been patched from the mirror.  A
    ``reasons`` Counter, when given, tallies each fall-back's reason.
    """
    with tempfile.TemporaryDirectory() as root:
        probe = _run(root, preload, mutation)
    if partitioned:
        faults["partition"] = (probe.crashed_at, probe.node)
    outcomes = {"frames": len(probe.offsets), "before": 0, "after": 0,
                "fallback": 0, "patched": 0}
    for cut in _cut_points(probe.offsets, probe.end):
        with tempfile.TemporaryDirectory() as root:
            run = _run(root, preload, mutation, cut, **faults)
        node = run.node
        fell_back = run.registry.total("cluster.durable_fallbacks",
                                       node=node) == 1
        assert fell_back or run.registry.total(
            "cluster.durable_recoveries", node=node) == 1
        # Never a mix: exactly one side of the mutation, whichever path.
        assert run.recovered in (run.before, run.after), cut
        patched = run.registry.total("cluster.condemned_pages_patched",
                                     node=node)
        if fell_back:
            # The parity group already holds the mutation.
            assert run.recovered == run.after
            outcomes["fallback"] += 1
            if reasons is not None:
                reasons.update(
                    dict(series.labels)["reason"]
                    for series in run.registry.series()
                    if series.name == "cluster.durable_fallbacks")
        else:
            if faults.get("rot") is not None:
                # Condemned pages were patched, each one verified
                # against its certified signature.
                assert patched > 0, cut
            outcomes["before" if run.recovered == run.before
                     else "after"] += 1
        outcomes["patched"] += bool(patched)
        # A dead checkpoint write leaves the previous checkpoint intact.
        assert run.registry.total("store.checkpoints_rejected") == 0
        if faults.get("rot") is None:
            if cut == probe.end:
                assert not fell_back and run.recovered == run.after
            if cut == probe.offsets[0]:
                assert not fell_back and run.recovered == run.before
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
    assert outcomes == {"frames": 1, "before": 4, "after": 1, "fallback": 0,
                        "patched": 0}


@pytest.mark.parametrize("where", ["write", "replace"])
@pytest.mark.parametrize("name", ["grow", "shrink"])
def test_crash_while_checkpointing(name, where):
    """The checkpoint due inside a two-frame burst dies mid-write.

    Both frames are logged before the checkpoint falls due, so the dying
    write (half a temp file, or a temp file never renamed) loses nothing:
    recovery deletes the leftover ``checkpoint.ckpt.tmp``, loads the
    previous checkpoint and ends exactly as the plain sweep does.
    """
    kind, key, value, frames = MUTATIONS[name]
    outcomes = sweep(PRELOAD, (kind, key, value), checkpoint_dies=where)
    assert outcomes == {"frames": frames, "before": 4, "after": 1,
                        "fallback": 4, "patched": 0}


@pytest.mark.parametrize("where", ["write", "replace"])
def test_store_recovers_from_the_previous_checkpoint(tmp_path, where):
    scheme = make_scheme()
    store = PageStore(scheme, tmp_path)
    image = bytearray(1024)
    store.write_image("v", bytes(image), 128)
    previous = store.checkpoint().read_bytes()
    for at in range(0, 1024, 200):
        after = bytes([at % 251 + 1]) * 16
        store.record_extent("v", at, bytes(image[at:at + 16]), after,
                            len(image))
        image[at:at + 16] = after
    with dying_checkpoint(where), pytest.raises(Died):
        store.checkpoint()
    store.close()
    assert (tmp_path / TEMPORARY).is_file()
    assert (tmp_path / ckpt.FILENAME).read_bytes() == previous
    with use_registry(MetricsRegistry()) as registry:
        recovered, report = PageStore.recover(scheme, tmp_path)
    try:
        assert report.clean and report.used_checkpoint
        assert report.frames_folded == 6        # the deltas after it
        assert recovered.image("v") == bytes(image)
        # The dead write's leftover is deleted, and the deletion counted.
        assert not (tmp_path / TEMPORARY).exists()
        assert registry.total("store.checkpoint_tmp_removed") == 1
    finally:
        recovered.close()


@pytest.mark.parametrize("mirror", ["up", "down", "partitioned"])
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_rot_before_the_cut(name, mirror):
    """One symbol of each preload frame rots, then the burst is cut.

    ``up``: every run ends exact, its condemned pages patched from the
    mirror and verified against their certified signatures, or falls
    back to LH*RS; some runs are patched.  ``down``: the mirror host is
    crashed too, so nothing can verify a patch and every run falls back.
    ``partitioned``: the node is cut off from its mirror host while it
    recovers, but the patch is read over the recovery channel, which is
    modelled as reliable, so every run ends exactly as with ``up``.

    The fall-back's ``reason`` label says why: ``mirror_down`` when the
    host is down; ``uncertified`` on every fall-back from rot in the
    last preload frame, logged after the checkpoint, which no certified
    signature covers.
    """
    kind, key, value, frames = MUTATIONS[name]
    mutation = (kind, key, value)
    cuts = 4 * frames + 1
    patched = 0
    for rot in range(len(PRELOAD)):
        reasons = Counter()
        if mirror == "down":
            outcomes = sweep(PRELOAD, mutation, rot=rot, mirror_down=True,
                             reasons=reasons)
            assert outcomes["fallback"] == cuts
            assert outcomes["patched"] == 0
            assert reasons == {"mirror_down": cuts}
            continue
        outcomes = sweep(PRELOAD, mutation, rot=rot, reasons=reasons)
        if mirror == "partitioned":
            assert sweep(PRELOAD, mutation, rot=rot,
                         partitioned=True) == outcomes
        patched += outcomes["patched"]
        if rot == len(PRELOAD) - 1:
            assert outcomes["fallback"] > 0
            assert reasons == {"uncertified": outcomes["fallback"]}
    if mirror != "down":
        assert patched > 0
