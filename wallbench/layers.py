"""Per-layer attribution for the traced benchmark run.

The benchmark records spans from its own files: :class:`LayerTracer`
replaces the public entry points of each layer (the table in
:data:`LAYERS`) with timing wrappers for the duration of one timed phase,
then puts the originals back.  Nothing in ``src/`` is edited.

A layer's *self time* is the wall time spent inside its entry points
minus the part covered by spans of other layers nested inside them.  A
call into a layer from code already inside the same layer (for example
``sign_concat`` delegating to ``sign_concat_many``) folds into the outer
span, so ``calls`` counts entries into the layer from outside it.  Self
times of one phase therefore never overlap, and their sum is at most the
phase's wall time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

#: Layer name -> entry points (``module:attribute`` or
#: ``module:Class.method``).  Module-level functions are patched in every
#: ``repro`` module that imported them by name, so both the serving
#: plane's and the cluster node's ``apply_operation`` are covered.
LAYERS: dict[str, tuple[str, ...]] = {
    "cluster.wire": ("repro.cluster.wire:seal", "repro.cluster.wire:seal_many",
                     "repro.cluster.wire:unseal"),
    "sig.engine": ("repro.sig.engine:BatchSigner.sign_concat",
                   "repro.sig.engine:BatchSigner.sign_concat_many",
                   "repro.sig.engine:BatchSigner.sign_map"),
    "cluster.events": ("repro.cluster.events:EventLoop.run_until",
                       "repro.cluster.events:EventLoop.run_until_idle"),
    "cluster.network": ("repro.cluster.network:FaultyNetwork.transmit",),
    "serve.service": ("repro.serve.service:RequestService.offer",),
    "serve.ops": ("repro.serve.ops:apply_operation",),
    "cluster.node": ("repro.cluster.node:ClusterNode.refresh_image",),
    "parity": ("repro.parity.lhrs:LHRSStore.insert",
               "repro.parity.lhrs:LHRSStore.update"),
    "store.pagestore": ("repro.store.pagestore:PageStore.record_extent",
                        "repro.store.pagestore:PageStore.checkpoint"),
    "store.frames": ("repro.store.frames:encode_many",),
    "store.log": ("repro.store.log:SegmentedLog.append_encoded",
                  "repro.store.log:SegmentedLog.scan"),
    "store.recover": ("repro.store.pagestore:PageStore.recover",),
    "sig.locate": ("repro.sig.locate:LocatorMap.compute",
                   "repro.sig.locate:LocatorMap.from_map",
                   "repro.sig.locate:decode"),
}


def _count_wire(counts: dict, name: str, args, result) -> None:
    if name == "seal_many":
        counts["frames"] += len(args[1])
        counts["bytes_sealed"] += sum(len(body) for body in args[1])
    elif name == "seal":
        counts["frames"] += 1
        counts["bytes_sealed"] += len(args[1])
    else:
        counts["frames"] += 1


def _count_ops(counts: dict, name: str, args, result) -> None:
    from repro.cluster import wire

    if args[2] == wire.OP_UPDATE:
        counts["updates"] += 1
        if result[2] == "pseudo":
            counts["pseudo"] += 1


#: Layers whose wrappers also count what passes through them.
_COUNT_HOOKS = {"cluster.wire": _count_wire, "serve.ops": _count_ops}


class LayerStat:
    """Calls, self seconds and hook counts of one layer."""

    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts: dict[str, int] = {"frames": 0, "bytes_sealed": 0,
                                       "updates": 0, "pseudo": 0}


class LayerTracer:
    """Installs timing wrappers on the layer entry points; accumulates stats.

    Use as a context manager around one timed phase.  Stats accumulate
    across phases.
    """

    def __init__(self):
        self.stats = {name: LayerStat() for name in LAYERS}
        #: Open spans: ``[layer, seconds covered by nested spans]``.
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def self_total(self) -> float:
        """Sum of every layer's self seconds."""
        return sum(stat.self_s for stat in self.stats.values())

    # ------------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        stat_of = self.stats
        hook = _COUNT_HOOKS.get(layer)

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat = stat_of[layer]
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(stat_of[layer].counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Replace every entry point with its timing wrapper."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, path = target.split(":")
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, method = path.split(".")
                    owner = getattr(module, class_name)
                    raw = owner.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(
                            self._wrap(layer, method, raw.__func__))
                    else:
                        wrapped = self._wrap(layer, method, raw)
                    self._patch(owner, method, wrapped)
                    continue
                original = getattr(module, path)
                wrapped = self._wrap(layer, path, original)
                for loaded in list(sys.modules.values()):
                    if (getattr(loaded, "__name__", "").startswith("repro")
                            and loaded.__dict__.get(path) is original):
                        self._patch(loaded, path, wrapped)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        self._stack.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
