"""Distributed trace propagation: causality across the SDDS cluster.

The paper's accounting results (bytes not shipped, corruptions
detected) are per-run aggregates; this module adds the *per-operation*
view: a :class:`TraceContext` -- ``(trace_id, span_id)`` pair -- rides
inside every signature-sealed wire frame of the cluster transport, so
the spans a client, a server node, the storage plane and the parity
group emit for one SDDS operation assemble into a single cross-node
tree.

Every span carries both clocks the reproduction runs on: the simulated
multicomputer time the paper's cost model predicts, and the wall time
Python actually spent (``time.perf_counter`` at open, at finish and at
each event).  Identifiers are drawn deterministically from the run
seed and the default exports carry only the simulated clock, so two
same-seed runs of a faulty-cluster scenario export byte-identical trace
JSON -- the same determinism discipline the run reports obey.

Exports come in two shapes:

* a stable JSON document (:meth:`TraceStore.to_dict` /
  :meth:`TraceStore.to_json`, schema :data:`TRACE_SCHEMA`) nesting each
  trace's spans parent-under-child; ``include_wall=True`` adds each
  span's ``wall_seconds`` and each event's ``wall_offset`` for
  profiling;
* the Chrome trace-event format (:meth:`TraceStore.to_chrome`), loadable
  in ``chrome://tracing`` / Perfetto, with one "process" lane per node.

Deep subsystems (the SDDS server, the durable page store, the LH*RS
parity group) do not know about the cluster; they call
:func:`span_if_active`, which opens a child span only when a request is
being traced right now and costs one attribute check otherwise.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

from ..errors import ReproError

#: Version tag of the trace-export JSON layout; bump on shape changes.
TRACE_SCHEMA = "repro.obs/trace-export/v1"


class TraceError(ReproError):
    """Invalid trace operation (empty name, unbalanced finish, ...)."""


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The wire-portable identity of one span: what child spans cite.

    ``trace_id`` names the whole per-operation tree; ``span_id`` the
    emitting span.  Both are 64-bit values drawn from the run-seeded
    stream, so they fit the fixed little-endian wire layouts of
    :mod:`repro.cluster.wire` (no pickling on the SDDS wire, ever).
    """

    trace_id: int
    span_id: int

    def __post_init__(self) -> None:
        for name in ("trace_id", "span_id"):
            value = getattr(self, name)
            if not 0 <= value < 1 << 64:
                raise TraceError(f"{name} {value} outside the 64-bit range")


class TraceSpan:
    """One finished (or in-flight) span of a cross-node trace.

    ``start``/``end`` are simulated-clock seconds; ``wall_start``/
    ``wall_end`` are ``perf_counter`` readings, and ``wall_offsets[i]``
    is the wall seconds from the span's open to ``events[i]``.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "node",
                 "labels", "start", "end", "status", "events",
                 "wall_start", "wall_end", "wall_offsets")

    def __init__(self, trace_id: int, span_id: int, parent_id: int | None,
                 name: str, node: str, labels: dict, start: float):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.labels = labels
        self.start = start
        self.end: float | None = None
        self.status = "ok"
        self.events: list[dict] = []
        self.wall_start = perf_counter()
        self.wall_end: float | None = None
        self.wall_offsets: list[float] = []

    @property
    def context(self) -> TraceContext:
        """This span's wire-portable identity."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def sim_seconds(self) -> float:
        """Simulated duration (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration (0.0 while still open)."""
        return 0.0 if self.wall_end is None else \
            self.wall_end - self.wall_start

    def snapshot(self) -> dict:
        """Plain-dict view (deterministic key order, sim clock only)."""
        return {
            "end": self.end,
            "events": self.events,
            "labels": self.labels,
            "name": self.name,
            "node": self.node,
            "parent_id": self.parent_id,
            "span_id": self.span_id,
            "start": self.start,
            "status": self.status,
            "trace_id": self.trace_id,
        }

    def __repr__(self) -> str:
        return (f"TraceSpan({self.name}@{self.node}, trace={self.trace_id:x},"
                f" span={self.span_id:x})")


class SpanHandle:
    """Context-manager handle on one open span.

    Entering pushes the span's context onto the owning store's context
    stack (so :func:`span_if_active` instrumentation deeper in the call
    stack attaches its spans here); exiting finishes the span and pops.
    """

    __slots__ = ("store", "span", "_entered")

    def __init__(self, store: "TraceStore", span: TraceSpan):
        self.store = store
        self.span = span
        self._entered = False

    @property
    def context(self) -> TraceContext:
        """The underlying span's wire-portable identity."""
        return self.span.context

    def event(self, name: str, **fields) -> None:
        """Record one structured event at the current time on both clocks."""
        span = self.span
        span.wall_offsets.append(perf_counter() - span.wall_start)
        span.events.append({
            "at": self.store.now(),
            "fields": dict(sorted(fields.items())),
            "name": name,
        })

    def finish(self, status: str = "ok") -> None:
        """Close the span (idempotent) with the given status."""
        if self.span.end is None:
            self.span.status = status
            self.store._finish(self.span)

    def __enter__(self) -> "SpanHandle":
        self.store._push(self.span.context)
        self._entered = True
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if self._entered:
            self.store._pop()
            self._entered = False
        self.finish("error" if exc_type is not None else "ok")


class TraceStore:
    """Collects spans from every node and assembles per-op trace trees.

    Identifiers come from one ``random.Random`` stream seeded by the
    run seed, and the exported timestamps from the shared simulated
    clock (``clock`` is anything with a ``now`` attribute in seconds;
    without one every sim timestamp reads 0.0 and only wall time is
    measured), so the default exports are a deterministic function of
    the scenario -- the property the same-seed acceptance tests pin.
    """

    def __init__(self, seed: int = 0, clock=None):
        self.seed = seed
        self.clock = clock
        self.finished: list[TraceSpan] = []
        self.open_spans = 0
        #: Called with each finished span (the cluster routes these into
        #: per-node flight recorders).
        self.on_finish: Callable[[TraceSpan], None] | None = None
        self._rng = random.Random(f"{seed}|trace")
        self._stack: list[TraceContext] = []

    # ------------------------------------------------------------------
    # Clock and identifiers
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Current simulated time (0.0 without a clock)."""
        return 0.0 if self.clock is None else self.clock.now

    def _new_id(self) -> int:
        return self._rng.getrandbits(64)

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    def _make(self, name: str, node: str, trace_id: int,
              parent_id: int | None, labels: dict) -> SpanHandle:
        if not name:
            raise TraceError("span name cannot be empty")
        span = TraceSpan(trace_id, self._new_id(), parent_id, name, node,
                         dict(sorted(labels.items())), self.now())
        self.open_spans += 1
        return SpanHandle(self, span)

    def begin(self, name: str, node: str = "", **labels) -> SpanHandle:
        """Open the *root* span of a brand-new trace."""
        return self._make(name, node, self._new_id(), None, labels)

    def child(self, name: str, parent: TraceContext, node: str = "",
              **labels) -> SpanHandle:
        """Open a span under an explicit (possibly remote) parent."""
        return self._make(name, node, parent.trace_id, parent.span_id,
                          labels)

    def span(self, name: str, node: str = "", **labels) -> SpanHandle:
        """Open a span under the *current* context (root if none)."""
        if self._stack:
            return self.child(name, self._stack[-1], node=node, **labels)
        return self.begin(name, node=node, **labels)

    def _finish(self, span: TraceSpan) -> None:
        span.wall_end = perf_counter()
        span.end = self.now()
        self.open_spans -= 1
        self.finished.append(span)
        from .registry import get_registry

        get_registry().counter("obs.trace_spans", span=span.name).inc()
        if self.on_finish is not None:
            self.on_finish(span)

    # ------------------------------------------------------------------
    # The current-context stack (single-threaded simulation discipline)
    # ------------------------------------------------------------------

    @property
    def current(self) -> TraceContext | None:
        """The innermost active context, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def _push(self, context: TraceContext) -> None:
        self._stack.append(context)

    def _pop(self) -> None:
        if not self._stack:
            raise TraceError("context stack underflow (unbalanced exit)")
        self._stack.pop()

    # ------------------------------------------------------------------
    # Assembly and export
    # ------------------------------------------------------------------

    def traces(self) -> dict[int, list[TraceSpan]]:
        """Finished spans grouped by trace id (insertion-ordered)."""
        grouped: dict[int, list[TraceSpan]] = {}
        for span in self.finished:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def roots(self) -> list[TraceSpan]:
        """Every finished span with no parent, in completion order."""
        return [span for span in self.finished if span.parent_id is None]

    @staticmethod
    def _body(span: TraceSpan, include_wall: bool) -> dict:
        body = span.snapshot()
        body["children"] = []
        if include_wall:
            body["wall_seconds"] = span.wall_seconds
            body["events"] = [{**event, "wall_offset": offset}
                              for event, offset in zip(span.events,
                                                       span.wall_offsets)]
        return body

    def _nest(self, spans: list[TraceSpan],
              include_wall: bool) -> list[dict]:
        """Tree-shape one trace's spans: children under their parents."""
        by_id = {span.span_id: self._body(span, include_wall)
                 for span in spans}
        top: list[dict] = []
        for span in spans:  # completion order keeps this deterministic
            body = by_id[span.span_id]
            parent = by_id.get(span.parent_id) if span.parent_id is not None \
                else None
            if parent is None:
                top.append(body)
            else:
                parent["children"].append(body)
        return top

    def to_dict(self, include_wall: bool = False) -> dict:
        """The stable trace-export document (sorted-key JSON ready).

        Wall time is excluded by default so that two runs of the same
        simulated workload produce identical JSON; pass
        ``include_wall=True`` for profiling output.
        """
        documents = []
        for trace_id, spans in sorted(self.traces().items(),
                                      key=lambda item: min(
                                          s.start for s in item[1])):
            documents.append({
                "span_count": len(spans),
                "spans": self._nest(spans, include_wall),
                "trace_id": trace_id,
            })
        return {"schema": TRACE_SCHEMA, "trace_count": len(documents),
                "traces": documents}

    def to_json(self, indent: int | None = 2,
                include_wall: bool = False) -> str:
        """Serialize :meth:`to_dict` with sorted keys (byte-stable)."""
        return json.dumps(self.to_dict(include_wall=include_wall),
                          indent=indent, sort_keys=True)

    def to_chrome(self) -> dict:
        """The Chrome trace-event document (``chrome://tracing``).

        Complete spans (``ph: "X"``) with microsecond timestamps; the
        "process" lane is the emitting node, the "thread" the trace id,
        so one operation reads as one row across node lanes.
        """
        events = []
        for span in self.finished:
            events.append({
                "args": {**span.labels, "span_id": f"{span.span_id:016x}",
                         "status": span.status},
                "cat": "repro",
                "dur": int(round(span.sim_seconds * 1e6)),
                "name": span.name,
                "ph": "X",
                "pid": span.node or "?",
                "tid": f"{span.trace_id:016x}",
                "ts": int(round(span.start * 1e6)),
            })
        events.sort(key=lambda e: (e["ts"], e["tid"], e["name"]))
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def reset(self) -> None:
        """Drop finished spans (open spans and the stack are kept)."""
        self.finished.clear()


# ----------------------------------------------------------------------
# The module-active store: how deep subsystems join a trace
# ----------------------------------------------------------------------

_active: TraceStore | None = None


def active_store() -> TraceStore | None:
    """The trace store currently activated (None outside tracing)."""
    return _active


@contextmanager
def activate(store: TraceStore) -> Iterator[TraceStore]:
    """Make ``store`` the active one for the enclosed block (reentrant)."""
    global _active
    previous = _active
    _active = store
    try:
        yield store
    finally:
        _active = previous


def span_if_active(name: str, node: str = "", **labels):
    """A child span when a traced request is in flight, else a no-op.

    The hook deep subsystems (SDDS server, page store, parity group)
    use: outside a traced operation it returns a shared null context at
    the cost of one module-attribute check, so the paper's hot paths
    pay nothing when tracing is idle.
    """
    store = _active
    if store is None or not store._stack:
        return nullcontext(None)
    return store.span(name, node=node, **labels)
