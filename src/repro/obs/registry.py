"""Labeled metric series: counters, gauges, and histograms.

The paper's headline results are accounting numbers -- bytes not
shipped by pseudo-updates (Section 2.2), pages not written by the
signature-map backup (Section 2.1), signatures computed per scan
(Section 2.3).  :class:`MetricsRegistry` is the one place that
accounting lands: every instrumented subsystem (signature calculus,
SDDS protocols, simulated network/disk, backup engine, LH*RS parity)
emits into named, labeled series such as
``sig.bytes_signed{field=gf16,variant=standard}``, and every
experiment reads comparable numbers back out instead of threading
ad-hoc counters by hand.

The registry is process-wide by default (:func:`get_registry`) but
injectable: benchmarks and tests install a fresh one with
:func:`set_registry` or the :func:`use_registry` context manager, so
concurrent experiments never share counters.
"""

from __future__ import annotations

import math
import re
import threading
from contextlib import contextmanager
from typing import Iterator, Protocol, runtime_checkable

from ..errors import ReproError


class MetricError(ReproError):
    """Invalid metric name, label, or series-type conflict."""


#: Metric names: lowercase dotted paths, e.g. ``backup.pages_written``.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
#: Label keys: lowercase identifiers, e.g. ``field``, ``op``.
_LABEL_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Canonical label encoding: sorted ``key=value`` pairs joined by commas.
LabelItems = tuple  # tuple[tuple[str, str], ...]


@runtime_checkable
class Snapshotable(Protocol):
    """Anything that can render itself as a plain, JSON-ready dict.

    The shared contract between the legacy SDDS counters
    (:class:`repro.sim.stats.TrafficStats`,
    :class:`repro.sim.stats.DiskStats`) and the obs layer: a
    ``snapshot()`` with deterministic key ordering, so report JSON
    diffs cleanly between runs.
    """

    def snapshot(self) -> dict:
        """Plain-dict view with deterministic key ordering."""
        ...


def _canonical_labels(labels: dict) -> LabelItems:
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise MetricError(f"invalid label key {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


def labels_to_str(items: LabelItems) -> str:
    """Render canonical label items as ``k=v,k2=v2`` (empty for none)."""
    return ",".join(f"{key}={value}" for key, value in items)


class Counter:
    """A monotonically increasing series (events, bytes, pages)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add a non-negative amount to the counter."""
        if amount < 0:
            raise MetricError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def snapshot(self) -> dict:
        """Plain-dict view of the series."""
        return {"labels": dict(self.labels), "type": "counter",
                "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name}{{{labels_to_str(self.labels)}}}={self.value})"


class Gauge:
    """A series holding the latest value (sizes, levels, ratios)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value: int | float) -> None:
        """Replace the gauge value."""
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        """Adjust the gauge by a (possibly negative) amount."""
        self.value += amount

    def snapshot(self) -> dict:
        """Plain-dict view of the series."""
        return {"labels": dict(self.labels), "type": "gauge",
                "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}{{{labels_to_str(self.labels)}}}={self.value})"


class HistogramBase:
    """Shared contract of the two histogram backends.

    Both backends keep O(1) *running* aggregates -- count, sum, sum of
    squares, min, max -- updated on every :meth:`observe`, so the
    summary statistics never rescan observations.  Subclasses supply
    the distribution storage (raw samples or log buckets) and the
    percentile query over it.
    """

    __slots__ = ("name", "labels", "_count", "_sum", "_sum_sq",
                 "_min", "_max")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self._min = math.inf
        self._max = -math.inf

    def _account(self, value: float) -> None:
        """Fold one observation into the running aggregates (O(1))."""
        self._count += 1
        self._sum += value
        self._sum_sq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def observe(self, value: int | float) -> None:
        """Record one observation (subclasses store the distribution)."""
        raise NotImplementedError

    def percentile(self, p: float) -> float:
        """The p-th percentile (0 <= p <= 100) of the distribution."""
        raise NotImplementedError

    @property
    def count(self) -> int:
        """Number of observations (O(1))."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations (O(1) running aggregate)."""
        return self._sum

    @property
    def min(self) -> float:
        """Smallest observation (0 when empty; O(1))."""
        return self._min if self._count else 0

    @property
    def max(self) -> float:
        """Largest observation (0 when empty; O(1))."""
        return self._max if self._count else 0

    @property
    def stddev(self) -> float:
        """Population standard deviation (0 when empty; O(1))."""
        if not self._count:
            return 0.0
        mean = self._sum / self._count
        variance = self._sum_sq / self._count - mean * mean
        return math.sqrt(max(variance, 0.0))

    def _check_percentile(self, p: float) -> None:
        if not 0 <= p <= 100:
            raise MetricError(f"percentile {p} outside 0..100")

    def snapshot(self) -> dict:
        """Percentile summary of the series (deterministic key order)."""
        return {
            "labels": dict(self.labels),
            "type": "histogram",
            "value": {
                "count": self.count,
                "max": self.max,
                "min": self.min,
                "p50": self.percentile(50),
                "p90": self.percentile(90),
                "p99": self.percentile(99),
                "p999": self.percentile(99.9),
                "stddev": self.stddev,
                "sum": self.sum,
            },
        }

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name}"
                f"{{{labels_to_str(self.labels)}}}, n={self.count})")


class Histogram(HistogramBase):
    """The exact backend: keeps every raw observation.

    Simulation runs are finite, so percentiles can be exact:
    ``percentile(p)`` uses linear interpolation between closest ranks,
    matching ``numpy.percentile``'s default.  Memory is O(n) in the
    observation count -- for series that must survive millions of
    observations, select the :class:`BucketedHistogram` backend via
    :meth:`MetricsRegistry.set_histogram_backend`.
    """

    __slots__ = ("_values", "_sorted")

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: int | float) -> None:
        """Record one observation."""
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        self._account(value)

    def percentile(self, p: float) -> float:
        """The p-th percentile (0 <= p <= 100), linearly interpolated."""
        self._check_percentile(p)
        if not self._values:
            return 0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = (len(self._values) - 1) * p / 100
        low = int(rank)
        high = min(low + 1, len(self._values) - 1)
        fraction = rank - low
        return self._values[low] * (1 - fraction) + self._values[high] * fraction

    def values(self) -> list[float]:
        """The raw observations (a copy, in insertion order)."""
        return list(self._values)

    def merge_from(self, other: "HistogramBase") -> None:
        """Fold another *exact* histogram's observations into this one.

        Only exact sources merge exactly; folding a bucketed series
        into an exact one would fabricate samples, so it is rejected
        (merge in the other direction instead -- see
        :meth:`BucketedHistogram.merge_from`).
        """
        if not isinstance(other, Histogram):
            raise MetricError(
                f"cannot merge {type(other).__name__} into exact "
                f"histogram {self.name} (merge into a bucketed series)"
            )
        for value in other._values:
            self.observe(value)


class BucketedHistogram(HistogramBase):
    """The bounded backend: HDR-style logarithmic buckets.

    Observations land in geometric buckets whose boundaries grow by
    :data:`GROWTH` (4% per bucket), so any percentile read from a
    bucket's geometric midpoint is within ~2% relative error of the
    true value -- while memory stays O(distinct buckets), independent
    of the observation count.  Zero and negative observations get their
    own exact-zero slot and mirrored negative buckets, so the backend
    is safe for any real-valued series.  Buckets are plain
    ``dict[int, int]`` counts, which makes two bucketed series
    mergeable by adding counts -- the fleet-view operation
    :meth:`MetricsRegistry.merge_from` relies on.
    """

    #: Geometric bucket growth factor: boundaries at GROWTH**k.
    GROWTH = 1.04

    __slots__ = ("_positive", "_negative", "_zero")

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self._positive: dict[int, int] = {}
        self._negative: dict[int, int] = {}
        self._zero = 0

    @classmethod
    def _index(cls, magnitude: float) -> int:
        return math.floor(math.log(magnitude) / math.log(cls.GROWTH))

    @classmethod
    def _midpoint(cls, index: int) -> float:
        # Geometric midpoint of [GROWTH**i, GROWTH**(i+1)).
        return cls.GROWTH ** (index + 0.5)

    def observe(self, value: int | float) -> None:
        """Record one observation into its logarithmic bucket."""
        value = float(value)
        if value == 0.0:
            self._zero += 1
        elif value > 0.0:
            index = self._index(value)
            self._positive[index] = self._positive.get(index, 0) + 1
        else:
            index = self._index(-value)
            self._negative[index] = self._negative.get(index, 0) + 1
        self._account(value)

    @property
    def bucket_count(self) -> int:
        """Distinct buckets in use (the memory footprint, plus O(1))."""
        return (len(self._positive) + len(self._negative) +
                (1 if self._zero else 0))

    def buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, count)`` pairs in ascending value order.

        The exposition shape: upper bound of each occupied bucket with
        its (non-cumulative) count; negative buckets report the bound
        nearer zero, the zero slot reports bound 0.0.
        """
        out: list[tuple[float, int]] = []
        for index in sorted(self._negative, reverse=True):
            out.append((-(self.GROWTH ** index), self._negative[index]))
        if self._zero:
            out.append((0.0, self._zero))
        for index in sorted(self._positive):
            out.append((self.GROWTH ** (index + 1), self._positive[index]))
        return out

    def _ordered(self) -> Iterator[tuple[float, int]]:
        """(representative value, count) in ascending value order."""
        for index in sorted(self._negative, reverse=True):
            yield -self._midpoint(index), self._negative[index]
        if self._zero:
            yield 0.0, self._zero
        for index in sorted(self._positive):
            yield self._midpoint(index), self._positive[index]

    def percentile(self, p: float) -> float:
        """The p-th percentile from bucket midpoints (~2% relative).

        The extremes are exact: running min/max pin p=0 and p=100, and
        every interior answer is clamped into [min, max].
        """
        self._check_percentile(p)
        if not self._count:
            return 0
        if p == 0:
            return self._min
        if p == 100:
            return self._max
        rank = (self._count - 1) * p / 100
        seen = 0
        for representative, count in self._ordered():
            seen += count
            if rank < seen:
                return min(max(representative, self._min), self._max)
        return self._max

    def merge_from(self, other: "HistogramBase") -> None:
        """Fold another histogram into this one (the fleet view).

        Bucketed sources merge by adding bucket counts; exact sources
        are re-observed value by value (exact -> bucketed narrowing is
        allowed, the reverse is not).
        """
        if isinstance(other, BucketedHistogram):
            for index, count in other._positive.items():
                self._positive[index] = self._positive.get(index, 0) + count
            for index, count in other._negative.items():
                self._negative[index] = self._negative.get(index, 0) + count
            self._zero += other._zero
            self._count += other._count
            self._sum += other._sum
            self._sum_sq += other._sum_sq
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
        elif isinstance(other, Histogram):
            for value in other._values:
                self.observe(value)
        else:
            raise MetricError(
                f"cannot merge {type(other).__name__} into {self.name}"
            )


class MetricsRegistry:
    """A namespace of labeled metric series.

    Series are created on first touch and shared thereafter:
    ``registry.counter("net.bytes", kind="update")`` always returns the
    same :class:`Counter` for the same name and label set.  Names are
    dotted lowercase paths whose first segment is the subsystem
    (``sig``, ``net``, ``disk``, ``sdds``, ``backup``, ``parity`` --
    the DESIGN.md naming convention).
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, LabelItems], Counter | Gauge | HistogramBase] = {}
        self._histogram_backends: dict[str, str] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Pickle the series without the lock (a worker process ships
        its registry back for :meth:`merge_from`)."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Series accessors
    # ------------------------------------------------------------------

    def _get(self, cls, name: str, labels: dict):
        key = (name, _canonical_labels(labels))
        series = self._series.get(key)
        if series is None:
            if not _NAME_RE.match(name):
                raise MetricError(f"invalid metric name {name!r}")
            with self._lock:
                series = self._series.setdefault(key, cls(name, key[1]))
        if not isinstance(series, cls):
            raise MetricError(
                f"metric {name} already registered as "
                f"{type(series).__name__}, not {cls.__name__}"
            )
        return series

    def counter(self, name: str, **labels) -> Counter:
        """Get or create the counter series for ``name`` + labels."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create the gauge series for ``name`` + labels."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> HistogramBase:
        """Get or create the histogram series for ``name`` + labels.

        The backend is chosen per *name* -- exact raw-sample by
        default, the bounded :class:`BucketedHistogram` when
        :meth:`set_histogram_backend` selected it before first touch.
        """
        backend = self._histogram_backends.get(name, "exact")
        cls = BucketedHistogram if backend == "bucketed" else Histogram
        return self._get(cls, name, labels)

    def set_histogram_backend(self, name: str, backend: str) -> None:
        """Select the histogram backend (exact/bucketed) for ``name``.

        Must run before the series is first touched: high-volume series
        (``cluster.op_seconds`` under an open-loop load generator)
        declare ``bucketed`` up front so they never accumulate raw
        samples.  Changing the backend of an already-created series is
        a wiring error and rejected.
        """
        if backend not in ("exact", "bucketed"):
            raise MetricError(f"unknown histogram backend {backend!r}")
        wanted = BucketedHistogram if backend == "bucketed" else Histogram
        for (series_name, _items), series in self._series.items():
            if series_name == name and not isinstance(series, wanted):
                raise MetricError(
                    f"histogram {name} already created as "
                    f"{type(series).__name__}; select the backend first"
                )
        self._histogram_backends[name] = backend

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def series(self) -> Iterator[Counter | Gauge | HistogramBase]:
        """All series, ordered by (name, labels) for determinism."""
        for key in sorted(self._series):
            yield self._series[key]

    def __len__(self) -> int:
        return len(self._series)

    def total(self, name: str, **labels) -> float:
        """Sum of all counter/gauge series of ``name`` matching ``labels``.

        A series matches when every given label equals its value; extra
        labels on the series are ignored, so
        ``registry.total("net.bytes")`` sums over all message kinds.
        """
        match = _canonical_labels(labels)
        total = 0
        for (series_name, items), series in self._series.items():
            if series_name != name:
                continue
            if isinstance(series, HistogramBase):
                continue
            if all(item in items for item in match):
                total += series.value
        return total

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one: the fleet view.

        Per-node registries merge into one aggregate the way paper-run
        accounting is tabulated across servers: counters and gauges add
        their values, histograms merge their distributions (bucketed
        series by adding bucket counts; exact series sample by sample;
        exact sources may narrow into a bucketed target but not the
        reverse).  Series missing on this side are created with the
        source's type.
        """
        for (name, items), series in sorted(other._series.items()):
            if isinstance(series, HistogramBase):
                mine = self._series.get((name, items))
                if mine is None:
                    # Adopt the source's backend choice so later
                    # ``histogram()`` calls resolve to the same class.
                    if isinstance(series, BucketedHistogram):
                        self._histogram_backends.setdefault(name, "bucketed")
                    mine = self._get(type(series), name, dict(items))
                elif not isinstance(mine, HistogramBase):
                    raise MetricError(
                        f"metric {name} already registered as "
                        f"{type(mine).__name__}, not a histogram"
                    )
                mine.merge_from(series)
            elif isinstance(series, Counter):
                self.counter(name, **dict(items)).inc(series.value)
            else:
                self.gauge(name, **dict(items)).inc(series.value)

    def snapshot(self) -> dict:
        """Deterministic nested dict: name -> label string -> value.

        Counters and gauges map to their scalar value; histograms to
        their percentile summary.  All keys are sorted, so two runs of
        the same workload produce byte-identical JSON.

        When any bucketed histogram exists, the telemetry plane's own
        footprint gauge ``obs.histogram_buckets`` is refreshed first so
        the snapshot reports the bounded-memory claim it makes.
        """
        bucketed = [series for series in self._series.values()
                    if isinstance(series, BucketedHistogram)]
        if bucketed:
            self.gauge("obs.histogram_buckets").set(
                sum(series.bucket_count for series in bucketed)
            )
        out: dict[str, dict] = {}
        for series in self.series():
            body = series.snapshot()
            out.setdefault(series.name, {})[labels_to_str(series.labels)] = \
                body["value"]
        return out

    def reset(self) -> None:
        """Drop every series (fresh accounting for a new experiment).

        Bumps :data:`epoch`, so no :class:`HandleCache` keeps feeding a
        dropped series.
        """
        global epoch
        with self._lock:
            self._series.clear()
        epoch += 1


# ----------------------------------------------------------------------
# The process-wide default registry (injectable)
# ----------------------------------------------------------------------

_default_registry = MetricsRegistry()
_active_registry = _default_registry

#: Bumped by every :func:`set_registry` (hence every :func:`use_registry`
#: enter/exit) and :meth:`MetricsRegistry.reset`.  Hot paths cache
#: resolved metric handles against this epoch (:class:`HandleCache`) and
#: refresh only when it moves, so per-event metrics cost one
#: module-attribute load + integer compare instead of a registry lookup.
epoch = 0


def get_registry() -> MetricsRegistry:
    """The currently active registry (process-wide unless injected)."""
    return _active_registry


def registry_epoch() -> int:
    """Monotonic counter of registry switches (see :data:`epoch`)."""
    return epoch


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _active_registry, epoch
    previous = _active_registry
    _active_registry = registry
    epoch += 1
    return previous


class HandleCache:
    """Per-owner table of resolved metric handles, epoch-invalidated.

    Hoists the registry lookup out of per-call hot paths.  A keyed
    table is built with ``factory(registry, key)`` mapping the active
    registry and whatever varies per call (an op code, a status, a span
    name) to a series handle or a tuple of them; ``cache[key]`` returns
    the bound handles, resolving a key only on its first use.  The
    unkeyed form, :meth:`get`, takes the factory at the call site.
    Either way the whole table is dropped when :data:`epoch` moves --
    on :func:`set_registry` (the ``use_registry`` hook) and on
    :meth:`MetricsRegistry.reset` -- so a handle never outlives the
    registry state it was bound to.  What a table holds is a function
    of the active registry and the key alone, so one module-level table
    can serve every instance of its module (every client, every node).
    """

    __slots__ = ("_epoch", "_table", "_factory")

    def __init__(self, factory=None) -> None:
        self._epoch = -1
        self._table: dict = {}
        self._factory = factory

    def __getitem__(self, key):
        """The handles bound for ``key`` in the active registry."""
        if self._epoch != epoch:
            self._table = {}
            self._epoch = epoch
        handles = self._table.get(key)
        if handles is None:
            handles = self._table[key] = self._factory(_active_registry, key)
        return handles

    def get(self, factory):
        """The handles ``factory(registry)`` made, refreshed iff the
        registry switched."""
        if self._epoch != epoch:
            self._table = {}
            self._epoch = epoch
        handles = self._table.get(None)
        if handles is None:
            handles = self._table[None] = factory(_active_registry)
        return handles


#: Unlabelled counters by name, shared by every module that bumps one on
#: a per-operation path (``COUNTERS["store.log.fsyncs"].inc()``).
COUNTERS = HandleCache(lambda registry, name: registry.counter(name))


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Context manager installing ``registry`` for the enclosed block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
