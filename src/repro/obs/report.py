"""Run reports: the metrics registry rendered for humans and machines.

One :class:`RunReport` is the end-of-run artifact of any experiment in
this reproduction: a grouped, human-readable table of every metric
series (the E5/E6/E7 accounting the paper tabulates -- pages written,
bytes shipped, signatures computed), the run's spans on both clocks,
and a *stable* JSON document (sorted keys, no wall-clock noise by
default) that benchmark and CI runs can diff between revisions.
"""

from __future__ import annotations

import json

from .registry import HistogramBase, MetricsRegistry, labels_to_str
from .trace import TraceStore

#: Version tag of the JSON layout; bump on incompatible changes.
SCHEMA = "repro.obs/run-report/v2"


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _format_histogram(summary: dict) -> str:
    return (f"n={summary['count']} p50={_format_value(summary['p50'])} "
            f"p90={_format_value(summary['p90'])} "
            f"p99={_format_value(summary['p99'])} "
            f"p999={_format_value(summary['p999'])} "
            f"max={_format_value(summary['max'])}")


def _span_lines(bodies: list[dict], depth: int, has_clock: bool,
                lines: list[str]) -> None:
    """Append one row per exported span body, indented by tree depth."""
    for body in bodies:
        sim = (f"{(body['end'] - body['start']) * 1e3:.3f} ms sim"
               if has_clock else "-")
        lines.append(f"{'  ' * depth}{body['name']}  {sim}  "
                     f"{body['wall_seconds'] * 1e3:.3f} ms wall")
        _span_lines(body["children"], depth + 1, has_clock, lines)


class RunReport:
    """Renders a registry (and optional trace store) as tables or JSON."""

    def __init__(self, registry: MetricsRegistry,
                 traces: TraceStore | None = None, meta: dict | None = None):
        self.registry = registry
        self.traces = traces
        self.meta = dict(sorted((meta or {}).items()))

    # ------------------------------------------------------------------
    # Machine-readable
    # ------------------------------------------------------------------

    def to_dict(self, include_wall: bool = False) -> dict:
        """The stable JSON-ready document (sorted, deterministic)."""
        document = {
            "meta": self.meta,
            "metrics": self.registry.snapshot(),
            "schema": SCHEMA,
        }
        if self.traces is not None:
            document["spans"] = self.traces.to_dict(include_wall=include_wall)
        return document

    def to_json(self, indent: int | None = 2,
                include_wall: bool = False) -> str:
        """Serialize :meth:`to_dict` with sorted keys."""
        return json.dumps(self.to_dict(include_wall=include_wall),
                          indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Human-readable
    # ------------------------------------------------------------------

    def render(self) -> str:
        """Grouped metric tables, one section per subsystem prefix."""
        lines: list[str] = []
        if self.meta:
            lines.append("run: " + ", ".join(
                f"{key}={value}" for key, value in self.meta.items()
            ))
        groups: dict[str, list] = {}
        for series in self.registry.series():
            groups.setdefault(series.name.split(".", 1)[0], []).append(series)
        if not groups:
            lines.append("(no metrics recorded)")
        for group in sorted(groups):
            rows = []
            for series in groups[group]:
                if isinstance(series, HistogramBase):
                    value = _format_histogram(series.snapshot()["value"])
                else:
                    value = _format_value(series.value)
                labels = labels_to_str(series.labels)
                rows.append((series.name, labels, value))
            lines.append("")
            lines.append(f"== {group} ==")
            name_width = max(len(row[0]) for row in rows)
            label_width = max(len(row[1]) for row in rows)
            for name, labels, value in rows:
                lines.append(
                    f"  {name:<{name_width}}  {labels:<{label_width}}  {value}"
                )
        if self.traces is not None and self.traces.finished:
            lines.append("")
            lines.append("== spans ==")
            has_clock = self.traces.clock is not None
            for trace in self.traces.to_dict(include_wall=True)["traces"]:
                _span_lines(trace["spans"], 1, has_clock, lines)
        return "\n".join(lines)
