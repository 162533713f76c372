"""Cross-run span profiles: where the time went as the parameter grew.

A single trace answers "where did *this* evaluation spend its time";
what the scaling tables need is the same question *across a sweep* —
which phase's self-time grows with ``n``, and at what shape.  A
:class:`SpanProfile` aggregates span traces (live tracers, exported
JSONL, or the span dicts embedded in a run record) into per-span-name,
per-parameter self-time totals, so "where did the time go as n grew"
is one table:

    span             n=4        n=8        n=12      total self
    fo.Exists        1.2ms      9.8ms      41.3ms    52.3ms
    fp.iteration     0.8ms      2.1ms      4.0ms     6.9ms

Self-time is :meth:`repro.obs.tracer.Span.self_duration` — a span's
duration minus its direct children's.  Serialized spans are rebuilt
into trees first by :func:`repro.obs.explain.spans_from_dicts`, the
same reader ``repro trace diff`` uses, so duplicate span ids are
refused rather than merged.
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.explain import spans_from_dicts
from repro.obs.report import format_seconds
from repro.obs.tracer import Span

#: One aggregation cell: span count, total duration, self duration.
Cell = Dict[str, float]


class ProfileError(ReproError):
    """Malformed trace input handed to the profiler."""


class ProfileWarning(UserWarning):
    """Malformed trace lines were skipped by a lenient loader."""


def parse_trace_jsonl(
    text: str, on_error: str = "warn"
) -> List[Dict[str, object]]:
    """Span dicts from a ``Tracer.export_jsonl()`` document.

    Trace files come from interrupted runs and shell pipelines, so a
    truncated final line is routine; by default (``on_error="warn"``)
    malformed lines are skipped and a single :class:`ProfileWarning`
    reports how many, and the first problem seen.  ``on_error="raise"``
    restores strict parsing (:class:`ProfileError` on the first bad
    line) for callers validating freshly exported traces.
    """
    if on_error not in ("warn", "raise"):
        raise ProfileError(
            f"on_error must be 'warn' or 'raise', got {on_error!r}"
        )
    spans: List[Dict[str, object]] = []
    skipped = 0
    first_problem: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        problem: Optional[str] = None
        span: object = None
        try:
            span = json.loads(line)
        except json.JSONDecodeError as exc:
            problem = f"trace line {lineno} is not valid JSON: {exc}"
            if on_error == "raise":
                raise ProfileError(problem) from exc
        if problem is None and (
            not isinstance(span, dict) or "name" not in span
        ):
            problem = f"trace line {lineno} is not a span object"
            if on_error == "raise":
                raise ProfileError(problem)
        if problem is not None:
            skipped += 1
            if first_problem is None:
                first_problem = problem
            continue
        spans.append(span)  # type: ignore[arg-type]
    if skipped:
        warnings.warn(
            f"skipped {skipped} malformed trace line(s); "
            f"first: {first_problem}",
            ProfileWarning,
            stacklevel=2,
        )
    return spans


class SpanProfile:
    """Per-span-name, per-parameter aggregation of self/total time."""

    def __init__(self) -> None:
        # name -> parameter -> {"count", "total", "self"}
        self._cells: Dict[str, Dict[float, Cell]] = {}
        self.parameters: List[float] = []

    # -- building ------------------------------------------------------

    def _cell(self, name: str, parameter: float) -> Cell:
        if parameter not in self.parameters:
            self.parameters.append(parameter)
            self.parameters.sort()
        by_param = self._cells.setdefault(name, {})
        return by_param.setdefault(
            parameter, {"count": 0.0, "total": 0.0, "self": 0.0}
        )

    def _add(self, parameter: float, spans: Iterable[Span]) -> "SpanProfile":
        for span in spans:
            cell = self._cell(span.name, float(parameter))
            cell["count"] += 1
            cell["total"] += span.duration
            cell["self"] += span.self_duration()
        return self

    def add_tracer(self, parameter: float, tracer) -> "SpanProfile":
        """Fold one live :class:`repro.obs.tracer.Tracer` in."""
        return self._add(parameter, tracer.spans)

    def add_spans(
        self, parameter: float, spans: Sequence[Mapping[str, object]]
    ) -> "SpanProfile":
        """Fold serialized span dicts (JSONL lines / record points) in.

        Raises :class:`~repro.obs.explain.ExplainError` on a duplicate
        ``span_id``, as when two tracers' exports are concatenated.
        """
        pending = spans_from_dicts(spans)
        rebuilt: List[Span] = []
        while pending:
            span = pending.pop()
            rebuilt.append(span)
            pending.extend(span.children)
        return self._add(parameter, rebuilt)

    def merge(self, other: "SpanProfile") -> "SpanProfile":
        for name, by_param in other._cells.items():
            for parameter, cell in by_param.items():
                mine = self._cell(name, parameter)
                for key in ("count", "total", "self"):
                    mine[key] += cell[key]
        return self

    # -- reading -------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._cells)

    def cell(self, name: str, parameter: float) -> Optional[Cell]:
        return self._cells.get(name, {}).get(parameter)

    def self_series(self, name: str) -> List[Tuple[float, float]]:
        """``(parameter, self_seconds)`` for one span name, sorted."""
        by_param = self._cells.get(name, {})
        return sorted(
            (parameter, cell["self"]) for parameter, cell in by_param.items()
        )

    def total_self(self, name: str) -> float:
        return sum(
            cell["self"] for cell in self._cells.get(name, {}).values()
        )

    def hot(self, k: int = 10) -> List[str]:
        """The ``k`` span names with the largest summed self-time."""
        ranked = sorted(
            self._cells, key=self.total_self, reverse=True
        )
        return ranked[:k]

    def is_empty(self) -> bool:
        return not self._cells

    def to_dict(self) -> Dict[str, object]:
        return {
            "parameters": list(self.parameters),
            "spans": {
                name: {
                    f"{parameter:g}": dict(cell)
                    for parameter, cell in sorted(by_param.items())
                }
                for name, by_param in sorted(self._cells.items())
            },
        }


def profile_sweep(sweep) -> SpanProfile:
    """A profile from a traced :class:`~repro.complexity.measure.SweepResult`.

    Points without a recorded tracer (failed points, untraced sweeps)
    are skipped.
    """
    profile = SpanProfile()
    for point in sweep.points:
        if point.trace is not None:
            profile.add_tracer(point.parameter, point.trace)
    return profile


def render_profile(profile: SpanProfile, top: int = 10) -> str:
    """The hot-span matrix: rows = span names, columns = parameters.

    Cells are *self* time; the final column sums a row across the sweep
    so the table ranks by where the time actually went as the parameter
    grew.
    """
    if profile.is_empty():
        return "(no spans profiled)"
    names = profile.hot(top)
    header = ["span"] + [
        f"n={parameter:g}" for parameter in profile.parameters
    ] + ["total self"]
    rows: List[List[str]] = []
    for name in names:
        row = [name]
        for parameter in profile.parameters:
            cell = profile.cell(name, parameter)
            row.append("-" if cell is None else format_seconds(cell["self"]))
        row.append(format_seconds(profile.total_self(name)))
        rows.append(row)
    widths = [
        max(len(header[i]), max(len(r[i]) for r in rows))
        for i in range(len(header))
    ]

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(v.ljust(w) for v, w in zip(cells, widths))

    lines = [fmt(header), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
