"""Explain layer: annotated evaluation trees, trace diffing, live progress.

Three views over the same span/metric substrate:

* :func:`annotate_evaluation` merges a formula AST with the spans a
  traced run recorded into a per-subformula report — how many times each
  node was evaluated, its rows, its share of the wall clock, fixpoint
  iterations — next to the static ``n^k`` prediction of
  :class:`repro.algebra.cost.FormulaCostModel`, flagging nodes whose
  measured share deviates badly from the predicted share.
* :func:`diff_traces` aligns two span trees (live tracers or exported
  JSONL) by subformula path and reports per-path self-time and count
  deltas — the "what changed between sparse and packed / semi-naive and
  naive" view.
* :class:`ProgressReporter` is a recording tracer that additionally
  emits throttled heartbeat lines while a long fixpoint iterates, with
  an ETA extrapolated from the stage-size growth shape
  (:func:`repro.obs.runstore.fit_series`) and capped by the guard's
  remaining deadline.

Span ↔ AST alignment uses the ``expr`` attribute the FO evaluator
attaches to every ``fo.*`` span — the deterministic clipped rendering of
:func:`repro.logic.printer.formula_label`.  Syntactically identical
subformulas therefore share one aggregate; that merge is deliberate (the
engines memoize such nodes identically) and is noted in the report.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.logic.printer import formula_label
from repro.logic.syntax import FIXPOINT_NODES, Formula
from repro.obs.report import format_seconds
from repro.obs.tracer import Span, Tracer


class ExplainError(ReproError):
    """The explain layer could not interpret its inputs."""


# ---------------------------------------------------------------------------
# Span-tree reconstruction (for exported JSONL traces)
# ---------------------------------------------------------------------------


def spans_from_dicts(
    span_dicts: Sequence[Mapping[str, object]],
) -> List[Span]:
    """Rebuild :class:`Span` trees from serialized span dicts.

    Accepts the output of :func:`repro.obs.profile.parse_trace_jsonl`
    (or any iterable of ``Span.to_dict()``-shaped mappings) and restores
    the ``parent_id`` linkage, so tree-walking helpers work identically
    on live tracers and on traces read back from disk.  Returns the
    roots in start order; spans naming a missing parent become roots.
    """
    by_id: Dict[object, Span] = {}
    ordered: List[Span] = []
    for raw in span_dicts:
        span = Span(
            str(raw.get("name", "?")),
            raw.get("span_id"),  # type: ignore[arg-type]
            raw.get("parent_id"),  # type: ignore[arg-type]
            float(raw.get("start", 0.0)),  # type: ignore[arg-type]
        )
        span.duration = float(raw.get("duration", 0.0))  # type: ignore[arg-type]
        attrs = raw.get("attrs")
        if isinstance(attrs, dict):
            span.attrs.update(attrs)
        if span.span_id is not None and span.span_id in by_id:
            raise ExplainError(
                f"duplicate span_id {span.span_id!r} in trace input"
            )
        by_id[span.span_id] = span
        ordered.append(span)
    roots: List[Span] = []
    for span in ordered:
        parent = (
            by_id.get(span.parent_id) if span.parent_id is not None else None
        )
        if parent is None or parent is span:
            roots.append(span)
        else:
            parent.children.append(span)
    roots.sort(key=lambda s: (s.start, str(s.span_id)))
    return roots


def _roots_of(trace) -> List[Span]:
    """Roots from a tracer, a list of roots, or a list of span dicts."""
    if hasattr(trace, "roots"):
        return list(trace.roots())
    items = list(trace)
    if items and isinstance(items[0], Span):
        return items
    return spans_from_dicts(items)


# ---------------------------------------------------------------------------
# Annotated evaluation trees
# ---------------------------------------------------------------------------


_FIXPOINT_SPAN_NAMES = frozenset(
    "fo." + node.__name__ for node in FIXPOINT_NODES
)


def _blank_cell() -> Dict[str, object]:
    return {
        "count": 0,
        "total": 0.0,
        "self": 0.0,
        "rows": None,
        "iterations": 0,
    }


def _aggregate_by_label(roots: Sequence[Span]) -> Dict[str, Dict[str, object]]:
    """Per-``expr``-label span aggregates.

    ``fo.*`` spans carry the label; every other span (``fp.solve``,
    ``fp.iteration``, ``kernel.*``, SAT stages, ...) attributes its
    *self* time to the nearest ``fo.*`` ancestor's label, so a node's
    share includes the machinery run on its behalf.
    """
    agg: Dict[str, Dict[str, object]] = {}

    def visit(span: Span, current: Optional[str]) -> None:
        if span.name.startswith("fo.") and "expr" in span.attrs:
            label = str(span.attrs["expr"])
            cell = agg.setdefault(label, _blank_cell())
            cell["count"] += 1  # type: ignore[operator]
            cell["total"] += span.duration  # type: ignore[operator]
            cell["self"] += span.self_duration()  # type: ignore[operator]
            rows = span.attrs.get("rows")
            if isinstance(rows, int):
                cell["rows"] = max(
                    rows if cell["rows"] is None else cell["rows"], rows
                )
            current = label
        elif current is not None:
            cell = agg.setdefault(current, _blank_cell())
            cell["self"] += span.self_duration()  # type: ignore[operator]
            if span.name == "fp.iteration":
                cell["iterations"] += 1  # type: ignore[operator]
        for child in span.children:
            visit(child, current)

    for root in roots:
        visit(root, None)
    return agg


@dataclass
class NodeReport:
    """One subformula's line of the annotated tree."""

    label: str
    node_type: str
    count: int
    total_seconds: float
    self_seconds: float
    rows: Optional[int]
    iterations: Optional[int]
    predicted_rows: int
    predicted_cost: int
    actual_share: float
    predicted_share: float
    flagged: bool
    children: List["NodeReport"] = field(default_factory=list)

    @property
    def deviation(self) -> Optional[float]:
        """``actual_share / predicted_share`` (None when unpredicted)."""
        if self.predicted_share <= 0.0:
            return None
        return self.actual_share / self.predicted_share


@dataclass
class ExplainReport:
    """The annotated tree plus run-level context."""

    root: NodeReport
    total_self_seconds: float
    predicted_total_cost: int
    domain_size: int
    deviation_factor: float
    flagged: List[NodeReport] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    def walk(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def render(self) -> str:
        return render_explain_report(self)


def annotate_evaluation(
    formula: Formula,
    trace,
    domain_size: int,
    deviation_factor: float = 4.0,
    min_share: float = 0.02,
    extras: Optional[Dict[str, object]] = None,
) -> ExplainReport:
    """The annotated evaluation tree for a traced run of ``formula``.

    ``trace`` is the run's recording tracer, its root spans, or parsed
    span dicts from an exported JSONL trace.  A node is *flagged* when
    its measured share of attributed self-time exceeds
    ``deviation_factor`` times its predicted share of the static
    ``n^k`` cost — and the measured share itself is at least
    ``min_share``, so microsecond noise never flags.
    """
    from repro.algebra.cost import FormulaCostModel

    roots = _roots_of(trace)
    agg = _aggregate_by_label(roots)
    predictions = FormulaCostModel(domain_size).predict(formula)

    # merge predictions per label (identical subformulas share a label,
    # exactly as they share one span aggregate)
    predicted_cost: Dict[str, int] = {}
    predicted_rows: Dict[str, int] = {}

    def collect(node: Formula) -> None:
        label = formula_label(node)
        cost = predictions[id(node)]
        predicted_cost[label] = predicted_cost.get(label, 0) + cost.cost
        predicted_rows[label] = max(
            predicted_rows.get(label, 0), cost.rows_bound
        )
        for child in node.children():
            collect(child)

    collect(formula)

    total_self = sum(cell["self"] for cell in agg.values())  # type: ignore[misc]
    total_cost = sum(predicted_cost.values())
    flagged: List[NodeReport] = []
    flagged_labels = set()

    def build(node: Formula) -> NodeReport:
        label = formula_label(node)
        cell = agg.get(label, _blank_cell())
        is_fixpoint = isinstance(node, FIXPOINT_NODES)
        actual_share = (
            cell["self"] / total_self if total_self > 0 else 0.0  # type: ignore[operator]
        )
        predicted_share = (
            predicted_cost[label] / total_cost if total_cost > 0 else 0.0
        )
        flag = (
            actual_share >= min_share
            and predicted_share > 0.0
            and actual_share > deviation_factor * predicted_share
        )
        report = NodeReport(
            label=label,
            node_type=type(node).__name__,
            count=int(cell["count"]),  # type: ignore[arg-type]
            total_seconds=float(cell["total"]),  # type: ignore[arg-type]
            self_seconds=float(cell["self"]),  # type: ignore[arg-type]
            rows=cell["rows"],  # type: ignore[arg-type]
            iterations=int(cell["iterations"]) if is_fixpoint else None,  # type: ignore[arg-type]
            predicted_rows=predicted_rows[label],
            predicted_cost=predicted_cost[label],
            actual_share=actual_share,
            predicted_share=predicted_share,
            flagged=flag,
            children=[build(child) for child in node.children()],
        )
        if flag and label not in flagged_labels:
            flagged_labels.add(label)
            flagged.append(report)
        return report

    root = build(formula)
    flagged.sort(key=lambda r: r.actual_share, reverse=True)
    return ExplainReport(
        root=root,
        total_self_seconds=total_self,
        predicted_total_cost=total_cost,
        domain_size=domain_size,
        deviation_factor=deviation_factor,
        flagged=flagged,
        extras=dict(extras or {}),
    )


def render_explain_report(report: ExplainReport, max_label: int = 60) -> str:
    """Plain-text rendering: header, annotated tree, deviation list."""
    lines: List[str] = []
    for key, value in sorted(report.extras.items()):
        lines.append(f"{key}: {value}")
    lines.append(
        f"domain size: {report.domain_size}; attributed self time: "
        f"{format_seconds(report.total_self_seconds)}; predicted total "
        f"cost: {report.predicted_total_cost} (n^k units)"
    )
    lines.append("")
    lines.append("== annotated evaluation tree ==")

    def visit(node: NodeReport, depth: int) -> None:
        label = node.label
        if len(label) > max_label:
            label = label[: max_label - 3] + "..."
        parts = [f"count={node.count}"]
        if node.rows is not None:
            parts.append(f"rows={node.rows}")
        parts.append(f"rows<=n^k={node.predicted_rows}")
        if node.iterations is not None:
            parts.append(f"iterations={node.iterations}")
        parts.append(f"self={format_seconds(node.self_seconds)}")
        parts.append(
            f"share={node.actual_share:.1%} (predicted "
            f"{node.predicted_share:.1%})"
        )
        marker = "  << DEVIATES" if node.flagged else ""
        lines.append(
            "  " * depth
            + f"{node.node_type}  {label}  [{', '.join(parts)}]{marker}"
        )
        for child in node.children:
            visit(child, depth + 1)

    visit(report.root, 0)
    lines.append("")
    if report.flagged:
        lines.append(
            f"== deviations (measured share > {report.deviation_factor:g}x "
            "predicted share) =="
        )
        for node in report.flagged:
            ratio = node.deviation
            lines.append(
                f"  {node.node_type}  {node.label[:max_label]}  "
                f"measured {node.actual_share:.1%} vs predicted "
                f"{node.predicted_share:.1%}"
                + (f"  ({ratio:.1f}x)" if ratio is not None else "")
            )
    else:
        lines.append("== deviations ==")
        lines.append("  (none: every node within the predicted share band)")
    lines.append("")
    lines.append(
        "# identical subformulas share one aggregate line; shares are of "
        "the self time attributed to fo.* nodes and their machinery"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Trace diffing
# ---------------------------------------------------------------------------


def _span_path_label(span: Span) -> str:
    """A stable identity for one span within its tree level.

    ``fo.*`` spans key on their subformula text, ``fp.solve`` on the
    relation/kind, ``mu.fixpoint`` on the recursion variable; iteration
    and kernel spans key on the bare name so repeats aggregate.
    """
    attrs = span.attrs
    expr = attrs.get("expr")
    if expr is not None:
        return f"{span.name}[{expr}]"
    if span.name == "fp.solve":
        return f"fp.solve[{attrs.get('rel', '?')}/{attrs.get('kind', '?')}]"
    if span.name == "mu.fixpoint":
        return f"mu.fixpoint[{attrs.get('var', '?')}]"
    return span.name


def trace_paths(trace) -> Dict[str, Dict[str, float]]:
    """``path -> {count, total, self}`` for one span tree.

    The path is the "/"-joined chain of :func:`_span_path_label` from
    the root, so the same subformula evaluated under different parents
    stays distinct while per-iteration repeats aggregate into one row.
    """
    cells: Dict[str, Dict[str, float]] = {}

    def visit(span: Span, prefix: str) -> None:
        label = _span_path_label(span)
        path = f"{prefix}/{label}" if prefix else label
        cell = cells.setdefault(
            path, {"count": 0.0, "total": 0.0, "self": 0.0}
        )
        cell["count"] += 1
        cell["total"] += span.duration
        cell["self"] += span.self_duration()
        for child in span.children:
            visit(child, path)

    for root in _roots_of(trace):
        visit(root, "")
    return cells


@dataclass(frozen=True)
class PathDiff:
    """One aligned row of a trace diff."""

    path: str
    count_a: int
    count_b: int
    self_a: float
    self_b: float
    total_a: float
    total_b: float

    @property
    def self_delta(self) -> float:
        return self.self_b - self.self_a

    @property
    def count_delta(self) -> int:
        return self.count_b - self.count_a

    @property
    def only_in(self) -> Optional[str]:
        """"a"/"b" when the path exists in just one trace, else None."""
        if self.count_a == 0 and self.count_b > 0:
            return "b"
        if self.count_b == 0 and self.count_a > 0:
            return "a"
        return None


def diff_traces(trace_a, trace_b) -> List[PathDiff]:
    """Align two traces by subformula path; rows sorted by |Δself| desc.

    Every path from either trace appears exactly once — unmatched paths
    (a span structure only one run produced, e.g. ``kernel.*`` under the
    packed backend) show up with zero counts on the other side.
    """
    paths_a = trace_paths(trace_a)
    paths_b = trace_paths(trace_b)
    out: List[PathDiff] = []
    for path in sorted(set(paths_a) | set(paths_b)):
        a = paths_a.get(path, {"count": 0.0, "total": 0.0, "self": 0.0})
        b = paths_b.get(path, {"count": 0.0, "total": 0.0, "self": 0.0})
        out.append(
            PathDiff(
                path=path,
                count_a=int(a["count"]),
                count_b=int(b["count"]),
                self_a=a["self"],
                self_b=b["self"],
                total_a=a["total"],
                total_b=b["total"],
            )
        )
    out.sort(key=lambda d: abs(d.self_delta), reverse=True)
    return out


def render_trace_diff(
    diffs: Sequence[PathDiff],
    label_a: str = "A",
    label_b: str = "B",
    top: int = 20,
    max_path: int = 72,
) -> str:
    """Fixed-width table of the largest self-time deltas."""
    if not diffs:
        return "(no spans in either trace)"
    shown = list(diffs[:top])
    header = (
        "path",
        f"count {label_a}",
        f"count {label_b}",
        f"self {label_a}",
        f"self {label_b}",
        "delta self",
        "note",
    )
    cells = []
    for diff in shown:
        path = diff.path
        if len(path) > max_path:
            path = "..." + path[-(max_path - 3) :]
        sign = "+" if diff.self_delta >= 0 else "-"
        if diff.only_in == "a":
            note = f"only in {label_a}"
        elif diff.only_in == "b":
            note = f"only in {label_b}"
        else:
            note = ""
        cells.append(
            (
                path,
                str(diff.count_a),
                str(diff.count_b),
                format_seconds(diff.self_a),
                format_seconds(diff.self_b),
                f"{sign}{format_seconds(abs(diff.self_delta))}",
                note,
            )
        )
    widths = [
        max(len(header[i]), max(len(c[i]) for c in cells))
        for i in range(len(header))
    ]

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()

    lines = [fmt(header), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(c) for c in cells)
    if len(diffs) > top:
        lines.append(f"... {len(diffs) - top} smaller path(s) elided ...")
    total_a = sum(d.self_a for d in diffs)
    total_b = sum(d.self_b for d in diffs)
    lines.append(
        f"total self: {label_a}={format_seconds(total_a)}  "
        f"{label_b}={format_seconds(total_b)}  "
        f"delta={format_seconds(total_b - total_a)}"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Live progress
# ---------------------------------------------------------------------------


class ProgressReporter(Tracer):
    """A recording tracer that narrates long fixpoints as they iterate.

    Drop-in wherever a :class:`~repro.obs.tracer.Tracer` goes
    (``EvalOptions(trace=reporter)``): spans record exactly as usual,
    and every closed ``fp.iteration`` / ``datalog.round`` span
    additionally feeds a throttled heartbeat line::

        [progress] S/lfp iteration 41: size=812 delta=9 elapsed=2.4s eta~1.1s

    The ETA extrapolates the stage-size series with
    :func:`repro.obs.runstore.fit_series` toward the stage-size ceiling
    — ``domain_size ** arity`` of the enclosing ``fp.solve`` span when
    both are known, else the caller's ``rows_bound``.  Both are upper
    bounds (Prop 3.1), so the estimate is conservative; it never exceeds
    the guard's remaining deadline when one is armed.
    ``stream``/``clock`` are injectable for tests; ``interval``
    throttles output to one line per that many seconds.
    """

    __slots__ = (
        "_stream",
        "_interval",
        "_guard",
        "_rows_bound",
        "_domain_size",
        "_last_emit",
        "_solves",
        "heartbeats",
    )

    def __init__(
        self,
        stream=None,
        interval: float = 1.0,
        clock=time.perf_counter,
        guard=None,
        rows_bound: Optional[int] = None,
        domain_size: Optional[int] = None,
    ):
        super().__init__(clock)
        self._stream = stream if stream is not None else sys.stderr
        self._interval = interval
        self._guard = guard
        self._rows_bound = rows_bound
        self._domain_size = domain_size
        self._last_emit: Optional[float] = None
        # id(open solve span) -> [(iteration index, size), ...]
        self._solves: Dict[int, List[Tuple[float, float]]] = {}
        #: Heartbeat lines emitted, for tests and post-run inspection.
        self.heartbeats: List[str] = []

    # -- tracer hook ---------------------------------------------------

    def _close(self, span: Span) -> None:
        super()._close(span)
        if span is None:
            return
        if span.name in ("fp.iteration", "datalog.round"):
            self._note_iteration(span)
        elif span.name == "fp.solve":
            self._solves.pop(id(span), None)

    # -- heartbeats ----------------------------------------------------

    def _note_iteration(self, span: Span) -> None:
        solve = self._stack[-1] if self._stack else None
        if solve is not None and solve.name != "fp.solve":
            solve = None
        history = self._solves.setdefault(
            id(solve) if solve is not None else 0, []
        )
        index = span.attrs.get("index")
        size = span.attrs.get("size", span.attrs.get("total_tuples"))
        if isinstance(index, (int, float)) and isinstance(
            size, (int, float)
        ):
            history.append((float(index), float(size)))
        now = self._clock() - self._epoch
        if (
            self._last_emit is not None
            and now - self._last_emit < self._interval
        ):
            return
        self._last_emit = now
        self._emit(span, solve, history, now)

    def _emit(
        self,
        span: Span,
        solve: Optional[Span],
        history: List[Tuple[float, float]],
        now: float,
    ) -> None:
        if solve is not None:
            what = (
                f"{solve.attrs.get('rel', '?')}/{solve.attrs.get('kind', '?')}"
            )
            elapsed = now - solve.start
        else:
            what = span.name
            elapsed = now
        parts = [f"[progress] {what} iteration {span.attrs.get('index', '?')}:"]
        size = span.attrs.get("size", span.attrs.get("total_tuples"))
        if size is not None:
            parts.append(f"size={size}")
        delta = span.attrs.get("delta")
        if delta is not None:
            parts.append(f"delta={delta}")
        parts.append(f"elapsed={format_seconds(elapsed)}")
        eta = self._estimate_eta(history, elapsed, self._solve_bound(solve))
        remaining = self._guard_remaining()
        if eta is not None and remaining is not None:
            eta = min(eta, remaining)
        if eta is not None:
            parts.append(f"eta~{format_seconds(eta)}")
        elif remaining is not None:
            parts.append(f"deadline in {format_seconds(remaining)}")
        line = " ".join(parts)
        self.heartbeats.append(line)
        print(line, file=self._stream, flush=True)

    def _guard_remaining(self) -> Optional[float]:
        guard = self._guard
        if guard is None or not getattr(guard, "enabled", False):
            return None
        remaining = guard.remaining_seconds()
        return remaining if remaining is not None else None

    def _solve_bound(self, solve: Optional[Span]) -> Optional[int]:
        """Stage-size ceiling: ``n^arity`` of the solve, else the default."""
        if solve is not None and self._domain_size is not None:
            arity = solve.attrs.get("arity")
            if isinstance(arity, int) and arity >= 0:
                return self._domain_size**arity
        return self._rows_bound

    def _estimate_eta(
        self,
        history: List[Tuple[float, float]],
        elapsed: float,
        bound: Optional[int],
    ) -> Optional[float]:
        """Iterations-to-ceiling from the stage-size growth shape.

        Fits size-vs-iteration with :func:`fit_series`; inverts the
        winning model at the stage-size ceiling ``bound`` to estimate the
        total iteration count, then scales the measured per-iteration
        time.  Returns ``None`` when the series is too short, the fit
        fails, or no ceiling is known.
        """
        if bound is None or len(history) < 3:
            return None
        from repro.obs.runstore import fit_series

        indexes = [i for i, _ in history if i > 0]
        sizes = [s for i, s in history if i > 0]
        current_index, current_size = history[-1]
        if current_index <= 0 or current_size <= 0:
            return None
        if current_size >= bound:
            return 0.0
        fit = fit_series(indexes, sizes)
        model = fit.get("model")
        try:
            if model == "polynomial" and float(fit["coefficient"]) > 0:
                scale = math.exp(float(fit["intercept"]))
                target = (bound / scale) ** (1.0 / float(fit["coefficient"]))
            elif model == "exponential" and float(fit["base"]) > 1.0:
                scale = math.exp(float(fit["intercept"]))
                target = math.log(bound / scale) / math.log(
                    float(fit["base"])
                )
            else:
                return None
        except (ValueError, KeyError, OverflowError, ZeroDivisionError):
            return None
        remaining_iterations = max(0.0, target - current_index)
        # near convergence the fit extrapolation diverges (sizes plateau
        # below the ceiling); a monotone fixpoint adds >= 1 tuple per
        # iteration, so remaining tuples also bound remaining iterations
        remaining_iterations = min(
            remaining_iterations, max(0.0, bound - current_size)
        )
        per_iteration = elapsed / max(current_index, 1.0)
        return remaining_iterations * per_iteration


__all__ = [
    "ExplainError",
    "ExplainReport",
    "NodeReport",
    "PathDiff",
    "ProgressReporter",
    "annotate_evaluation",
    "diff_traces",
    "render_explain_report",
    "render_trace_diff",
    "spans_from_dicts",
    "trace_paths",
]
