"""Plain-text rendering of traces and metrics.

Renders a recorded :class:`~repro.obs.tracer.Tracer` as an indented span
tree with per-span timings and attributes, plus a flame-style "hot
spans" summary aggregating self-time by span name — the view that tells
you which phase (join, fixpoint iteration, grounding, DPLL, ...) the
wall-clock actually went to.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import Span, Tracer


def format_seconds(seconds: float) -> str:
    """A duration in the unit that keeps it readable: s, ms or us."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_attrs(span: Span) -> str:
    if not span.attrs:
        return ""
    parts = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
    return f"  [{parts}]"


def render_span_tree(
    tracer: Tracer,
    max_depth: Optional[int] = None,
    max_children: int = 40,
) -> str:
    """The trace as an indented tree, one line per span.

    ``max_children`` elides the middle of long sibling runs (hundreds of
    identical per-iteration or per-tuple spans) so the tree stays
    readable; the elision line says how many spans were folded.
    """
    lines: List[str] = []

    def visit(span: Span, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{span.name}  {format_seconds(span.duration)}"
            f"{_format_attrs(span)}"
        )
        if max_depth is not None and depth + 1 > max_depth:
            if span.children:
                lines.append(
                    f"{indent}  ... {len(span.children)} child span(s) "
                    "below depth limit"
                )
            return
        children = span.children
        if len(children) > max_children:
            head = children[: max_children // 2]
            tail = children[-(max_children // 2) :]
            for child in head:
                visit(child, depth + 1)
            lines.append(
                f"{indent}  ... {len(children) - len(head) - len(tail)} "
                "similar span(s) elided ..."
            )
            for child in tail:
                visit(child, depth + 1)
        else:
            for child in children:
                visit(child, depth + 1)

    for root in tracer.roots():
        visit(root, 0)
    if not lines:
        return "(no spans recorded)"
    return "\n".join(lines)


def render_hot_spans(tracer: Tracer, k: int = 10) -> str:
    """Top-``k`` span names by self time, as a fixed-width table."""
    rows = tracer.hot_spans(k)
    if not rows:
        return "(no spans recorded)"
    header = ("span", "count", "self", "total")
    cells = [
        (
            str(row["name"]),
            str(int(row["count"])),
            format_seconds(float(row["self"])),
            format_seconds(float(row["total"])),
        )
        for row in rows
    ]
    widths = [
        max(len(header[i]), max(len(c[i]) for c in cells))
        for i in range(len(header))
    ]

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(v.ljust(w) for v, w in zip(row, widths))

    lines = [fmt(header), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(c) for c in cells)
    return "\n".join(lines)


def render_metrics(registry: MetricsRegistry) -> str:
    """All registry readings, one ``name = value`` line each, sorted."""
    lines: List[str] = []
    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, Histogram):
            lines.append(
                f"{name} = count={metric.count} mean={metric.mean:.3g} "
                f"min={metric.min if metric.min is not None else 0} "
                f"p50={metric.quantile(0.50):.3g} "
                f"p95={metric.quantile(0.95):.3g} "
                f"p99={metric.quantile(0.99):.3g} "
                f"max={metric.max if metric.max is not None else 0}"
            )
        else:
            lines.append(f"{name} = {metric.snapshot()}")
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def render_report(
    tracer: Tracer,
    registry: Optional[MetricsRegistry] = None,
    top_k: int = 10,
    max_depth: Optional[int] = None,
) -> str:
    """The full plain-text report: tree, hot spans, optional metrics."""
    sections = [
        "== span tree ==",
        render_span_tree(tracer, max_depth=max_depth),
        "",
        f"== top {top_k} hot spans (by self time) ==",
        render_hot_spans(tracer, top_k),
    ]
    if registry is not None:
        sections.extend(["", "== metrics ==", render_metrics(registry)])
    return "\n".join(sections)
