"""Edge-case tests for the plain-text report renderers.

The happy paths live in ``test_obs.py``; this file covers the corners —
empty tracers, single-span traces, pathological nesting depth, and a
registry mixing every metric kind.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    render_hot_spans,
    render_metrics,
    render_report,
    render_span_tree,
)
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestEmptyTracer:
    def test_span_tree_placeholder(self):
        assert render_span_tree(Tracer()) == "(no spans recorded)"

    def test_hot_spans_placeholder(self):
        assert render_hot_spans(Tracer()) == "(no spans recorded)"

    def test_full_report_still_renders(self):
        text = render_report(Tracer(), MetricsRegistry())
        assert "(no spans recorded)" in text
        assert "(no metrics recorded)" in text


class TestSingleSpan:
    def test_one_line_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("only", n=4):
            pass
        text = render_span_tree(tracer)
        assert text.splitlines() == ["only  1.000s  [n=4]"]

    def test_hot_spans_single_row(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("only"):
            pass
        lines = render_hot_spans(tracer).splitlines()
        # header, separator, one data row
        assert len(lines) == 3
        assert lines[2].startswith("only")


class TestDeepNesting:
    def _deep(self, depth):
        tracer = Tracer(clock=FakeClock())
        contexts = []
        for level in range(depth):
            ctx = tracer.span(f"level{level}")
            ctx.__enter__()
            contexts.append(ctx)
        for ctx in reversed(contexts):
            ctx.__exit__(None, None, None)
        return tracer

    def test_unlimited_depth_renders_every_level(self):
        depth = 40
        lines = render_span_tree(self._deep(depth)).splitlines()
        assert len(lines) == depth
        assert lines[-1].startswith("  " * (depth - 1) + f"level{depth - 1}")

    def test_max_depth_elides_below_the_limit(self):
        text = render_span_tree(self._deep(10), max_depth=2)
        assert "level2" in text
        assert "level3" not in text
        assert "below depth limit" in text

    def test_self_time_attribution_survives_depth(self):
        tracer = self._deep(30)
        rows = {r["name"]: r for r in tracer.hot_spans(k=30)}
        # each level's self time is exactly two clock ticks (enter+exit)
        # except the innermost, which owns a single tick
        assert rows["level29"]["self"] == 1.0
        assert rows["level0"]["self"] == 2.0


class TestMixedMetricKinds:
    def test_all_kinds_render(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc(7)
        registry.gauge("rows.peak").set_max(42)
        histogram = registry.histogram("latency")
        for value in (1.0, 2.0, 4.0, 8.0):
            histogram.observe(value)
        lines = dict(
            line.split(" = ", 1) for line in render_metrics(registry).splitlines()
        )
        assert lines["ops"] == "7"
        assert lines["rows.peak"] == "42"
        assert "count=4" in lines["latency"]
        assert "p50=" in lines["latency"]
        assert "p95=" in lines["latency"]
        assert "p99=" in lines["latency"]

    def test_histogram_quantiles_clamped_to_observed_range(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(5.0)
        snap = histogram.snapshot()
        assert snap["p50"] == 5.0
        assert snap["p99"] == 5.0

    def test_empty_registry_placeholder(self):
        assert render_metrics(MetricsRegistry()) == "(no metrics recorded)"
