"""Unit tests for the observability package: tracer, metrics, report."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.report import (
    render_hot_spans,
    render_metrics,
    render_report,
    render_span_tree,
)
from repro.obs.tracer import (
    _NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
    resolve_tracer,
)


class FakeClock:
    """A deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_nesting_and_parent_linkage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("inner2"):
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert [c.name for c in outer.children] == ["inner", "inner2"]
        assert [s.name for s in tracer.roots()] == ["outer"]
        assert [s.name for s in tracer.walk()] == ["outer", "inner", "inner2"]

    def test_timing_with_injected_clock(self):
        # FakeClock(1.0): epoch=0, opens/closes each consume one tick
        tracer = Tracer(clock=FakeClock(1.0))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert outer.start == 1.0  # first read after the epoch read
        assert inner.start == 2.0
        assert inner.duration == 1.0
        assert outer.duration == 3.0
        assert outer.self_duration() == 2.0

    def test_attrs_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("s", language="FP") as span:
            span.set(rows=7).set(rows=8, arity=2)
        assert span.attrs == {"language": "FP", "rows": 8, "arity": 2}

    def test_event_is_zero_duration_child(self):
        tracer = Tracer(clock=FakeClock(0.0))
        with tracer.span("parent"):
            event = tracer.event("pfp.space", live_tuples=3)
        assert event.parent_id == tracer.spans[0].span_id
        assert event.duration == 0.0
        assert event.attrs == {"live_tuples": 3}

    def test_exception_unwinding_closes_spans(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        # the stack is fully unwound; a new root opens at the top level
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None

    def test_export_jsonl_round_trip(self):
        tracer = Tracer(clock=FakeClock(0.5))
        with tracer.span("evaluate", language="FP") as outer:
            with tracer.span("fp.iteration", index=0) as inner:
                inner.set(size=4, delta=4)
        lines = tracer.export_jsonl().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        for record in (first, second):
            assert set(record) == {
                "span_id",
                "parent_id",
                "name",
                "start",
                "duration",
                "attrs",
            }
        assert first["name"] == "evaluate"
        assert first["parent_id"] is None
        assert first["attrs"] == {"language": "FP"}
        assert second["parent_id"] == first["span_id"]
        assert second["attrs"] == {"index": 0, "size": 4, "delta": 4}
        assert second["duration"] >= 0.0
        assert second["start"] >= first["start"]

    def test_aggregate_and_hot_spans(self):
        tracer = Tracer(clock=FakeClock(1.0))
        for index in range(3):
            with tracer.span("fp.iteration", index=index):
                pass
        agg = tracer.aggregate()
        assert agg["fp.iteration"]["count"] == 3
        hot = tracer.hot_spans(k=1)
        assert hot[0]["name"] == "fp.iteration"

    def test_total_duration_sums_roots(self):
        tracer = Tracer(clock=FakeClock(1.0))
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert tracer.total_duration() == 2.0


class TestNullTracer:
    def test_singleton_and_disabled(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True

    def test_span_returns_shared_object(self):
        # the no-op hot path must not allocate: every span() call hands
        # back the one preallocated null span
        a = NULL_TRACER.span("x", rows=1)
        b = NULL_TRACER.span("y")
        assert a is b is _NULL_SPAN
        with a as span:
            assert span.set(anything=1) is span
        assert NULL_TRACER.event("e") is None
        assert NULL_TRACER.export_jsonl() == ""
        assert NULL_TRACER.roots() == ()

    def test_resolve_tracer(self):
        assert resolve_tracer(None) is NULL_TRACER
        assert resolve_tracer(False) is NULL_TRACER
        fresh = resolve_tracer(True)
        assert isinstance(fresh, Tracer)
        mine = Tracer()
        assert resolve_tracer(mine) is mine


class TestMetrics:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == 5

    def test_gauge_set_max(self):
        gauge = Gauge("g")
        gauge.set_max(3)
        gauge.set_max(1)
        assert gauge.value == 3
        gauge.set(0)
        assert gauge.value == 0

    def test_histogram(self):
        hist = Histogram("h")
        for value in (1, 2, 4, 100):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["min"] == 1
        assert snap["max"] == 100
        assert snap["sum"] == 107
        assert hist.mean == pytest.approx(107 / 4)

    def test_registry_creates_and_shares(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        registry.gauge("b").set(2)
        registry.histogram("c").observe(1)
        assert registry.names() == ["a", "b", "c"]
        assert "b" in registry and "missing" not in registry
        assert len(registry) == 3
        snap = registry.snapshot()
        assert snap["a"] == 0 and snap["b"] == 2
        assert snap["c"]["count"] == 1

    def test_registry_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")

    def test_registry_histogram_bounds_apply_on_first_creation(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(0.1, 1.0))
        assert hist.bounds == (0.1, 1.0)
        # re-requesting keeps the existing grid (shared-store rule)
        assert registry.histogram("lat", bounds=(5.0,)) is hist
        assert hist.bounds == (0.1, 1.0)


class TestHistogramReservoir:
    def test_exact_quantiles_while_reservoir_holds_everything(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.observe(value)
        assert hist.reservoir_exact
        # order statistics, not bucket interpolation: exact medians
        assert hist.quantile(0.50) == pytest.approx(50.5)
        assert hist.quantile(1.0) == pytest.approx(100.0)
        snap = hist.snapshot()
        assert snap["p50"] == pytest.approx(50.5)
        assert snap["p99"] == pytest.approx(99.01)

    def test_memory_bounded_beyond_reservoir_size(self):
        hist = Histogram("h", reservoir_size=64)
        for value in range(1000):
            hist.observe(value)
        assert len(hist._reservoir) == 64
        assert not hist.reservoir_exact
        assert hist.count == 1000

    def test_sampled_quantiles_stay_in_observed_range(self):
        hist = Histogram("h", reservoir_size=32)
        for value in range(500):
            hist.observe(value)
        for q in (0.5, 0.95, 0.99):
            assert 0 <= hist.quantile(q) <= 499

    def test_deterministic_across_instances_with_same_name(self):
        a, b = Histogram("same"), Histogram("same")
        for value in range(5000):
            a.observe(value)
            b.observe(value)
        assert a._reservoir == b._reservoir
        assert a.snapshot() == b.snapshot()

    def test_disabled_reservoir_falls_back_to_buckets(self):
        hist = Histogram("h", reservoir_size=0)
        for value in (1, 2, 4, 100):
            hist.observe(value)
        assert hist._reservoir == []
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert 1 <= snap["p50"] <= 100

    def test_snapshot_keys_unchanged_by_reservoir(self):
        hist = Histogram("h")
        hist.observe(5.0)
        assert set(hist.snapshot()) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99"
        }


class TestReport:
    def _tracer(self):
        tracer = Tracer(clock=FakeClock(0.001))
        with tracer.span("evaluate", language="FP"):
            for index in range(3):
                with tracer.span("fp.iteration", index=index):
                    pass
        return tracer

    def test_span_tree_structure(self):
        text = render_span_tree(self._tracer())
        lines = text.splitlines()
        assert lines[0].startswith("evaluate")
        assert "[language=FP]" in lines[0]
        assert all(line.startswith("  fp.iteration") for line in lines[1:])

    def test_span_tree_elides_long_sibling_runs(self):
        tracer = Tracer(clock=FakeClock(0.0))
        with tracer.span("root"):
            for index in range(100):
                with tracer.span("leaf", index=index):
                    pass
        text = render_span_tree(tracer, max_children=10)
        assert "elided" in text
        assert len(text.splitlines()) < 20

    def test_span_tree_depth_limit(self):
        text = render_span_tree(self._tracer(), max_depth=0)
        assert "below depth limit" in text
        assert "fp.iteration" not in text

    def test_hot_spans_table(self):
        text = render_hot_spans(self._tracer(), k=5)
        assert text.splitlines()[0].startswith("span")
        assert "fp.iteration" in text

    def test_render_metrics_and_report(self):
        registry = MetricsRegistry()
        registry.counter("eval.table_ops").inc(7)
        registry.histogram("eval.table_rows").observe(3)
        text = render_metrics(registry)
        assert "eval.table_ops = 7" in text
        assert "count=1" in text
        report = render_report(self._tracer(), registry)
        assert "== span tree ==" in report
        assert "== metrics ==" in report

    def test_empty_tracer_renders_placeholder(self):
        tracer = Tracer()
        assert render_span_tree(tracer) == "(no spans recorded)"
        assert render_hot_spans(tracer) == "(no spans recorded)"
        assert render_metrics(MetricsRegistry()) == "(no metrics recorded)"
