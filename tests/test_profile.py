"""Unit tests for cross-run span profiles."""

import pytest

from repro.errors import ReproError
from repro.obs.profile import (
    ProfileWarning,
    SpanProfile,
    parse_trace_jsonl,
    profile_sweep,
    render_profile,
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


def _traced(step=1.0):
    """outer(child_a, child_b) with deterministic 1s clock ticks."""
    tracer = Tracer(clock=FakeClock(step))
    with tracer.span("outer"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    return tracer


class TestParseTraceJsonl:
    def test_roundtrip_from_tracer(self):
        spans = parse_trace_jsonl(_traced().export_jsonl())
        assert [s["name"] for s in spans] == ["outer", "child", "child"]

    def test_blank_lines_skipped(self):
        text = "\n" + _traced().export_jsonl() + "\n\n"
        assert len(parse_trace_jsonl(text)) == 3

    def test_bad_json_line_rejected_when_strict(self):
        with pytest.raises(ReproError):
            parse_trace_jsonl(
                '{"name": "a", "duration": 1}\nnot json', on_error="raise"
            )

    def test_non_span_object_rejected_when_strict(self):
        with pytest.raises(ReproError):
            parse_trace_jsonl('{"duration": 1}', on_error="raise")

    def test_bad_lines_skipped_with_warning_by_default(self):
        text = (
            '{"name": "a", "duration": 1}\n'
            "not json\n"
            '{"duration": 1}\n'
            '{"name": "b", "duration": 2}'
        )
        with pytest.warns(ProfileWarning) as caught:
            spans = parse_trace_jsonl(text)
        assert [s["name"] for s in spans] == ["a", "b"]
        (warning,) = caught
        assert "skipped 2 malformed trace line(s)" in str(warning.message)
        assert "line 2" in str(warning.message)

    def test_clean_input_emits_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spans = parse_trace_jsonl(_traced().export_jsonl())
        assert len(spans) == 3

    def test_bad_on_error_mode_rejected(self):
        with pytest.raises(ReproError):
            parse_trace_jsonl("", on_error="ignore")


class TestSelfDurations:
    def test_parent_minus_children(self):
        spans = parse_trace_jsonl(_traced().export_jsonl())
        profile = SpanProfile().add_spans(4.0, spans)
        # outer lasted 5 ticks, children 1 tick each -> self = 3
        assert profile.cell("outer", 4.0) == {
            "count": 1.0,
            "total": 5.0,
            "self": 3.0,
        }
        assert profile.cell("child", 4.0) == {
            "count": 2.0,
            "total": 2.0,
            "self": 2.0,
        }

    def test_orphan_parent_ignored(self):
        profile = SpanProfile().add_spans(
            4.0,
            [{"span_id": 1, "parent_id": 99, "name": "a", "duration": 2.0}],
        )
        assert profile.cell("a", 4.0) == {
            "count": 1.0,
            "total": 2.0,
            "self": 2.0,
        }


class TestSpanProfile:
    def test_add_tracer_matches_aggregate(self):
        profile = SpanProfile().add_tracer(4.0, _traced())
        assert profile.cell("outer", 4.0) == {
            "count": 1.0,
            "total": 5.0,
            "self": 3.0,
        }
        assert profile.cell("child", 4.0)["count"] == 2.0

    def test_serialized_and_live_agree(self):
        tracer = _traced()
        live = SpanProfile().add_tracer(4.0, tracer)
        serialized = SpanProfile().add_spans(
            4.0, parse_trace_jsonl(tracer.export_jsonl())
        )
        for name in live.names():
            assert live.cell(name, 4.0) == serialized.cell(name, 4.0)

    def test_parameters_stay_sorted(self):
        profile = SpanProfile()
        profile.add_tracer(8.0, _traced())
        profile.add_tracer(2.0, _traced())
        assert profile.parameters == [2.0, 8.0]

    def test_hot_ranks_by_total_self(self):
        profile = SpanProfile()
        profile.add_tracer(2.0, _traced())
        assert profile.hot(1) == ["outer"]

    def test_self_series_across_parameters(self):
        profile = SpanProfile()
        profile.add_tracer(2.0, _traced(step=1.0))
        profile.add_tracer(4.0, _traced(step=2.0))
        assert profile.self_series("outer") == [(2.0, 3.0), (4.0, 6.0)]

    def test_merge_accumulates(self):
        a = SpanProfile().add_tracer(2.0, _traced())
        b = SpanProfile().add_tracer(2.0, _traced())
        a.merge(b)
        assert a.cell("outer", 2.0)["count"] == 2.0

    def test_to_dict_shape(self):
        payload = SpanProfile().add_tracer(2.0, _traced()).to_dict()
        assert payload["parameters"] == [2.0]
        assert payload["spans"]["outer"]["2"]["self"] == 3.0


class TestProfileSources:
    def test_profile_sweep_skips_untraced_points(self):
        from repro.complexity.measure import run_sweep

        def workload(parameter, tracer):
            with tracer.span("work"):
                pass
            return {"x": 1.0}

        sweep = run_sweep("p", [2.0, 3.0], workload, tracer_factory=Tracer)
        profile = profile_sweep(sweep)
        assert profile.names() == ["work"]
        assert profile.parameters == [2.0, 3.0]


class TestRenderProfile:
    def test_empty_profile(self):
        assert render_profile(SpanProfile()) == "(no spans profiled)"

    def test_matrix_has_parameter_columns(self):
        profile = SpanProfile()
        profile.add_tracer(2.0, _traced())
        profile.add_tracer(4.0, _traced())
        text = render_profile(profile)
        header = text.splitlines()[0]
        assert "n=2" in header and "n=4" in header
        assert "total self" in header

    def test_missing_cell_renders_dash(self):
        profile = SpanProfile()
        profile.add_tracer(2.0, _traced())
        other = Tracer(clock=FakeClock())
        with other.span("late"):
            pass
        profile.add_tracer(4.0, other)
        outer_line = next(
            line
            for line in render_profile(profile).splitlines()
            if line.startswith("outer")
        )
        assert "-" in outer_line
