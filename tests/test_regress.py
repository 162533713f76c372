"""Unit tests for the regression gate: counters compared exactly."""

from repro.obs.regress import compare_records
from repro.obs.runstore import build_record

ENV = {
    "python": "3.11.0",
    "implementation": "CPython",
    "platform": "linux-x86_64",
    "cpu_count": 4,
    "git_sha": "abc1234",
}


def _record(counters=None, seconds=None, outcomes=None, parameters=None, env=None):
    parameters = parameters or [2.0, 4.0, 8.0]
    counters = counters or [
        {"iterations": float(p), "rows": float(p * p)} for p in parameters
    ]
    seconds = seconds or [0.01 * p for p in parameters]
    return build_record(
        "GATE",
        "gate fixture",
        parameters=parameters,
        seconds=seconds,
        counters=counters,
        outcomes=outcomes,
        fit_counters=("rows",),
        env=env or ENV,
    )


class TestCompareRecords:
    def test_identical_records_pass(self):
        report = compare_records(_record(), _record())
        assert report.ok
        assert report.points_checked == 3
        assert report.counters_checked == 6
        assert "PASS" in report.format()

    def test_counter_drift_is_named(self):
        fresh = _record(
            counters=[
                {"iterations": 2.0, "rows": 4.0},
                {"iterations": 4.0, "rows": 16.0},
                {"iterations": 9.0, "rows": 64.0},  # iterations drifted
            ]
        )
        report = compare_records(_record(), fresh)
        assert not report.ok
        (violation,) = report.violations
        assert violation.kind == "counter"
        assert violation.name == "iterations"
        assert violation.parameter == 8.0
        assert violation.baseline == 8.0 and violation.fresh == 9.0
        assert "drifted" in violation.message
        assert "REGRESSION" in report.format()

    def test_missing_counter_is_a_violation(self):
        fresh = _record(
            counters=[
                {"iterations": 2.0},
                {"iterations": 4.0},
                {"iterations": 8.0},
            ]
        )
        report = compare_records(_record(), fresh)
        kinds = {(v.kind, v.name) for v in report.violations}
        assert ("counter", "rows") in kinds

    def test_new_counter_is_only_a_note(self):
        fresh = _record(
            counters=[
                {"iterations": float(p), "rows": float(p * p), "extra": 1.0}
                for p in (2, 4, 8)
            ]
        )
        report = compare_records(_record(), fresh)
        assert report.ok
        assert any("extra" in note for note in report.notes)

    def test_outcome_flip(self):
        fresh = _record(outcomes=["ok", "ok", "timeout"])
        report = compare_records(_record(), fresh)
        assert any(v.kind == "outcome" for v in report.violations)

    def test_parameter_mismatch(self):
        fresh = _record(parameters=[2.0, 4.0])
        report = compare_records(_record(), fresh)
        assert any(v.kind == "parameters" for v in report.violations)

    def test_different_experiments_short_circuit(self):
        other = build_record(
            "OTHER", "t", parameters=[1.0], seconds=[0.0], env=ENV
        )
        report = compare_records(_record(), other)
        assert [v.kind for v in report.violations] == ["experiment"]
        assert report.points_checked == 0

    def test_fit_coefficient_drift(self):
        baseline = _record()
        fresh = _record(
            counters=[
                {"iterations": float(p), "rows": float(p**3)}
                for p in (2, 4, 8)
            ]
        )
        report = compare_records(baseline, fresh)
        # the p^2 -> p^3 shape change surfaces as the counters that moved
        drifted = {
            (v.kind, v.name, v.parameter) for v in report.violations
        }
        assert drifted == {
            ("counter", "rows", 2.0),
            ("counter", "rows", 4.0),
            ("counter", "rows", 8.0),
        }

    def test_wall_clock_is_not_gated(self):
        baseline = _record(seconds=[0.001, 0.001, 0.001])
        fresh = _record(seconds=[10.0, 10.0, 10.0])
        report = compare_records(baseline, fresh)
        assert report.ok
        assert report.counters_checked == 6

    def test_env_drift_is_a_note_not_a_violation(self):
        drifted_env = dict(ENV, python="3.12.0", git_sha="def5678")
        report = compare_records(_record(), _record(env=drifted_env))
        assert report.ok

    def test_report_to_dict_is_json_ready(self):
        import json

        fresh = _record(outcomes=["ok", "ok", "timeout"])
        payload = compare_records(_record(), fresh).to_dict()
        text = json.dumps(payload)
        assert '"ok": false' in text
        assert payload["violations"][0]["kind"] == "outcome"
