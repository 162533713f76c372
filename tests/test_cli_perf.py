"""End-to-end tests for the ``repro perf`` observatory subcommands."""

import json

import pytest

from repro.cli import main

SIZES = ["--sizes", "4", "6", "8"]


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "records")


def _record(store, *extra):
    return main(
        ["perf", "record", "T2-FP", "--store", store, *SIZES, *extra]
    )


class TestPerfRecord:
    def test_record_writes_archive_and_baseline(self, store, capsys, tmp_path):
        assert _record(store) == 0
        out = capsys.readouterr().out
        assert "# env:" in out
        assert "# record" in out
        assert "# baseline" in out
        baseline = json.loads(
            (tmp_path / "records" / "BENCH_T2-FP.json").read_text()
        )
        assert baseline["experiment_id"] == "T2-FP"
        assert [p["parameter"] for p in baseline["points"]] == [4.0, 6.0, 8.0]
        assert "table_ops" in baseline["points"][0]["counters"]

    def test_second_record_keeps_the_baseline(self, store, capsys):
        _record(store)
        first = capsys.readouterr().out
        _record(store)
        second = capsys.readouterr().out
        assert "# baseline" in first
        assert "# baseline" not in second

    def test_baseline_flag_overwrites(self, store, capsys):
        _record(store)
        capsys.readouterr()
        assert _record(store, "--baseline") == 0
        assert "# baseline" in capsys.readouterr().out

    def test_unknown_experiment_is_a_usage_error(self, store, capsys):
        assert main(["perf", "record", "NOPE", "--store", store]) == 1
        assert "unknown perf experiment" in capsys.readouterr().err


class TestPerfCompare:
    def test_self_comparison_passes(self, store, capsys):
        _record(store)
        capsys.readouterr()
        code = main(
            ["perf", "compare", "T2-FP", "--store", store, *SIZES]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_strategy_drift_is_flagged(self, store, capsys):
        """The acceptance check: forcing the NAIVE strategy must trip the
        gate with a structured diff naming the drifted counter."""
        _record(store)
        capsys.readouterr()
        code = main(
            ["perf", "compare", "T2-FP", "--store", store, *SIZES,
             "--set", "strategy=naive"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "counter:table_ops" in out
        assert "drifted" in out

    def test_json_output_is_structured(self, store, capsys):
        _record(store)
        capsys.readouterr()
        code = main(
            ["perf", "compare", "T2-FP", "--store", store, *SIZES,
             "--json", "--set", "strategy=naive"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        drifted = {
            v["name"] for v in payload["violations"] if v["kind"] == "counter"
        }
        assert "table_ops" in drifted

    def test_use_latest_skips_the_rerun(self, store, capsys):
        _record(store)
        capsys.readouterr()
        code = main(
            ["perf", "compare", "T2-FP", "--store", store,
             "--use-latest"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_missing_baseline_is_an_error(self, store, capsys):
        code = main(
            ["perf", "compare", "T2-FP", "--store", store, "--use-latest"]
        )
        assert code == 1
        assert "no baseline" in capsys.readouterr().err


class TestOneGate:
    """``perf compare`` has one policy, so the timing-tier knobs and the
    per-point repetition count are gone; ``sweep`` keeps its own."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "compare", "T2-FP", "--counters-only"],
            ["perf", "compare", "T2-FP", "--seconds-ratio", "2"],
            ["perf", "compare", "T2-FP", "--degree-band", "0.5"],
            ["perf", "record", "T2-FP", "--repetitions", "3"],
            ["perf", "compare", "T2-FP", "--repetitions", "3"],
            ["perf", "profile", "T2-FP", "--repetitions", "3"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_keeps_repetitions(self, capsys):
        code = main(
            ["sweep", "--query", "E(x, y)", "--sizes", "4", "6",
             "--repetitions", "2"]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["4", "6"]


class TestPerfReport:
    def test_empty_store(self, store, capsys):
        assert main(["perf", "report", "--store", store]) == 0
        assert "(no records" in capsys.readouterr().out

    def test_trajectory_listing(self, store, capsys):
        _record(store)
        capsys.readouterr()
        assert main(["perf", "report", "--store", store]) == 0
        assert "T2-FP: 1 record(s)" in capsys.readouterr().out
        assert main(["perf", "report", "T2-FP", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "newest last" in out
        assert "baseline:" in out

    def test_unknown_experiment_is_an_error(self, store, capsys):
        assert main(["perf", "report", "NOPE", "--store", store]) == 1
        assert "unknown perf experiment" in capsys.readouterr().err


class TestPerfProfile:
    def test_profile_from_jsonl(self, store, tmp_path, capsys):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        path.write_text(tracer.export_jsonl() + "\n")
        code = main(
            ["perf", "profile", "--jsonl", str(path), "--param", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n=7" in out
        assert "outer" in out and "inner" in out

    def test_profile_refuses_concatenated_traces(self, tmp_path, capsys):
        """Two tracers' exports both number their spans from 1; merging
        them by id would misattribute self time, so the profile fails
        like ``repro trace diff`` does."""
        from repro.obs.tracer import Tracer

        def ticks():
            return iter(range(100)).__next__

        first = Tracer(clock=ticks())
        with first.span("outer"):  # 3 ticks, 1 of them in inner
            with first.span("inner"):
                pass
        second = Tracer(clock=ticks())
        with second.span("solo"):
            pass
        path = tmp_path / "both.jsonl"
        path.write_text(
            first.export_jsonl() + "\n" + second.export_jsonl() + "\n"
        )
        code = main(["perf", "profile", "--jsonl", str(path)])
        assert code == 1
        assert "duplicate span_id 1" in capsys.readouterr().err

    def test_profile_runs_a_traced_sweep(self, store, capsys):
        code = main(
            ["perf", "profile", "T2-FP", "--store", store, "--sizes", "4",
             "6", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hot-span profile" in out
        assert "n=4" in out and "n=6" in out

    def test_profile_without_input_is_an_error(self, store, capsys):
        assert main(["perf", "profile"]) == 1
        assert "needs an EXPERIMENT" in capsys.readouterr().err
