"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.database.encoding import encode_database
from repro.workloads.graphs import labeled_graph, path_graph


@pytest.fixture
def db_file(tmp_path):
    db = labeled_graph(path_graph(4), {"P": [0, 2]})
    path = tmp_path / "graph.db"
    path.write_text(encode_database(db))
    return str(path)


class TestEval:
    def test_relation_output(self, db_file, capsys):
        code = main(["eval", "--db", db_file, "--query", "P(x)", "--out", "x"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "x"
        assert out[1:] == ["0", "2"]

    def test_sentence_output(self, db_file, capsys):
        code = main(
            ["eval", "--db", db_file, "--query", "exists x. P(x)", "--out"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_default_output_vars(self, db_file, capsys):
        code = main(["eval", "--db", db_file, "--query", "E(x, y)"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x\ty"
        assert len(lines) == 1 + 3

    def test_fp_with_strategy_and_stats(self, db_file, capsys):
        code = main(
            [
                "eval",
                "--db",
                db_file,
                "--query",
                "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)",
                "--out",
                "u",
                "--strategy",
                "alternation",
                "--stats",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "language=FP" in captured.err

    def test_parse_error_is_reported(self, db_file, capsys):
        code = main(["eval", "--db", db_file, "--query", "P(x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["eval", "--db", "/nonexistent.db", "--query", "P(x)"])
        assert code == 1


class TestInfo:
    def test_info_fields(self, capsys):
        code = main(
            ["info", "--query", "[lfp S(x). P(x) | S(x)](u)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "language  : FP" in out
        assert "width (k) : 2" in out
        assert "alt depth : 1" in out


class TestMinimize:
    def test_minimize_path_query(self, capsys):
        code = main(
            [
                "minimize",
                "--query",
                "exists z1. exists z2. (E(x, z1) & E(z1, z2) & E(z2, y))",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "width 4 -> 3" in captured.err


class TestEncode:
    def test_canonicalize_roundtrip(self, db_file, capsys):
        code = main(["encode", "--db", db_file])
        assert code == 0
        text = capsys.readouterr().out.strip()
        with open(db_file) as handle:
            assert text == handle.read().strip()


class TestDatalog:
    def test_run_program(self, tmp_path, capsys):
        from repro import Database

        db = Database.from_tuples(
            range(4),
            {"edge": (2, [(0, 1), (1, 2)]), "source": (1, [(0,)])},
        )
        db_path = tmp_path / "g.db"
        db_path.write_text(encode_database(db))
        program = tmp_path / "reach.dl"
        program.write_text(
            "reach(X) :- source(X).\nreach(X) :- edge(Y, X), reach(Y).\n"
        )
        code = main(
            [
                "datalog",
                "--db",
                str(db_path),
                "--program",
                str(program),
                "--pred",
                "reach",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["reach(0)", "reach(1)", "reach(2)"]

    def test_unknown_predicate(self, tmp_path, capsys):
        from repro import Database

        db_path = tmp_path / "g.db"
        db_path.write_text(
            encode_database(
                Database.from_tuples(range(2), {"q": (1, [(0,)])})
            )
        )
        program = tmp_path / "p.dl"
        program.write_text("p(X) :- q(X).")
        code = main(
            [
                "datalog",
                "--db",
                str(db_path),
                "--program",
                str(program),
                "--pred",
                "nope",
            ]
        )
        assert code == 1


class TestExitCodes:
    """The documented taxonomy: 0 ok, 1 ReproError, 2 usage, 124 budget."""

    FP_QUERY = "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval"])  # missing required --db/--query
        assert info.value.code == 2

    def test_budget_exhaustion_exits_124(self, db_file, capsys):
        code = main(
            [
                "eval", "--db", db_file, "--query", self.FP_QUERY,
                "--out", "u", "--max-iterations", "1",
            ]
        )
        assert code == 124
        assert "resource exhausted" in capsys.readouterr().err

    def test_max_rows_exits_124(self, db_file, capsys):
        code = main(
            [
                "eval", "--db", db_file, "--query", "E(x, y) | E(y, x)",
                "--max-rows", "1",
            ]
        )
        assert code == 124

    def test_ample_budget_exits_0(self, db_file, capsys):
        code = main(
            [
                "eval", "--db", db_file, "--query", self.FP_QUERY,
                "--out", "u", "--max-iterations", "1000",
                "--max-rows", "1000", "--timeout", "60",
            ]
        )
        assert code == 0

    def test_trace_budget_exits_124(self, db_file, capsys):
        code = main(
            ["trace", self.FP_QUERY, db_file, "--out", "u",
             "--max-iterations", "1"]
        )
        assert code == 124

    def test_datalog_budget_exits_124(self, tmp_path, capsys):
        from repro import Database

        db = Database.from_tuples(
            range(5),
            {"edge": (2, [(i, i + 1) for i in range(4)]), "source": (1, [(0,)])},
        )
        db_path = tmp_path / "g.db"
        db_path.write_text(encode_database(db))
        program = tmp_path / "reach.dl"
        program.write_text(
            "reach(X) :- source(X).\nreach(X) :- edge(Y, X), reach(Y).\n"
        )
        code = main(
            [
                "datalog", "--db", str(db_path), "--program", str(program),
                "--pred", "reach", "--max-iterations", "1",
            ]
        )
        assert code == 124


class TestEvalJson:
    """The --json schema is versioned: additions bump schema_version."""

    FP_QUERY = "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"

    def _doc(self, capsys, argv):
        import json

        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_schema_keys_are_stable(self, db_file, capsys):
        doc = self._doc(
            capsys,
            ["eval", "--db", db_file, "--query", self.FP_QUERY,
             "--out", "u", "--stats", "--json"],
        )
        assert sorted(doc) == [
            "answer_rows",
            "boolean",
            "language",
            "metrics",
            "output_vars",
            "rows",
            "schema_version",
            "stats",
        ]
        assert doc["schema_version"] == 1
        assert doc["language"] == "FP"
        assert doc["output_vars"] == ["u"]
        assert doc["boolean"] is None
        assert doc["rows"] == [[0], [1], [2], [3]]
        assert doc["answer_rows"] == 4
        assert doc["stats"]["fixpoint_iterations"] >= 1

    def test_metrics_include_table_rows_histogram(self, db_file, capsys):
        doc = self._doc(
            capsys,
            ["eval", "--db", db_file, "--query", self.FP_QUERY,
             "--out", "u", "--stats", "--json"],
        )
        histogram = doc["metrics"]["eval.table_rows"]
        for key in ("count", "p50", "p95", "p99"):
            assert key in histogram

    def test_boolean_query_sets_boolean_field(self, db_file, capsys):
        doc = self._doc(
            capsys,
            ["eval", "--db", db_file, "--query", "exists x. P(x)",
             "--out", "--json"],
        )
        assert doc["boolean"] is True
        assert doc["rows"] == [[]]


class TestSweepPeakRows:
    def test_sweep_reports_max_intermediate_rows_column(self, capsys):
        code = main(
            ["sweep", "--query", "E(x, y)", "--sizes", "4", "6"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split()
        # one column for the rows high-water, not a copy under a second name
        assert "peak_rows" not in header
        column = header.index("max_intermediate_rows")
        for line in lines[1:]:
            assert float(line.split()[column]) > 0


class TestExplain:
    FP_QUERY = "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"

    def test_annotated_tree_for_db_query(self, db_file, capsys):
        code = main(
            ["explain", "--db", db_file, "--query", self.FP_QUERY,
             "--out", "u"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== annotated evaluation tree ==" in out
        assert "LFP" in out
        assert "iterations=" in out

    def test_why_replays_witness(self, db_file, capsys):
        code = main(
            ["explain", "--db", db_file, "--query", self.FP_QUERY,
             "--out", "u", "--why", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== why (2,) ==" in out
        assert "witness replayed against the database: ok" in out
        assert "witness agrees with the engine's answer: ok" in out

    def test_why_compares_witness_with_engine(
        self, db_file, capsys, monkeypatch
    ):
        import dataclasses

        import repro.cli
        from repro.database.relation import Relation

        real_evaluate = repro.cli.evaluate

        def dropping_evaluate(formula, db, out, options):
            # an engine that loses the asked answer (2,)
            result = real_evaluate(formula, db, out, options)
            kept = Relation(1, result.relation.tuples - {(2,)})
            return dataclasses.replace(result, relation=kept)

        monkeypatch.setattr(repro.cli, "evaluate", dropping_evaluate)
        code = main(
            ["explain", "--db", db_file, "--query", self.FP_QUERY,
             "--out", "u", "--why", "2"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "witness replayed against the database: ok" in captured.out
        assert "# witness disagrees with the engine:" in captured.err

    def test_why_negative_answer(self, db_file, capsys):
        code = main(
            ["explain", "--db", db_file, "--query", "P(x)",
             "--out", "x", "--why", "1"]
        )
        assert code == 0
        assert "[-]" in capsys.readouterr().out

    def test_report_and_jsonl_files(self, db_file, tmp_path, capsys):
        report = tmp_path / "explain.txt"
        jsonl = tmp_path / "trace.jsonl"
        code = main(
            ["explain", "--db", db_file, "--query", self.FP_QUERY,
             "--out", "u", "--report-file", str(report),
             "--jsonl", str(jsonl)]
        )
        assert code == 0
        assert "annotated evaluation tree" in report.read_text()
        assert jsonl.read_text().strip()

    def test_experiment_target(self, capsys):
        code = main(["explain", "--experiment", "T2-FP", "--size", "6"])
        assert code == 0
        assert "annotated evaluation tree" in capsys.readouterr().out

    def test_requires_db_or_experiment(self, capsys):
        code = main(["explain", "--query", "P(x)"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_progress_heartbeats_on_stderr(self, db_file, capsys):
        code = main(
            ["explain", "--db", db_file, "--query", self.FP_QUERY,
             "--out", "u", "--progress", "--progress-interval", "0"]
        )
        assert code == 0
        assert "[progress]" in capsys.readouterr().err


class TestTraceDiff:
    FP_QUERY = "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"

    def _trace(self, db_file, tmp_path, name, backend):
        path = tmp_path / name
        argv = ["trace", self.FP_QUERY, db_file, "--out", "u",
                "--jsonl", str(path)]
        if backend:
            argv += ["--backend", backend]
        assert main(argv) == 0
        return str(path)

    def test_diff_sparse_vs_packed(self, db_file, tmp_path, capsys):
        a = self._trace(db_file, tmp_path, "sparse.jsonl", "sparse")
        b = self._trace(db_file, tmp_path, "packed.jsonl", "packed")
        capsys.readouterr()  # discard trace reports
        code = main(["trace", "diff", a, b])
        assert code == 0
        out = capsys.readouterr().out
        assert "sparse.jsonl" in out
        assert "only in packed.jsonl" in out
        assert "total self:" in out

    def test_diff_labels_and_top(self, db_file, tmp_path, capsys):
        a = self._trace(db_file, tmp_path, "a.jsonl", None)
        b = self._trace(db_file, tmp_path, "b.jsonl", None)
        capsys.readouterr()
        code = main(
            ["trace-diff", a, b, "--label-a", "base", "--label-b", "new",
             "--top", "3"]
        )
        assert code == 0
        assert "count base" in capsys.readouterr().out

    def test_missing_trace_file_errors(self, tmp_path, capsys):
        existing = tmp_path / "x.jsonl"
        existing.write_text('{"name": "a", "duration": 1}\n')
        code = main(["trace", "diff", str(existing), "/nonexistent.jsonl"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
