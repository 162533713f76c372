"""Unit tests for the run store: records, digests, baselines, index."""

import glob
import json
import os
import shutil
import subprocess

import pytest

from repro.obs.runstore import (
    PointRecord,
    RunRecord,
    RunStore,
    RunStoreError,
    build_record,
    env_fingerprint,
    fit_series,
    format_fingerprint,
    record_from_sweep,
)


def _record(experiment_id="EXP", counters=None, seconds=None):
    counters = counters or [
        {"iterations": 3.0, "rows": 10.0},
        {"iterations": 5.0, "rows": 40.0},
        {"iterations": 7.0, "rows": 90.0},
    ]
    seconds = seconds or [0.01, 0.02, 0.04]
    return build_record(
        experiment_id,
        "a test experiment",
        parameters=[2.0, 4.0, 6.0],
        seconds=seconds,
        counters=counters,
        fit_counters=("rows",),
        deadline=30.0,
        meta={"note": "unit"},
    )


class TestEnvFingerprint:
    def test_fields(self):
        env = env_fingerprint()
        assert set(env) == {
            "python",
            "implementation",
            "platform",
            "cpu_count",
            "git_sha",
        }
        assert env["cpu_count"] >= 1

    def test_format_is_one_line(self):
        line = format_fingerprint(env_fingerprint())
        assert "\n" not in line
        assert "cpus=" in line

    def test_format_handles_missing_sha(self):
        line = format_fingerprint({"git_sha": ""})
        assert "git=unknown" in line

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_dirty_tree_marks_the_sha(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, check=True, capture_output=True, text=True,
            ).stdout.strip()

        git("init", "-q")
        (tmp_path / "a.txt").write_text("one\n")
        git("add", "a.txt")
        git("commit", "-q", "-m", "init")
        head = git("rev-parse", "--short", "HEAD")
        # an untracked file leaves the tree clean
        (tmp_path / "b.txt").write_text("new\n")
        assert env_fingerprint(str(tmp_path))["git_sha"] == head
        # a changed tracked file makes it dirty
        (tmp_path / "a.txt").write_text("two\n")
        assert env_fingerprint(str(tmp_path))["git_sha"] == head + "-dirty"


class TestRunRecord:
    def test_roundtrip(self):
        record = _record()
        back = RunRecord.from_json(record.to_json())
        assert back == record
        assert back.digest() == record.digest()

    def test_digest_is_content_addressed(self):
        a = _record()
        b = RunRecord.from_json(a.to_json())
        assert a.digest() == b.digest()
        drifted = _record(
            counters=[
                {"iterations": 4.0, "rows": 10.0},
                {"iterations": 5.0, "rows": 40.0},
                {"iterations": 7.0, "rows": 90.0},
            ]
        )
        assert drifted.digest() != a.digest()

    def test_counter_names_union(self):
        record = build_record(
            "EXP",
            "t",
            parameters=[1.0, 2.0],
            seconds=[0.0, 0.0],
            counters=[{"a": 1.0}, {"b": 2.0}],
        )
        assert record.counter_names() == ["a", "b"]

    def test_point_lookup(self):
        record = _record()
        assert record.point(4.0).counter_dict()["iterations"] == 5.0
        assert record.point(99.0) is None

    def test_schema_version_mismatch_rejected(self):
        data = json.loads(_record().to_json())
        data["schema_version"] = 999
        with pytest.raises(RunStoreError):
            RunRecord.from_dict(data)

    def test_malformed_json_rejected(self):
        with pytest.raises(RunStoreError):
            RunRecord.from_json("not json {")

    def test_build_record_rejects_ragged_series(self):
        with pytest.raises(RunStoreError):
            build_record(
                "EXP", "t", parameters=[1.0, 2.0], seconds=[0.1]
            )


class TestFits:
    def test_wall_clock_is_not_fitted(self):
        record = _record()
        assert sorted(record.fits) == ["rows"]
        assert record.point(6.0).seconds == 0.04

    def test_committed_baselines_carry_no_seconds_fit(self):
        root = os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks", "out",
            "records",
        )
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        assert paths
        for path in paths:
            with open(path) as handle:
                text = handle.read()
            record = RunRecord.from_json(text)
            assert "seconds" not in record.fits, path
            # baselines are written by RunStore.save_baseline, unedited
            assert record.to_json() + "\n" == text, path


class TestFitSeries:
    def test_polynomial_degree(self):
        ns = [2.0, 4.0, 8.0, 16.0]
        fit = fit_series(ns, [n**2 for n in ns])
        assert fit["model"] == "polynomial"
        assert fit["degree"] == pytest.approx(2.0, abs=0.05)

    def test_exponential_base(self):
        ns = [2.0, 4.0, 6.0, 8.0]
        fit = fit_series(ns, [2.0**n for n in ns])
        assert fit["model"] == "exponential"
        assert fit["base"] == pytest.approx(2.0, abs=0.1)

    def test_degenerate_series(self):
        assert fit_series([1.0], [1.0]) == {"model": "none"}
        assert fit_series([1.0, 2.0], [0.0, 0.0]) == {"model": "none"}


class TestRecordFromSweep:
    def test_outcomes_and_counters_carry_over(self):
        from repro.complexity.measure import run_sweep

        def workload(parameter):
            if parameter > 4:
                raise ValueError("boom")
            return {"work": float(parameter) * 2}

        sweep = run_sweep(
            "sw", [2.0, 4.0, 6.0], workload, capture_failures=True
        )
        record = record_from_sweep("SW", "sweep", sweep)
        assert record.parameters() == [2.0, 4.0, 6.0]
        assert record.point(2.0).counter_dict() == {"work": 4.0}
        assert record.point(6.0).outcome == "error"
        assert "boom" in record.point(6.0).error


class TestRunStore:
    def test_save_load_and_index(self, tmp_path):
        store = RunStore(str(tmp_path))
        record = _record()
        digest, path = store.save(record)
        assert digest == record.digest()
        assert store.load("EXP", digest) == record
        assert [e["digest"] for e in store.index("EXP")] == [digest]

    def test_identical_content_shares_one_file(self, tmp_path):
        store = RunStore(str(tmp_path))
        record = _record()
        store.save(record)
        store.save(RunRecord.from_json(record.to_json()))
        archive = tmp_path / "EXP"
        assert len(list(archive.glob("*.json"))) == 1
        # ... but the trajectory index shows both runs
        assert len(store.index("EXP")) == 2

    def test_latest_follows_the_index(self, tmp_path):
        store = RunStore(str(tmp_path))
        first = _record()
        second = _record(seconds=[0.02, 0.03, 0.05])
        store.save(first)
        store.save(second)
        assert store.latest("EXP") == second

    def test_baseline_roundtrip(self, tmp_path):
        store = RunStore(str(tmp_path))
        assert store.load_baseline("EXP") is None
        record = _record()
        path = store.save_baseline(record)
        assert path.endswith("BENCH_EXP.json")
        assert store.load_baseline("EXP") == record

    def test_missing_record_raises(self, tmp_path):
        store = RunStore(str(tmp_path))
        with pytest.raises(RunStoreError):
            store.load("EXP", "deadbeef")

    def test_experiments_listing(self, tmp_path):
        store = RunStore(str(tmp_path))
        assert store.experiments() == []
        store.save(_record("B"))
        store.save(_record("A"))
        assert store.experiments() == ["A", "B"]
