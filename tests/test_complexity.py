"""Tests for the complexity measurement harness."""

import math

import pytest

from repro.complexity import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    TABLE3_ROWS,
    classify_growth,
    fit_exponential,
    fit_polynomial,
    render_table,
    run_sweep,
)


class TestFits:
    NS = [4, 8, 16, 32, 64]

    def test_polynomial_degree_recovered(self):
        ys = [n**3 for n in self.NS]
        fit = fit_polynomial(self.NS, ys)
        assert abs(fit.coefficient - 3.0) < 1e-9
        assert fit.residual < 1e-12

    def test_exponential_base_recovered(self):
        ys = [2.0**n for n in self.NS]
        fit = fit_exponential(self.NS, ys)
        assert abs(fit.base - 2.0) < 1e-9

    def test_classifier_separates(self):
        poly = [5 * n**2 for n in self.NS]
        expo = [1.5**n for n in self.NS]
        assert classify_growth(self.NS, poly)[0] == "polynomial"
        assert classify_growth(self.NS, expo)[0] == "exponential"

    def test_classifier_with_noise(self):
        import random

        rng = random.Random(0)
        poly = [n**2 * (1 + 0.1 * rng.random()) for n in self.NS]
        assert classify_growth(self.NS, poly)[0] == "polynomial"
        expo = [2**n * (1 + 0.1 * rng.random()) for n in self.NS]
        assert classify_growth(self.NS, expo)[0] == "exponential"

    def test_degenerate_fits_rejected(self):
        with pytest.raises(ValueError):
            fit_polynomial([2], [4])
        with pytest.raises(ValueError):
            fit_polynomial([2, 2], [4, 4])

    def test_zero_values_clamped(self):
        fit = fit_polynomial([1, 2, 4], [0, 0, 0])
        assert math.isfinite(fit.coefficient)


class TestSweep:
    def test_run_sweep_counters(self):
        def workload(n):
            return {"work": n * n}

        result = run_sweep("square", [1, 2, 3], workload)
        assert result.parameters() == [1, 2, 3]
        assert result.counter_series("work") == [1, 4, 9]
        assert all(s >= 0 for s in result.seconds())

    def test_missing_counter_raises(self):
        result = run_sweep("none", [1], lambda n: None)
        with pytest.raises(KeyError):
            result.points[0].counter("missing")

    def test_missing_counter_default(self):
        result = run_sweep("none", [1], lambda n: None)
        assert result.points[0].counter("missing", 0.0) == 0.0
        assert result.counter_series("missing", default=-1.0) == [-1.0]

    def test_format_rows(self):
        result = run_sweep("fmt", [1, 2], lambda n: {"c": n})
        text = result.format_rows(["c"])
        assert "param" in text and len(text.splitlines()) == 3

    def test_format_rows_tolerates_missing_counters(self):
        # points without the requested counter render "-", not KeyError
        result = run_sweep(
            "mixed", [1, 2], lambda n: {"c": n} if n == 1 else None
        )
        text = result.format_rows(["c"])
        lines = text.splitlines()
        assert lines[1].split("\t")[-1] == "1"
        assert lines[2].split("\t")[-1] == "-"

    def test_tracer_factory_records_per_point_traces(self):
        from repro.obs.tracer import Tracer

        def workload(n, tracer):
            with tracer.span("work", n=n):
                pass
            return {"c": n}

        result = run_sweep(
            "traced", [1, 2], workload, tracer_factory=Tracer
        )
        for point in result.points:
            assert point.trace is not None
            # warmup ran against the no-op tracer: exactly one recorded span
            assert [s.name for s in point.trace.spans] == ["work"]
        assert result.counter_series("c") == [1, 2]

    def test_no_tracer_factory_leaves_trace_unset(self):
        result = run_sweep("plain", [1], lambda n: {})
        assert result.points[0].trace is None

    def test_repetitions_take_minimum(self):
        calls = []

        def workload(n):
            calls.append(n)
            return {}

        run_sweep("rep", [5], workload, repetitions=3, warmup=True)
        assert len(calls) == 4  # 1 warmup + 3 timed


class TestTables:
    def test_all_rows_present(self):
        assert [r.language for r in TABLE1_ROWS] == ["FO", "FP", "ESO", "PFP"]
        assert [r.language for r in TABLE2_ROWS] == ["FO", "FP", "ESO", "PFP"]
        assert [r.language for r in TABLE3_ROWS] == ["FO", "FP", "ESO", "PFP"]

    def test_paper_claims_recorded(self):
        fp_row = TABLE2_ROWS[1]
        assert any("NP ∩ co-NP" in claim for _, claim in fp_row.columns)
        fo_row = TABLE3_ROWS[0]
        assert any("ALOGTIME" in claim for _, claim in fo_row.columns)

    def test_render(self):
        text = render_table("Table 2", TABLE2_ROWS)
        assert "Table 2" in text
        assert "FO" in text and "witnessed by" in text
        plain = render_table("T", TABLE2_ROWS, with_witness=False)
        assert "witnessed" not in plain


class TestSweepFailureCapture:
    """run_sweep records timeouts/errors per point and keeps going."""

    @staticmethod
    def _flaky(n):
        from repro.errors import DeadlineExceeded

        if n == 2:
            raise DeadlineExceeded("deadline of 1s exceeded", kind="deadline")
        if n == 3:
            raise ValueError("boom")
        return {"work": n * 10}

    def test_outcomes_recorded_and_sweep_continues(self):
        result = run_sweep("flaky", [1, 2, 3, 4], self._flaky, warmup=False)
        outcomes = [p.outcome for p in result.points]
        assert outcomes == ["ok", "timeout", "error", "ok"]
        assert result.points[1].error.startswith("deadline")
        assert result.points[2].error == "boom"
        assert [p.parameter for p in result.failures()] == [2.0, 3.0]
        # the healthy points still carry their counters
        assert result.points[0].counter("work") == 10
        assert result.points[3].counter("work") == 40

    def test_warmup_failure_counts_against_the_point(self):
        calls = []

        def workload(n):
            calls.append(n)
            raise RuntimeError("always")

        result = run_sweep("w", [1], workload, warmup=True)
        assert result.points[0].outcome == "error"
        assert calls == [1]  # the timed run is not attempted after a warmup failure

    def test_capture_failures_off_restores_fail_fast(self):
        with pytest.raises(ValueError):
            run_sweep("strict", [3], self._flaky, warmup=False,
                      capture_failures=False)

    def test_format_rows_shows_outcome_column_only_on_failure(self):
        healthy = run_sweep("ok", [1, 4], self._flaky, warmup=False)
        assert "outcome" not in healthy.format_rows(["work"])
        mixed = run_sweep("mixed", [1, 2], self._flaky, warmup=False)
        rendered = mixed.format_rows(["work"])
        lines = rendered.splitlines()
        assert lines[0].split("\t") == ["param", "seconds", "work", "outcome"]
        assert lines[1].endswith("ok")
        assert lines[2].split("\t")[-2:] == ["-", "timeout"]

    def test_guarded_workload_times_out_in_sweep(self):
        # end-to-end: a per-point budget inside the workload surfaces as
        # outcome="timeout" without losing the rest of the table
        from repro.core.engine import EvalOptions, evaluate
        from repro.guard import Budget
        from repro.logic.parser import parse_formula
        from repro.workloads.graphs import path_graph

        phi = parse_formula(
            "[lfp S(x). (~ exists y. E(y, x)) | exists y. (E(y, x) & S(y))](u)"
        )

        def workload(n):
            n = int(n)
            db = path_graph(5)
            budget = Budget(max_iterations=(2 if n == 7 else 10_000))
            result = evaluate(phi, db, ("u",), EvalOptions(budget=budget))
            return {"rows": float(len(result.relation))}

        result = run_sweep("guarded", [5, 7, 9], workload, warmup=False)
        assert [p.outcome for p in result.points] == ["ok", "timeout", "ok"]


class TestPoolLifecycle:
    """The shared pool helpers: never hang on interrupt (the
    ``repro sweep --jobs N`` Ctrl-C fix, reused by repro.serve)."""

    def test_pool_scope_clean_path_waits_for_results(self):
        from repro.complexity.measure import pool_scope

        with pool_scope(1) as pool:
            future = pool.submit(sum, (1, 2, 3))
        assert future.result(timeout=0) == 6  # done before scope exit

    def test_pool_scope_cancels_queued_work_on_exception(self):
        import time

        from repro.complexity.measure import pool_scope

        queued = []
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            with pool_scope(1) as pool:
                pool.submit(time.sleep, 0.5)  # occupies the only worker
                queued = [pool.submit(time.sleep, 10.0) for _ in range(4)]
                raise KeyboardInterrupt
        # the scope must not have blocked on the 10s sleeps
        assert time.monotonic() - started < 5.0
        # cancellation happens on the executor's management thread,
        # shortly after shutdown(wait=False) returns
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if any(f.cancelled() for f in queued):
                break
            time.sleep(0.01)
        assert any(f.cancelled() for f in queued)

    def test_shutdown_pool_nongraceful_returns_immediately(self):
        import time
        from concurrent.futures import ProcessPoolExecutor

        from repro.complexity.measure import shutdown_pool

        pool = ProcessPoolExecutor(max_workers=1)
        pool.submit(time.sleep, 0.2)
        # deep enough that some stay in the executor's pending dict
        # (the first couple move to the call queue and can't cancel)
        queued = [pool.submit(time.sleep, 10.0) for _ in range(4)]
        started = time.monotonic()
        shutdown_pool(pool, graceful=False)
        assert time.monotonic() - started < 5.0
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if any(f.cancelled() for f in queued):
                break
            time.sleep(0.01)
        assert any(f.cancelled() for f in queued)
