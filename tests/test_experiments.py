"""Every registered perf experiment runs clean and keeps its shape.

Each experiment runs once through :func:`run_experiment`; nothing is
written to a run store.  Every point must be ``ok``: a workload's own
cross-checks (reference solvers, the ``l·n^k`` envelope, certificate
verification) fail the point otherwise.  The claims about a whole
sweep — growth fits, first-to-last ratios, SERVE's shed count and
determinism — are asserted here on the counters the records hold, and
the sweeps no record holds (T2-FO's expression sweep, F3's certificate
compactness, T3-FO's BFVP route, ...) run here directly.
"""

import glob
import os

import pytest

from repro.complexity.fit import classify_growth, fit_polynomial
from repro.perf.experiments import experiment_ids, get_experiment, run_experiment

#: F4 and F5 fit wall-clock: their timed call runs inside this span.
TIMED_SPANS = {"F4": "fo3_query", "F5": "fp_route"}

RECORDS = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "out", "records"
)


@pytest.fixture(scope="module")
def sweeps():
    cache = {}

    def sweep(experiment_id):
        if experiment_id not in cache:
            cache[experiment_id] = run_experiment(
                get_experiment(experiment_id),
                trace=experiment_id in TIMED_SPANS,
            )
        return cache[experiment_id]

    return sweep


def _timed(sweep, experiment_id):
    name = TIMED_SPANS[experiment_id]
    return [
        max(next(s.duration for s in p.trace.spans if s.name == name), 1e-6)
        for p in sweep.points
    ]


def test_every_committed_baseline_is_registered():
    committed = sorted(
        os.path.basename(path)[len("BENCH_") : -len(".json")]
        for path in glob.glob(os.path.join(RECORDS, "BENCH_*.json"))
    )
    assert tuple(committed) == experiment_ids()


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_every_point_is_ok(sweeps, experiment_id):
    sweep = sweeps(experiment_id)
    assert sweep.parameters() == list(get_experiment(experiment_id).parameters)
    assert [(p.outcome, p.error) for p in sweep.points] == [
        ("ok", "")
    ] * len(sweep.points)


# -- Table 1 ---------------------------------------------------------------


def test_t1_naive_cost_explodes_with_width(sweeps):
    sweep = sweeps("T1")
    naive_costs = sweep.counter_series("naive_rows")
    bounded_costs = sweep.counter_series("bounded_rows")
    bounded_arities = sweep.counter_series("bounded_arity")
    # shape assertions: the naive cost explodes with width, bounded doesn't
    assert naive_costs[-1] / naive_costs[0] > 20
    assert bounded_costs[-1] / max(bounded_costs[0], 1) < 10
    # every bounded intermediate stayed at arity <= 3 (the minimized width)
    assert all(arity <= 3 for arity in bounded_arities)


# -- Table 2 ---------------------------------------------------------------


def test_t2_fo_data_and_expression_sweeps_are_polynomial(sweeps):
    from repro.core.fo_eval import BoundedEvaluator
    from repro.core.interp import EvalStats
    from repro.workloads.formulas import path_query_fo3
    from repro.workloads.graphs import random_graph

    sweep = sweeps("T2-FO")
    data_work = [
        p.counter("table_ops") + p.counter("max_intermediate_rows")
        for p in sweep.points
    ]
    data_kind, data_fit, _ = classify_growth(sweep.parameters(), data_work)

    # expression sweep: fixed database, growing FO^3 path queries
    db = random_graph(9, 0.3, seed=1)
    expr_sizes, expr_work = [], []
    for length in (2, 4, 8, 12, 16):
        q = path_query_fo3(length)
        stats = EvalStats()
        BoundedEvaluator(db, stats=stats, k_limit=3).answer(
            q.formula, q.output_vars
        )
        expr_sizes.append(q.formula.size())
        expr_work.append(stats.table_ops + stats.max_intermediate_rows)
    expr_fit = fit_polynomial(expr_sizes, expr_work)

    assert data_kind == "polynomial" and data_fit.coefficient <= 4.0
    assert expr_fit.coefficient <= 2.5


def test_t2_fp_naive_and_seminaive_agree(sweeps):
    seminaive = sweeps("T2-FP")
    naive = run_experiment(
        get_experiment("T2-FP"), overrides={"strategy": "naive"}
    )
    for naive_pt, semi_pt in zip(naive.points, seminaive.points):
        assert naive_pt.ok and semi_pt.ok, (naive_pt, semi_pt)
        # same closure, and the semi-naive run really ran delta rounds
        assert naive_pt.counter("answer_rows") == semi_pt.counter(
            "answer_rows"
        )
        assert semi_pt.counter("seminaive_delta_rounds") >= 1


def test_t2_fp_packed_counters_equal_sparse(sweeps):
    packed = sweeps("T2-FP-PACKED")
    sparse = run_experiment(
        get_experiment("T2-FP-PACKED"), overrides={"backend": "sparse"}
    )
    for sparse_pt, packed_pt in zip(sparse.points, packed.points):
        assert sparse_pt.ok and packed_pt.ok, (sparse_pt, packed_pt)
        # the backend changes the representation, never the computation
        assert sparse_pt.counters == packed_pt.counters


def test_t2_fp_certificate_fits(sweeps):
    sweep = sweeps("T2-FP-CERT")
    k = 3
    max_sizes = [max(c, 1) for c in sweep.counter_series("cert_tuples")]
    verify_ops = [max(c, 1) for c in sweep.counter_series("verify_ops")]
    size_fit = fit_polynomial(sweep.parameters(), max_sizes)
    verify_fit = fit_polynomial(sweep.parameters(), verify_ops)
    # the meaningful bound is the per-point envelope (checked by the
    # workload); the fitted degrees are loosely sanity-checked — random
    # graph structure makes the series too jagged for model selection
    assert size_fit.coefficient <= k + 2.0
    assert verify_fit.coefficient <= 6.0


def test_t2_eso_cnf_is_polynomial_and_decides_cycles(sweeps):
    from repro.core.eso_eval import eso_decide
    from repro.logic.parser import parse_formula
    from repro.perf.experiments import TWO_COLOR_QUERY
    from repro.workloads.graphs import cycle_graph

    sweep = sweeps("T2-ESO")
    sizes = sweep.parameters()
    var_kind, var_fit, _ = classify_growth(
        sizes, sweep.counter_series("sat_variables")
    )
    clause_kind, clause_fit, _ = classify_growth(
        sizes, sweep.counter_series("sat_clauses")
    )
    # correctness spot-check on instances with known answers
    two_color = parse_formula(TWO_COLOR_QUERY)
    assert eso_decide(two_color, cycle_graph(6)).truth
    assert not eso_decide(two_color, cycle_graph(7)).truth

    assert var_kind == "polynomial" and var_fit.coefficient <= 3.0
    assert clause_kind == "polynomial" and clause_fit.coefficient <= 3.0


def test_t2_pfp_space_polynomial_iterations_exponential(sweeps):
    sweep = sweeps("T2-PFP")
    sizes = sweep.parameters()
    live = [max(c, 1) for c in sweep.counter_series("peak_live_tuples")]
    iterations = sweep.counter_series("iterations")
    live_kind, live_fit, _ = classify_growth(sizes, live)
    iter_kind, _, _ = classify_growth(sizes, iterations)
    assert live_kind == "polynomial" and live_fit.coefficient <= 2.0
    assert iter_kind == "exponential"
    assert iterations[-1] >= 2 ** (sizes[-1] - 1)


# -- Table 3 ---------------------------------------------------------------


def test_t3_fo_grammar_scan_and_bfvp_are_linear(sweeps):
    from repro.core.fo_eval import BoundedEvaluator
    from repro.core.interp import EvalStats
    from repro.reductions import (
        bfvp_database,
        bfvp_to_fo_query,
        eval_boolean_formula,
        random_boolean_formula,
    )

    sweep = sweeps("T3-FO")
    scan_fit = fit_polynomial(
        sweep.counter_series("word_len"),
        sweep.counter_series("tokens_scanned"),
    )

    # Theorem 4.4 direction: BFVP -> FO^1 over the fixed database
    db = bfvp_database()
    bfvp_sizes, bfvp_ops = [], []
    for depth in (3, 5, 7, 9):
        formula = random_boolean_formula(depth, seed=depth)
        q = bfvp_to_fo_query(formula)
        stats = EvalStats()
        got = BoundedEvaluator(db, stats=stats).answer(q.formula, ()).as_bool()
        assert got == eval_boolean_formula(formula)
        bfvp_sizes.append(q.formula.size())
        bfvp_ops.append(stats.table_ops)
    ops_fit = fit_polynomial(bfvp_sizes, bfvp_ops)

    assert 0.8 <= scan_fit.coefficient <= 1.3
    assert ops_fit.coefficient <= 1.3


def test_t3_eso_reduction_is_linear(sweeps):
    sweep = sweeps("T3-ESO")
    size_fit = fit_polynomial(
        sweep.counter_series("input_size"),
        sweep.counter_series("expr_length"),
    )
    assert size_fit.coefficient <= 1.4


def test_t3_pfp_reduction_is_linear(sweeps):
    sweep = sweeps("T3-PFP")
    size_fit = fit_polynomial(
        sweep.parameters(), sweep.counter_series("expr_length")
    )
    assert size_fit.coefficient <= 1.6


# -- Figures ---------------------------------------------------------------


def test_f1_gap_widens_with_the_data(sweeps):
    sweep = sweeps("F1")
    naive_rows_series = sweep.counter_series("naive_max_rows")
    bounded_rows_series = [
        max(c, 1) for c in sweep.counter_series("bounded_max_rows")
    ]
    gap_small = naive_rows_series[0] / bounded_rows_series[0]
    gap_large = naive_rows_series[-1] / bounded_rows_series[-1]
    assert gap_large > gap_small  # the gap widens with the data


def test_f3_naive_multiplies_and_certificates_stay_compact(sweeps):
    from repro.core.alternation import alternation_answer_with_trace
    from repro.workloads.formulas import alternating_fixpoint_family
    from repro.workloads.graphs import labeled_graph, random_graph

    sweep = sweeps("F3")
    naive_series = sweep.counter_series("naive_body_evals")
    monotone_series = sweep.counter_series("monotone_body_evals")
    naive_growth = naive_series[-1] / naive_series[0]
    monotone_growth = monotone_series[-1] / monotone_series[0]
    assert naive_growth > 2.0 * monotone_growth

    # certificate compactness on alternating ν/µ nests
    alt_db = labeled_graph(
        random_graph(5, 0.35, seed=3),
        {f"P{i}": ([0, 2, 4] if i % 2 else [1, 3]) for i in range(1, 5)},
    )
    for depth in (1, 2, 3):
        q = alternating_fixpoint_family(depth)
        _, cert = alternation_answer_with_trace(q.formula, alt_db, ())
        envelope = 2 * depth * alt_db.size() ** 3
        size = cert.total_guessed_tuples()
        assert size <= envelope, (depth, size, envelope)


def test_f4_query_size_linear_and_evaluation_polynomial(sweeps):
    sweep = sweeps("F4")
    sizes = sweep.parameters()
    length_fit = fit_polynomial(sizes, sweep.counter_series("expr_length"))
    time_kind, time_fit, _ = classify_growth(sizes, _timed(sweep, "F4"))
    assert length_fit.coefficient <= 1.4
    assert time_kind == "polynomial" or time_fit.coefficient <= 4.0


def test_f5_fp_route_is_polynomial(sweeps):
    sweep = sweeps("F5")
    kind, fit, _ = classify_growth(sweep.parameters(), _timed(sweep, "F5"))
    assert kind == "polynomial" or fit.coefficient <= 4.0


def test_f6_cnf_does_not_scale_with_arity(sweeps):
    cnf_vars = sweeps("F6").counter_series("cnf_vars")
    # encoding size must NOT scale with the quantified arity
    assert cnf_vars[-1] <= 4 * cnf_vars[0] + 64


def test_f7_cross_product_outgrows_yannakakis(sweeps):
    from repro.algebra.acyclic import is_acyclic
    from repro.logic.builders import atom

    sweep = sweeps("F7")
    cross_series = sweep.counter_series("cross_max_rows")
    yk_series = [max(c, 1) for c in sweep.counter_series("yannakakis_max_rows")]

    # the GYO boundary on the paper's own queries
    company_chain = [
        atom("EMP", "e", "d"),
        atom("MGR", "d", "m"),
        atom("SCY", "m", "s"),
        atom("SAL", "s", "t"),
        atom("SAL", "e", "u"),
        atom("LT", "u", "t"),
    ]
    assert not is_acyclic(company_chain)
    assert is_acyclic(company_chain[:4])

    cross_growth = cross_series[-1] / cross_series[0]
    yk_growth = yk_series[-1] / yk_series[0]
    assert cross_growth > 3 * yk_growth


# -- the query service -----------------------------------------------------


def test_serve_drill_resolves_every_request(sweeps):
    experiment = get_experiment("SERVE")
    burst = experiment.options["burst"]
    sweep = sweeps("SERVE")
    for point in sweep.points:
        assert point.ok, point
        # no lost requests: every admitted or shed request resolved
        assert point.counter("ok") + point.counter("failed") == point.counter(
            "requests"
        )
        # the burst overflow — and only it — was shed
        assert point.counter("shed") == float(burst)
        # injected faults were retried, the persistent tenant tripped
        # its breaker, and the tight tenant walked the ladder
        assert point.counter("retries") >= 1
        assert point.counter("breaker_trips") >= 1
        assert point.counter("degraded") >= 1
    # determinism is the gate's precondition: a second run of one point
    # must reproduce every counter exactly
    repeat = experiment.bind()(experiment.parameters[-1])
    last = sweep.points[-1]
    assert {k: v for k, v in last.counters} == repeat, (
        last.counters,
        repeat,
    )
