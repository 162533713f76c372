"""Named, runnable perf experiments for the ``repro perf`` observatory.

One entry per reproduced Table row and Figure construction (DESIGN.md
§4): each is a plain picklable workload the CLI can run, record into
the run store, and gate against its committed ``BENCH_<id>.json``
baseline.  The seeds are fixed and every counter the workloads report
is deterministic — that is what makes the exact-match gate of
:mod:`repro.obs.regress` possible.  Every point runs once, with no
warm-up: no gate reads its wall-clock.

Workloads follow the :func:`repro.complexity.run_sweep` convention:
``workload(parameter)`` or ``workload(parameter, tracer)``, returning a
dict of counters.  Experiment options (fixpoint strategy, edge
probability, ...) are keyword arguments bound with ``functools.partial``
so parallel sweeps can ship them to worker processes.  ``deadline``
bounds every engine call of a point that takes a budget.

A workload also cross-checks its point — against a reference solver,
the paper's ``l·n^k`` certificate envelope, or a verifier — and raises
:class:`ExperimentError` when the check fails, so the point is
recorded with outcome ``error`` and the gate reports it.  Claims about
a whole sweep (growth fits, ratios between the first and last point)
are asserted by ``tests/test_experiments.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.guard.budget import Budget, resolve_guard
from repro.obs.tracer import NULL_TRACER

# NOTE: repro.core.engine imports repro.perf.cache, so the engine (and
# anything that pulls it in) is imported lazily inside the workloads.


class ExperimentError(ReproError):
    """Unknown experiment name, a bad option override, or a failed
    per-point cross-check."""


#: The transitive-closure query of the T2-FP strategy shoot-out.
TC_QUERY = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"

#: Fagin-style 2-colorability, the T2-ESO grounding workload.
TWO_COLOR_QUERY = (
    "exists2 R/1. forall x. forall y. "
    "(~E(x, y) | (R(x) & ~R(y)) | (~R(x) & R(y)))"
)

#: "P infinitely often on every path" (ν/µ), the T2-FP-CERT property.
FAIR_QUERY = (
    "[gfp S(x). [lfp T(z). forall y. "
    "(~E(z, y) | (P(y) & S(y)) | T(y))](x)](u)"
)

#: A unary binary counter: position i flips when all lower positions
#: are set, so the pfp enumerates all 2^n subsets (T2-PFP) while its
#: live state is one unary relation.
COUNTER_QUERY = (
    "[pfp X(x). (X(x) & ~forall y. (~LT(y, x) | X(y)))"
    " | (~X(x) & forall y. (~LT(y, x) | X(y)))](u)"
)


def _check(ok: bool, what: str) -> None:
    """Fail the sweep point when a cross-check does not hold."""
    if not ok:
        raise ExperimentError(f"cross-check failed: {what}")


def _budget(deadline: Optional[float]) -> Optional[Budget]:
    return (
        Budget(deadline_seconds=deadline) if deadline and deadline > 0 else None
    )


def _guard(deadline: Optional[float]):
    return resolve_guard(_budget(deadline))


def _options(
    strategy: str,
    deadline: Optional[float],
    tracer,
    k_limit: Optional[int] = None,
    backend: Optional[str] = None,
):
    from repro.core.engine import EvalOptions
    from repro.core.fp_eval import FixpointStrategy

    return EvalOptions(
        strategy=FixpointStrategy(strategy),
        k_limit=k_limit,
        budget=_budget(deadline),
        trace=tracer,
        backend=backend,
    )


@functools.lru_cache(maxsize=64)
def _parsed(text: str):
    """Parse a workload query once per process.

    The sweeps measure *evaluation*, and every point would otherwise
    re-tokenize the same fixed query string — pure constant overhead that
    dilutes the per-point timings at small n.
    """
    from repro.logic.parser import parse_formula

    return parse_formula(text)


def _counters(result, extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    counters = {
        key: float(value) for key, value in result.stats.as_dict().items()
    }
    counters["answer_rows"] = float(len(result.relation))
    if extra:
        counters.update(extra)
    return counters


# -- Table 1 ---------------------------------------------------------------


def chain_join_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """T1: a width-w chain join on a fixed 7-node graph, planned naively
    (cross product first: a (w+1)-ary intermediate) and by the
    bounded-variable compiler (arity ≤ 3 after minimization); both plans
    must return the same rows."""
    from repro.algebra import (
        ArityTracker,
        compile_bounded,
        compile_naive_conjunctive,
    )
    from repro.optimize import minimize_variables
    from repro.workloads.formulas import chain_join_query
    from repro.workloads.graphs import random_graph

    graph = random_graph(7, 0.35, seed=13)
    q = chain_join_query(int(parameter))
    naive = ArityTracker()
    naive_rows = set(
        compile_naive_conjunctive(q.formula, q.output_vars)
        .evaluate(graph, naive)
        .rows
    )
    bounded = ArityTracker()
    bounded_rows = set(
        compile_bounded(minimize_variables(q.formula), q.output_vars)
        .evaluate(graph, bounded)
        .rows
    )
    _check(naive_rows == bounded_rows, "naive and bounded plans disagree")
    return {
        "naive_arity": float(naive.max_arity),
        "naive_rows": float(naive.total_rows_produced),
        "bounded_arity": float(bounded.max_arity),
        "bounded_rows": float(bounded.total_rows_produced),
    }


# -- Table 2 ---------------------------------------------------------------


def tc_workload(
    parameter: float,
    tracer=NULL_TRACER,
    strategy: str = "seminaive",
    deadline: Optional[float] = None,
    backend: Optional[str] = None,
) -> Dict[str, float]:
    """Transitive closure of a path graph — the T2-FP strategy sweep.

    A path graph maximizes fixpoint depth (n-1 rounds), so the
    iteration/delta counters separate the fixpoint strategies cleanly;
    the whole workload is seed-free and fully deterministic.
    """
    from repro.core.engine import evaluate
    from repro.workloads.graphs import path_graph

    n = int(parameter)
    result = evaluate(
        _parsed(TC_QUERY),
        path_graph(n),
        ("u", "v"),
        _options(strategy, deadline, tracer, backend=backend),
    )
    return _counters(result)


def fp_certificate_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """T2-FP-CERT (Thm 3.5): certificates for the ν/µ fairness property
    on a seeded labeled graph of size n — membership for the smallest
    member, non-membership (via the dual query) for the smallest
    non-member.  Each certificate must verify, and the larger must stay
    within the ``l·n^k`` envelope (l = 2 fixpoints, k = 3)."""
    from repro.core.certificates import (
        certificate_size,
        extract_membership,
        extract_non_membership,
        verify_membership,
        verify_non_membership,
    )
    from repro.core.interp import EvalStats
    from repro.core.naive_eval import naive_answer
    from repro.workloads.graphs import labeled_graph, random_graph

    n = int(parameter)
    formula = _parsed(FAIR_QUERY)
    db = labeled_graph(
        random_graph(n, 0.35, seed=n + 100), {"P": list(range(0, n, 2))}
    )
    answer = naive_answer(formula, db, ("u",))
    member = next(iter(sorted(answer.tuples)), None)
    outside = next(((v,) for v in range(n) if (v,) not in answer), None)
    sizes, verify_ops = [0], [0]
    for row, extract, verify in (
        (member, extract_membership, verify_membership),
        (outside, extract_non_membership, verify_non_membership),
    ):
        if row is None:
            continue
        cert = extract(formula, db, ("u",), row)
        stats = EvalStats()
        _check(
            verify(cert, formula, db, stats=stats),
            f"{verify.__name__} rejected the certificate for {row}",
        )
        sizes.append(certificate_size(cert))
        verify_ops.append(stats.table_ops)
    fixpoints, k = 2, 3
    envelope = 2 * fixpoints * n**k
    _check(max(sizes) <= envelope, f"{max(sizes)} tuples > l*n^k = {envelope}")
    return {
        "cert_tuples": float(max(sizes)),
        "envelope": float(envelope),
        "verify_ops": float(max(verify_ops)),
    }


def fo_path_workload(
    parameter: float,
    tracer=NULL_TRACER,
    path_len: int = 4,
    edge_prob: float = 0.3,
    deadline: Optional[float] = None,
) -> Dict[str, float]:
    """The T2-FO data sweep: a fixed FO^3 path query on seeded graphs."""
    from repro.core.engine import evaluate
    from repro.workloads.formulas import path_query_fo3
    from repro.workloads.graphs import random_graph

    n = int(parameter)
    q = path_query_fo3(int(path_len))
    result = evaluate(
        q.formula,
        random_graph(n, edge_prob, seed=n),
        q.output_vars,
        _options("monotone", deadline, tracer, k_limit=3),
    )
    return _counters(result)


def eso_two_color_workload(
    parameter: float,
    tracer=NULL_TRACER,
    edge_prob: float = 0.25,
    deadline: Optional[float] = None,
) -> Dict[str, float]:
    """The T2-ESO grounding sweep: 2-colorability of seeded graphs.

    The CNF sizes (``sat.variables``/``sat.clauses``) are the Lemma 3.6
    quantities; the boolean answer rides along as a counter so a
    satisfiability flip is caught by the gate too.
    """
    from repro.core.engine import evaluate
    from repro.logic.parser import parse_formula
    from repro.workloads.graphs import random_graph

    n = int(parameter)
    result = evaluate(
        parse_formula(TWO_COLOR_QUERY),
        random_graph(n, edge_prob, seed=n),
        (),
        _options("monotone", deadline, tracer),
    )
    return _counters(result, {"satisfiable": float(result.as_bool())})


def pfp_counter_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """T2-PFP (Thm 3.8): the binary-counter pfp on n ordered elements —
    about 2^n iterations while the live state stays at n tuples; the
    answer must equal the reference semantics."""
    from repro.core.naive_eval import naive_answer
    from repro.core.pfp_eval import SpaceMeter, pfp_answer
    from repro.database import Database, Relation
    from repro.workloads.graphs import path_graph

    n = int(parameter)
    base = path_graph(n)
    lt = [(i, j) for i in range(n) for j in range(n) if i < j]
    db = Database(
        base.domain, {"E": base.relation("E"), "LT": Relation(2, lt)}
    )
    formula = _parsed(COUNTER_QUERY)
    meter = SpaceMeter()
    answer = pfp_answer(
        formula, db, ("u",), meter=meter, tracer=tracer,
        guard=_guard(deadline),
    )
    _check(
        answer == naive_answer(formula, db, ("u",)),
        "pfp answer differs from the reference semantics",
    )
    return {
        "peak_live_tuples": float(meter.peak_live_tuples),
        "iterations": float(meter.total_iterations),
    }


# -- Table 3 ---------------------------------------------------------------


def fo_grammar_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """T3-FO (Lemma 4.2): a nested ∃/∧ formula of ``parameter`` levels
    over the fixed two-element database, decided as membership in the
    FO^2 parenthesis language — one recognizer pass per candidate
    value, with reductions never outnumbering scanned tokens."""
    from repro.database import Database
    from repro.grammar import build_fo_grammar
    from repro.grammar.recognizer import (
        RecognizerStats,
        recognize_parenthesis,
    )
    from repro.logic.builders import atom
    from repro.logic.syntax import And, Exists, Var

    fg = build_fo_grammar(
        Database.from_tuples(range(2), {"E": (2, [(0, 1)]), "P": (1, [(0,)])}),
        k=2,
    )
    phi = atom("P", "x1")
    for i in range(int(parameter)):
        inner = And((atom("E", "x1", "x2"), phi))
        phi = (
            Exists(Var("x2"), inner)
            if i % 2 == 0
            else And((atom("P", "x1"), Exists(Var("x2"), inner)))
        )
    stats = RecognizerStats()
    value = next(
        (
            index
            for index in range(len(fg.relations))
            if recognize_parenthesis(fg.grammar, fg.word_for(phi, index), stats)
        ),
        None,
    )
    _check(value is not None, "no k-relation recognized the formula")
    _check(
        stats.reductions <= stats.tokens_scanned,
        "more reductions than scanned tokens",
    )
    return {
        "word_len": float(len(fg.word_for(phi, 0))),
        "tokens_scanned": float(stats.tokens_scanned),
        "reductions": float(stats.reductions),
    }


def fp_expression_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """T3-FP: the alternating ν/µ family of depth l on one fixed
    5-element database; its Theorem 3.5 certificate must stay within
    the ``l·n^k`` envelope."""
    from repro.core.alternation import alternation_answer_with_trace
    from repro.workloads.formulas import alternating_fixpoint_family
    from repro.workloads.graphs import labeled_graph, random_graph

    depth = int(parameter)
    q = alternating_fixpoint_family(depth)
    db = labeled_graph(
        random_graph(5, 0.35, seed=4),
        {f"P{i}": [0, 2] for i in range(1, depth + 1)},
    )
    _, cert = alternation_answer_with_trace(
        q.formula, db, (), guard=_guard(deadline)
    )
    size = cert.total_guessed_tuples()
    envelope = 2 * depth * db.size() ** 3
    _check(size <= envelope, f"{size} tuples > l*n^k = {envelope}")
    return {
        "expr_nodes": float(q.formula.size()),
        "cert_tuples": float(size),
        "envelope": float(envelope),
    }


def _random_cnf_formula(num_vars: int, num_clauses: int, seed: int):
    import random

    from repro.sat.cnf import BoolAnd, BoolNot, BoolOr, BoolVar

    rng = random.Random(seed)
    names = [f"p{i}" for i in range(num_vars)]
    clauses = []
    for _ in range(num_clauses):
        lits = []
        for name in rng.sample(names, min(3, num_vars)):
            var = BoolVar(name)
            lits.append(var if rng.random() < 0.5 else BoolNot(var))
        clauses.append(BoolOr(tuple(lits)))
    return BoolAnd(tuple(clauses))


def sat_to_eso_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """T3-ESO (Thm 4.5): a seeded 3-CNF over ``parameter`` propositions
    as an ESO^k sentence, decided on a fixed 3-element path (any fixed
    database works — that is the theorem); the answer must equal DPLL's
    on the Tseitin CNF."""
    from repro.logic.printer import formula_length
    from repro.reductions import sat_to_eso_query
    from repro.sat.dpll import solve
    from repro.sat.tseitin import to_cnf
    from repro.workloads.graphs import path_graph

    num_vars = int(parameter)
    formula = _random_cnf_formula(num_vars, 2 * num_vars, seed=num_vars)
    q = sat_to_eso_query(formula)
    got = q.holds(path_graph(3), _options("monotone", deadline, tracer))
    _check(got == solve(to_cnf(formula)[0]).satisfiable, "ESO answer != DPLL")
    return {
        "input_size": float(2 * num_vars * 3),
        "expr_length": float(formula_length(q.formula)),
        "satisfiable": float(got),
    }


def qbf_to_pfp_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """T3-PFP (Thm 4.6): a seeded QBF with ``parameter`` variables as a
    PFP^2 sentence over the fixed ``B0``; its value must equal the
    reference QBF solver's."""
    from repro.logic.printer import formula_length
    from repro.reductions import (
        qbf_database,
        qbf_to_pfp_query,
        random_qbf,
        solve_qbf,
    )

    num_vars = int(parameter)
    qbf = random_qbf(num_vars, matrix_depth=3, seed=num_vars)
    q = qbf_to_pfp_query(qbf)
    got = q.holds(qbf_database(), _options("monotone", deadline, tracer))
    _check(got == solve_qbf(qbf), "PFP value != QBF solver")
    return {
        "expr_length": float(formula_length(q.formula)),
        "value": float(got),
    }


# -- Figures ---------------------------------------------------------------


def company_plans_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """F1: the introduction's "earns less than the manager's secretary"
    query on a seeded company of ``parameter`` employees — the 12-ary
    cross-product plan vs the arity-3 join plan.  Both must return the
    same rows, and the bounded plan must dominate."""
    from repro.algebra import dynamic_cost
    from repro.workloads.company import (
        company_database,
        earns_less_bounded_algebra,
        earns_less_naive_algebra,
    )

    n = int(parameter)
    db = company_database(
        num_employees=n, num_departments=max(2, n // 3), seed=n
    )
    naive_table, naive = dynamic_cost(earns_less_naive_algebra(), db)
    bounded_table, bounded = dynamic_cost(earns_less_bounded_algebra(), db)
    _check(
        set(naive_table.rows) == set(bounded_table.rows),
        "naive and bounded plans disagree",
    )
    _check(bounded.dominates(naive), "the bounded plan does not dominate")
    return {
        "naive_max_rows": float(naive.max_intermediate_rows),
        "naive_arity": float(naive.max_intermediate_arity),
        "bounded_max_rows": float(bounded.max_intermediate_rows),
        "bounded_arity": float(bounded.max_intermediate_arity),
    }


def path_rewrite_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """F2 (§2.2): the length-n path query on a fixed 10-node graph in
    three forms — naive (n+1 variables), the paper's FO^3 rewrite, and
    the minimizer's output.  All three answers agree, the minimizer
    reaches width 3, and both 3-variable forms stay at arity ≤ 3."""
    from repro.core.fo_eval import BoundedEvaluator
    from repro.core.interp import EvalStats
    from repro.logic.variables import variable_width
    from repro.optimize import minimize_variables
    from repro.workloads.formulas import path_query_fo3, path_query_naive
    from repro.workloads.graphs import random_graph

    n = int(parameter)
    graph = random_graph(10, 0.25, seed=77)
    guard = _guard(deadline)

    def run(formula):
        stats = EvalStats()
        evaluator = BoundedEvaluator(
            graph, stats=stats, tracer=tracer, guard=guard
        )
        return evaluator.answer(formula, ("x", "y")), stats

    naive = path_query_naive(n).formula
    minimized = minimize_variables(naive)
    naive_answer, naive_stats = run(naive)
    fo3_answer, fo3_stats = run(path_query_fo3(n).formula)
    min_answer, min_stats = run(minimized)
    _check(naive_answer == fo3_answer == min_answer, "the three forms disagree")
    _check(variable_width(minimized) == 3, "the minimizer missed width 3")
    _check(
        max(fo3_stats.max_intermediate_arity, min_stats.max_intermediate_arity)
        <= 3,
        "a 3-variable form built an intermediate of arity > 3",
    )
    return {
        "naive_width": float(variable_width(naive)),
        "naive_max_rows": float(naive_stats.max_intermediate_rows),
        "minimized_width": float(variable_width(minimized)),
        "fo3_max_rows": float(fo3_stats.max_intermediate_rows),
    }


def nested_lfp_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """F3 (the Thm 3.5 ablation): the dependent nested-lfp family of
    depth l on a labeled 8-path, solved restart-everything (NAIVE) and
    warm-started (MONOTONE).  Both answers agree, and at depth ≤ 2 they
    equal the reference semantics."""
    from repro.core.fp_eval import FixpointStrategy, solve_query
    from repro.core.interp import EvalStats
    from repro.core.naive_eval import naive_answer
    from repro.workloads.formulas import nested_lfp_family
    from repro.workloads.graphs import labeled_graph, path_graph

    depth = int(parameter)
    db = labeled_graph(path_graph(8), {"P1": [0], "L": [7]})
    formula = nested_lfp_family(depth).formula
    guard = _guard(deadline)

    def run(strategy):
        stats = EvalStats()
        answer = solve_query(
            formula, db, ("w",), strategy=strategy, stats=stats,
            tracer=tracer, guard=guard,
        )
        return answer, stats

    naive, naive_stats = run(FixpointStrategy.NAIVE)
    monotone, monotone_stats = run(FixpointStrategy.MONOTONE)
    _check(naive == monotone, "NAIVE and MONOTONE disagree")
    if depth <= 2:
        # the recursive reference interpreter costs ~n^{2l} on nested
        # parameterized fixpoints; cross-check the cheap depths only
        _check(
            naive == naive_answer(formula, db, ("w",)),
            "NAIVE differs from the reference semantics",
        )
    return {
        "naive_body_evals": float(naive_stats.body_evaluations),
        "monotone_body_evals": float(monotone_stats.body_evaluations),
        "warm_starts": float(monotone_stats.notes.get("warm_starts", 0)),
    }


def path_systems_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """F4 (Prop 3.2): a seeded Path Systems instance of size m as an
    FO^3 sentence.  The bounded engine, the reference closure and the
    paper's Datalog program must agree.  The engine call runs untraced
    inside the ``fo3_query`` span, whose duration is its wall-clock."""
    from repro.database import Database
    from repro.datalog import parse_program, semi_naive
    from repro.logic.printer import formula_length
    from repro.logic.variables import variable_width
    from repro.reductions import (
        path_system_database,
        path_system_query,
        random_path_system,
        solve_path_system,
    )

    size = int(parameter)
    instance = random_path_system(
        size, num_rules=2 * size, num_sources=2, num_targets=2, seed=size
    )
    query = path_system_query(instance)
    db = path_system_database(instance)
    expected = solve_path_system(instance)
    with tracer.span("fo3_query"):
        got = query.holds(db, _options("monotone", deadline, NULL_TRACER))
    _check(got == expected, "FO^3 answer != reference closure")
    renamed = Database(
        db.domain, {"s": db.relation("S"), "q": db.relation("Q")}
    )
    # third route: the paper's Datalog program through the semi-naive engine
    program = parse_program("p(X) :- s(X). p(X) :- q(X, Y, Z), p(Y), p(Z).")
    closure = semi_naive(program, renamed)["p"]
    _check(
        bool({row[0] for row in closure.tuples} & set(instance.targets))
        == expected,
        "Datalog answer != reference closure",
    )
    width = variable_width(query.formula)
    _check(width == 3, f"the reduction produced width {width}")
    return {
        "width": float(width),
        "expr_length": float(formula_length(query.formula)),
        "solvable": float(got),
    }


def mucalculus_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """F5 (§1): the ν/µ fairness property on a seeded total Kripke
    structure of n states, model-checked directly and as an FP^2 query;
    both routes must return the same states.  The FP^2 evaluation runs
    untraced inside the ``fp_route`` span, whose duration is its
    wall-clock."""
    from repro.core.engine import evaluate
    from repro.mucalculus import (
        KripkeStructure,
        model_check,
        mu_to_fp_query,
        parse_mu,
    )

    n = int(parameter)
    structure = KripkeStructure.random(n, 0.3, ["p", "q"], seed=n, total=True)
    prop = parse_mu("nu X. mu Y. <>((p & X) | Y)")
    direct = model_check(structure, prop)
    q = mu_to_fp_query(prop)
    db = structure.to_database()
    with tracer.span("fp_route"):
        result = evaluate(
            q.formula, db, ("x",), _options("monotone", deadline, NULL_TRACER)
        )
    _check(
        frozenset(t[0] for t in result.relation.tuples) == direct,
        "FP^2 route != direct model checker",
    )
    return {
        "answer_states": float(len(direct)),
        "fixpoint_iterations": float(result.stats.fixpoint_iterations),
    }


def eso_arity_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """F6 (Lemma 3.6): ``∃S/arity`` constrained by two-variable S-patterns
    on a fixed 4-node graph.  The rewrite must cut the quantified arity
    to ≤ 2 and the grounded CNF must stay below the ``n^arity`` tuples a
    naive guess of S ranges over."""
    from repro.core.eso_eval import eso_decide, grounded_cnf
    from repro.core.eso_rewrite import rewrite_eso
    from repro.logic.analysis import max_so_arity
    from repro.logic.parser import parse_formula
    from repro.workloads.graphs import random_graph

    arity = int(parameter)
    n = 4
    db = random_graph(n, 0.4, seed=7)
    xs = ", ".join(["x", "y"] * (arity // 2))
    ys = ", ".join(["y", "x"] * (arity // 2))
    phi = parse_formula(
        f"exists2 S/{arity}. forall x. forall y. "
        f"(~E(x, y) | S({xs}) | ~S({ys}))"
    )
    rewritten = rewrite_eso(phi)
    cnf, _ = grounded_cnf(phi, db, use_rewrite=True)
    # the point's wall-clock reads the decision, as in Corollary 3.7
    eso_decide(phi, db, tracer=tracer, guard=_guard(deadline))
    view_arity = max_so_arity(rewritten.formula)
    _check(max_so_arity(phi) == arity, "the query has the wrong arity")
    _check(view_arity <= 2, f"the rewrite left arity {view_arity}")
    _check(
        cnf.num_vars < n**arity or arity == 2,
        "the CNF is as large as the naive tuple space",
    )
    return {
        "view_arity": float(view_arity),
        "num_views": float(len(rewritten.views)),
        "cnf_vars": float(cnf.num_vars),
        "naive_tuple_space": float(n**arity),
    }


def acyclic_joins_workload(
    parameter: float, tracer=NULL_TRACER, deadline: Optional[float] = None
) -> Dict[str, float]:
    """F7 (§1): a width-w chain join on a fixed 8-node graph three ways —
    cross product first, Yannakakis' semijoin algorithm, and the
    bounded evaluator; all three must return the same rows."""
    from repro.algebra import ArityTracker, compile_naive_conjunctive
    from repro.algebra.acyclic import YannakakisStats, yannakakis
    from repro.core.fo_eval import BoundedEvaluator
    from repro.core.interp import EvalStats
    from repro.logic.builders import and_, atom, exists
    from repro.workloads.graphs import random_graph

    width = int(parameter)
    graph = random_graph(8, 0.3, seed=31)
    names = [f"v{i}" for i in range(width + 1)]
    atoms = [atom("E", names[i], names[i + 1]) for i in range(width)]
    out = (names[0], names[-1])
    middles = names[1:-1]
    formula = exists(middles, and_(*atoms)) if middles else atoms[0]
    cross = ArityTracker()
    cross_rows = set(
        compile_naive_conjunctive(formula, out).evaluate(graph, cross).rows
    )
    yk = YannakakisStats()
    yk_rows = yannakakis(atoms, graph, out, yk)
    bounded = EvalStats()
    bounded_rows = set(
        BoundedEvaluator(
            graph, stats=bounded, tracer=tracer, guard=_guard(deadline)
        )
        .answer(formula, out)
        .tuples
    )
    _check(cross_rows == yk_rows == bounded_rows, "the three joins disagree")
    return {
        "cross_max_rows": float(cross.max_rows),
        "yannakakis_max_rows": float(yk.max_intermediate_rows),
        "semijoins": float(yk.semijoins),
        "bounded_max_rows": float(bounded.max_intermediate_rows),
    }


# -- the query service -----------------------------------------------------


def serve_workload(
    parameter: float,
    tracer=NULL_TRACER,
    requests: int = 18,
    max_queue: int = 4,
    burst: int = 8,
    deadline: Optional[float] = None,
) -> Dict[str, float]:
    """The SERVE robustness drill: scripted traffic through a full
    :class:`~repro.serve.service.QueryService` at database size ``n``.

    The request mix exercises every robustness path deterministically —
    transient injected faults (retried), a persistently failing tenant
    (retries exhausted, breaker trips), a tenant whose row budget forces
    the degradation ladder, and a shed burst that arrives while every
    concurrency slot is deliberately held, so queue-full shedding is
    decided by counts, never by wall-clock.  Evaluation is inline and
    serial and all chaos is seeded, which makes every reported counter
    exact-reproducible — the property the exact-match regression gate
    needs.  ``deadline`` is accepted because the perf harness always
    binds one, but deliberately unused: coupling these counters to
    wall-clock would break the exact-match gate.
    """
    import asyncio

    from repro.errors import Overloaded, ResourceExhausted
    from repro.guard.chaos import ChaosPolicy
    from repro.serve.admission import TenantPolicy
    from repro.serve.retry import RetryPolicy
    from repro.serve.service import QueryService
    from repro.workloads.graphs import random_graph

    n = int(parameter)
    service = QueryService(
        max_concurrency=2,
        max_queue=max_queue,
        workers=0,
        retry=RetryPolicy(base_delay=0.0005, jitter=0.0),
    )
    service.register_database("g", random_graph(n, 0.3, seed=n))
    service.prepare("tc", TC_QUERY, ("u", "v"))
    service.set_tenant("steady", TenantPolicy())
    service.set_tenant(
        "flaky",
        TenantPolicy(max_attempts=2, breaker_threshold=2, breaker_cooldown=1e9),
    )
    service.set_tenant("tight", TenantPolicy(budget=Budget(max_rows=1)))

    async def drive() -> None:
        for i in range(requests):
            tenant, chaos = "steady", None
            if i % 7 == 3:
                # persistent fault: fails every attempt, trips the breaker
                tenant, chaos = "flaky", ChaosPolicy(seed=i, fail_at=1)
            elif i % 5 == 2:
                # transient fault: first attempt fails, the retry is clean
                chaos = [ChaosPolicy(seed=i, fail_at=1), None]
            elif i % 9 == 4:
                # row budget too small: walks the degradation ladder
                tenant = "tight"
            try:
                await service.call(
                    tenant, "tc", "g", request_seed=i, chaos=chaos
                )
            except (Overloaded, ResourceExhausted):
                pass  # structured failures are part of the drill
        gate = asyncio.Event()

        async def blocker() -> None:
            await service.admission.admit("blocker")
            try:
                await gate.wait()
            finally:
                service.admission.release(0.0)

        blockers = [
            asyncio.ensure_future(blocker())
            for _ in range(service.admission.max_concurrency)
        ]
        await asyncio.sleep(0)  # blockers take every concurrency slot
        calls = [
            asyncio.ensure_future(
                service.call("steady", "tc", "g", request_seed=requests + j)
            )
            for j in range(max_queue + burst)
        ]
        await asyncio.sleep(0)  # every burst call reaches admission
        gate.set()
        await asyncio.gather(*calls, return_exceptions=True)
        await asyncio.gather(*blockers)

    asyncio.run(drive())
    service.close()
    snap = service.registry.snapshot()
    return {
        "requests": float(snap["serve.requests"]),
        "ok": float(snap["serve.ok"]),
        "failed": float(snap["serve.failed"]),
        "shed": float(snap["serve.shed"]),
        "retries": float(snap["serve.retries"]),
        "degraded": float(snap["serve.degraded"]),
        "breaker_trips": float(snap["serve.breaker_trips"]),
        "answer_rows": float(snap["serve.answer_rows"]),
    }


@dataclass(frozen=True)
class PerfExperiment:
    """One registry entry: what to run and which counters to fit."""

    experiment_id: str
    title: str
    parameters: Tuple[float, ...]
    workload: Callable[..., Dict[str, float]]
    options: Mapping[str, object] = field(default_factory=dict)
    fit_counters: Tuple[str, ...] = ()

    def bind(
        self,
        overrides: Optional[Mapping[str, object]] = None,
        deadline: Optional[float] = None,
    ) -> Callable[..., Dict[str, float]]:
        """The picklable workload with options (and overrides) applied."""
        bound = dict(self.options)
        for key, value in (overrides or {}).items():
            if key not in bound:
                raise ExperimentError(
                    f"experiment {self.experiment_id!r} has no option "
                    f"{key!r} (available: {', '.join(sorted(bound)) or '-'})"
                )
            bound[key] = _coerce(bound[key], value, key)
        if deadline is not None:
            bound["deadline"] = deadline
        return functools.partial(self.workload, **bound)


def _coerce(default: object, value: object, key: str) -> object:
    """Coerce a ``--set key=value`` string to the default's type."""
    if not isinstance(value, str):
        return value
    try:
        if isinstance(default, bool):
            return value.lower() in ("1", "true", "yes", "on")
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float) or default is None:
            return float(value) if default is not None else value
    except ValueError as exc:
        raise ExperimentError(
            f"bad value {value!r} for option {key!r}: {exc}"
        ) from exc
    return value


def _experiment(
    experiment_id: str,
    title: str,
    parameters: Sequence[float],
    workload: Callable[..., Dict[str, float]],
    fit_counters: Tuple[str, ...],
    **options: object,
) -> PerfExperiment:
    return PerfExperiment(
        experiment_id=experiment_id,
        title=title,
        parameters=tuple(float(p) for p in parameters),
        workload=workload,
        options=options,
        fit_counters=fit_counters,
    )


EXPERIMENTS: Dict[str, PerfExperiment] = {
    e.experiment_id: e
    for e in (
        _experiment(
            "T1",
            "chain joins: naive vs bounded-variable row production",
            (2, 3, 4, 5),
            chain_join_workload,
            ("naive_rows", "bounded_rows"),
        ),
        _experiment(
            "T2-FO",
            "FO^3 path query: polynomial data-complexity counters",
            (4, 8, 12, 16, 20),
            fo_path_workload,
            ("table_ops", "max_intermediate_rows"),
            path_len=4,
            edge_prob=0.3,
        ),
        _experiment(
            "T2-FP",
            "FP^k transitive closure: fixpoint strategy counters",
            (6, 10, 14, 18),
            tc_workload,
            ("table_ops", "answer_rows"),
            strategy="seminaive",
            backend="sparse",
        ),
        _experiment(
            "T2-FP-PACKED",
            "FP^k transitive closure on the packed n^k-bit kernel",
            (6, 10, 14, 18, 26),
            tc_workload,
            ("table_ops", "answer_rows"),
            strategy="seminaive",
            backend="packed",
        ),
        _experiment(
            "T2-FP-CERT",
            "FP^k certificate sizes and verification work",
            (3, 4, 5, 6, 7),
            fp_certificate_workload,
            ("cert_tuples", "verify_ops"),
        ),
        _experiment(
            "T2-ESO",
            "ESO^k 2-colorability: grounded CNF size counters",
            (4, 6, 8, 10, 12),
            eso_two_color_workload,
            ("sat_variables", "sat_clauses"),
            edge_prob=0.25,
        ),
        _experiment(
            "T2-PFP",
            "PFP^k binary counter: live space vs iteration count",
            (2, 3, 4, 5, 6, 7),
            pfp_counter_workload,
            ("peak_live_tuples", "iterations"),
        ),
        _experiment(
            "T3-FO",
            "parenthesis-language route: scans and reductions per word",
            (3, 5, 7, 9, 11),
            fo_grammar_workload,
            ("tokens_scanned",),
        ),
        _experiment(
            "T3-FP",
            "FP^k expression complexity: certificate size vs alternation depth",
            (1, 2, 3, 4),
            fp_expression_workload,
            ("cert_tuples",),
        ),
        _experiment(
            "T3-ESO",
            "SAT to ESO^k: reduction output size vs input size",
            (3, 5, 7, 9),
            sat_to_eso_workload,
            ("expr_length",),
        ),
        _experiment(
            "T3-PFP",
            "QBF to PFP^2: sentence size and evaluation cost vs prefix",
            (2, 3, 4, 5),
            qbf_to_pfp_workload,
            ("expr_length",),
        ),
        _experiment(
            "F1",
            "company example: naive vs bounded join-plan row high-water",
            (4, 6, 8, 10),
            company_plans_workload,
            ("naive_max_rows", "bounded_max_rows"),
        ),
        _experiment(
            "F2",
            "path queries: naive vs FO^3 peak intermediate rows",
            (2, 3, 4, 5),
            path_rewrite_workload,
            ("naive_max_rows", "fo3_max_rows"),
        ),
        _experiment(
            "F3",
            "nested-lfp ablation: naive vs warm-started body evaluations",
            (1, 2, 3),
            nested_lfp_workload,
            ("naive_body_evals", "monotone_body_evals"),
        ),
        _experiment(
            "F4",
            "Path Systems to FO^3: query width and size per instance",
            (4, 6, 8, 10, 12),
            path_systems_workload,
            ("expr_length",),
        ),
        _experiment(
            "F5",
            "mu-calculus fairness property through the FP^2 route",
            (4, 6, 8, 10, 12),
            mucalculus_workload,
            ("fixpoint_iterations",),
        ),
        _experiment(
            "F6",
            "arity reduction: CNF size vs quantified relation arity",
            (2, 4, 6, 8),
            eso_arity_workload,
            ("cnf_vars",),
        ),
        _experiment(
            "F7",
            "chain joins three ways: peak intermediate rows",
            (2, 3, 4),
            acyclic_joins_workload,
            ("cross_max_rows", "yannakakis_max_rows"),
        ),
        _experiment(
            "SERVE",
            "Query service robustness drill: deterministic serve counters",
            (6, 8, 10),
            serve_workload,
            ("ok", "answer_rows"),
            requests=18,
            max_queue=4,
            burst=8,
        ),
    )
}


def experiment_ids() -> Tuple[str, ...]:
    return tuple(sorted(EXPERIMENTS))


def get_experiment(name: str) -> PerfExperiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown perf experiment {name!r} "
            f"(known: {', '.join(experiment_ids())})"
        ) from None


def explain_target(
    name: str, parameter: Optional[float] = None
) -> Tuple[object, object, Tuple[str, ...], Dict[str, object]]:
    """One concrete (formula, db, output_vars, eval kwargs) to explain.

    ``repro explain --experiment`` needs a single evaluation, not a
    sweep: this binds the named experiment's query and database at one
    parameter value (default: the experiment's largest registered one).
    Only the engine-evaluation experiments (T2-FP, T2-FP-PACKED, T2-FO)
    qualify — the explain layer annotates the FO/FP span convention.
    """
    from repro.logic.parser import parse_formula
    from repro.workloads.formulas import path_query_fo3
    from repro.workloads.graphs import path_graph, random_graph

    experiment = get_experiment(name)
    n = int(
        parameter if parameter is not None else experiment.parameters[-1]
    )
    options: Dict[str, object] = {}
    if experiment.experiment_id in ("T2-FP", "T2-FP-PACKED"):
        options["strategy"] = experiment.options["strategy"]
        options["backend"] = experiment.options["backend"]
        return parse_formula(TC_QUERY), path_graph(n), ("u", "v"), options
    if experiment.experiment_id == "T2-FO":
        q = path_query_fo3(int(experiment.options["path_len"]))
        options["strategy"] = "monotone"
        options["k_limit"] = 3
        db = random_graph(
            n, float(experiment.options["edge_prob"]), seed=n
        )
        return q.formula, db, tuple(q.output_vars), options
    raise ExperimentError(
        f"experiment {experiment.experiment_id!r} cannot be explained: "
        "the explain layer annotates FO/FP evaluation traces"
    )


def run_experiment(
    experiment: PerfExperiment,
    overrides: Optional[Mapping[str, object]] = None,
    sizes: Optional[Sequence[float]] = None,
    deadline: Optional[float] = None,
    trace: bool = False,
    jobs: int = 1,
):
    """Run one registered experiment's sweep; returns the SweepResult."""
    from repro.complexity.measure import run_sweep
    from repro.obs.tracer import Tracer

    return run_sweep(
        experiment.experiment_id,
        list(sizes) if sizes else list(experiment.parameters),
        experiment.bind(overrides, deadline),
        warmup=False,
        tracer_factory=Tracer if trace else None,
        parallel=max(1, jobs),
    )
