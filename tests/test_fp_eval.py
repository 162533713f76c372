"""Tests for FP^k evaluation strategies (Section 3.2 / Theorem 3.5)."""

import pytest
from hypothesis import given

from repro.core.fp_eval import FixpointStrategy, KleeneSolver, solve_query
from repro.core.interp import EvalStats
from repro.core.naive_eval import naive_answer
from repro.database import Relation
from repro.errors import EvaluationError, PositivityError
from repro.logic.parser import parse_formula
from repro.logic.variables import free_variables
from repro.workloads.formulas import alternating_fixpoint_family
from repro.workloads.graphs import labeled_graph, path_graph, random_graph

from tests.conftest import databases, fp_formulas

STRATEGIES = [
    FixpointStrategy.NAIVE,
    FixpointStrategy.MONOTONE,
    FixpointStrategy.ALTERNATION,
    FixpointStrategy.SEMINAIVE,
]


class TestBasicFixpoints:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_reachability(self, tiny_graph, strategy):
        phi = parse_formula("[lfp S(x). x = y | exists z. (E(z, x) & S(z))](x)")
        got = solve_query(phi, tiny_graph, ("x", "y"), strategy=strategy)
        assert got == naive_answer(phi, tiny_graph, ("x", "y"))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_gfp_infinite_path(self, tiny_graph, strategy):
        phi = parse_formula("[gfp S(x). exists y. (E(x, y) & S(y))](u)")
        got = solve_query(phi, tiny_graph, ("u",), strategy=strategy)
        assert got == naive_answer(phi, tiny_graph, ("u",))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_paper_section_2_2_example(self, tiny_graph, strategy):
        # "no infinite E-path starting at u on which P fails infinitely often"
        phi = parse_formula(
            "[gfp S(x). [lfp T(z). forall y. "
            "(~E(z, y) | S(y) | (P(y) & T(y)))](x)](u)"
        )
        got = solve_query(phi, tiny_graph, ("u",), strategy=strategy)
        assert got == naive_answer(phi, tiny_graph, ("u",))


class TestPropertyAgreement:
    @given(fp_formulas(), databases(max_size=3))
    def test_all_strategies_match_reference(self, phi, db):
        out = sorted(free_variables(phi))
        expected = naive_answer(phi, db, out)
        for strategy in STRATEGIES:
            assert solve_query(phi, db, out, strategy=strategy) == expected, (
                strategy
            )


class TestAlternatingFamily:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_strategies_agree_on_alternating_nests(self, depth):
        q = alternating_fixpoint_family(depth)
        db = labeled_graph(
            random_graph(4, 0.4, seed=depth),
            {f"P{i}": [0, 2] for i in range(1, depth + 1)},
        )
        expected = naive_answer(q.formula, db, ())
        for strategy in STRATEGIES:
            assert solve_query(q.formula, db, (), strategy=strategy) == expected

    def test_monotone_needs_fewer_body_evaluations_than_naive(self):
        # alternation-free nesting: warm starts should pay off
        phi = parse_formula(
            "[lfp S(x). P(x) | exists y. (E(y, x) & "
            "[lfp T(z). S(z) | exists y. (E(y, z) & T(y))](x))](u)"
        )
        db = labeled_graph(random_graph(6, 0.3, seed=7), {"P": [0]})
        naive_stats, monotone_stats = EvalStats(), EvalStats()
        a = solve_query(
            phi, db, ("u",), strategy=FixpointStrategy.NAIVE, stats=naive_stats
        )
        b = solve_query(
            phi,
            db,
            ("u",),
            strategy=FixpointStrategy.MONOTONE,
            stats=monotone_stats,
        )
        assert a == b
        assert (
            monotone_stats.body_evaluations <= naive_stats.body_evaluations
        )
        assert monotone_stats.notes.get("warm_starts", 0) >= 1


class TestPositivity:
    def test_negative_lfp_rejected_by_default(self, tiny_graph):
        phi = parse_formula("[lfp S(x). ~S(x)](u)")
        with pytest.raises(PositivityError):
            solve_query(phi, tiny_graph, ("u",))

    def test_ifp_allowed(self, tiny_graph):
        phi = parse_formula("[ifp X(x). ~X(x)](u)")
        got = solve_query(phi, tiny_graph, ("u",))
        assert got == naive_answer(phi, tiny_graph, ("u",))


class TestPartialIteration:
    def test_cycle_detected_as_empty(self):
        # ∅ → full → ∅: the second round revisits the start state, so
        # the stage sequence cycles and the partial fixpoint is empty
        phi = parse_formula("[pfp X(x). ~X(x)](u)")
        db = path_graph(3)
        stats = EvalStats()
        got = solve_query(
            phi, db, ("u",), strategy=FixpointStrategy.NAIVE, stats=stats
        )
        assert got == Relation.empty(1)
        assert stats.fixpoint_iterations == 2


class TestSolverFactory:
    def test_one_solver_serves_every_iterating_strategy(self):
        stats = EvalStats()
        for strategy in (
            FixpointStrategy.NAIVE,
            FixpointStrategy.MONOTONE,
            FixpointStrategy.SEMINAIVE,
        ):
            assert isinstance(KleeneSolver(strategy, stats), KleeneSolver)
        with pytest.raises(EvaluationError):
            KleeneSolver(FixpointStrategy.ALTERNATION, stats)


class TestInflationaryEarlyExit:
    """Regression: the converging IFP round must exit on the empty delta
    instead of unioning (re-materializing) the full relation first."""

    def _chain(self, n):
        return labeled_graph(path_graph(n), {"P": [0]})

    def test_iteration_count_and_exit_note(self):
        n = 5
        phi = parse_formula(
            "[ifp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"
        )
        db = self._chain(n)
        stats = EvalStats()
        got = solve_query(
            phi, db, ("u",), strategy=FixpointStrategy.NAIVE, stats=stats
        )
        assert got == naive_answer(phi, db, ("u",))
        # one productive round per chain element, plus exactly one
        # converging round that exits on the empty delta
        assert stats.fixpoint_iterations == n + 1
        assert stats.notes["empty_delta_exits"] == 1

    def test_early_exit_matches_reference_across_strategies(self):
        phi = parse_formula(
            "[ifp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"
        )
        db = self._chain(4)
        expected = naive_answer(phi, db, ("u",))
        for strategy in (
            FixpointStrategy.NAIVE,
            FixpointStrategy.MONOTONE,
            FixpointStrategy.SEMINAIVE,
        ):
            assert solve_query(phi, db, ("u",), strategy=strategy) == expected
