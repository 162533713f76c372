"""Tests for the Theorem 3.5 from-below evaluator internals."""

import pytest
from hypothesis import given

from repro.core.abstraction import abstract_query
from repro.core.engine import EvalOptions, evaluate
from repro.core.fp_eval import FixpointStrategy
from repro.core.alternation import (
    AlternationEvaluator,
    alternation_answer,
    alternation_answer_with_trace,
)
from repro.core.interp import EvalStats
from repro.core.naive_eval import naive_answer
from repro.database import Relation
from repro.errors import (
    IterationBudgetExceeded,
    PositivityError,
    VariableBoundError,
)
from repro.guard import Budget
from repro.logic.parser import parse_formula
from repro.logic.variables import free_variables
from repro.workloads.graphs import labeled_graph, path_graph

from tests.conftest import databases, fp_formulas


class TestAnswers:
    def test_plain_lfp(self, tiny_graph):
        phi = parse_formula("[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)")
        assert alternation_answer(phi, tiny_graph, ("u",)) == naive_answer(
            phi, tiny_graph, ("u",)
        )

    def test_plain_gfp(self, tiny_graph):
        phi = parse_formula("[gfp S(x). exists y. (E(x, y) & S(y))](u)")
        assert alternation_answer(phi, tiny_graph, ("u",)) == naive_answer(
            phi, tiny_graph, ("u",)
        )

    def test_gfp_over_lfp(self, tiny_graph):
        phi = parse_formula(
            "[gfp S(x). [lfp T(z). forall y. "
            "(~E(z, y) | (P(y) & S(y)) | T(y))](x)](u)"
        )
        assert alternation_answer(phi, tiny_graph, ("u",)) == naive_answer(
            phi, tiny_graph, ("u",)
        )

    def test_lfp_over_gfp(self, tiny_graph):
        phi = parse_formula(
            "[lfp S(x). [gfp T(z). (P(z) | S(z)) & "
            "(exists y. (E(z, y) & T(y)) | Q(z))](x)](u)"
        )
        assert alternation_answer(phi, tiny_graph, ("u",)) == naive_answer(
            phi, tiny_graph, ("u",)
        )

    def test_negated_fixpoint_via_nnf(self, tiny_graph):
        phi = parse_formula("~[lfp S(x). P(x) | S(x)](u)")
        assert alternation_answer(phi, tiny_graph, ("u",)) == naive_answer(
            phi, tiny_graph, ("u",)
        )

    def test_fo_formula_supported(self, tiny_graph):
        phi = parse_formula("exists y. E(x, y)")
        assert alternation_answer(phi, tiny_graph, ("x",)) == naive_answer(
            phi, tiny_graph, ("x",)
        )

    @given(fp_formulas(), databases(max_size=3))
    def test_property_agreement(self, phi, db):
        out = sorted(free_variables(phi))
        assert alternation_answer(phi, db, out) == naive_answer(phi, db, out)

    def test_positivity_enforced(self, tiny_graph):
        with pytest.raises(PositivityError):
            alternation_answer(
                parse_formula("[lfp S(x). ~S(x)](u)"), tiny_graph, ("u",)
            )


class TestTrace:
    def test_chain_steps_are_monotone(self, tiny_graph):
        phi = parse_formula("[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)")
        _, cert = alternation_answer_with_trace(phi, tiny_graph, ("u",))
        top = cert.top_certs[0]
        previous = Relation.empty(1)
        for step in top.steps:
            assert previous.issubset(step.value)
            previous = step.value
        assert top.value == previous

    def test_lfp_chain_reuses_unchanged_children(self, tiny_graph):
        # alternation-free: once inner finals stabilize the steps inherit
        phi = parse_formula(
            "[lfp S(x). [lfp T(z). P(z) | T(z)](x) | "
            "exists y. (E(y, x) & S(y))](u)"
        )
        _, cert = alternation_answer_with_trace(phi, tiny_graph, ("u",))
        top = cert.top_certs[0]
        inherit_flags = [step.children is None for step in top.steps]
        if len(top.steps) > 1:
            assert any(inherit_flags[1:])

    def test_final_state_matches_values(self, tiny_graph):
        phi = parse_formula("[gfp S(x). exists y. (E(x, y) & S(y))](u)")
        _, cert = alternation_answer_with_trace(phi, tiny_graph, ("u",))
        state = cert.final_state()
        node = cert.query.nodes[0]
        assert state[node.name] == cert.top_certs[0].value

    def test_guessed_tuples_accounting(self, tiny_graph):
        phi = parse_formula("[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)")
        _, cert = alternation_answer_with_trace(phi, tiny_graph, ("u",))
        assert cert.total_guessed_tuples() >= len(cert.top_certs[0].value)


class TestEvaluatorInternals:
    def test_solve_value_memoized(self, tiny_graph):
        phi = parse_formula("[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)")
        aq = abstract_query(phi)
        evaluator = AlternationEvaluator(aq, tiny_graph, EvalStats())
        node = aq.nodes[0]
        first = evaluator.solve_value(node, {})
        iterations = evaluator.stats.fixpoint_iterations
        second = evaluator.solve_value(node, {})
        assert first == second
        assert evaluator.stats.fixpoint_iterations == iterations


class TestEngineContract:
    """ALTERNATION honours the same k bound, iteration budget and
    iteration counter as the iterating strategies."""

    REACH = "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"

    @staticmethod
    def _path():
        return labeled_graph(path_graph(12), {"P": [0]})

    def test_k_limit_is_enforced(self, tiny_graph):
        phi = parse_formula(
            "[lfp S(x). x = y | exists z. (E(z, x) & S(z))](x)"
        )
        messages = set()
        for strategy in FixpointStrategy:
            with pytest.raises(VariableBoundError) as info:
                evaluate(
                    phi,
                    tiny_graph,
                    ("x", "y"),
                    EvalOptions(strategy=strategy, k_limit=1),
                )
            messages.add(str(info.value))
        assert messages == {"query uses 3 variables, engine bound is k=1"}

    def test_iteration_budget_is_charged(self):
        options = EvalOptions(
            strategy=FixpointStrategy.ALTERNATION,
            budget=Budget(max_iterations=3),
        )
        with pytest.raises(IterationBudgetExceeded):
            evaluate(parse_formula(self.REACH), self._path(), ("u",), options)

    def test_chain_steps_are_counted(self):
        # ∅ → {0} → ... → {0..11}, plus the converging step: the same
        # 13 Kleene steps the naive ascent takes
        phi, db = parse_formula(self.REACH), self._path()
        counts = {
            strategy: evaluate(
                phi, db, ("u",), EvalOptions(strategy=strategy)
            ).stats.fixpoint_iterations
            for strategy in (
                FixpointStrategy.NAIVE,
                FixpointStrategy.ALTERNATION,
            )
        }
        assert counts == {
            FixpointStrategy.NAIVE: 13,
            FixpointStrategy.ALTERNATION: 13,
        }
