"""Tests for the µ-calculus subpackage (the Section 1 application)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import EvalOptions, FixpointStrategy, evaluate
from repro.errors import SyntaxError_
from repro.mucalculus import (
    Box,
    Diamond,
    KripkeStructure,
    Mu,
    MuAnd,
    MuOr,
    Nu,
    Prop,
    PropNeg,
    RecVar,
    model_check,
    mu_to_fp_query,
    parse_mu,
)
from repro.mucalculus.model_check import holds_at
from repro.mucalculus.syntax import (
    check_closed,
    free_recursion_variables,
)
from repro.logic.variables import variable_width


@st.composite
def mu_formulas(draw, depth: int = 3):
    props = ["p", "q"]

    def build(remaining, bound):
        choice = draw(st.integers(0, 8 if remaining > 0 else 2))
        if choice == 0:
            return Prop(draw(st.sampled_from(props)))
        if choice == 1:
            return PropNeg(draw(st.sampled_from(props)))
        if choice == 2:
            if bound and draw(st.booleans()):
                return RecVar(draw(st.sampled_from(sorted(bound))))
            return Prop(draw(st.sampled_from(props)))
        if choice == 3:
            return MuAnd((build(remaining - 1, bound), build(remaining - 1, bound)))
        if choice == 4:
            return MuOr((build(remaining - 1, bound), build(remaining - 1, bound)))
        if choice == 5:
            return Diamond(build(remaining - 1, bound))
        if choice == 6:
            return Box(build(remaining - 1, bound))
        var = f"X{len(bound)}"
        node = Mu if choice == 7 else Nu
        return node(var, build(remaining - 1, bound | {var}))

    return build(depth, frozenset())


def structures(seed: int) -> KripkeStructure:
    return KripkeStructure.random(5, 0.35, ["p", "q"], seed=seed)


class TestSyntax:
    def test_free_recursion_variables(self):
        phi = Mu("X", MuOr((RecVar("X"), RecVar("Y"))))
        assert free_recursion_variables(phi) == {"Y"}
        with pytest.raises(SyntaxError_):
            check_closed(phi)


class TestParser:
    @pytest.mark.parametrize(
        "text",
        [
            "p",
            "~p",
            "p & q | p",
            "<> p",
            "[] (p | q)",
            "mu X. p | <> X",
            "nu X. p & [] X",
            "nu X. mu Y. <>((p & X) | Y)",
        ],
    )
    def test_accepts(self, text):
        parse_mu(text)

    @pytest.mark.parametrize(
        "bad", ["", "mu . p", "~ mu X. X", "p &", "mu X. ~X", "(p"]
    )
    def test_rejects(self, bad):
        with pytest.raises(SyntaxError_):
            parse_mu(bad)


class TestModelChecker:
    def test_liveness_reach_p(self):
        K = KripkeStructure.build(
            3, [(0, 1), (1, 2), (2, 2)], {"p": [2]}
        )
        reach_p = parse_mu("mu X. p | <> X")
        assert model_check(K, reach_p) == {0, 1, 2}

    def test_safety_always_p(self):
        K = KripkeStructure.build(
            3, [(0, 1), (1, 0), (2, 2)], {"p": [0, 1]}
        )
        always_p = parse_mu("nu X. p & [] X")
        assert model_check(K, always_p) == {0, 1}

    def test_box_on_deadlock_is_vacuous(self):
        K = KripkeStructure.build(2, [(0, 1)], {"p": []}, )
        assert holds_at(K, parse_mu("[] p"), 1)
        assert not holds_at(K, parse_mu("<> p"), 1)

    def test_fairness_formula(self):
        # p infinitely often along some path
        K = KripkeStructure.build(3, [(0, 1), (1, 0), (2, 2)], {"p": [0]})
        fair = parse_mu("nu X. mu Y. <>((p & X) | Y)")
        assert model_check(K, fair) == {0, 1}


class TestFP2Route:
    def test_translation_width_is_two(self):
        q = mu_to_fp_query(parse_mu("nu X. mu Y. <>((p & X) | Y)"))
        assert variable_width(q.formula) == 2
        assert q.width == 2

    @given(mu_formulas(), st.integers(0, 5))
    @settings(max_examples=20)
    def test_fp2_route_agrees_with_direct(self, phi, seed):
        K = structures(seed)
        direct = model_check(K, phi)
        q = mu_to_fp_query(phi)
        result = evaluate(q.formula, K.to_database(), ("x",))
        assert frozenset(t[0] for t in result.relation.tuples) == direct

    @given(st.integers(0, 4))
    @settings(max_examples=8)
    def test_all_strategies_agree_on_alternating_property(self, seed):
        K = structures(seed)
        phi = parse_mu("nu X. mu Y. <>((p & X) | Y)")
        direct = model_check(K, phi)
        q = mu_to_fp_query(phi)
        for strategy in FixpointStrategy:
            result = evaluate(
                q.formula,
                K.to_database(),
                ("x",),
                EvalOptions(strategy=strategy),
            )
            assert frozenset(t[0] for t in result.relation.tuples) == direct


class TestKripke:
    def test_to_database_schema(self):
        K = structures(0)
        db = K.to_database()
        assert db.schema.arity_of("E") == 2
        assert db.schema.arity_of("p") == 1

    def test_total_random_structures_have_no_deadlocks(self):
        K = KripkeStructure.random(6, 0.05, ["p"], seed=1, total=True)
        for s in range(K.num_states):
            assert K.successors(s)

    def test_label_clash_with_edge_rejected(self):
        from repro.errors import SchemaError

        K = KripkeStructure.build(1, [], {"E": [0]})
        with pytest.raises(SchemaError):
            K.to_database()
