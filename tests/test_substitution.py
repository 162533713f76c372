"""Tests for capture-avoiding substitution and renaming."""

from hypothesis import given

from repro.core.naive_eval import naive_answer
from repro.logic.builders import atom, eq, exists, forall, lfp
from repro.logic.parser import parse_formula
from repro.logic.printer import format_formula
from repro.logic.substitution import (
    fresh_names,
    rename_bound_apart,
    substitute,
    substitute_relation,
)
from repro.logic.syntax import Const, Var
from repro.logic.variables import free_variables, variable_names

from tests.conftest import databases, fo_formulas

import pytest

from repro.errors import SyntaxError_


class TestSubstitute:
    def test_simple_replacement(self):
        phi = atom("E", "x", "y")
        psi = substitute(phi, {"x": Var("z")})
        assert psi == atom("E", "z", "y")

    def test_constant_substitution(self):
        phi = atom("P", "x")
        psi = substitute(phi, {"x": Const(3)})
        assert free_variables(psi) == set()

    def test_bound_variables_untouched(self):
        phi = exists("x", atom("P", "x"))
        assert substitute(phi, {"x": Var("y")}) == phi

    def test_capture_avoided(self):
        # substituting y for x into ∃y E(x, y) must rename the binder
        phi = exists("y", atom("E", "x", "y"))
        psi = substitute(phi, {"x": Var("y")})
        assert "y" in free_variables(psi)
        # the free y must not be captured: evaluate to check
        assert format_formula(psi) != "exists y. E(y, y)"

    def test_capture_avoidance_in_fixpoint_binders(self):
        phi = lfp("S", ["y"], atom("E", "x", "y") & atom("S", "y"), ["z"])
        psi = substitute(phi, {"x": Var("y")})
        assert free_variables(psi) == {"y", "z"}

    def test_simultaneous_swap(self):
        phi = atom("E", "x", "y")
        psi = substitute(phi, {"x": Var("y"), "y": Var("x")})
        assert psi == atom("E", "y", "x")

    def test_empty_mapping_is_identity(self):
        phi = exists("x", atom("P", "x"))
        assert substitute(phi, {}) is phi


class TestSubstituteRelation:
    def test_prop_3_2_style_unfolding(self):
        # φ(x) with P(x) replaced by ψ(x)
        phi = atom("S", "x") | atom("P", "x")
        psi = exists("y", atom("E", "x", "y"))
        out = substitute_relation(phi, "P", (Var("x"),), psi)
        assert format_formula(out) == "S(x) | (exists y. E(x, y))"

    def test_arguments_are_substituted_into_definition(self):
        phi = atom("P", "z")
        psi = atom("E", "x", "x")
        out = substitute_relation(phi, "P", (Var("x"),), psi)
        assert out == atom("E", "z", "z")

    def test_bound_occurrences_left_alone(self):
        phi = lfp("P", ["x"], atom("P", "x"), ["y"])
        out = substitute_relation(phi, "P", (Var("x"),), atom("Q", "x"))
        assert out == phi

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SyntaxError_):
            substitute_relation(
                atom("P", "x", "y"), "P", (Var("x"),), atom("Q", "x")
            )


class TestRenameBoundApart:
    def test_no_name_bound_twice(self):
        phi = parse_formula("exists x. (P(x) & exists x. Q(x))")
        apart = rename_bound_apart(phi)
        binders = [
            node.var.name
            for node in apart.walk()
            if type(node).__name__ in ("Exists", "Forall")
        ]
        assert len(binders) == len(set(binders))

    def test_free_variables_preserved(self):
        phi = parse_formula("E(x, y) & exists y. E(x, y)")
        apart = rename_bound_apart(phi)
        assert free_variables(apart) == {"x", "y"}

    @given(fo_formulas(), databases(max_size=3))
    def test_semantics_preserved(self, phi, db):
        out = sorted(free_variables(phi))
        assert naive_answer(phi, db, out) == naive_answer(
            rename_bound_apart(phi), db, out
        )


class TestFreshNames:
    def test_avoids_reserved(self):
        supply = fresh_names({"v0", "v1"})
        assert next(supply) == "v2"

    def test_no_repeats(self):
        supply = fresh_names(set())
        names = [next(supply) for _ in range(10)]
        assert len(set(names)) == 10
