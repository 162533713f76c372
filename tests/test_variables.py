"""Tests for variable analyses (free variables, width)."""

from hypothesis import given

from repro.logic.builders import atom, eq, exists, forall, gfp, lfp, so_exists
from repro.logic.parser import parse_formula
from repro.logic.variables import (
    free_relation_variables,
    free_variables,
    variable_names,
    variable_width,
)
from repro.logic.syntax import Const, RelAtom, Var

from tests.conftest import fo_formulas


class TestFreeVariables:
    def test_atom(self):
        assert free_variables(atom("E", "x", "y")) == {"x", "y"}

    def test_quantifier_binds(self):
        assert free_variables(exists("y", atom("E", "x", "y"))) == {"x"}
        assert free_variables(forall(["x", "y"], atom("E", "x", "y"))) == set()

    def test_shadowing(self):
        phi = exists("x", atom("P", "x")) & atom("Q", "x")
        assert free_variables(phi) == {"x"}

    def test_fixpoint_frees_are_params_plus_args(self):
        # [lfp S(x). E(x, y) & S(x)](z) — free: y (param) and z (argument)
        phi = lfp("S", ["x"], atom("E", "x", "y") & atom("S", "x"), ["z"])
        assert free_variables(phi) == {"y", "z"}

    def test_constants_are_not_variables(self):
        phi = RelAtom("P", (Const(3),))
        assert free_variables(phi) == set()


class TestWidth:
    def test_width_counts_bound_and_free(self):
        phi = exists("z", atom("E", "x", "z"))
        assert variable_names(phi) == {"x", "z"}
        assert variable_width(phi) == 2

    def test_reuse_keeps_width_low(self):
        # the FO^3 path trick: width 3 regardless of path length
        phi = parse_formula(
            "exists z. (E(x, z) & exists x. ((x = z) & E(x, y)))"
        )
        assert variable_width(phi) == 3

    def test_fixpoint_bound_vars_counted(self):
        phi = lfp("S", ["x", "y"], atom("E", "x", "y"), ["u", "v"])
        assert variable_width(phi) == 4

    @given(fo_formulas())
    def test_free_subset_of_all_names(self, phi):
        assert free_variables(phi) <= variable_names(phi)


class TestRelationVariables:
    def test_free_relation_variables(self):
        phi = lfp("S", ["x"], atom("S", "x") & atom("E", "x", "y"), ["z"])
        assert free_relation_variables(phi) == {"E"}

    def test_so_exists_binds(self):
        phi = so_exists("R", 1, atom("R", "x") & atom("P", "x"))
        assert free_relation_variables(phi) == {"P"}

    def test_unbound_recursion_var_is_free(self):
        assert free_relation_variables(atom("S", "x")) == {"S"}

    def test_nested_fixpoints(self):
        inner = lfp("T", ["y"], atom("S", "y") & atom("T", "y"), ["x"])
        outer = gfp("S", ["x"], inner, ["z"])
        assert free_relation_variables(outer) == set()
