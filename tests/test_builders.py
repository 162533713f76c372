"""Tests for the formula-building DSL (repro.logic.builders)."""

import pytest

from repro.core.naive_eval import holds, naive_answer
from repro.logic.builders import (
    C,
    V,
    and_,
    atom,
    exists,
    false_,
    forall,
    gfp,
    iff,
    ifp,
    implies,
    lfp,
    not_,
    or_,
    pfp,
    so_exists,
    true_,
)
from repro.logic.syntax import And, Const, Exists, Forall, GFP, IFP, LFP, Not, Or, PFP, Truth, Var


class TestTermHelpers:
    def test_v_and_c(self):
        assert V("x") == Var("x")
        assert C(3) == Const(3)

    def test_atom_promotes_strings(self):
        a = atom("E", "x", C(3))
        assert a.terms == (Var("x"), Const(3))


class TestConnectives:
    def test_and_flattens(self):
        phi = and_(and_(atom("P", "x"), atom("Q", "x")), atom("P", "y"))
        assert isinstance(phi, And)
        assert len(phi.subs) == 3

    def test_and_drops_true(self):
        assert and_(atom("P", "x"), true_()) == atom("P", "x")

    def test_or_flattens_and_drops_false(self):
        phi = or_(or_(atom("P", "x"), atom("Q", "x")), false_())
        assert isinstance(phi, Or)
        assert len(phi.subs) == 2

    def test_single_operand_unwrapped(self):
        assert and_(atom("P", "x")) == atom("P", "x")
        assert or_(atom("P", "x")) == atom("P", "x")

    def test_implies_desugars(self):
        phi = implies(atom("P", "x"), atom("Q", "x"))
        assert isinstance(phi, Or)
        assert isinstance(phi.subs[0], Not)

    def test_iff_semantics(self, tiny_graph):
        phi = iff(atom("P", "x"), atom("Q", "x"))
        for v in range(tiny_graph.size()):
            p = (v,) in tiny_graph.relation("P")
            q = (v,) in tiny_graph.relation("Q")
            assert holds(phi, tiny_graph, {"x": v}) == (p == q)


class TestQuantifierHelpers:
    def test_single_name(self):
        phi = exists("x", atom("P", "x"))
        assert isinstance(phi, Exists)

    def test_sequence_of_names_nests_in_order(self):
        phi = forall(["x", "y"], atom("E", "x", "y"))
        assert isinstance(phi, Forall) and phi.var == Var("x")
        assert isinstance(phi.sub, Forall) and phi.sub.var == Var("y")

    def test_empty_sequence_is_identity(self):
        body = atom("P", "x")
        assert exists([], body) is body


class TestFixpointHelpers:
    @pytest.mark.parametrize(
        "maker,node", [(lfp, LFP), (gfp, GFP), (pfp, PFP), (ifp, IFP)]
    )
    def test_each_kind(self, maker, node):
        phi = maker("S", ["x"], atom("S", "x"), ["u"])
        assert isinstance(phi, node)
        assert phi.bound_vars == (Var("x"),)
        assert phi.args == (Var("u"),)

    def test_constants_as_fixpoint_args(self, tiny_graph):
        phi = lfp(
            "S",
            ["x"],
            or_(atom("P", "x"), exists("y", and_(atom("E", "y", "x"), atom("S", "y")))),
            [C(3)],
        )
        assert holds(phi, tiny_graph) == (
            (3,) in naive_answer(
                lfp(
                    "S",
                    ["x"],
                    or_(
                        atom("P", "x"),
                        exists("y", and_(atom("E", "y", "x"), atom("S", "y"))),
                    ),
                    ["u"],
                ),
                tiny_graph,
                ("u",),
            )
        )


class TestSecondOrderHelper:
    def test_so_exists(self):
        phi = so_exists("R", 2, atom("R", "x", "y"))
        assert phi.arity == 2
        assert phi.rel == "R"
