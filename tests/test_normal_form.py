"""Tests for NNF and fixpoint duals (repro.logic.normal_form)."""

from hypothesis import given

from repro.core.naive_eval import naive_answer
from repro.logic.builders import atom, lfp, gfp, not_
from repro.logic.normal_form import negate_fixpoint_dual, to_nnf
from repro.logic.parser import parse_formula
from repro.logic.syntax import Exists, Forall, GFP, LFP, Not, Or, RelAtom
from repro.logic.variables import free_variables

from tests.conftest import databases, fo_formulas


def _only_atomic_negations(phi):
    for node in phi.walk():
        if isinstance(node, Not):
            if not isinstance(node.sub, (RelAtom,)) and not type(
                node.sub
            ).__name__ in ("Equals", "PFP", "IFP", "SOExists"):
                return False
    return True


class TestNNF:
    def test_pushes_negation_through_connectives(self):
        phi = to_nnf(parse_formula("~(P(x) & Q(x))"))
        assert isinstance(phi, Or)
        assert all(isinstance(s, Not) for s in phi.subs)

    def test_quantifier_duality(self):
        phi = to_nnf(parse_formula("~exists x. P(x)"))
        assert isinstance(phi, Forall)
        phi = to_nnf(parse_formula("~forall x. P(x)"))
        assert isinstance(phi, Exists)

    def test_double_negation(self):
        assert to_nnf(parse_formula("~~P(x)")) == parse_formula("P(x)")

    def test_negated_lfp_becomes_gfp(self):
        phi = to_nnf(parse_formula("~[lfp S(x). P(x) | S(x)](u)"))
        assert isinstance(phi, GFP)

    def test_negated_gfp_becomes_lfp(self):
        phi = to_nnf(parse_formula("~[gfp S(x). P(x) & S(x)](u)"))
        assert isinstance(phi, LFP)

    @given(fo_formulas())
    def test_result_has_only_atomic_negations(self, phi):
        assert _only_atomic_negations(to_nnf(phi))

    @given(fo_formulas(), databases(max_size=3))
    def test_nnf_preserves_semantics(self, phi, db):
        out = sorted(free_variables(phi))
        assert naive_answer(phi, db, out) == naive_answer(to_nnf(phi), db, out)

    @given(databases(max_size=3))
    def test_fixpoint_dual_preserves_semantics(self, db):
        phi = parse_formula(
            "~[gfp S(x). [lfp T(z). (P(z) & S(z)) | exists y. (E(z, y) & T(y))](x)](u)"
        )
        assert naive_answer(phi, db, ("u",)) == naive_answer(
            to_nnf(phi), db, ("u",)
        )


class TestDual:
    def test_dual_of_lfp_is_gfp(self):
        node = lfp("S", ["x"], atom("P", "x") | atom("S", "x"), ["u"])
        dual = negate_fixpoint_dual(node)
        assert isinstance(dual, GFP)

    @given(databases(max_size=3))
    def test_dual_is_complement(self, db):
        node = lfp(
            "S",
            ["x"],
            atom("P", "x") | parse_formula("exists y. (E(y, x) & S(y))"),
            ["u"],
        )
        direct = naive_answer(Not(node), db, ("u",))
        dual = naive_answer(negate_fixpoint_dual(node), db, ("u",))
        assert direct == dual
