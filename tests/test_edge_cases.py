"""Cross-cutting edge cases: nullary relations, constants, degenerate
domains, deeply mixed formulas — the corners each subsystem must share.
"""

import pytest

from repro import Database, EvalOptions, FixpointStrategy, Query, evaluate
from repro.core.naive_eval import holds, naive_answer
from repro.errors import EvaluationError
from repro.logic.parser import parse_formula


class TestNullaryRelations:
    def _db(self, flag: bool) -> Database:
        return Database.from_tuples(
            range(2), {"T": (0, [()] if flag else []), "P": (1, [(0,)])}
        )

    def test_nullary_atom_in_fo(self):
        phi = parse_formula("T() & exists x. P(x)")
        assert evaluate(phi, self._db(True)).as_bool() is True
        assert evaluate(phi, self._db(False)).as_bool() is False

    def test_nullary_atom_agrees_with_reference(self):
        phi = parse_formula("T() | ~T()")
        for flag in (True, False):
            db = self._db(flag)
            assert evaluate(phi, db).as_bool() == holds(phi, db)

    def test_nullary_fixpoint(self):
        # a 0-ary lfp: S ← T() ∨ S — true iff T holds
        phi = parse_formula("[lfp S(). T() | S()]()")
        assert evaluate(phi, self._db(True)).as_bool() is True
        assert evaluate(phi, self._db(False)).as_bool() is False

    def test_nullary_second_order(self):
        phi = parse_formula("exists2 R/0. (R() & ~T())")
        assert evaluate(phi, self._db(False)).as_bool() is True


class TestSingletonDomain:
    def test_everything_on_one_element(self):
        db = Database.from_tuples([7], {"E": (2, [(7, 7)]), "P": (1, [])})
        cases = {
            "forall x. forall y. x = y": True,
            "exists x. E(x, x)": True,
            "exists x. P(x)": False,
            "[lfp S(x). E(x, x) | S(x)](u)": None,  # evaluated below
        }
        for text, expected in cases.items():
            phi = parse_formula(text)
            if expected is None:
                ans = evaluate(phi, db, ("u",)).relation
                assert ans == naive_answer(phi, db, ("u",))
            else:
                assert evaluate(phi, db).as_bool() is expected


class TestConstantsEverywhere:
    def test_constants_in_all_engines(self, tiny_graph):
        fo = parse_formula("E(0, x) & ~P(x)")
        assert evaluate(fo, tiny_graph, ("x",)).relation == naive_answer(
            fo, tiny_graph, ("x",)
        )
        fp = parse_formula("[lfp S(x). x = 0 | exists y. (E(y, x) & S(y))](u)")
        for strategy in FixpointStrategy:
            got = evaluate(
                fp, tiny_graph, ("u",), EvalOptions(strategy=strategy)
            ).relation
            assert got == naive_answer(fp, tiny_graph, ("u",)), strategy
        eso = parse_formula("exists2 R/1. (R(0) & forall x. (~R(x) | P(x)))")
        assert evaluate(eso, tiny_graph).as_bool() == holds(eso, tiny_graph)

    def test_constant_not_in_domain(self, tiny_graph):
        phi = parse_formula("x = 99")
        assert len(evaluate(phi, tiny_graph, ("x",)).relation) == 0


class TestMixedDeepFormulas:
    def test_fo_wrapping_fixpoints(self, tiny_graph):
        # fixpoints under conjunction/negation at the top level
        phi = parse_formula(
            "~[lfp S(x). P(x) | S(x)](u) & "
            "[gfp T(x). exists y. (E(x, y) & T(y))](u)"
        )
        for strategy in FixpointStrategy:
            got = evaluate(
                phi, tiny_graph, ("u",), EvalOptions(strategy=strategy)
            ).relation
            assert got == naive_answer(phi, tiny_graph, ("u",)), strategy

    def test_fixpoint_applied_at_repeated_variable(self, tiny_graph):
        phi = parse_formula("[lfp S(x, y). E(x, y) | E(y, x)](u, u)")
        assert evaluate(phi, tiny_graph, ("u",)).relation == naive_answer(
            phi, tiny_graph, ("u",)
        )

    def test_two_independent_fixpoints_in_one_body(self, tiny_graph):
        phi = parse_formula(
            "[lfp S(x). P(x) | S(x)](u) | [lfp T(x). Q(x) | T(x)](u)"
        )
        got = evaluate(
            phi, tiny_graph, ("u",), EvalOptions(strategy=FixpointStrategy.ALTERNATION)
        ).relation
        assert got == naive_answer(phi, tiny_graph, ("u",))


class TestBinaryFixpoints:
    def test_transitive_closure_arity_two(self, tiny_graph):
        phi = parse_formula(
            "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"
        )
        for strategy in FixpointStrategy:
            got = evaluate(
                phi, tiny_graph, ("u", "v"), EvalOptions(strategy=strategy)
            ).relation
            assert got == naive_answer(phi, tiny_graph, ("u", "v")), strategy

    def test_certificates_for_binary_fixpoints(self, tiny_graph):
        from repro.core.certificates import extract_membership, verify_membership

        phi = parse_formula(
            "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"
        )
        answer = naive_answer(phi, tiny_graph, ("u", "v"))
        member = next(iter(sorted(answer.tuples)))
        cert = extract_membership(phi, tiny_graph, ("u", "v"), member)
        assert cert is not None and verify_membership(cert, phi, tiny_graph)


class TestQueryObjectEdges:
    def test_zero_arity_query_repr(self):
        q = Query.parse("exists x. P(x)")
        assert "Query" in repr(q)

    def test_run_with_default_options(self, tiny_graph):
        q = Query.parse("P(x)", output_vars=("x",))
        assert q.run(tiny_graph).relation == q.run(
            tiny_graph, EvalOptions()
        ).relation
