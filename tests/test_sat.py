"""Tests for the SAT stack (CNF, Tseitin, DPLL)."""

import itertools

import pytest
from hypothesis import given, strategies as st

from repro.sat.cnf import (
    BoolAnd,
    BoolConst,
    BoolNot,
    BoolOr,
    BoolVar,
    CNF,
    Clause,
    CnfError,
)
from repro.sat.dpll import solve
from repro.sat.tseitin import to_cnf
from repro.reductions.qbf import eval_matrix


class TestCNF:
    def test_var_registry(self):
        cnf = CNF()
        x = cnf.var("x")
        assert cnf.var("x") == x          # stable
        assert cnf.var("y") == x + 1
        assert cnf.name_of(x) == "x"
        assert cnf.has_var("x") and not cnf.has_var("z")

    def test_tautological_clause_dropped(self):
        cnf = CNF()
        x = cnf.var("x")
        cnf.add_clause([x, -x])
        assert cnf.num_clauses == 0

    def test_unallocated_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(CnfError):
            cnf.add_clause([1])

    def test_zero_literal_rejected(self):
        with pytest.raises(CnfError):
            Clause(frozenset({0}))

    def test_named_clause(self):
        cnf = CNF()
        cnf.add_named_clause(["a"], ["b"])
        assert cnf.num_vars == 2 and cnf.num_clauses == 1

    def test_total_literals(self):
        cnf = CNF()
        x, y = cnf.var("x"), cnf.var("y")
        cnf.add_clause([x, y])
        cnf.add_clause([-x])
        assert cnf.total_literals() == 3


def _brute_force_sat(formula, names):
    for values in itertools.product([False, True], repeat=len(names)):
        if eval_matrix(formula, dict(zip(names, values))):
            return True
    return False


def _prop_formulas(names):
    atoms = st.sampled_from([BoolVar(n) for n in names])
    return st.recursive(
        st.one_of(atoms, st.booleans().map(BoolConst)),
        lambda kids: st.one_of(
            kids.map(BoolNot),
            st.tuples(kids, kids).map(BoolAnd),
            st.tuples(kids, kids).map(BoolOr),
        ),
        max_leaves=12,
    )


class TestDPLLAgainstBruteForce:
    NAMES = ["a", "b", "c", "d"]

    @given(_prop_formulas(NAMES))
    def test_sat_decision_matches(self, formula):
        cnf, _ = to_cnf(formula)
        result = solve(cnf)
        assert result.satisfiable == _brute_force_sat(formula, self.NAMES)

    @given(_prop_formulas(NAMES))
    def test_models_actually_satisfy(self, formula):
        cnf, _ = to_cnf(formula)
        result = solve(cnf)
        if result.satisfiable:
            named = result.named_assignment(cnf)
            assignment = {n: named.get(n, False) for n in self.NAMES}
            assert eval_matrix(formula, assignment)


class TestDPLLDetails:
    def test_empty_cnf_is_sat(self):
        assert solve(CNF()).satisfiable

    def test_empty_clause_is_unsat(self):
        cnf = CNF()
        cnf.var("x")
        cnf.add_clause([])
        assert not solve(cnf).satisfiable

    def test_assumptions(self):
        cnf = CNF()
        x, y = cnf.var("x"), cnf.var("y")
        cnf.add_clause([x, y])
        assert solve(cnf, assumptions=[-x]).satisfiable
        cnf.add_clause([-y])
        assert not solve(cnf, assumptions=[-x]).satisfiable

    def test_conflicting_assumptions(self):
        cnf = CNF()
        x = cnf.var("x")
        cnf.add_clause([x])
        assert not solve(cnf, assumptions=[-x]).satisfiable

    def test_pigeonhole_2_into_1_unsat(self):
        # two pigeons, one hole
        cnf = CNF()
        p = {(i): cnf.var(f"p{i}") for i in range(2)}
        cnf.add_clause([p[0]])
        cnf.add_clause([p[1]])
        cnf.add_clause([-p[0], -p[1]])
        assert not solve(cnf).satisfiable

    def test_chain_implication(self):
        cnf = CNF()
        vs = [cnf.var(i) for i in range(30)]
        for a, b in zip(vs, vs[1:]):
            cnf.add_clause([-a, b])
        cnf.add_clause([vs[0]])
        result = solve(cnf)
        assert result.satisfiable
        assert all(result.assignment[v] for v in vs)


class TestTseitin:
    def test_linear_size(self):
        names = [f"v{i}" for i in range(20)]
        formula = BoolAnd(tuple(BoolVar(n) for n in names))
        cnf, _ = to_cnf(formula)
        assert cnf.num_clauses <= 3 * 20 + 5

    def test_shared_subformulas_translated_once(self):
        shared = BoolAnd((BoolVar("a"), BoolVar("b")))
        formula = BoolOr((shared, shared))
        cnf, _ = to_cnf(formula)
        small = cnf.num_clauses
        unshared = BoolOr(
            (
                BoolAnd((BoolVar("a"), BoolVar("b"))),
                BoolAnd((BoolVar("a"), BoolVar("b"))),
            )
        )
        cnf2, _ = to_cnf(unshared)
        assert small <= cnf2.num_clauses

    def test_constants(self):
        cnf, _ = to_cnf(BoolConst(True))
        assert solve(cnf).satisfiable
        cnf, _ = to_cnf(BoolConst(False))
        assert not solve(cnf).satisfiable
