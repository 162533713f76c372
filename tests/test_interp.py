"""Tests for VarTable — the bounded intermediate representation."""

import pytest

from repro.core.interp import EvalStats, VarTable
from repro.database.domain import Domain
from repro.errors import EvaluationError

D3 = Domain.range(3)


class TestConstruction:
    def test_columns_are_canonically_sorted(self):
        t = VarTable(("y", "x"), [(1, 2)])
        assert t.variables == ("x", "y")
        assert (2, 1) in t.rows  # row reordered with the columns

    def test_duplicate_columns_rejected(self):
        with pytest.raises(EvaluationError):
            VarTable(("x", "x"), [])

    def test_row_length_checked(self):
        with pytest.raises(EvaluationError):
            VarTable(("x",), [(1, 2)])

    def test_tautology_and_contradiction(self):
        assert len(VarTable.tautology()) == 1
        assert len(VarTable.contradiction()) == 0

    def test_full(self):
        assert len(VarTable.full(("x", "y"), D3)) == 9


class TestJoin:
    def test_join_on_shared_column(self):
        left = VarTable(("x", "y"), [(0, 1), (1, 2)])
        right = VarTable(("y", "z"), [(1, 5), (3, 7)])
        joined = left.join(right)
        assert joined.variables == ("x", "y", "z")
        assert joined.rows == frozenset({(0, 1, 5)})

    def test_disjoint_join_is_product(self):
        left = VarTable(("x",), [(0,), (1,)])
        right = VarTable(("y",), [(5,)])
        assert len(left.join(right)) == 2

    def test_join_with_boolean_table(self):
        t = VarTable(("x",), [(0,)])
        assert t.join(VarTable.tautology()) == t
        assert t.join(VarTable.contradiction()).is_empty()

    def test_join_commutative(self):
        a = VarTable(("x", "y"), [(0, 1), (2, 2)])
        b = VarTable(("y",), [(1,), (2,)])
        assert a.join(b) == b.join(a)


class TestBooleanOps:
    def test_union_cylindrifies(self):
        a = VarTable(("x",), [(0,)])
        b = VarTable(("y",), [(1,)])
        u = a.union(b, D3)
        assert u.variables == ("x", "y")
        # a contributes (0, *) for all y; b contributes (*, 1)
        assert (0, 2) in u.rows and (2, 1) in u.rows

    def test_complement(self):
        t = VarTable(("x",), [(0,)])
        c = t.complement(D3)
        assert c.rows == frozenset({(1,), (2,)})
        assert c.complement(D3) == t

    def test_complement_of_boolean(self):
        assert VarTable.tautology().complement(D3) == VarTable.contradiction()


class TestQuantification:
    def test_project_out(self):
        t = VarTable(("x", "y"), [(0, 1), (0, 2)])
        p = t.project_out("y")
        assert p.variables == ("x",)
        assert len(p) == 1

    def test_project_out_absent_variable_is_identity(self):
        t = VarTable(("x",), [(0,)])
        assert t.project_out("zz") is t

    def test_forall_out(self):
        # x related to every y vs only some y
        rows = [(0, y) for y in range(3)] + [(1, 0)]
        t = VarTable(("x", "y"), rows)
        f = t.forall_out("y", D3)
        assert f.rows == frozenset({(0,)})

    def test_forall_out_equals_double_complement(self):
        t = VarTable(("x", "y"), [(0, 0), (0, 1), (0, 2), (1, 1)])
        direct = t.forall_out("y", D3)
        via = t.complement(D3).project_out("y").complement(D3)
        assert direct == via


class TestMisc:
    def test_to_relation_permutes(self):
        t = VarTable(("x", "y"), [(0, 1)])
        assert (1, 0) in t.to_relation(("y", "x"))

    def test_to_relation_requires_exact_columns(self):
        with pytest.raises(EvaluationError):
            VarTable(("x",), []).to_relation(("x", "y"))

    def test_stats_observation(self):
        stats = EvalStats()
        stats.observe_table(VarTable(("x", "y"), [(0, 1)]))
        assert stats.max_intermediate_arity == 2
        assert stats.max_intermediate_rows == 1
        stats.bump("things", 3)
        assert stats.notes["things"] == 3
