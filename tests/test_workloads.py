"""Tests for the workload generators."""

import pytest

from repro import evaluate
from repro.core.naive_eval import naive_answer
from repro.errors import ReproError
from repro.logic.analysis import alternation_depth, check_positivity
from repro.logic.variables import variable_width
from repro.workloads.company import (
    company_database,
    earns_less_bounded,
    earns_less_naive,
)
from repro.workloads.formulas import (
    alternating_fixpoint_family,
    chain_join_query,
    path_query_fo3,
    path_query_naive,
    random_fo_formula,
)
from repro.workloads.graphs import (
    cycle_graph,
    labeled_graph,
    path_graph,
    random_graph,
)


class TestGraphs:
    def test_path_graph(self):
        g = path_graph(5)
        assert g.size() == 5
        assert len(g.relation("E")) == 4

    def test_cycle_graph(self):
        g = cycle_graph(5)
        assert len(g.relation("E")) == 5
        assert (4, 0) in g.relation("E")

    def test_random_graph_is_seeded(self):
        assert random_graph(6, 0.5, seed=3) == random_graph(6, 0.5, seed=3)
        assert random_graph(6, 0.5, seed=3) != random_graph(6, 0.5, seed=4)

    def test_labeled_graph(self):
        g = labeled_graph(path_graph(4), {"P": [0, 3]})
        assert sorted(g.relation("P").tuples) == [(0,), (3,)]


class TestPathQueries:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_forms_agree(self, n):
        g = random_graph(5, 0.35, seed=n)
        a = naive_answer(path_query_naive(n).formula, g, ("x", "y"))
        b = naive_answer(path_query_fo3(n).formula, g, ("x", "y"))
        assert a == b

    def test_widths(self):
        assert path_query_naive(6).width == 7
        assert path_query_fo3(6).width == 3

    def test_validation(self):
        with pytest.raises(ReproError):
            path_query_naive(0)
        with pytest.raises(ReproError):
            path_query_fo3(0)
        with pytest.raises(ReproError):
            chain_join_query(0)

    def test_path_semantics_on_path_graph(self):
        g = path_graph(6)
        ans = naive_answer(path_query_fo3(3).formula, g, ("x", "y"))
        assert ans.tuples == frozenset(
            {(i, i + 3) for i in range(3)}
        )


class TestChainJoin:
    def test_width_grows_with_chain(self):
        assert chain_join_query(2).width == 3
        assert chain_join_query(5).width == 6

    def test_semantics_equals_path(self):
        g = random_graph(5, 0.4, seed=9)
        a = naive_answer(chain_join_query(3).formula, g, ("v0", "v3"))
        b = naive_answer(path_query_naive(3).formula, g, ("x", "y"))
        assert {t for t in a.tuples} == {t for t in b.tuples}


class TestCompany:
    def test_database_schema(self):
        db = company_database(num_employees=5, num_departments=2, seed=0)
        for name in ("EMP", "MGR", "SCY", "SAL", "LT"):
            assert name in db.relation_names()

    def test_lt_is_strict_order(self):
        db = company_database(seed=0)
        lt = db.relation("LT")
        assert all(a != b for a, b in lt.tuples)
        assert not any((b, a) in lt for a, b in lt.tuples)

    def test_query_forms_agree(self):
        db = company_database(num_employees=7, num_departments=3, seed=5)
        a = evaluate(earns_less_naive().formula, db, ("e",)).relation
        b = evaluate(earns_less_bounded().formula, db, ("e",)).relation
        assert a == b


class TestFixpointFamilies:

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_alternating_family_properties(self, depth):
        q = alternating_fixpoint_family(depth)
        check_positivity(q.formula)
        assert alternation_depth(q.formula) == depth
        assert q.width == 3

    def test_alternating_family_validation(self):
        with pytest.raises(ReproError):
            alternating_fixpoint_family(0)


class TestRandomFormulas:
    def test_seeded_determinism(self):
        schema = [("E", 2), ("P", 1)]
        a = random_fo_formula(schema, ["x", "y"], depth=4, seed=7)
        b = random_fo_formula(schema, ["x", "y"], depth=4, seed=7)
        assert a == b

    def test_width_bounded_by_variables(self):
        phi = random_fo_formula([("E", 2)], ["x", "y", "z"], depth=6, seed=3)
        assert variable_width(phi) <= 3
