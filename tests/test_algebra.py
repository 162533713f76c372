"""Tests for the relational algebra plans and the naive compiler."""

import pytest

from repro.algebra import (
    CrossProduct,
    Join,
    Project,
    RelationScan,
    Rename,
    Select,
    column_eq_const,
    compile_naive_conjunctive,
    static_max_arity,
)
from repro.core.fo_eval import BoundedEvaluator
from repro.core.interp import EvalStats
from repro.core.naive_eval import naive_answer
from repro.errors import EvaluationError
from repro.logic.parser import parse_formula
from repro.workloads.company import (
    company_database,
    earns_less_bounded_algebra,
    earns_less_naive,
    earns_less_naive_algebra,
)
from repro.workloads.formulas import chain_join_query


class TestOperators:
    def test_scan_and_select(self, tiny_graph):
        plan = Select(
            RelationScan("E", 2, columns=("a", "b")),
            (column_eq_const(0, 0),),
        )
        table = plan.evaluate(tiny_graph)
        assert table.rows == ((0, 1),)

    def test_scan_arity_check(self, tiny_graph):
        with pytest.raises(EvaluationError):
            RelationScan("E", 3).evaluate(tiny_graph)

    def test_join_on_shared_names(self, tiny_graph):
        left = RelationScan("E", 2, columns=("a", "b"))
        right = RelationScan("E", 2, columns=("b", "c"))
        table = Join(left, right).evaluate(tiny_graph)
        assert ("a", "b", "c") == table.columns
        assert (0, 1, 2) in table.rows

    def test_cross_product_disambiguates_columns(self, tiny_graph):
        plan = CrossProduct(
            (
                RelationScan("P", 1, columns=("v",)),
                RelationScan("P", 1, columns=("v",)),
            )
        )
        table = plan.evaluate(tiny_graph)
        assert len(table.columns) == 2
        assert len(table.rows) == 4

    def test_project_by_position_and_name(self, tiny_graph):
        scan = RelationScan("E", 2, columns=("a", "b"))
        assert Project(scan, (1,)).evaluate(tiny_graph).columns == ("b",)
        assert Project(scan, ("b",), by_name=True).evaluate(
            tiny_graph
        ).columns == ("b",)

    def test_rename(self, tiny_graph):
        plan = Rename(RelationScan("P", 1, columns=("v",)), (("v", "w"),))
        assert plan.evaluate(tiny_graph).columns == ("w",)

    def test_stats_audit_every_operator(self, tiny_graph):
        plan = Project(
            Join(
                RelationScan("E", 2, columns=("a", "b")),
                RelationScan("E", 2, columns=("b", "c")),
            ),
            ("a", "c"),
            by_name=True,
        )
        stats = EvalStats()
        result = plan.evaluate(tiny_graph, stats)
        assert stats.table_ops == 4
        assert stats.max_intermediate_arity == 3
        # 4 edges per scan, 4 two-step paths joined and projected
        assert stats.registry.histogram("eval.table_rows").total == 16.0
        assert len(result) == 4


class TestCompilers:
    def test_naive_conjunctive_matches_bounded(self, tiny_graph):
        q = chain_join_query(3)
        table = compile_naive_conjunctive(q.formula, q.output_vars).evaluate(
            tiny_graph
        )
        bounded = BoundedEvaluator(tiny_graph).answer(
            q.formula, q.output_vars
        )
        assert table.columns == q.output_vars
        assert set(table.rows) == set(bounded.tuples)

    def test_naive_conjunctive_peaks_at_sum_of_arities(self, tiny_graph):
        q = chain_join_query(4)
        stats = EvalStats()
        compile_naive_conjunctive(q.formula, q.output_vars).evaluate(
            tiny_graph, stats
        )
        assert stats.max_intermediate_arity == 8  # four binary atoms crossed

    def test_naive_compiler_rejects_disjunction(self):
        with pytest.raises(EvaluationError):
            compile_naive_conjunctive(
                parse_formula("P(x) | Q(x)"), ("x",)
            )


class TestIntroExample:
    def test_plans_agree_and_bounded_wins(self):
        db = company_database(num_employees=6, num_departments=2, seed=3)
        naive, bounded = EvalStats(), EvalStats()
        naive_table = earns_less_naive_algebra().evaluate(db, naive)
        bounded_table = earns_less_bounded_algebra().evaluate(db, bounded)
        assert set(naive_table.rows) == set(bounded_table.rows)
        assert bounded.max_intermediate_arity <= 4
        assert naive.max_intermediate_arity >= 10
        assert bounded.max_intermediate_rows <= naive.max_intermediate_rows

    def test_plans_agree_with_logic_query(self):
        # a tiny instance so the 6-variable brute-force reference (n^6
        # assignments) stays cheap; the bounded engine is cross-validated
        # against the same reference at scale elsewhere
        db = company_database(
            num_employees=3, num_departments=2, num_salary_levels=3, seed=3
        )
        q = earns_less_naive()
        expected = set(naive_answer(q.formula, db, ("e",)).tuples)
        table = earns_less_bounded_algebra().evaluate(db)
        assert set(table.rows) == expected

    def test_static_arity_analysis(self):
        # the static analyzer is conservative (a join is bounded by the sum
        # of its input arities without schema knowledge), but the gap
        # between the two plans is still unambiguous
        assert static_max_arity(earns_less_naive_algebra()) >= 12
        assert static_max_arity(earns_less_bounded_algebra()) <= 6
