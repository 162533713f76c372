"""Relational algebra plans (Section 1 / Section 2.2).

"FO^k corresponds to the fragment of relational algebra where the arity
of every subexpression is bounded by k."  Queries in that fragment are
evaluated by Prop 3.1's bottom-up evaluator,
:class:`repro.core.fo_eval.BoundedEvaluator`.  This subpackage holds
explicit plans — the naive cross-product baselines and the
introduction's hand-built company plans — and audits their
intermediates:

* :mod:`~repro.algebra.ops` — plan nodes (scan, join, cross product,
  select, project, rename) evaluating over a
  :class:`~repro.database.database.Database`; ``plan.evaluate(db,
  stats)`` audits every intermediate in an
  :class:`~repro.core.interp.EvalStats`, as the bounded evaluator does;
* :mod:`~repro.algebra.compile_fo` — the *naive* compiler for
  conjunctive queries (cross-product-first, the Section 1 anti-pattern);
* :mod:`~repro.algebra.acyclic` — GYO acyclicity and Yannakakis'
  semijoin algorithm;
* :mod:`~repro.algebra.cost` — static plan and formula cost bounds.
"""

from repro.algebra.ops import (
    CrossProduct,
    Join,
    PlanNode,
    Project,
    RelationScan,
    Rename,
    Select,
    Table,
    column_eq,
    column_eq_const,
)
from repro.algebra.compile_fo import compile_naive_conjunctive
from repro.algebra.cost import static_max_arity

__all__ = [
    "PlanNode",
    "Table",
    "RelationScan",
    "CrossProduct",
    "Join",
    "Select",
    "Project",
    "Rename",
    "column_eq",
    "column_eq_const",
    "compile_naive_conjunctive",
    "static_max_arity",
]
