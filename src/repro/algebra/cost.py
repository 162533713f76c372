"""Plan and formula cost summaries: static arity and ``n^k`` bounds.

The quantity of interest throughout the paper is the size of intermediate
results.  :func:`static_max_arity` bounds it before execution (a plan is
"bounded-variable" when this is ≤ k); ``plan.evaluate(db, stats)`` reports
what actually materialized, in an
:class:`~repro.core.interp.EvalStats`.  :class:`FormulaCostModel` does
the static exercise directly on formulas — per-subformula ``n^k`` bounds
that the explain layer compares against recorded span times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import EvaluationError
from repro.algebra.ops import (
    CrossProduct,
    Join,
    PlanNode,
    Project,
    RelationScan,
    Rename,
    Select,
)


def static_max_arity(plan: PlanNode) -> int:
    """Upper bound on the arity of every intermediate of ``plan``.

    Computed bottom-up without touching a database; a node type the
    analyzer does not know raises :class:`~repro.errors.EvaluationError`.
    """
    peak, _ = _arity(plan)
    return peak


def _arity(plan: PlanNode) -> Tuple[int, int]:
    """(peak arity in subtree, output arity)."""
    if isinstance(plan, RelationScan):
        return plan.arity, plan.arity
    if isinstance(plan, CrossProduct):
        peaks, outs = zip(*(_arity(c) for c in plan.inputs)) if plan.inputs else ((0,), (0,))
        out = sum(outs)
        return max(max(peaks), out), out
    if isinstance(plan, Join):
        lp, lo = _arity(plan.left)
        rp, ro = _arity(plan.right)
        # without schema knowledge the join output is at most lo + ro
        out = lo + ro
        return max(lp, rp, out), out
    if isinstance(plan, (Select, Rename)):
        return _arity(plan.input)
    if isinstance(plan, Project):
        peak, _ = _arity(plan.input)
        out = len(plan.columns)
        return max(peak, out), out
    raise EvaluationError(f"cannot bound arity of {type(plan).__name__}")


# ---------------------------------------------------------------------------
# Formula-level prediction (the explain layer's yardstick)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeCost:
    """Static ``n^k`` prediction for one subformula.

    ``rows_bound`` is the Prop 3.1 bound on the node's own table
    (``n^{#free variables}``); ``unit_cost`` bounds the work of building
    it once from its children's tables (``n`` to the widest schema the
    operation touches); ``iterations_bound`` is 1 for non-fixpoint nodes
    and the polynomial Kleene bound ``n^arity + 1`` for fixpoints —
    PFP can exceed it (Theorem 3.8's exponential worst case), which the
    deviation flagging will then surface rather than hide.
    """

    rows_bound: int
    unit_cost: int
    iterations_bound: int

    @property
    def cost(self) -> int:
        """Total predicted work: per-build cost times iteration bound."""
        return self.unit_cost * self.iterations_bound


class FormulaCostModel:
    """Per-subformula cost predictions over a domain of size ``n``.

    The model is deliberately the paper's own coarse yardstick — pure
    ``n^k`` counting, no selectivity estimation — so a large gap between
    predicted share and measured share of evaluation time points at a
    *structural* surprise (an unexpectedly dense intermediate, a fixpoint
    iterating far past the polynomial estimate), not at model noise.
    """

    def __init__(self, domain_size: int):
        if domain_size < 0:
            raise EvaluationError(
                f"domain size must be non-negative, got {domain_size}"
            )
        self.n = domain_size

    def predict(self, formula) -> "Dict[int, NodeCost]":
        """``id(subformula)`` → :class:`NodeCost` for every subformula.

        Keyed by identity because syntactically equal subformulas are
        distinct nodes with (potentially) different contexts; the caller
        holds the AST, so the ids stay live.
        """
        from repro.logic.syntax import FIXPOINT_NODES
        from repro.logic.variables import free_variables

        out: Dict[int, NodeCost] = {}

        def visit(node) -> int:
            """Fill ``out`` for the subtree; return ``#free`` of node."""
            child_frees = [visit(child) for child in node.children()]
            free = len(free_variables(node))
            width = max([free] + child_frees) if child_frees else free
            if isinstance(node, FIXPOINT_NODES):
                iterations = (self.n ** node.arity) + 1
            else:
                iterations = 1
            out[id(node)] = NodeCost(
                rows_bound=self.n**free,
                unit_cost=max(1, self.n**width),
                iterations_bound=iterations,
            )
            return free

        visit(formula)
        return out
