"""The naive FO→algebra compiler: the Section 1 anti-pattern as a plan.

:func:`compile_naive_conjunctive` plans an existential conjunctive query
cross-product first, then select, then project, peaking at the sum of
the atom arities.  It is the unbounded baseline of experiments T1 and
F7; the bounded side of both is Prop 3.1's bottom-up evaluation,
:class:`repro.core.fo_eval.BoundedEvaluator`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import EvaluationError
from repro.algebra.ops import (
    CrossProduct,
    PlanNode,
    Project,
    RelationScan,
    Rename,
    Select,
    column_eq,
    column_eq_const,
)
from repro.logic.syntax import And, Const, Exists, Formula, RelAtom, Var


def compile_naive_conjunctive(
    formula: Formula, output_vars: Sequence[str]
) -> PlanNode:
    """Cross-product-first plan for an existential conjunctive query.

    Accepts ``∃x̄ (A_1 ∧ ... ∧ A_m)`` with relation atoms ``A_i`` and
    builds ``π(σ(A_1 × ... × A_m))`` — the naive approach whose largest
    intermediate has arity Σ arity(A_i).
    """
    body = formula
    while isinstance(body, Exists):
        body = body.sub
    atoms = body.subs if isinstance(body, And) else (body,)
    scans: List[RelationScan] = []
    columns: List[str] = []
    var_positions: Dict[str, int] = {}
    predicates = []
    for atom in atoms:
        if not isinstance(atom, RelAtom):
            raise EvaluationError(
                "the naive compiler accepts conjunctions of relation atoms, "
                f"got {type(atom).__name__}"
            )
        scan = RelationScan(atom.name, len(atom.terms))
        scans.append(scan)
        for position, term in enumerate(atom.terms, start=len(columns)):
            if isinstance(term, Const):
                predicates.append(column_eq_const(position, term.value))
            elif isinstance(term, Var):
                if term.name in var_positions:
                    predicates.append(
                        column_eq(var_positions[term.name], position)
                    )
                else:
                    var_positions[term.name] = position
        columns.extend(scan.schema())
    plan: PlanNode = CrossProduct(tuple(scans))
    if predicates:
        plan = Select(plan, tuple(predicates))
    out_positions = []
    for name in output_vars:
        if name not in var_positions:
            raise EvaluationError(f"output variable {name!r} not in the query")
        out_positions.append(var_positions[name])
    # the scans' column names are unique, so the product keeps them and
    # the projection's columns rename to the output variables by name
    return Rename(
        Project(plan, tuple(out_positions)),
        tuple(
            (columns[position], name)
            for position, name in zip(out_positions, output_vars)
        ),
    )
