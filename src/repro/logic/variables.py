"""Variable analyses: free variables and variable width.

The *variable width* of a formula — the number of distinct individual
variable names it uses, free or bound — is the ``k`` of the bounded-variable
languages: a formula belongs to ``L^k`` exactly when its width is at most
``k`` (Section 2.2: "restricting the individual variables to be among
``x_1, ..., x_k``").
"""

from __future__ import annotations

from typing import FrozenSet, Set, Tuple

from repro.logic.syntax import (
    And,
    Equals,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    RelAtom,
    SOExists,
    Term,
    Truth,
    Var,
    _FixpointBase,
)
from repro.errors import SyntaxError_


def _term_vars(terms: Tuple[Term, ...]) -> Set[str]:
    return {t.name for t in terms if isinstance(t, Var)}


def free_variables(formula: Formula) -> FrozenSet[str]:
    """Names of the free individual variables of ``formula``.

    For a fixpoint ``[op S(x̄). φ](t̄)`` the free variables are those of
    ``φ`` minus ``x̄``, plus the variables of the argument terms ``t̄``
    (the paper: "whose free variables are those in y and z").
    """
    if isinstance(formula, RelAtom):
        return frozenset(_term_vars(formula.terms))
    if isinstance(formula, Equals):
        return frozenset(_term_vars((formula.left, formula.right)))
    if isinstance(formula, Truth):
        return frozenset()
    if isinstance(formula, Not):
        return free_variables(formula.sub)
    if isinstance(formula, (And, Or)):
        out: Set[str] = set()
        for sub in formula.subs:
            out |= free_variables(sub)
        return frozenset(out)
    if isinstance(formula, (Exists, Forall)):
        return free_variables(formula.sub) - {formula.var.name}
    if isinstance(formula, _FixpointBase):
        bound = {v.name for v in formula.bound_vars}
        return frozenset(
            (free_variables(formula.body) - bound) | _term_vars(formula.args)
        )
    if isinstance(formula, SOExists):
        return free_variables(formula.body)
    raise SyntaxError_(f"unknown formula node {formula!r}")


def variable_names(formula: Formula) -> FrozenSet[str]:
    """All distinct individual variable names occurring in ``formula``."""
    names: Set[str] = set()
    for node in formula.walk():
        if isinstance(node, RelAtom):
            names |= _term_vars(node.terms)
        elif isinstance(node, Equals):
            names |= _term_vars((node.left, node.right))
        elif isinstance(node, (Exists, Forall)):
            names.add(node.var.name)
        elif isinstance(node, _FixpointBase):
            names |= {v.name for v in node.bound_vars}
            names |= _term_vars(node.args)
    return frozenset(names)


def variable_width(formula: Formula) -> int:
    """The number of distinct individual variables — the ``k`` of ``L^k``."""
    return len(variable_names(formula))


def free_relation_variables(formula: Formula) -> FrozenSet[str]:
    """Relation names used in ``formula`` and not bound within it.

    The result mixes database relation symbols with genuinely free relation
    variables; callers that know the schema can separate the two.  Fixpoint
    operators and second-order quantifiers are the binders.
    """
    if isinstance(formula, RelAtom):
        return frozenset({formula.name})
    if isinstance(formula, (Equals, Truth)):
        return frozenset()
    if isinstance(formula, Not):
        return free_relation_variables(formula.sub)
    if isinstance(formula, (And, Or)):
        out: Set[str] = set()
        for sub in formula.subs:
            out |= free_relation_variables(sub)
        return frozenset(out)
    if isinstance(formula, (Exists, Forall)):
        return free_relation_variables(formula.sub)
    if isinstance(formula, _FixpointBase):
        return free_relation_variables(formula.body) - {formula.rel}
    if isinstance(formula, SOExists):
        return free_relation_variables(formula.body) - {formula.rel}
    raise SyntaxError_(f"unknown formula node {formula!r}")

