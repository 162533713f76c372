"""Capture-avoiding substitution and renaming.

Used by the bounded-variable rewrites (Section 2.2's FO^3 path trick works by
*reusing* variables, which only makes sense with precise scoping), by the
lower-bound reductions (Prop 3.2 substitutes a formula for a relation atom),
and by the naive reference evaluator.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, Mapping, Set, Tuple

from repro.errors import SyntaxError_
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
from repro.logic.variables import variable_names


def fresh_names(avoid: Iterable[str], prefix: str = "v") -> Iterator[str]:
    """An endless supply of variable names not clashing with ``avoid``."""
    used: Set[str] = set(avoid)
    for i in itertools.count():
        candidate = f"{prefix}{i}"
        if candidate not in used:
            used.add(candidate)
            yield candidate


def _subst_term(term: Term, mapping: Mapping[str, Term]) -> Term:
    if isinstance(term, Var) and term.name in mapping:
        return mapping[term.name]
    return term


def substitute(formula: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Simultaneously substitute terms for free individual variables.

    Bound variables are renamed when they would capture a variable of a
    substituted term.

    >>> from repro.logic.parser import parse_formula
    >>> from repro.logic.printer import format_formula
    >>> phi = parse_formula("exists y. E(x, y)")
    >>> format_formula(substitute(phi, {"x": Var("y")}))
    'exists v0. E(y, v0)'
    """
    if not mapping:
        return formula
    inserted: Set[str] = set()
    for t in mapping.values():
        if isinstance(t, Var):
            inserted.add(t.name)
    return _subst(formula, dict(mapping), inserted)


def _subst(
    formula: Formula, mapping: Dict[str, Term], inserted: Set[str]
) -> Formula:
    if isinstance(formula, RelAtom):
        return RelAtom(
            formula.name, tuple(_subst_term(t, mapping) for t in formula.terms)
        )
    if isinstance(formula, Equals):
        return Equals(
            _subst_term(formula.left, mapping), _subst_term(formula.right, mapping)
        )
    if isinstance(formula, Truth):
        return formula
    if isinstance(formula, Not):
        return Not(_subst(formula.sub, mapping, inserted))
    if isinstance(formula, And):
        return And(tuple(_subst(s, mapping, inserted) for s in formula.subs))
    if isinstance(formula, Or):
        return Or(tuple(_subst(s, mapping, inserted) for s in formula.subs))
    if isinstance(formula, (Exists, Forall)):
        var, sub = _rebind_one(formula.var, formula.sub, mapping, inserted)
        node = Exists if isinstance(formula, Exists) else Forall
        return node(var, sub)
    if isinstance(formula, _FixpointBase):
        new_args = tuple(_subst_term(t, mapping) for t in formula.args)
        new_bound, new_body = _rebind_many(
            formula.bound_vars, formula.body, mapping, inserted
        )
        return type(formula)(formula.rel, new_bound, new_body, new_args)
    if isinstance(formula, SOExists):
        return SOExists(
            formula.rel, formula.arity, _subst(formula.body, mapping, inserted)
        )
    raise SyntaxError_(f"unknown formula node {formula!r}")


def _rebind_one(
    var: Var, body: Formula, mapping: Dict[str, Term], inserted: Set[str]
) -> Tuple[Var, Formula]:
    new_vars, new_body = _rebind_many((var,), body, mapping, inserted)
    return new_vars[0], new_body


def _rebind_many(
    bound: Tuple[Var, ...],
    body: Formula,
    mapping: Dict[str, Term],
    inserted: Set[str],
) -> Tuple[Tuple[Var, ...], Formula]:
    """Substitute inside a binder, renaming bound variables on capture."""
    bound_names = {v.name for v in bound}
    inner_mapping = {k: v for k, v in mapping.items() if k not in bound_names}
    needs_rename = [v for v in bound if v.name in inserted]
    if needs_rename and inner_mapping:
        avoid = (
            set(variable_names(body))
            | inserted
            | set(inner_mapping)
            | bound_names
        )
        supply = fresh_names(avoid)
        renaming: Dict[str, Term] = {}
        new_bound = []
        for v in bound:
            if v in needs_rename:
                fresh = Var(next(supply))
                renaming[v.name] = fresh
                new_bound.append(fresh)
            else:
                new_bound.append(v)
        body = substitute(body, renaming)
        inner_mapping = {
            k: v for k, v in mapping.items() if k not in {b.name for b in new_bound}
        }
        return tuple(new_bound), _subst(body, inner_mapping, inserted)
    if not inner_mapping:
        return tuple(bound), body
    return tuple(bound), _subst(body, inner_mapping, inserted)


def substitute_relation(
    formula: Formula, rel: str, params: Tuple[Var, ...], definition: Formula
) -> Formula:
    """Replace free atoms ``rel(t̄)`` by ``definition[params := t̄]``.

    This is the macro-expansion used in the paper's Prop 3.2 reduction, where
    ``φ_n(x)`` is ``φ`` with ``P(x)`` replaced by ``φ_{n-1}(x)``.  Occurrences
    of ``rel`` under a binder for the same name are left alone.
    """
    if isinstance(formula, RelAtom):
        if formula.name != rel:
            return formula
        if len(formula.terms) != len(params):
            raise SyntaxError_(
                f"atom {rel} has {len(formula.terms)} arguments, definition "
                f"has {len(params)} parameters"
            )
        return substitute(
            definition, {p.name: t for p, t in zip(params, formula.terms)}
        )
    if isinstance(formula, (Equals, Truth)):
        return formula
    if isinstance(formula, Not):
        return Not(substitute_relation(formula.sub, rel, params, definition))
    if isinstance(formula, And):
        return And(
            tuple(substitute_relation(s, rel, params, definition) for s in formula.subs)
        )
    if isinstance(formula, Or):
        return Or(
            tuple(substitute_relation(s, rel, params, definition) for s in formula.subs)
        )
    if isinstance(formula, Exists):
        return Exists(
            formula.var, substitute_relation(formula.sub, rel, params, definition)
        )
    if isinstance(formula, Forall):
        return Forall(
            formula.var, substitute_relation(formula.sub, rel, params, definition)
        )
    if isinstance(formula, _FixpointBase):
        if formula.rel == rel:
            return formula
        return type(formula)(
            formula.rel,
            formula.bound_vars,
            substitute_relation(formula.body, rel, params, definition),
            formula.args,
        )
    if isinstance(formula, SOExists):
        if formula.rel == rel:
            return formula
        return SOExists(
            formula.rel,
            formula.arity,
            substitute_relation(formula.body, rel, params, definition),
        )
    raise SyntaxError_(f"unknown formula node {formula!r}")


def rename_bound_apart(formula: Formula) -> Formula:
    """Rename bound individual variables so no name is bound twice.

    Free variables keep their names.  The result is logically equivalent but
    generally *wider* (uses more variable names) — it is the inverse
    direction of the variable-minimization optimizer.
    """
    supply = fresh_names(variable_names(formula))
    return _apart(formula, {}, supply)


def _apart(
    formula: Formula, renaming: Dict[str, Term], supply: Iterator[str]
) -> Formula:
    if isinstance(formula, RelAtom):
        return RelAtom(
            formula.name, tuple(_subst_term(t, renaming) for t in formula.terms)
        )
    if isinstance(formula, Equals):
        return Equals(
            _subst_term(formula.left, renaming),
            _subst_term(formula.right, renaming),
        )
    if isinstance(formula, Truth):
        return formula
    if isinstance(formula, Not):
        return Not(_apart(formula.sub, renaming, supply))
    if isinstance(formula, And):
        return And(tuple(_apart(s, renaming, supply) for s in formula.subs))
    if isinstance(formula, Or):
        return Or(tuple(_apart(s, renaming, supply) for s in formula.subs))
    if isinstance(formula, (Exists, Forall)):
        fresh = Var(next(supply))
        inner = dict(renaming)
        inner[formula.var.name] = fresh
        node = Exists if isinstance(formula, Exists) else Forall
        return node(fresh, _apart(formula.sub, inner, supply))
    if isinstance(formula, _FixpointBase):
        fresh_bound = tuple(Var(next(supply)) for _ in formula.bound_vars)
        inner = dict(renaming)
        for old, new in zip(formula.bound_vars, fresh_bound):
            inner[old.name] = new
        return type(formula)(
            formula.rel,
            fresh_bound,
            _apart(formula.body, inner, supply),
            tuple(_subst_term(t, renaming) for t in formula.args),
        )
    if isinstance(formula, SOExists):
        return SOExists(
            formula.rel, formula.arity, _apart(formula.body, renaming, supply)
        )
    raise SyntaxError_(f"unknown formula node {formula!r}")
