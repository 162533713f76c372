"""Reference semantics: a slow, obviously-correct recursive evaluator.

This module is the testing oracle for every other engine in the library.  It
evaluates formulas by direct recursion over assignments, with no sharing, no
tables, and no cleverness:

* quantifiers loop over the domain;
* LFP/GFP run the textbook Kleene iterations from ``∅`` / ``D^m``;
* PFP iterates from ``∅`` and returns the limit, or ``∅`` when the sequence
  cycles without converging (Section 2.2's convention);
* IFP iterates ``S ∪ φ(S)``;
* ``∃S`` enumerates *all* ``2^(n^arity)`` relations — exponential, exactly
  the naive approach Section 3.3 says "does not work"; it is guarded by an
  explicit budget so tests cannot hang.

One stage loop, :func:`kleene_stages`, serves every fixpoint kind; it is
public because the ``explain --why`` witnesses of
:mod:`repro.obs.provenance` cite its stages, so the same semantics that
judges the engines also builds and checks the witnesses.

Everything here favours clarity over speed.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.database.database import Database
from repro.database.domain import Value
from repro.database.relation import Relation
from repro.errors import EvaluationError
from repro.logic.syntax import (
    And,
    Const,
    Equals,
    Exists,
    Forall,
    Formula,
    GFP,
    IFP,
    LFP,
    Not,
    Or,
    PFP,
    RelAtom,
    SOExists,
    Term,
    Truth,
    Var,
    _FixpointBase,
)
from repro.logic.variables import free_variables

RelEnv = Mapping[str, Relation]

#: Default budget on ``n^arity`` for naive second-order enumeration: the
#: enumeration visits ``2^(n^arity)`` candidate relations per quantifier.
DEFAULT_SO_BUDGET = 16


def _term_value(term: Term, assignment: Mapping[str, Value]) -> Value:
    if isinstance(term, Var):
        try:
            return assignment[term.name]
        except KeyError:
            raise EvaluationError(
                f"unbound variable {term.name!r}"
            ) from None
    if isinstance(term, Const):
        return term.value
    raise EvaluationError(f"unknown term {term!r}")


def holds(
    formula: Formula,
    db: Database,
    assignment: Optional[Mapping[str, Value]] = None,
    rel_env: Optional[RelEnv] = None,
    so_budget: int = DEFAULT_SO_BUDGET,
) -> bool:
    """Does ``(B, assignment) ⊨ formula``?

    ``assignment`` must bind every free individual variable; ``rel_env``
    binds relation variables (innermost fixpoint/second-order bindings
    shadow database relations of the same name).
    """
    a = dict(assignment or {})
    env = dict(rel_env or {})
    return _holds(formula, db, a, env, so_budget)


def _lookup_relation(name: str, db: Database, env: Dict[str, Relation]) -> Relation:
    if name in env:
        return env[name]
    return db.relation(name)


def _holds(
    formula: Formula,
    db: Database,
    assignment: Dict[str, Value],
    env: Dict[str, Relation],
    so_budget: int,
) -> bool:
    if isinstance(formula, RelAtom):
        rel = _lookup_relation(formula.name, db, env)
        row = tuple(_term_value(t, assignment) for t in formula.terms)
        if len(row) != rel.arity:
            raise EvaluationError(
                f"atom {formula.name} has {len(row)} arguments, relation "
                f"has arity {rel.arity}"
            )
        return row in rel
    if isinstance(formula, Equals):
        return _term_value(formula.left, assignment) == _term_value(
            formula.right, assignment
        )
    if isinstance(formula, Truth):
        return formula.value
    if isinstance(formula, Not):
        return not _holds(formula.sub, db, assignment, env, so_budget)
    if isinstance(formula, And):
        return all(
            _holds(s, db, assignment, env, so_budget) for s in formula.subs
        )
    if isinstance(formula, Or):
        return any(
            _holds(s, db, assignment, env, so_budget) for s in formula.subs
        )
    if isinstance(formula, Exists):
        name = formula.var.name
        saved = assignment.get(name, _MISSING)
        try:
            for value in db.domain:
                assignment[name] = value
                if _holds(formula.sub, db, assignment, env, so_budget):
                    return True
            return False
        finally:
            _restore(assignment, name, saved)
    if isinstance(formula, Forall):
        name = formula.var.name
        saved = assignment.get(name, _MISSING)
        try:
            for value in db.domain:
                assignment[name] = value
                if not _holds(formula.sub, db, assignment, env, so_budget):
                    return False
            return True
        finally:
            _restore(assignment, name, saved)
    if isinstance(formula, _FixpointBase):
        stages, diverged = kleene_stages(
            formula, db, assignment, env, so_budget
        )
        row = tuple(_term_value(t, assignment) for t in formula.args)
        return not diverged and row in stages[-1]
    if isinstance(formula, SOExists):
        return _so_exists(formula, db, assignment, env, so_budget)
    raise EvaluationError(f"unknown formula node {formula!r}")


_MISSING = object()


def _restore(assignment: Dict[str, Value], name: str, saved: object) -> None:
    if saved is _MISSING:
        assignment.pop(name, None)
    else:
        assignment[name] = saved  # type: ignore[assignment]


def _apply_operator(
    node: _FixpointBase,
    db: Database,
    assignment: Dict[str, Value],
    env: Dict[str, Relation],
    current: Relation,
    so_budget: int,
) -> Relation:
    """One application of the operator ``φ``: ``{t̄ : φ(t̄, current)}``."""
    inner_env = dict(env)
    inner_env[node.rel] = current
    names = [v.name for v in node.bound_vars]
    saved = {name: assignment.get(name, _MISSING) for name in names}
    rows = []
    try:
        for combo in db.domain.tuples(node.arity):
            for name, value in zip(names, combo):
                assignment[name] = value
            if _holds(node.body, db, assignment, inner_env, so_budget):
                rows.append(combo)
    finally:
        for name in names:
            _restore(assignment, name, saved[name])
    return Relation(node.arity, rows)


def kleene_stages(
    node: _FixpointBase,
    db: Database,
    assignment: Optional[Mapping[str, Value]] = None,
    rel_env: Optional[RelEnv] = None,
    so_budget: int = DEFAULT_SO_BUDGET,
) -> Tuple[List[Relation], bool]:
    """The Kleene stages of a fixpoint node and whether they diverge.

    ``stages[0]`` is the start (``∅``, or ``D^m`` for GFP); each later
    stage applies the operator once more (``S ∪ φ(S)`` for IFP), and the
    last is the limit.  ``diverged`` is True only for a PFP whose
    sequence cycles without converging: its last stage then repeats an
    earlier one, and the partial fixpoint is ``∅`` by Section 2.2's
    convention.  ``assignment`` binds the node's free individual
    variables, ``rel_env`` its free relation variables.
    """
    a = dict(assignment or {})
    env = dict(rel_env or {})
    arity = node.arity
    if isinstance(node, GFP):
        current = Relation(arity, db.domain.tuples(arity))
    elif isinstance(node, (LFP, IFP, PFP)):
        current = Relation.empty(arity)
    else:
        raise EvaluationError(f"unknown fixpoint node {node!r}")
    stages = [current]
    seen = {current}
    while True:
        after = _apply_operator(node, db, a, env, current, so_budget)
        if isinstance(node, IFP):
            after = current.union(after)
        if after == current:
            return stages, False
        stages.append(after)
        if isinstance(node, PFP):
            if after in seen:
                return stages, True
            seen.add(after)
        current = after


def _so_exists(
    node: SOExists,
    db: Database,
    assignment: Dict[str, Value],
    env: Dict[str, Relation],
    so_budget: int,
) -> bool:
    universe = list(db.domain.tuples(node.arity))
    if len(universe) > so_budget:
        raise EvaluationError(
            f"naive second-order enumeration over {len(universe)} potential "
            f"tuples exceeds the budget of {so_budget} "
            f"(2^{len(universe)} candidate relations); use the ESO^k engine"
        )
    for size in range(len(universe) + 1):
        for chosen in itertools.combinations(universe, size):
            inner_env = dict(env)
            inner_env[node.rel] = Relation(node.arity, chosen)
            if _holds(node.body, db, assignment, inner_env, so_budget):
                return True
    return False


def naive_answer(
    formula: Formula,
    db: Database,
    output_vars: Iterable[str],
    rel_env: Optional[RelEnv] = None,
    so_budget: int = DEFAULT_SO_BUDGET,
) -> Relation:
    """The query answer ``{t̄ : B ⊨ φ(t̄)}`` by brute force.

    ``output_vars`` fixes the column order and must cover every free
    variable of the formula (extra output variables range over the domain,
    matching the paper's ``(x)φ(y)`` notation where ``y ⊆ x``).
    """
    out = tuple(output_vars)
    missing = free_variables(formula) - set(out)
    if missing:
        raise EvaluationError(
            f"output variables {out} do not cover free variables {missing}"
        )
    rows = []
    for combo in db.domain.tuples(len(out)):
        assignment = dict(zip(out, combo))
        if holds(formula, db, assignment, rel_env, so_budget):
            rows.append(combo)
    return Relation(len(out), rows)
