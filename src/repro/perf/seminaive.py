"""Semi-naive (differential) ascending fixpoints for FP^k bodies.

Naive ascent recomputes ``φ(S_i)`` from scratch every round — each round
re-joins against the *whole* accumulated relation, wasting exactly the
``n^k`` bound the paper fights for.  Datalog engines avoid this by
firing rules only against the last round's *delta*
(:func:`repro.datalog.engine.semi_naive`); this module generalizes the
trick from rule bodies to arbitrary positive FO bodies.

Given a body ``φ`` recursing through relation variable ``S``, the
*differential* ``D(φ)`` is a formula over ``S`` and a fresh delta
relation ``ΔS``:

* ``S(t̄)``              → ``ΔS(t̄)``
* node without ``S`` free → ``false``  (its value cannot change)
* ``φ ∨ ψ``              → ``D(φ) ∨ D(ψ)``
* ``φ ∧ ψ``              → ``(D(φ) ∧ ψ) ∨ (φ ∧ D(ψ))``
  (n-ary: one disjunct per conjunct, the others at their current value)
* ``∃x φ``               → ``∃x D(φ)``
* anything else containing ``S`` free (``¬``, ``∀``, a nested fixpoint,
  ``∃X``) → the node itself — a conservative whole-node fallback that
  recomputes the subtree at ``S_i``.

The transform keeps the soundness sandwich

    ``φ(S_i) \\ φ(S_{i-1})  ⊆  D(φ)[S ↦ S_i, ΔS ↦ Δ_i]  ⊆  φ(S_i)``

where ``Δ_i = S_i \\ S_{i-1}``: every disjunct of ``D`` is a conjunct-wise
weakening of ``φ`` (upper bound), and any assignment new at round ``i``
must make some conjunct newly true, whose differential then covers it
(lower bound; monotonicity makes the other conjuncts, at their *current*
value, still true).  Iterating ``S_{i+1} = S_i ∪ eval(D)`` therefore
reproduces the Kleene chain ``φ^i(∅)`` exactly and stops at the least
fixpoint — this is what the differential test harness
(``tests/test_differential.py``) checks tuple-for-tuple against the
naive strategies and against :mod:`repro.core.naive_eval`.

False disjuncts are simplified away as the transform builds them:
``D`` of a conjunct without ``S`` is ``false``, and keeping a
``false ∧ ψ`` disjunct would re-materialize ``ψ``'s full table every
round, defeating the point.

This module is a pure formula transform; the ascent itself is the
delta round rule of :class:`repro.core.fp_eval.KleeneSolver`, used
under ``FixpointStrategy.SEMINAIVE``.  Only least fixpoints with a
*positively* bound recursion variable get the differential treatment
(the sandwich needs monotonicity).  GFP, IFP, PFP, and non-positive
LFP bodies (possible when positivity checking is disabled) keep the
full body, so the strategy is safe as a drop-in for any query.
"""

from __future__ import annotations

from typing import Set

from repro.logic.syntax import And, Exists, Formula, Or, RelAtom, Truth
from repro.logic.variables import free_relation_variables

_FALSE = Truth(False)


def delta_relation_name(rel: str, avoid: Set[str]) -> str:
    """A fresh relation name for the delta of ``rel``."""
    base = f"{rel}__delta"
    name = base
    suffix = 0
    while name in avoid:
        suffix += 1
        name = f"{base}{suffix}"
    return name


def _is_false(formula: Formula) -> bool:
    return isinstance(formula, Truth) and not formula.value


def _or_of(parts) -> Formula:
    """A simplified disjunction: false disjuncts dropped, singletons
    unwrapped.  An empty disjunction is ``false``."""
    live = [p for p in parts if not _is_false(p)]
    if not live:
        return _FALSE
    if len(live) == 1:
        return live[0]
    return Or(tuple(live))


def differential(formula: Formula, rel: str, delta_rel: str) -> Formula:
    """The delta-restricted formula ``D(formula)`` described above.

    ``D`` is ``false`` exactly when no new assignment can appear — in
    particular for any subtree in which ``rel`` does not occur free.
    """
    if rel not in free_relation_variables(formula):
        return _FALSE
    if isinstance(formula, RelAtom):
        # rel occurs free, so this atom *is* the recursion variable
        return RelAtom(delta_rel, formula.terms)
    if isinstance(formula, Or):
        return _or_of(
            differential(sub, rel, delta_rel) for sub in formula.subs
        )
    if isinstance(formula, And):
        disjuncts = []
        for i, sub in enumerate(formula.subs):
            dsub = differential(sub, rel, delta_rel)
            if _is_false(dsub):
                continue
            conjuncts = list(formula.subs)
            conjuncts[i] = dsub
            disjuncts.append(And(tuple(conjuncts)))
        return _or_of(disjuncts)
    if isinstance(formula, Exists):
        dsub = differential(formula.sub, rel, delta_rel)
        if _is_false(dsub):
            return _FALSE
        return Exists(formula.var, dsub)
    # Not / Forall / nested fixpoints / SOExists with rel free: no cheap
    # differential — recompute the whole subtree at the current S
    return formula


__all__ = ["delta_relation_name", "differential"]
