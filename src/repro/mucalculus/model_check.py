"""Direct fixpoint model checking for the µ-calculus.

The textbook semantics: ``‖φ‖`` is a set of states, fixpoints iterate
over the (finite) powerset lattice.  This checker is the reference
implementation against which the FP² route
(:mod:`repro.mucalculus.to_fp` + the bounded-variable query engine) is
property-tested — the agreement *is* the paper's Section 1 claim made
executable.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.errors import EvaluationError
from repro.guard.budget import GuardLike, NULL_GUARD
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.mucalculus.kripke import KripkeStructure
from repro.mucalculus.syntax import (
    Box,
    Diamond,
    Mu,
    MuAnd,
    MuFormula,
    MuOr,
    Nu,
    Prop,
    PropNeg,
    RecVar,
    check_closed,
)

StateSet = FrozenSet[int]


def model_check(
    structure: KripkeStructure,
    formula: MuFormula,
    environment: Optional[Dict[str, StateSet]] = None,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
) -> StateSet:
    """The denotation ``‖formula‖`` ⊆ states of ``structure``.

    With tracing on, every µ/ν subformula shows up as a ``mu.fixpoint``
    span annotated with its recursion variable, iteration count, and
    final denotation size.  With a guard, every Kleene iteration of every
    fixpoint is a charged checkpoint.
    """
    if environment is None:
        check_closed(formula)
    env = dict(environment or {})
    return _denote(structure, formula, env, tracer, guard)


def holds_at(structure: KripkeStructure, formula: MuFormula, state: int) -> bool:
    """Does ``state ⊨ formula``?"""
    return state in model_check(structure, formula)


def _denote(
    structure: KripkeStructure,
    formula: MuFormula,
    env: Dict[str, StateSet],
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
) -> StateSet:
    all_states = frozenset(range(structure.num_states))
    if isinstance(formula, Prop):
        return frozenset(
            s for s in all_states if structure.proposition_holds(formula.name, s)
        )
    if isinstance(formula, PropNeg):
        return frozenset(
            s
            for s in all_states
            if not structure.proposition_holds(formula.name, s)
        )
    if isinstance(formula, RecVar):
        try:
            return env[formula.name]
        except KeyError:
            raise EvaluationError(
                f"unbound recursion variable {formula.name!r}"
            ) from None
    if isinstance(formula, MuAnd):
        result = all_states
        for sub in formula.subs:
            result &= _denote(structure, sub, env, tracer, guard)
        return result
    if isinstance(formula, MuOr):
        result: StateSet = frozenset()
        for sub in formula.subs:
            result |= _denote(structure, sub, env, tracer, guard)
        return result
    if isinstance(formula, Diamond):
        target = _denote(structure, formula.sub, env, tracer, guard)
        return frozenset(
            u for u, v in structure.transitions if v in target
        )
    if isinstance(formula, Box):
        target = _denote(structure, formula.sub, env, tracer, guard)
        return frozenset(
            s for s in all_states if structure.successors(s) <= target
        )
    if isinstance(formula, (Mu, Nu)):
        if not tracer.enabled:
            current, _ = _iterate_fixpoint(
                structure, formula, env, all_states, tracer, guard
            )
            return current
        kind = "mu" if isinstance(formula, Mu) else "nu"
        with tracer.span("mu.fixpoint", var=formula.var, kind=kind) as span:
            current, iterations = _iterate_fixpoint(
                structure, formula, env, all_states, tracer, guard
            )
            span.set(iterations=iterations, size=len(current))
        return current
    raise EvaluationError(f"unknown µ-calculus node {formula!r}")


def _iterate_fixpoint(
    structure: KripkeStructure,
    formula: MuFormula,
    env: Dict[str, StateSet],
    all_states: StateSet,
    tracer: TracerLike,
    guard: GuardLike = NULL_GUARD,
):
    """Kleene iteration for a µ (from ∅) or ν (from all states) node."""
    current: StateSet = frozenset() if isinstance(formula, Mu) else all_states
    iterations = 0
    while True:
        iterations += 1
        if guard.enabled:
            guard.charge_iteration(
                var=formula.var, iteration=iterations, size=len(current)
            )
        env[formula.var] = current
        after = _denote(structure, formula.sub, env, tracer, guard)
        del env[formula.var]
        if after == current:
            return current, iterations
        current = after
