"""Normal forms: negation normal form and fixpoint duals.

NNF pushes negations down to atoms, turning ``¬∃`` into ``∀¬``, ``¬[lfp]``
into ``[gfp]`` of the dualized body, and ``¬[gfp]`` into ``[lfp]`` — the
duality ``t ∉ σS.φ  ⟺  t ∈ σ̄S.¬φ[S := ¬S]`` that Section 3.2 uses for the
co-NP direction of Theorem 3.5.  ``¬[pfp]``, ``¬[ifp]`` and ``¬∃S`` have no
first-class dual and stay as negations at those nodes.
"""

from __future__ import annotations

from repro.errors import SyntaxError_
from repro.logic.syntax import (
    And,
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
    Truth,
    _FixpointBase,
)
from repro.logic.substitution import substitute_relation


def negate_fixpoint_dual(node: _FixpointBase) -> Formula:
    """The dual fixpoint: ``¬[μS.φ](t̄) = [νS. ¬φ[S := ¬S]](t̄)`` and vice versa.

    Only defined for LFP/GFP; duality of the partial fixpoint fails in
    general (the pfp of the dualized body is not the complement).
    """
    if isinstance(node, LFP):
        dual = GFP
    elif isinstance(node, GFP):
        dual = LFP
    else:
        raise SyntaxError_("only lfp/gfp fixpoints have first-class duals")
    negated_rel = Not(RelAtom(node.rel, node.bound_vars))
    dual_body = Not(
        substitute_relation(node.body, node.rel, node.bound_vars, negated_rel)
    )
    return dual(node.rel, node.bound_vars, dual_body, node.args)


def to_nnf(formula: Formula) -> Formula:
    """Negation normal form of ``formula``.

    The result contains ``Not`` only immediately above atoms, equalities,
    ``pfp``/``ifp`` fixpoints, and second-order quantifiers.
    """
    return _nnf(formula, negate=False)


def _nnf(formula: Formula, negate: bool) -> Formula:
    if isinstance(formula, (RelAtom, Equals)):
        return Not(formula) if negate else formula
    if isinstance(formula, Truth):
        return Truth(formula.value != negate)
    if isinstance(formula, Not):
        return _nnf(formula.sub, not negate)
    if isinstance(formula, And):
        subs = tuple(_nnf(s, negate) for s in formula.subs)
        return Or(subs) if negate else And(subs)
    if isinstance(formula, Or):
        subs = tuple(_nnf(s, negate) for s in formula.subs)
        return And(subs) if negate else Or(subs)
    if isinstance(formula, Exists):
        sub = _nnf(formula.sub, negate)
        return Forall(formula.var, sub) if negate else Exists(formula.var, sub)
    if isinstance(formula, Forall):
        sub = _nnf(formula.sub, negate)
        return Exists(formula.var, sub) if negate else Forall(formula.var, sub)
    if isinstance(formula, (LFP, GFP)):
        if negate:
            return _nnf(negate_fixpoint_dual(formula), negate=False)
        return type(formula)(
            formula.rel,
            formula.bound_vars,
            _nnf(formula.body, negate=False),
            formula.args,
        )
    if isinstance(formula, (PFP, IFP)):
        rebuilt = type(formula)(
            formula.rel,
            formula.bound_vars,
            _nnf(formula.body, negate=False),
            formula.args,
        )
        return Not(rebuilt) if negate else rebuilt
    if isinstance(formula, SOExists):
        rebuilt = SOExists(
            formula.rel, formula.arity, _nnf(formula.body, negate=False)
        )
        return Not(rebuilt) if negate else rebuilt
    raise SyntaxError_(f"unknown formula node {formula!r}")

