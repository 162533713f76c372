"""A small fluent DSL for constructing formulas.

The AST constructors in :mod:`repro.logic.syntax` are exact but verbose;
these helpers accept bare strings for variables and desugar implication
and biconditional, so tests, examples and reductions stay readable::

    from repro.logic.builders import atom, exists, forall, implies, V

    phi = exists("y", atom("E", "x", "y") & forall("x", implies(
        atom("P", "x"), atom("E", "y", "x"))))
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

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
)

TermLike = Union[str, Term]


def V(name: str) -> Var:
    """Shorthand variable constructor."""
    return Var(name)


def C(value: object) -> Const:
    """Shorthand constant constructor."""
    return Const(value)


def _term(t: TermLike) -> Term:
    if isinstance(t, str):
        return Var(t)
    return t


def atom(name: str, *terms: TermLike) -> RelAtom:
    """``name(t1, ..., tm)`` with strings auto-promoted to variables."""
    return RelAtom(name, tuple(_term(t) for t in terms))


def eq(left: TermLike, right: TermLike) -> Equals:
    """``t1 = t2``."""
    return Equals(_term(left), _term(right))


def true_() -> Truth:
    return Truth(True)


def false_() -> Truth:
    return Truth(False)


def not_(sub: Formula) -> Not:
    return Not(sub)


def and_(*subs: Formula) -> Formula:
    """N-ary conjunction; flattens nested ``And`` nodes, drops ``true``."""
    flat = []
    for s in subs:
        if isinstance(s, And):
            flat.extend(s.subs)
        elif isinstance(s, Truth) and s.value:
            continue
        else:
            flat.append(s)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*subs: Formula) -> Formula:
    """N-ary disjunction; flattens nested ``Or`` nodes, drops ``false``."""
    flat = []
    for s in subs:
        if isinstance(s, Or):
            flat.extend(s.subs)
        elif isinstance(s, Truth) and not s.value:
            continue
        else:
            flat.append(s)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """``φ → ψ``, desugared to ``¬φ ∨ ψ``."""
    return Or((Not(antecedent), consequent))


def iff(left: Formula, right: Formula) -> Formula:
    """``φ ↔ ψ``, desugared to ``(φ → ψ) ∧ (ψ → φ)``."""
    return And((implies(left, right), implies(right, left)))


def exists(variables: Union[str, Sequence[str]], sub: Formula) -> Formula:
    """``∃x_1 ... ∃x_m φ`` — accepts one name or a sequence of names."""
    return _quantify(Exists, variables, sub)


def forall(variables: Union[str, Sequence[str]], sub: Formula) -> Formula:
    """``∀x_1 ... ∀x_m φ`` — accepts one name or a sequence of names."""
    return _quantify(Forall, variables, sub)


def _quantify(node, variables, sub: Formula) -> Formula:
    if isinstance(variables, str):
        variables = [variables]
    result = sub
    for name in reversed(list(variables)):
        result = node(Var(name), result)
    return result


def lfp(
    rel: str,
    bound_vars: Iterable[str],
    body: Formula,
    args: Iterable[TermLike],
) -> LFP:
    """``[μ rel(x̄). body](args)``."""
    return LFP(
        rel,
        tuple(Var(v) for v in bound_vars),
        body,
        tuple(_term(a) for a in args),
    )


def gfp(
    rel: str,
    bound_vars: Iterable[str],
    body: Formula,
    args: Iterable[TermLike],
) -> GFP:
    """``[ν rel(x̄). body](args)``."""
    return GFP(
        rel,
        tuple(Var(v) for v in bound_vars),
        body,
        tuple(_term(a) for a in args),
    )


def pfp(
    rel: str,
    bound_vars: Iterable[str],
    body: Formula,
    args: Iterable[TermLike],
) -> PFP:
    """``[pfp rel(x̄). body](args)``."""
    return PFP(
        rel,
        tuple(Var(v) for v in bound_vars),
        body,
        tuple(_term(a) for a in args),
    )


def ifp(
    rel: str,
    bound_vars: Iterable[str],
    body: Formula,
    args: Iterable[TermLike],
) -> IFP:
    """``[ifp rel(x̄). body](args)``."""
    return IFP(
        rel,
        tuple(Var(v) for v in bound_vars),
        body,
        tuple(_term(a) for a in args),
    )


def so_exists(rel: str, arity: int, body: Formula) -> SOExists:
    """``∃S φ`` with ``S`` of the given arity."""
    return SOExists(rel, arity, body)
