"""Abstract syntax of the propositional µ-calculus (Kozen's Lµ).

Formulas are in positive normal form — negation applies to propositions
only — which guarantees every recursion variable occurs positively, the
well-formedness condition the fixpoint semantics needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Tuple

from repro.errors import SyntaxError_


class MuFormula:
    """Base class for µ-calculus formula nodes."""

    def children(self) -> Tuple["MuFormula", ...]:
        return ()

    def walk(self) -> Iterator["MuFormula"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        return sum(1 for _ in self.walk())

    def __and__(self, other: "MuFormula") -> "MuFormula":
        return MuAnd((self, other))

    def __or__(self, other: "MuFormula") -> "MuFormula":
        return MuOr((self, other))


@dataclass(frozen=True)
class Prop(MuFormula):
    """An atomic proposition ``p``."""

    name: str


@dataclass(frozen=True)
class PropNeg(MuFormula):
    """A negated proposition ``¬p`` (negation normal form)."""

    name: str


@dataclass(frozen=True)
class RecVar(MuFormula):
    """A recursion variable bound by an enclosing µ or ν."""

    name: str


@dataclass(frozen=True)
class MuAnd(MuFormula):
    subs: Tuple[MuFormula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subs", tuple(self.subs))

    def children(self) -> Tuple[MuFormula, ...]:
        return self.subs


@dataclass(frozen=True)
class MuOr(MuFormula):
    subs: Tuple[MuFormula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subs", tuple(self.subs))

    def children(self) -> Tuple[MuFormula, ...]:
        return self.subs


@dataclass(frozen=True)
class Diamond(MuFormula):
    """``◇φ`` — some successor satisfies φ (EX in CTL terms)."""

    sub: MuFormula

    def children(self) -> Tuple[MuFormula, ...]:
        return (self.sub,)


@dataclass(frozen=True)
class Box(MuFormula):
    """``□φ`` — every successor satisfies φ (AX in CTL terms)."""

    sub: MuFormula

    def children(self) -> Tuple[MuFormula, ...]:
        return (self.sub,)


@dataclass(frozen=True)
class Mu(MuFormula):
    """``µX.φ`` — least fixpoint."""

    var: str
    sub: MuFormula

    def children(self) -> Tuple[MuFormula, ...]:
        return (self.sub,)


@dataclass(frozen=True)
class Nu(MuFormula):
    """``νX.φ`` — greatest fixpoint."""

    var: str
    sub: MuFormula

    def children(self) -> Tuple[MuFormula, ...]:
        return (self.sub,)


def free_recursion_variables(formula: MuFormula) -> FrozenSet[str]:
    """Recursion variables not bound within ``formula``."""
    if isinstance(formula, RecVar):
        return frozenset({formula.name})
    if isinstance(formula, (Mu, Nu)):
        return free_recursion_variables(formula.sub) - {formula.var}
    out: FrozenSet[str] = frozenset()
    for child in formula.children():
        out |= free_recursion_variables(child)
    return out


def check_closed(formula: MuFormula) -> None:
    """Raise unless every recursion variable is bound."""
    free = free_recursion_variables(formula)
    if free:
        raise SyntaxError_(
            f"µ-calculus formula has unbound recursion variables "
            f"{sorted(free)}"
        )


def mu_alternation_depth(formula: MuFormula) -> int:
    """Dependent µ/ν alternation depth (the [EL86] complexity parameter)."""
    if isinstance(formula, (Mu, Nu)):
        opposite = Nu if isinstance(formula, Mu) else Mu
        best = max(1, mu_alternation_depth(formula.sub))
        for node in formula.sub.walk():
            if isinstance(node, opposite) and formula.var in (
                free_recursion_variables(node)
            ):
                best = max(best, 1 + mu_alternation_depth(node))
        return best
    return max(
        (mu_alternation_depth(c) for c in formula.children()), default=0
    )
