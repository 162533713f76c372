"""Structural analyses: positivity, alternation depth, language class.

These implement the side conditions and the complexity parameters of
Section 2.2 / Section 3.2:

* least/greatest fixpoints require their recursion variable to occur
  *positively* (under an even number of negations);
* the cost of naive nested fixpoint evaluation is ``n^{k·l}`` where ``l`` is
  the *alternation depth* — the nesting depth of alternating, mutually
  dependent least and greatest fixpoints;
* Table rows are per-language, so formulas are classified into
  FO ⊂ FP ⊂ PFP and ESO.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.errors import PositivityError, SyntaxError_
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


class Language(enum.Enum):
    """The four query languages of the paper, ordered by expressive power."""

    FO = "FO"
    FP = "FP"
    PFP = "PFP"
    ESO = "ESO"


def classify_language(formula: Formula) -> Language:
    """Smallest of the paper's languages containing ``formula``.

    A formula with both second-order quantifiers and fixpoints has no slot in
    the paper's taxonomy; we classify it as ESO if any ``∃S`` occurs (ESO's
    matrix is first-order in the paper, but the engine is more liberal).
    """
    has_so = False
    has_pfp = False
    has_fp = False
    for node in formula.walk():
        if isinstance(node, SOExists):
            has_so = True
        elif isinstance(node, (PFP, IFP)):
            has_pfp = True
        elif isinstance(node, (LFP, GFP)):
            has_fp = True
    if has_so:
        return Language.ESO
    if has_pfp:
        return Language.PFP
    if has_fp:
        return Language.FP
    return Language.FO


def polarity_of(formula: Formula, rel: str) -> Optional[str]:
    """Polarity with which relation ``rel`` occurs free in ``formula``.

    Returns ``"positive"``, ``"negative"``, ``"both"``, or ``None`` when the
    relation does not occur free.  Universal quantifiers and conjunction do
    not flip polarity; only negation does.
    """
    pos, neg = _polarities(formula, rel, positive=True)
    if pos and neg:
        return "both"
    if pos:
        return "positive"
    if neg:
        return "negative"
    return None


def _polarities(formula: Formula, rel: str, positive: bool) -> Tuple[bool, bool]:
    if isinstance(formula, RelAtom):
        if formula.name == rel:
            return (positive, not positive)
        return (False, False)
    if isinstance(formula, (Equals, Truth)):
        return (False, False)
    if isinstance(formula, Not):
        return _polarities(formula.sub, rel, not positive)
    if isinstance(formula, (And, Or)):
        pos = neg = False
        for sub in formula.subs:
            p, n = _polarities(sub, rel, positive)
            pos, neg = pos or p, neg or n
        return (pos, neg)
    if isinstance(formula, (Exists, Forall)):
        return _polarities(formula.sub, rel, positive)
    if isinstance(formula, _FixpointBase):
        if formula.rel == rel:
            return (False, False)
        return _polarities(formula.body, rel, positive)
    if isinstance(formula, SOExists):
        if formula.rel == rel:
            return (False, False)
        return _polarities(formula.body, rel, positive)
    raise SyntaxError_(f"unknown formula node {formula!r}")


def check_positivity(formula: Formula) -> None:
    """Raise :class:`PositivityError` unless every LFP/GFP is monotone.

    Every least or greatest fixpoint in the tree must bind its recursion
    variable positively in its body.  PFP and IFP are exempt by definition.
    """
    for node in formula.walk():
        if isinstance(node, (LFP, GFP)):
            polarity = polarity_of(node.body, node.rel)
            if polarity in ("negative", "both"):
                kind = "lfp" if isinstance(node, LFP) else "gfp"
                raise PositivityError(
                    f"recursion variable {node.rel!r} occurs {polarity}ly in "
                    f"the body of a {kind} operator"
                )


def quantifier_rank(formula: Formula) -> int:
    """Maximum nesting depth of first-order quantifiers.

    The classical Ehrenfeucht-Fraïssé parameter; contrast with
    :func:`repro.logic.variables.variable_width`: the FO^3 path queries
    have rank Θ(n) but width 3 — rank measures *rounds*, width measures
    *pebbles*.  Fixpoint bodies and second-order bodies count through.
    """
    if isinstance(formula, (RelAtom, Equals, Truth)):
        return 0
    if isinstance(formula, (Exists, Forall)):
        return 1 + quantifier_rank(formula.sub)
    return max(
        (quantifier_rank(c) for c in formula.children()), default=0
    )


def fixpoint_nesting_depth(formula: Formula) -> int:
    """Maximum depth of syntactically nested fixpoint operators."""
    if isinstance(formula, _FixpointBase):
        return 1 + fixpoint_nesting_depth(formula.body)
    return max(
        (fixpoint_nesting_depth(c) for c in formula.children()), default=0
    )


def alternation_depth(formula: Formula) -> int:
    """Alternation depth ``l`` of least/greatest fixpoints.

    The standard dependent notion: ``ad(φ) = 0`` for fixpoint-free ``φ``,
    and for ``σ ∈ {μ, ν}``::

        ad(σS. φ) = max(1, ad(φ),
                        1 + max{ ad(σ'T. ψ) : σ'T. ψ a subformula of φ of
                                 the opposite kind with S free in it })

    Independent nesting (the inner fixpoint never mentions ``S``) does not
    alternate.  This is the parameter ``l`` of the naive ``n^{k·l}`` cost in
    Section 3.2 and of Theorem 3.5's ``l·n^k`` speed-up.  PFP/IFP operators
    contribute their nesting but have no μ/ν alternation notion.
    """
    from repro.logic.variables import free_relation_variables

    if isinstance(formula, (LFP, GFP)):
        opposite = GFP if isinstance(formula, LFP) else LFP
        best = max(1, alternation_depth(formula.body))
        for sub in formula.body.walk():
            if isinstance(sub, opposite) and formula.rel in free_relation_variables(
                sub
            ):
                best = max(best, 1 + alternation_depth(sub))
        return best
    if isinstance(formula, (PFP, IFP)):
        return max(1, alternation_depth(formula.body))
    return max(
        (alternation_depth(c) for c in formula.children()), default=0
    )


def _kind_of(node: _FixpointBase) -> str:
    if isinstance(node, LFP):
        return "lfp"
    if isinstance(node, GFP):
        return "gfp"
    if isinstance(node, PFP):
        return "pfp"
    if isinstance(node, IFP):
        return "ifp"
    raise SyntaxError_(f"unknown fixpoint node {node!r}")


def max_so_arity(formula: Formula) -> int:
    """Largest arity of any second-order quantified relation.

    In ESO^k this is *not* bounded by k before the Lemma 3.6 rewriting —
    that unboundedness is exactly the difficulty Section 3.3 addresses.
    """
    return max(
        (n.arity for n in formula.walk() if isinstance(n, SOExists)), default=0
    )
