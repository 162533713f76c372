"""Query families for the benchmarks and the property tests.

* the n-step-path queries of Section 2.2 — the naive ``n+1``-variable
  form ``∃z_1..z_{n-1} (E(x,z_1) ∧ ... ∧ E(z_{n-1},y))`` and the paper's
  FO^3 form built by variable reuse:
  ``φ_{n+1}(x,y) = ∃z (E(x,z) ∧ ∃x (x = z ∧ φ_n(x,y)))``;
* chain-join queries of growing width (the Table 1 blow-up driver);
* alternating μ/ν fixpoint families of chosen depth (the Theorem 3.5
  ablation driver);
* seeded random FO^k formulas over a schema (the property-test fuzzer
  lives in the test suite; this generator serves the benchmarks).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.core.engine import Query
from repro.errors import ReproError
from repro.logic.builders import (
    and_,
    atom,
    eq,
    exists,
    forall,
    gfp,
    lfp,
    or_,
)
from repro.logic.syntax import (
    And,
    Exists,
    Formula,
    Not,
    Or,
    Var,
)


def path_query_naive(n: int, edge_name: str = "E") -> Query:
    """``x →^n y`` with ``n+1`` distinct variables (the naive Section 2.2 form)."""
    if n < 1:
        raise ReproError(f"path length must be >= 1, got {n}")
    hops: List[Formula] = []
    previous = "x"
    middles = [f"z{i}" for i in range(1, n)]
    for z in middles:
        hops.append(atom(edge_name, previous, z))
        previous = z
    hops.append(atom(edge_name, previous, "y"))
    return Query(
        exists(middles, and_(*hops)) if middles else hops[0],
        output_vars=("x", "y"),
        name=f"path-{n}-naive",
    )


def path_query_fo3(n: int, edge_name: str = "E") -> Query:
    """``x →^n y`` with three variables, by the paper's reuse trick.

    ``φ_1(x,y) = E(x,y)``;
    ``φ_{m+1}(x,y) = ∃z (E(x,z) ∧ ∃x (x = z ∧ φ_m(x,y)))``.
    """
    if n < 1:
        raise ReproError(f"path length must be >= 1, got {n}")
    phi: Formula = atom(edge_name, "x", "y")
    for _ in range(n - 1):
        phi = exists(
            "z",
            and_(atom(edge_name, "x", "z"), exists("x", and_(eq("x", "z"), phi))),
        )
    return Query(phi, output_vars=("x", "y"), name=f"path-{n}-fo3")


def chain_join_query(width: int, edge_name: str = "E") -> Query:
    """A conjunctive chain of ``width`` edge atoms over distinct variables.

    Used by the Table 1 benchmark: naive evaluation materializes a
    ``width+1``-ary intermediate, so cost grows as ``n^{width+1}``.
    """
    if width < 1:
        raise ReproError(f"chain width must be >= 1, got {width}")
    variables = [f"v{i}" for i in range(width + 1)]
    atoms = [
        atom(edge_name, variables[i], variables[i + 1]) for i in range(width)
    ]
    body = exists(variables[1:-1], and_(*atoms)) if width > 1 else atoms[0]
    return Query(
        body,
        output_vars=(variables[0], variables[-1]),
        name=f"chain-{width}",
    )


def alternating_fixpoint_family(
    depth: int, edge_name: str = "E", label_prefix: str = "P"
) -> Query:
    """A genuinely alternating μ/ν/μ/... nest of the given depth.

    Construction (unary fixpoints, three individual variables):

    * level 1:   ``[lfp X1(z). P1(z) | ∃y (E(z,y) ∧ X1(y))](w)``
    * level i:   ``[σ_i Xi(z). (Pi(z) ∧ Xi-dependence) | inner'](z...)``
      where ``inner'`` is level i-1's fixpoint with ``Xi(z)`` disjoined
      into its body — so every inner fixpoint genuinely reads the
      enclosing recursion variable and the alternation is *dependent*
      (the ``l`` of the ``n^{k·l}`` naive cost and of Theorem 3.5's
      ``l·n^k``).

    Kinds alternate lfp, gfp, lfp, ... from the inside out.  The query is
    the sentence ``∃w <depth-level fixpoint>(w)`` over a graph with
    labels ``P1 .. P<depth>``.
    """
    if depth < 1:
        raise ReproError(f"alternation depth must be >= 1, got {depth}")
    body: Formula = lfp(
        "X1",
        ["z"],
        or_(
            atom(f"{label_prefix}1", "z"),
            exists("y", and_(atom(edge_name, "z", "y"), atom("X1", "y"))),
        ),
        ["w"],
    )
    for level in range(2, depth + 1):
        rel = f"X{level}"
        inner_at_z = _reapply(_inject_dependence(body, rel), "z")
        level_body = or_(
            and_(
                atom(f"{label_prefix}{level}", "z"),
                exists("y", and_(atom(edge_name, "z", "y"), atom(rel, "y"))),
            ),
            inner_at_z,
        )
        maker = gfp if level % 2 == 0 else lfp
        body = maker(rel, ["z"], level_body, ["w"])
    return Query(
        exists("w", body), output_vars=(), name=f"alternating-depth-{depth}"
    )


def _inject_dependence(inner_fixpoint: Formula, outer_rel: str) -> Formula:
    """Disjoin ``outer_rel(z̄)`` into the inner fixpoint's body."""
    from repro.logic.syntax import _FixpointBase

    if not isinstance(inner_fixpoint, _FixpointBase):
        return inner_fixpoint
    bound = inner_fixpoint.bound_vars
    return type(inner_fixpoint)(
        inner_fixpoint.rel,
        bound,
        or_(inner_fixpoint.body, atom(outer_rel, bound[0].name)),
        inner_fixpoint.args,
    )


def _reapply(fixpoint: Formula, variable: str) -> Formula:
    """Re-apply a unary fixpoint formula at a different argument variable."""
    from repro.logic.syntax import _FixpointBase

    if not isinstance(fixpoint, _FixpointBase):
        return fixpoint
    return type(fixpoint)(
        fixpoint.rel,
        fixpoint.bound_vars,
        fixpoint.body,
        (Var(variable),),
    )


def nested_lfp_family(
    depth: int,
    edge_name: str = "E",
    start_label: str = "P1",
    anchor_label: str = "L",
) -> Query:
    """Dependent same-kind nesting that genuinely multiplies work
    (the footnote-5 phenomenon).

    Intended for a directed path with ``start_label`` at the source and
    ``anchor_label`` at the sink:

    * level 1: forward reachability from ``start_label`` — ``Θ(n)``
      Kleene iterations, re-solved from scratch on every enclosing
      iteration by a restart-everything evaluator;
    * level ``i+1``::

          [lfp N(z). inner^{+N}(z) & (L(z) | ∃y (E(z,y) & N(y)))](w)

      grows backward from the anchor one element per iteration (``Θ(n)``
      outer steps), and ``inner^{+N}`` — level ``i`` with ``N(z)``
      disjoined into its body — must be re-solved at each step because
      its environment changed.  Naive cost therefore multiplies per
      level (``~n^l``); warm-started evaluation collapses the re-solves
      (``~l·n``), which is exactly footnote 5's point.
    """
    if depth < 1:
        raise ReproError(f"nesting depth must be >= 1, got {depth}")
    body: Formula = lfp(
        "N1",
        ["z"],
        or_(
            atom(start_label, "z"),
            exists("y", and_(atom(edge_name, "y", "z"), atom("N1", "y"))),
        ),
        ["w"],
    )
    for level in range(2, depth + 1):
        rel = f"N{level}"
        inner_at_z = _reapply(_inject_dependence(body, rel), "z")
        level_body = and_(
            inner_at_z,
            or_(
                atom(anchor_label, "z"),
                exists("y", and_(atom(edge_name, "z", "y"), atom(rel, "y"))),
            ),
        )
        body = lfp(rel, ["z"], level_body, ["w"])
    return Query(body, output_vars=("w",), name=f"nested-lfp-{depth}")


def random_fo_formula(
    relations: Sequence[Tuple[str, int]],
    variables: Sequence[str],
    depth: int,
    seed: int = 0,
) -> Formula:
    """A seeded random FO formula over the given schema and variables.

    Used by benchmarks to generate expression-complexity sweeps; the
    formula's width is at most ``len(variables)`` by construction.
    """
    rng = random.Random(seed)
    names = list(variables)

    def build(remaining: int) -> Formula:
        if remaining <= 0 or rng.random() < 0.25:
            if rng.random() < 0.8 and relations:
                rel, arity = rng.choice(list(relations))
                return atom(rel, *(rng.choice(names) for _ in range(arity)))
            return eq(rng.choice(names), rng.choice(names))
        choice = rng.randrange(5)
        if choice == 0:
            return Not(build(remaining - 1))
        if choice == 1:
            return And((build(remaining - 1), build(remaining - 1)))
        if choice == 2:
            return Or((build(remaining - 1), build(remaining - 1)))
        if choice == 3:
            return Exists(Var(rng.choice(names)), build(remaining - 1))
        return exists(rng.choice(names), build(remaining - 1)) if False else (
            forall(rng.choice(names), build(remaining - 1))
        )

    return build(depth)
