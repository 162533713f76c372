"""FP^k / PFP^k evaluation strategies (Sections 3.2 and 3.4).

Four interchangeable ways to evaluate fixpoint queries:

``NAIVE``
    The straightforward nested-loop program from Section 3.2: every
    iteration of an outer fixpoint recomputes every inner fixpoint from
    scratch.  With alternation depth ``l`` this needs ``n^{k·l}``
    iterations — the exponential behaviour the paper warns about.

``MONOTONE``
    Warm-started nested iteration (the footnote-5 observation generalized,
    in the spirit of Emerson-Lei): each fixpoint remembers its previous
    limit together with the relation environment it was computed under and
    reuses it whenever monotonicity makes that sound — an inner least
    fixpoint restarts from its old limit when the environment only grew, an
    inner greatest fixpoint when the environment only shrank.  For
    alternation-free queries this yields ``l·n^k`` total iterations.

``ALTERNATION``
    The Theorem 3.5 approach: approximate *both* least and greatest
    fixpoints from below with one global, monotonically increasing
    under-approximation per fixpoint subformula, and emit the
    Lemma 3.3/3.4 certificate trace as a by-product
    (see :mod:`repro.core.alternation`).

``SEMINAIVE``
    Delta-driven least-fixpoint ascent: each round evaluates a
    *differential* of the body against only the tuples derived last
    round instead of recomputing ``φ(S)`` in full, generalizing the
    Datalog semi-naive trick to arbitrary positive FO bodies.  GFP,
    IFP, PFP, and non-monotone bodies fall back to naive iteration
    (see :mod:`repro.perf.seminaive`).

NAIVE, MONOTONE and SEMINAIVE are one :class:`KleeneSolver`: they
differ only in where an LFP/GFP starts and how an LFP round is
computed.  The same solver, given a :class:`~repro.core.pfp_eval.SpaceMeter`,
is Theorem 3.8's space-metered PFP evaluation.  All strategies are
property-tested equal to each other and to the naive reference
semantics.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.database.relation import Relation
from repro.errors import EvaluationError
from repro.core.fo_eval import BoundedEvaluator
from repro.core.interp import EvalStats
from repro.guard.budget import GuardLike, NULL_GUARD
from repro.obs.provenance import NULL_STAGE_LOG, StageLogLike
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.logic.analysis import check_positivity, polarity_of
from repro.logic.syntax import (
    Formula,
    GFP,
    IFP,
    LFP,
    PFP,
    _FixpointBase,
)
from repro.logic.variables import free_relation_variables
from repro.perf.seminaive import delta_relation_name, differential

if TYPE_CHECKING:
    from repro.core.pfp_eval import SpaceMeter


class FixpointStrategy(enum.Enum):
    """How nested/alternating fixpoints are scheduled."""

    NAIVE = "naive"
    MONOTONE = "monotone"
    ALTERNATION = "alternation"
    SEMINAIVE = "seminaive"


def apply_operator(
    evaluator: BoundedEvaluator,
    body: Formula,
    env: Dict[str, Relation],
    columns: Tuple[str, ...],
    rel: str,
) -> Relation:
    """One application of a fixpoint operator.

    Evaluates ``body`` under ``env`` (which binds the recursion variable
    ``rel`` and whatever else the body reads) and returns the result as
    a relation over ``columns``, the bound variables in order; a column
    the body leaves free ranges over the domain, and the cylinder that
    adds it is audited like any intermediate table.  A free variable
    outside ``columns`` is an error.
    """
    table = evaluator._eval(body, env)
    if table.variables != columns:
        extra = set(table.variables) - set(columns)
        if extra:
            raise EvaluationError(
                f"fixpoint body of {rel} has unexpected free variables "
                f"{sorted(extra)}"
            )
        cylinder = table.cylindrify(columns, evaluator.domain)
        if cylinder is not table:
            evaluator._audit(cylinder, "fixpoint")
        table = cylinder
    return table.to_relation(columns)


class KleeneSolver:
    """The fixpoint solver: one Kleene iteration for every schedule.

    Called by :class:`~repro.core.fo_eval.BoundedEvaluator` once per
    *closed* fixpoint node.  Every kind runs the same round loop
    (:meth:`_iterate`); the ``strategy`` chooses only two things:

    * the LFP/GFP start: cold (``∅`` / the full relation), or, under
      ``MONOTONE``, warm.  The solver then remembers, per node, the
      last limit and the relation environment it was computed under,
      and restarts from that limit whenever the environment moved in
      the direction that keeps it on the sound side of the new one —
      for an LFP every relation moved with its polarity in the body
      (positive ones grew, negative ones shrank); for a GFP the
      opposite way.  Starts are counted as ``warm_starts`` /
      ``cold_starts``;
    * the LFP round rule: the full body, or, under ``SEMINAIVE``, its
      :func:`~repro.perf.seminaive.differential` against the tuples
      derived last round.  Round 0 evaluates ``φ(∅)`` in full; the
      ascent stops the first time the delta comes up empty.  Delta
      rounds are counted as ``seminaive_delta_rounds`` /
      ``seminaive_delta_tuples``; an LFP whose recursion variable is
      not bound positively keeps the full body and bumps
      ``seminaive_fallbacks``.

    IFP always starts at ``∅`` and iterates ``S ∪ φ(S)``.  PFP starts
    at ``∅`` and returns ``∅`` when the stage sequence cycles
    (Section 2.2).  Cycles are found with a seen-set of
    :meth:`~repro.database.relation.Relation.state_key` tokens, each
    charged to the guard's state budget.  With ``strict_space`` there
    is no seen-set: the solver counts to ``2^{n^k}`` (the number of
    distinct k-ary relations) like Theorem 3.8's PSPACE algorithm.
    When the state budget runs out, ``degrade`` drops the seen-set and
    continues in the strict mode — sound, because the stage sequence
    is deterministic — and bumps ``pfp_strict_fallbacks``; without
    ``degrade`` the exhaustion raises.

    ``meter`` (a :class:`~repro.core.pfp_eval.SpaceMeter`) keeps, for
    every open fixpoint, the size of the relation its last round
    produced — under the NAIVE schedule that the PFP entry points use,
    its live state, Theorem 3.8's polynomial quantity — and, when
    tracing, emits a ``pfp.space`` event per round.
    """

    def __init__(
        self,
        strategy: FixpointStrategy,
        stats: EvalStats,
        tracer: TracerLike = NULL_TRACER,
        guard: GuardLike = NULL_GUARD,
        observer: StageLogLike = NULL_STAGE_LOG,
        meter: Optional[SpaceMeter] = None,
        strict_space: bool = False,
        degrade: bool = False,
    ):
        if strategy == FixpointStrategy.ALTERNATION:
            raise EvaluationError(
                "the ALTERNATION strategy evaluates whole queries; use "
                "repro.core.alternation.alternation_answer (the engine does "
                "this automatically)"
            )
        if not isinstance(strategy, FixpointStrategy):
            raise EvaluationError(f"unknown strategy {strategy!r}")
        self._warm = strategy == FixpointStrategy.MONOTONE
        self._seminaive = strategy == FixpointStrategy.SEMINAIVE
        self._stats = stats
        self._tracer = tracer
        self._guard = guard
        self._observer = observer
        self._meter = meter
        self._strict = strict_space
        self._degrade = degrade
        self._next_key = 0
        # per-node memory, keyed by the node itself (structural): id()
        # keys would alias recycled transient closed-node objects.
        # MONOTONE: node → (relevant environment, last limit)
        self._memory: Dict[_FixpointBase, Tuple[Dict[str, Relation], Relation]] = {}
        self._polarity_cache: Dict[Tuple[_FixpointBase, str], Optional[str]] = {}
        # SEMINAIVE: node → (delta name, differential body), or None when
        # the node must keep the full body
        self._prepared: Dict[_FixpointBase, Optional[Tuple[str, Formula]]] = {}

    def __call__(
        self,
        evaluator: BoundedEvaluator,
        node: _FixpointBase,
        env: Dict[str, Relation],
    ) -> Relation:
        kind = type(node).__name__.lower()
        observer = self._observer
        if observer.enabled:
            observer.begin(node.rel, kind)
        limit = None
        try:
            if self._tracer.enabled:
                with self._tracer.span(
                    "fp.solve", rel=node.rel, kind=kind, arity=node.arity
                ) as span:
                    limit = self._solve(evaluator, node, env)
                    span.set(limit_size=len(limit))
            else:
                limit = self._solve(evaluator, node, env)
        finally:
            if observer.enabled:
                observer.end(limit)
        return limit

    def _solve(
        self,
        evaluator: BoundedEvaluator,
        node: _FixpointBase,
        env: Dict[str, Relation],
    ) -> Relation:
        """Choose the start and round rule of ``node``, then iterate."""
        if not isinstance(node, (LFP, GFP, IFP, PFP)):
            raise EvaluationError(f"unknown fixpoint node {node!r}")
        backend = evaluator.backend
        ascending = not isinstance(node, GFP)
        cold = backend.empty_relation if ascending else backend.full_relation
        if isinstance(node, (IFP, PFP)):
            return self._iterate(evaluator, node, env, cold(node.arity))
        if self._seminaive and ascending:
            prepared = self._prepare(node, evaluator, env)
            if prepared is not None:
                return self._iterate(
                    evaluator, node, env, cold(node.arity), prepared
                )
            self._stats.bump("seminaive_fallbacks")
        if not self._warm:
            return self._iterate(evaluator, node, env, cold(node.arity))
        relevant = {
            name: env[name]
            for name in free_relation_variables(node.body)
            if name in env and name != node.rel
        }
        start = self._warm_start(node, relevant, ascending)
        if start is None:
            self._stats.bump("cold_starts")
            start = cold(node.arity)
        else:
            self._stats.bump("warm_starts")
        limit = self._iterate(evaluator, node, env, start)
        self._memory[node] = (relevant, limit)
        return limit

    def _iterate(
        self,
        evaluator: BoundedEvaluator,
        node: _FixpointBase,
        env: Dict[str, Relation],
        start: Relation,
        prepared: Optional[Tuple[str, Formula]] = None,
    ) -> Relation:
        """The one round loop, from ``start`` to the limit.

        Each round counts one ``fixpoint_iterations``, charges the guard,
        runs under an ``fp.iteration`` span and reports its stage
        (stage ``i`` is the ``i``-th iterate, stage 0 the start); only
        the rule that turns a round's operator output into the next
        iterate varies with the kind.  ``prepared`` (delta name,
        differential body) selects the semi-naive LFP rule.
        """
        stats, tracer, guard = self._stats, self._tracer, self._guard
        observer, meter = self._observer, self._meter
        columns = tuple(v.name for v in node.bound_vars)
        rule = "delta" if prepared is not None else type(node).__name__
        delta_rel, dbody = prepared if prepared is not None else (None, None)
        delta = seen = None
        if rule == "PFP":
            # there are 2^cells distinct relations of this arity: past
            # that many rounds the deterministic stage sequence must
            # have revisited a state, so it cycles and the limit is ∅
            cells = len(evaluator.domain) ** node.arity
            if not self._strict:
                seen = {start.state_key()}

        def step(current: Relation) -> Relation:
            # the round's operator output; a delta round (semi-naive,
            # after round 0) returns only the tuples it derived that
            # are not in ``current`` yet
            stats.body_evaluations += 1
            inner = dict(env)
            inner[node.rel] = current
            if delta is None:
                return apply_operator(
                    evaluator, node.body, inner, columns, node.rel
                )
            inner[delta_rel] = delta
            derived = apply_operator(
                evaluator, dbody, inner, columns, node.rel
            )
            return derived.difference(current)

        current = start
        index = 0
        if observer.enabled:
            observer.stage(0, current)
        if meter is not None:
            key = self._next_key
            self._next_key += 1
            meter.enter(key, 0)
        try:
            while True:
                stats.fixpoint_iterations += 1
                if guard.enabled:
                    guard.charge_iteration(index=index, size=len(current))
                if tracer.enabled:
                    with tracer.span("fp.iteration") as span:
                        after = step(current)
                        if meter is not None:
                            meter.update(key, len(after))
                            tracer.event(
                                "pfp.space",
                                live_tuples=meter.live_tuples,
                                live_relations=meter.live_relations,
                            )
                        if rule == "delta":
                            size, moved = len(current) + len(after), len(after)
                        else:
                            size = len(after)
                            moved = size - len(current)
                        span.set(index=index, size=size, delta=moved)
                else:
                    after = step(current)
                    if meter is not None:
                        meter.update(key, len(after))
                index += 1
                if rule == "delta":
                    if not after:
                        return current
                    current = after if index == 1 else current.union(after)
                    if observer.enabled:
                        observer.stage(index, current, delta=after)
                    delta = after
                    stats.bump("seminaive_delta_rounds")
                    stats.bump("seminaive_delta_tuples", len(after))
                    continue
                if rule == "IFP":
                    # exit on the empty delta *before* the union: the
                    # converging round re-materializes nothing
                    if after.issubset(current):
                        stats.bump("empty_delta_exits")
                        return current
                    grown = current.union(after)
                    if observer.enabled:
                        observer.stage(
                            index, grown, delta=after.difference(current)
                        )
                    current = grown
                    continue
                if after == current:
                    return current
                if rule == "PFP":
                    if observer.enabled:
                        observer.stage(index, after)
                    if seen is not None:
                        if after.state_key() in seen:
                            return start
                        if guard.try_charge_state():
                            seen.add(after.state_key())
                        elif self._degrade:
                            seen = None
                            stats.bump("pfp_strict_fallbacks")
                            if tracer.enabled:
                                tracer.event(
                                    "pfp.strict_fallback", index=index
                                )
                        else:
                            guard.charge_state(0, index=index, states=len(seen))
                    if seen is None and index.bit_length() > cells:
                        return start
                    current = after
                    continue
                # LFP/GFP: a monotone operator never moves backwards; a
                # round that does can only come from a non-positive body
                # run with positivity checking disabled
                if rule == "LFP" and not current.issubset(after):
                    raise EvaluationError(
                        "ascending fixpoint iteration regressed: the operator "
                        "is not monotone (a lfp/gfp body must bind its "
                        "recursion variable positively)"
                    )
                if rule == "GFP" and not after.issubset(current):
                    raise EvaluationError(
                        "descending fixpoint iteration grew: the operator is "
                        "not monotone (a lfp/gfp body must bind its "
                        "recursion variable positively)"
                    )
                if observer.enabled:
                    observer.stage(
                        index,
                        after,
                        delta=(
                            after.difference(current)
                            if rule == "LFP"
                            else current.difference(after)
                        ),
                    )
                current = after
        finally:
            if meter is not None:
                meter.leave(key)

    # -- MONOTONE: warm starts -----------------------------------------

    def _warm_start(
        self,
        node: _FixpointBase,
        env: Dict[str, Relation],
        ascending: bool,
    ) -> Optional[Relation]:
        cached = self._memory.get(node)
        if cached is None:
            return None
        old_env, old_limit = cached
        if set(old_env) != set(env):
            return None
        for name, new_rel in env.items():
            old_rel = old_env[name]
            if old_rel == new_rel:
                continue
            polarity = self._polarity(node, name)
            if polarity == "both" or polarity is None:
                return None
            grew = old_rel.issubset(new_rel)
            shrank = new_rel.issubset(old_rel)
            if not grew and not shrank:
                return None
            # direction of the fixpoint's movement for this env change
            moved_up = (grew and polarity == "positive") or (
                shrank and polarity == "negative"
            )
            if ascending != moved_up:
                return None
        return old_limit

    def _polarity(self, node: _FixpointBase, rel: str) -> Optional[str]:
        key = (node, rel)
        if key not in self._polarity_cache:
            self._polarity_cache[key] = polarity_of(node.body, rel)
        return self._polarity_cache[key]

    # -- SEMINAIVE: the differential body ------------------------------

    def _prepare(
        self,
        node: LFP,
        evaluator: BoundedEvaluator,
        env: Dict[str, Relation],
    ) -> Optional[Tuple[str, Formula]]:
        """The (delta name, differential body) for ``node``, or ``None``
        when semi-naive ascent would be unsound (non-positive body)."""
        if node in self._prepared:
            prepared = self._prepared[node]
            # the cached delta name must still be fresh for this call's
            # environment; a collision (pathological naming) re-prepares
            if prepared is None or (
                prepared[0] not in env
                and prepared[0] not in evaluator.db.relation_names()
            ):
                return prepared
        if polarity_of(node.body, node.rel) != "positive":
            # covers both genuinely non-monotone bindings ("negative" /
            # "both") and bodies that never mention the variable (None)
            # when the differential would be degenerate anyway
            self._prepared[node] = None
            return None
        avoid = (
            set(free_relation_variables(node.body))
            | {node.rel}
            | set(env)
            | set(evaluator.db.relation_names())
        )
        delta_rel = delta_relation_name(node.rel, avoid)
        prepared = (delta_rel, differential(node.body, node.rel, delta_rel))
        self._prepared[node] = prepared
        return prepared


def solve_query(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    strategy: FixpointStrategy = FixpointStrategy.MONOTONE,
    k_limit: Optional[int] = None,
    stats: Optional[EvalStats] = None,
    require_positive: bool = True,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
    subquery_cache=None,
    backend=None,
    observer: StageLogLike = NULL_STAGE_LOG,
    meter: Optional[SpaceMeter] = None,
    strict_space: bool = False,
    degrade: bool = False,
) -> Relation:
    """Evaluate an FO/FP/PFP query under the chosen strategy.

    ``subquery_cache`` optionally threads a
    :class:`repro.perf.cache.SubqueryCache` into the bounded evaluator
    (shared-table memoization across subformulas and evaluations);
    ``backend`` selects the table representation (see
    :func:`repro.kernel.backend.resolve_backend`); ``observer``
    optionally records every fixpoint solve's Kleene stages (see
    :class:`repro.obs.provenance.StageLog` — ignored by the
    ALTERNATION strategy, which does not iterate per-node stages).
    ``meter``, ``strict_space`` and ``degrade`` configure PFP
    iteration and its space accounting (see :class:`KleeneSolver`;
    :func:`repro.core.pfp_eval.pfp_answer` is the Theorem 3.8 entry
    point that sets them).
    """
    stats = stats if stats is not None else EvalStats()
    if require_positive:
        check_positivity(formula)
    if strategy == FixpointStrategy.ALTERNATION:
        from repro.core.alternation import alternation_answer

        if tracer.enabled:
            with tracer.span("fp.alternation"):
                return alternation_answer(
                    formula,
                    db,
                    output_vars,
                    k_limit=k_limit,
                    stats=stats,
                    guard=guard,
                )
        return alternation_answer(
            formula, db, output_vars, k_limit=k_limit, stats=stats, guard=guard
        )
    solver = KleeneSolver(
        strategy,
        stats,
        tracer=tracer,
        guard=guard,
        observer=observer,
        meter=meter,
        strict_space=strict_space,
        degrade=degrade,
    )
    evaluator = BoundedEvaluator(
        db,
        fixpoint_solver=solver,
        k_limit=k_limit,
        stats=stats,
        tracer=tracer,
        guard=guard,
        subquery_cache=subquery_cache,
        backend=backend,
    )
    return evaluator.answer(formula, output_vars)
