"""FP^k / PFP^k evaluation strategies (Sections 3.2 and 3.4).

Three interchangeable ways to evaluate fixpoint queries:

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

All strategies are property-tested equal to each other and to the naive
reference semantics.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.database.domain import Domain
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


class FixpointStrategy(enum.Enum):
    """How nested/alternating fixpoints are scheduled."""

    NAIVE = "naive"
    MONOTONE = "monotone"
    ALTERNATION = "alternation"
    SEMINAIVE = "seminaive"


StepFunction = Callable[[Relation], Relation]


def _traced_step(
    step: StepFunction,
    current: Relation,
    index: int,
    tracer: TracerLike,
) -> Relation:
    """One iteration under a ``fp.iteration`` span with the delta size."""
    with tracer.span("fp.iteration") as span:
        after = step(current)
        span.set(index=index, size=len(after), delta=len(after) - len(current))
    return after


def iterate_ascending(
    step: StepFunction,
    start: Relation,
    stats: EvalStats,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
    observer: StageLogLike = NULL_STAGE_LOG,
) -> Relation:
    """Kleene iteration upward from ``start`` until a fixpoint.

    Ascending iteration only converges for monotone operators; a step
    that loses tuples is reported as an error rather than looping
    forever (it can only happen when positivity checking was disabled
    on a genuinely non-monotone body).  ``observer`` optionally records
    the stage iterates (see :class:`repro.obs.provenance.StageLog`);
    stage ``i`` is the ``i``-th Kleene iterate, stage 0 the start.
    """
    current = start
    index = 0
    if observer.enabled:
        observer.stage(0, current)
    while True:
        stats.fixpoint_iterations += 1
        if guard.enabled:
            guard.charge_iteration(index=index, size=len(current))
        if tracer.enabled:
            after = _traced_step(step, current, index, tracer)
        else:
            after = step(current)
        index += 1
        if after == current:
            return current
        if not current.issubset(after):
            raise EvaluationError(
                "ascending fixpoint iteration regressed: the operator is "
                "not monotone (a lfp/gfp body must bind its recursion "
                "variable positively)"
            )
        if observer.enabled:
            observer.stage(index, after, delta=after.difference(current))
        current = after


def iterate_descending(
    step: StepFunction,
    start: Relation,
    stats: EvalStats,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
    observer: StageLogLike = NULL_STAGE_LOG,
) -> Relation:
    """Kleene iteration downward from ``start`` until a fixpoint.

    The descending dual of :func:`iterate_ascending`, with the same
    non-monotonicity guard.  An observer's recorded ``delta`` is the
    set of tuples *removed* in the round.
    """
    current = start
    index = 0
    if observer.enabled:
        observer.stage(0, current)
    while True:
        stats.fixpoint_iterations += 1
        if guard.enabled:
            guard.charge_iteration(index=index, size=len(current))
        if tracer.enabled:
            after = _traced_step(step, current, index, tracer)
        else:
            after = step(current)
        index += 1
        if after == current:
            return current
        if not after.issubset(current):
            raise EvaluationError(
                "descending fixpoint iteration grew: the operator is "
                "not monotone (a lfp/gfp body must bind its recursion "
                "variable positively)"
            )
        if observer.enabled:
            observer.stage(index, after, delta=current.difference(after))
        current = after


def iterate_inflationary(
    step: StepFunction,
    arity: int,
    stats: EvalStats,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
    empty: Optional[Relation] = None,
    observer: StageLogLike = NULL_STAGE_LOG,
) -> Relation:
    """IFP iteration ``S ← S ∪ φ(S)`` from empty; always converges.

    The converging round exits on ``derived ⊆ current`` *before* taking
    the union: re-materializing the full relation just to discover the
    delta was empty would do ``O(|S|)`` extra work on every solve (the
    ``empty_delta_exits`` note counts these exits for the regression
    test).  ``empty`` optionally supplies the backend's empty relation
    so packed iterates stay packed end-to-end.
    """
    current = empty if empty is not None else Relation.empty(arity)
    index = 0
    if observer.enabled:
        observer.stage(0, current)
    while True:
        stats.fixpoint_iterations += 1
        if guard.enabled:
            guard.charge_iteration(index=index, size=len(current))
        if tracer.enabled:
            derived = _traced_step(step, current, index, tracer)
        else:
            derived = step(current)
        index += 1
        if derived.issubset(current):
            stats.bump("empty_delta_exits")
            return current
        if observer.enabled:
            observer.stage(
                index,
                current.union(derived),
                delta=derived.difference(current),
            )
        current = current.union(derived)


def iterate_partial(
    step: StepFunction,
    arity: int,
    stats: EvalStats,
    iteration_limit: Optional[int] = None,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
    empty: Optional[Relation] = None,
    observer: StageLogLike = NULL_STAGE_LOG,
) -> Relation:
    """PFP iteration from empty (Section 2.2's convention).

    Returns the limit when the sequence converges; the empty relation when
    it enters a cycle without converging.  ``iteration_limit`` optionally
    bounds the work for space-restricted experiments (Theorem 3.8 allows
    counting to ``2^{n^k}`` instead of remembering states; we remember
    hashes for speed but the live state is still one relation).  The
    seen-set stores :meth:`~repro.database.relation.Relation.state_key`
    tokens, so packed iterates are remembered by mask without ever
    materializing their tuple sets.
    """
    current = empty if empty is not None else Relation.empty(arity)
    seen = {current.state_key()}
    steps = 0
    if observer.enabled:
        observer.stage(0, current)
    while True:
        stats.fixpoint_iterations += 1
        if guard.enabled:
            guard.charge_iteration(index=steps, size=len(current))
        if tracer.enabled:
            after = _traced_step(step, current, steps, tracer)
        else:
            after = step(current)
        if observer.enabled and after != current:
            observer.stage(steps + 1, after)
        if after == current:
            return current
        if after.state_key() in seen:
            return empty if empty is not None else Relation.empty(arity)
        if guard.enabled:
            guard.charge_state(index=steps, states=len(seen))
        seen.add(after.state_key())
        current = after
        steps += 1
        if iteration_limit is not None and steps > iteration_limit:
            raise EvaluationError(
                f"partial fixpoint exceeded the iteration limit "
                f"{iteration_limit}"
            )


def _full_relation(arity: int, domain: Domain) -> Relation:
    return Relation(arity, domain.tuples(arity))


def _step_function(
    evaluator: BoundedEvaluator,
    node: _FixpointBase,
    env: Dict[str, Relation],
    stats: EvalStats,
) -> StepFunction:
    """One application of the operator φ for a *closed* fixpoint node."""
    order = [v.name for v in node.bound_vars]

    def step(current: Relation) -> Relation:
        stats.body_evaluations += 1
        inner_env = dict(env)
        inner_env[node.rel] = current
        table = evaluator._eval(node.body, inner_env)
        extra = set(table.variables) - set(order)
        if extra:
            raise EvaluationError(
                f"fixpoint body has unexpected free variables {sorted(extra)}"
            )
        table = table.cylindrify(order, evaluator.domain)
        return table.to_relation(order)

    return step


class NaiveSolver:
    """Restart-everything nested evaluation — the ``n^{k·l}`` baseline."""

    def __init__(
        self,
        stats: EvalStats,
        pfp_iteration_limit: Optional[int] = None,
        tracer: TracerLike = NULL_TRACER,
        guard: GuardLike = NULL_GUARD,
        observer: StageLogLike = NULL_STAGE_LOG,
    ):
        self._stats = stats
        self._pfp_limit = pfp_iteration_limit
        self._tracer = tracer
        self._guard = guard
        self._observer = observer

    def __call__(
        self,
        evaluator: BoundedEvaluator,
        node: _FixpointBase,
        env: Dict[str, Relation],
    ) -> Relation:
        observer = self._observer
        if observer.enabled:
            observer.begin(node.rel, type(node).__name__.lower())
        limit = None
        try:
            if self._tracer.enabled:
                with self._tracer.span(
                    "fp.solve",
                    rel=node.rel,
                    kind=type(node).__name__.lower(),
                    arity=node.arity,
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
        step = _step_function(evaluator, node, env, self._stats)
        tracer = self._tracer
        guard = self._guard
        observer = self._observer
        backend = evaluator.backend
        if isinstance(node, LFP):
            return iterate_ascending(
                step,
                backend.empty_relation(node.arity),
                self._stats,
                tracer,
                guard,
                observer,
            )
        if isinstance(node, GFP):
            return iterate_descending(
                step,
                backend.full_relation(node.arity),
                self._stats,
                tracer,
                guard,
                observer,
            )
        if isinstance(node, IFP):
            return iterate_inflationary(
                step,
                node.arity,
                self._stats,
                tracer,
                guard,
                empty=backend.empty_relation(node.arity),
                observer=observer,
            )
        if isinstance(node, PFP):
            return iterate_partial(
                step,
                node.arity,
                self._stats,
                self._pfp_limit,
                tracer,
                guard,
                empty=backend.empty_relation(node.arity),
                observer=observer,
            )
        raise EvaluationError(f"unknown fixpoint node {node!r}")


class MonotoneSolver:
    """Warm-started nested evaluation.

    Remembers, per closed fixpoint subformula, the last computed limit and
    the relation environment it was computed under.  A new solve reuses the
    old limit as its starting point whenever the environment moved in the
    direction that keeps the old limit on the sound side of the new one:

    * LFP: old limit stays a pre-fixpoint when every environment relation
      moved in the direction of its polarity in the body (positively
      occurring relations grew, negatively occurring ones shrank);
    * GFP: old limit stays a post-fixpoint start when the environment moved
      the opposite way.

    PFP/IFP nodes are never warm-started (their bodies need not be
    monotone) and always recompute.
    """

    def __init__(
        self,
        stats: EvalStats,
        pfp_iteration_limit: Optional[int] = None,
        tracer: TracerLike = NULL_TRACER,
        guard: GuardLike = NULL_GUARD,
        observer: StageLogLike = NULL_STAGE_LOG,
    ):
        self._stats = stats
        self._pfp_limit = pfp_iteration_limit
        self._tracer = tracer
        self._guard = guard
        self._observer = observer
        self._memory: Dict[_FixpointBase, Tuple[Dict[str, Relation], Relation]] = {}
        # keyed by the node itself (structural): id()-keys would alias
        # recycled transient closed-node objects
        self._polarity_cache: Dict[Tuple[_FixpointBase, str], Optional[str]] = {}

    def __call__(
        self,
        evaluator: BoundedEvaluator,
        node: _FixpointBase,
        env: Dict[str, Relation],
    ) -> Relation:
        observer = self._observer
        if observer.enabled:
            observer.begin(node.rel, type(node).__name__.lower())
        limit = None
        try:
            if self._tracer.enabled:
                with self._tracer.span(
                    "fp.solve",
                    rel=node.rel,
                    kind=type(node).__name__.lower(),
                    arity=node.arity,
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
        step = _step_function(evaluator, node, env, self._stats)
        tracer = self._tracer
        guard = self._guard
        observer = self._observer
        backend = evaluator.backend
        if isinstance(node, IFP):
            return iterate_inflationary(
                step,
                node.arity,
                self._stats,
                tracer,
                guard,
                empty=backend.empty_relation(node.arity),
                observer=observer,
            )
        if isinstance(node, PFP):
            return iterate_partial(
                step,
                node.arity,
                self._stats,
                self._pfp_limit,
                tracer,
                guard,
                empty=backend.empty_relation(node.arity),
                observer=observer,
            )
        relevant = {
            name: env[name]
            for name in free_relation_variables(node.body)
            if name in env and name != node.rel
        }
        ascending = isinstance(node, LFP)
        start = self._warm_start(node, relevant, ascending, evaluator.domain)
        if start is None:
            self._stats.bump("cold_starts")
            start = (
                backend.empty_relation(node.arity)
                if ascending
                else backend.full_relation(node.arity)
            )
        else:
            self._stats.bump("warm_starts")
        if ascending:
            limit = iterate_ascending(
                step, start, self._stats, tracer, guard, observer
            )
        else:
            limit = iterate_descending(
                step, start, self._stats, tracer, guard, observer
            )
        self._memory[node] = (relevant, limit)
        return limit

    def _warm_start(
        self,
        node: _FixpointBase,
        env: Dict[str, Relation],
        ascending: bool,
        domain: Domain,
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
            if ascending and not moved_up:
                return None
            if not ascending and moved_up:
                return None
        return old_limit

    def _polarity(self, node: _FixpointBase, rel: str) -> Optional[str]:
        key = (node, rel)
        if key not in self._polarity_cache:
            self._polarity_cache[key] = polarity_of(node.body, rel)
        return self._polarity_cache[key]


def make_solver(
    strategy: FixpointStrategy,
    stats: EvalStats,
    pfp_iteration_limit: Optional[int] = None,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
    observer: StageLogLike = NULL_STAGE_LOG,
):
    """Build the fixpoint-solver callback for the bounded evaluator."""
    if strategy == FixpointStrategy.NAIVE:
        return NaiveSolver(stats, pfp_iteration_limit, tracer, guard, observer)
    if strategy == FixpointStrategy.MONOTONE:
        return MonotoneSolver(
            stats, pfp_iteration_limit, tracer, guard, observer
        )
    if strategy == FixpointStrategy.SEMINAIVE:
        # imported lazily: repro.perf.seminaive imports this module
        from repro.perf.seminaive import SemiNaiveSolver

        return SemiNaiveSolver(
            stats, pfp_iteration_limit, tracer, guard, observer
        )
    if strategy == FixpointStrategy.ALTERNATION:
        raise EvaluationError(
            "the ALTERNATION strategy evaluates whole queries; use "
            "repro.core.alternation.alternation_answer (the engine does "
            "this automatically)"
        )
    raise EvaluationError(f"unknown strategy {strategy!r}")


def solve_query(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    strategy: FixpointStrategy = FixpointStrategy.MONOTONE,
    k_limit: Optional[int] = None,
    stats: Optional[EvalStats] = None,
    pfp_iteration_limit: Optional[int] = None,
    require_positive: bool = True,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
    subquery_cache=None,
    backend=None,
    observer: StageLogLike = NULL_STAGE_LOG,
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
    """
    stats = stats if stats is not None else EvalStats()
    if require_positive:
        check_positivity(formula)
    if strategy == FixpointStrategy.ALTERNATION:
        from repro.core.alternation import alternation_answer

        if tracer.enabled:
            with tracer.span("fp.alternation"):
                return alternation_answer(
                    formula, db, output_vars, k_limit=k_limit, stats=stats
                )
        return alternation_answer(
            formula, db, output_vars, k_limit=k_limit, stats=stats
        )
    solver = make_solver(
        strategy, stats, pfp_iteration_limit, tracer, guard, observer
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
