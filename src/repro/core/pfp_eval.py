"""PFP^k evaluation with space accounting (Theorem 3.8).

Theorem 3.8: ``Answer_{PFP^k}`` is in PSPACE — the straightforward
evaluation keeps only the *current* iterate of each partial fixpoint,
a relation of arity ≤ k and hence of size ≤ n^k, even though the number
of iterations may be as large as ``2^{n^k}``.

:class:`SpaceMeter` makes that separation observable: it tracks the peak
number of *live* tuples (the polynomial quantity) separately from the
iteration count (the possibly-exponential quantity).  The library's
default PFP iteration additionally remembers state hashes to detect cycles
early; that is a time optimization outside the PSPACE budget, so the
metered evaluator here offers a ``strict_space`` mode that instead counts
iterations up to the ``2^{n^k}`` bound with O(1) extra memory, exactly as
the theorem's proof does.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.database.database import Database
from repro.database.relation import Relation
from repro.errors import EvaluationError
from repro.core.fo_eval import BoundedEvaluator
from repro.core.fp_eval import (
    NaiveSolver,
    _step_function,
    iterate_ascending,
    iterate_descending,
    iterate_inflationary,
)
from repro.core.interp import EvalStats
from repro.guard.budget import GuardLike, NULL_GUARD
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import NULL_STAGE_LOG, StageLogLike
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.logic.syntax import Formula, GFP, IFP, LFP, PFP, _FixpointBase


class SpaceMeter:
    """Peak live-state accounting for the PSPACE bound of Theorem 3.8.

    Backed by gauges/counters in a
    :class:`~repro.obs.metrics.MetricsRegistry` (``pfp.peak_live_tuples``,
    ``pfp.peak_live_relations``, ``pfp.iterations``); pass the registry of
    the evaluation's :class:`~repro.core.interp.EvalStats` to keep one
    unified store per query.
    """

    __slots__ = ("registry", "_peak_tuples", "_peak_relations", "_iterations", "_live")

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._peak_tuples = self.registry.gauge("pfp.peak_live_tuples")
        self._peak_relations = self.registry.gauge("pfp.peak_live_relations")
        self._iterations = self.registry.counter("pfp.iterations")
        self._live: Dict[int, int] = {}

    @property
    def peak_live_tuples(self) -> int:
        return self._peak_tuples.value

    @property
    def peak_live_relations(self) -> int:
        return self._peak_relations.value

    @property
    def total_iterations(self) -> int:
        return self._iterations.value

    @property
    def live_tuples(self) -> int:
        """The current total of live tuples across open fixpoints."""
        return sum(self._live.values())

    @property
    def live_relations(self) -> int:
        return len(self._live)

    def enter(self, key: int, tuples: int) -> None:
        self._live[key] = tuples
        self._observe()

    def update(self, key: int, tuples: int) -> None:
        self._live[key] = tuples
        self._iterations.inc()
        self._observe()

    def leave(self, key: int) -> None:
        self._live.pop(key, None)

    def _observe(self) -> None:
        self._peak_tuples.set_max(sum(self._live.values()))
        self._peak_relations.set_max(len(self._live))

    def __repr__(self) -> str:
        return (
            f"SpaceMeter(peak_live_tuples={self.peak_live_tuples}, "
            f"peak_live_relations={self.peak_live_relations}, "
            f"total_iterations={self.total_iterations})"
        )


class MeteredPFPSolver(NaiveSolver):
    """Naive nested solving with per-fixpoint live-state metering.

    ``strict_space``: when true, partial fixpoints never store a "seen
    states" set; they count iterations up to ``2^{n^k}`` (the number of
    distinct k-ary relations) and declare divergence when the bound is
    exceeded without convergence — the textbook PSPACE algorithm.  When
    false (the default), cycles are detected by hashing previous states,
    trading space for time.

    The guard's state budget caps the non-strict mode's ``seen`` set
    (worst case ``2^{n^k}`` stored relations): exhausting it does not
    fail the query — the evaluator discards the set and *degrades* to
    the strict counting mode mid-iteration, which is sound because the
    stage sequence from ``∅`` is deterministic (no convergence within
    ``2^{n^k}`` total steps implies a cycle).  Fallbacks are counted in
    ``stats`` under ``pfp_strict_fallbacks``.
    """

    def __init__(
        self,
        stats: EvalStats,
        meter: SpaceMeter,
        strict_space: bool = False,
        tracer: TracerLike = NULL_TRACER,
        guard: GuardLike = NULL_GUARD,
        degrade: bool = True,
        observer: StageLogLike = NULL_STAGE_LOG,
    ):
        super().__init__(stats, tracer=tracer, guard=guard, observer=observer)
        self._meter = meter
        self._strict = strict_space
        self._degrade = degrade
        self._next_key = 0

    def _solve(
        self,
        evaluator: BoundedEvaluator,
        node: _FixpointBase,
        env: Dict[str, Relation],
    ) -> Relation:
        key = self._next_key
        self._next_key += 1
        step = _step_function(evaluator, node, env, self._stats)
        meter = self._meter
        tracer = self._tracer

        def metered_step(current: Relation) -> Relation:
            after = step(current)
            meter.update(key, len(after))
            if tracer.enabled:
                # snapshot of the *live* state — the Theorem 3.8 quantity
                tracer.event(
                    "pfp.space",
                    live_tuples=meter.live_tuples,
                    live_relations=meter.live_relations,
                )
            return after

        backend = evaluator.backend
        observer = self._observer
        meter.enter(key, 0)
        try:
            if isinstance(node, LFP):
                return iterate_ascending(
                    metered_step,
                    backend.empty_relation(node.arity),
                    self._stats,
                    tracer,
                    observer=observer,
                )
            if isinstance(node, GFP):
                return iterate_descending(
                    metered_step,
                    backend.full_relation(node.arity),
                    self._stats,
                    tracer,
                    observer=observer,
                )
            if isinstance(node, IFP):
                return iterate_inflationary(
                    metered_step,
                    node.arity,
                    self._stats,
                    tracer,
                    empty=backend.empty_relation(node.arity),
                    observer=observer,
                )
            if isinstance(node, PFP):
                return self._partial(metered_step, node, evaluator)
            raise EvaluationError(f"unknown fixpoint node {node!r}")
        finally:
            meter.leave(key)

    def _partial(
        self,
        step,
        node: _FixpointBase,
        evaluator: BoundedEvaluator,
    ) -> Relation:
        arity = node.arity
        empty = evaluator.backend.empty_relation(arity)
        current = empty
        tracer = self._tracer
        guard = self._guard
        observer = self._observer
        if observer.enabled:
            observer.stage(0, current)
        # 2^{n^k} distinct k-ary relations: past this many steps the
        # deterministic stage sequence must have revisited a state, so it
        # cycles and the partial fixpoint is empty by convention
        n = len(evaluator.domain)
        distinct_relations = 2 ** (n**arity)
        seen: Optional[set] = None if self._strict else {current.state_key()}
        index = 0
        while index < distinct_relations:
            self._stats.fixpoint_iterations += 1
            if guard.enabled:
                guard.charge_iteration(index=index, live_rows=len(current))
            if tracer.enabled:
                with tracer.span("fp.iteration") as span:
                    after = step(current)
                    span.set(
                        index=index,
                        size=len(after),
                        delta=len(after) - len(current),
                    )
            else:
                after = step(current)
            index += 1
            if after == current:
                return current
            if observer.enabled:
                observer.stage(index, after)
            if seen is not None:
                if after.state_key() in seen:
                    return empty
                if guard.try_charge_state():
                    seen.add(after.state_key())
                elif self._degrade:
                    # state budget exhausted: degrade to the strict
                    # O(1)-memory counting mode (sound — see class doc)
                    seen = None
                    self._stats.bump("pfp_strict_fallbacks")
                    if tracer.enabled:
                        tracer.event("pfp.strict_fallback", index=index)
                else:
                    guard.charge_state(0, index=index, states=len(seen))
            current = after
        return empty


def pfp_answer(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    stats: Optional[EvalStats] = None,
    meter: Optional[SpaceMeter] = None,
    strict_space: bool = False,
    k_limit: Optional[int] = None,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
    degrade: bool = True,
    backend=None,
    observer: StageLogLike = NULL_STAGE_LOG,
) -> Relation:
    """Evaluate a PFP^k query with live-space accounting.

    Returns the answer relation; peak-space/iteration numbers accumulate in
    ``meter`` (pass one in to read them back).  ``guard`` bounds the work:
    iterations/deadline exhaustion raises, while the state budget only
    degrades cycle detection to strict counting (see
    :class:`MeteredPFPSolver`).  The meter is released on the way out even
    when a budget trips mid-fixpoint.
    """
    stats = stats if stats is not None else EvalStats()
    meter = meter if meter is not None else SpaceMeter(registry=stats.registry)
    solver = MeteredPFPSolver(
        stats,
        meter,
        strict_space=strict_space,
        tracer=tracer,
        guard=guard,
        degrade=degrade,
        observer=observer,
    )
    evaluator = BoundedEvaluator(
        db,
        fixpoint_solver=solver,
        k_limit=k_limit,
        stats=stats,
        tracer=tracer,
        guard=guard,
        backend=backend,
    )
    return evaluator.answer(formula, output_vars)
