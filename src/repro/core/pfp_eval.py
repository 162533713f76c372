"""PFP^k evaluation with space accounting (Theorem 3.8).

Theorem 3.8: ``Answer_{PFP^k}`` is in PSPACE — the straightforward
evaluation keeps only the *current* iterate of each partial fixpoint,
a relation of arity ≤ k and hence of size ≤ n^k, even though the number
of iterations may be as large as ``2^{n^k}``.

:class:`SpaceMeter` makes that separation observable: it tracks the peak
number of *live* tuples (the polynomial quantity) separately from the
iteration count (the possibly-exponential quantity).  The library's
default PFP iteration additionally remembers state hashes to detect cycles
early; that is a time optimization outside the PSPACE budget, so
:func:`pfp_answer` offers a ``strict_space`` mode that instead counts
iterations up to the ``2^{n^k}`` bound with O(1) extra memory, exactly as
the theorem's proof does.  The iteration itself is
:class:`repro.core.fp_eval.KleeneSolver`'s, with the meter attached.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.database.database import Database
from repro.database.relation import Relation
from repro.core.fp_eval import FixpointStrategy, solve_query
from repro.core.interp import EvalStats
from repro.guard.budget import GuardLike, NULL_GUARD
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.logic.syntax import Formula


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
) -> Relation:
    """Evaluate a PFP^k query with live-space accounting.

    Naive nested iteration (:class:`~repro.core.fp_eval.KleeneSolver`
    under ``FixpointStrategy.NAIVE``) with every open fixpoint's live
    size metered.  Returns the answer relation; peak-space/iteration
    numbers accumulate in ``meter`` (pass one in to read them back).
    ``strict_space`` drops cycle detection's seen-set and counts to
    ``2^{n^k}`` instead — the textbook PSPACE algorithm.  ``guard``
    bounds the work: iterations/deadline exhaustion raises, while the
    state budget only degrades cycle detection to strict counting
    (unless ``degrade`` is off).  The meter is released on the way out
    even when a budget trips mid-fixpoint.  Positivity is not checked:
    PFP bodies need not be monotone.
    """
    stats = stats if stats is not None else EvalStats()
    meter = meter if meter is not None else SpaceMeter(registry=stats.registry)
    return solve_query(
        formula,
        db,
        output_vars,
        strategy=FixpointStrategy.NAIVE,
        k_limit=k_limit,
        stats=stats,
        require_positive=False,
        tracer=tracer,
        guard=guard,
        backend=backend,
        meter=meter,
        strict_space=strict_space,
        degrade=degrade,
    )
