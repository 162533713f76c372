"""Resource budgets and the cooperative checkpoint guard.

The paper's central claim is that bounding variables bounds every
intermediate relation to ``n^k`` — this module turns those bounds into
*enforced runtime invariants*.  A :class:`Budget` declares limits for the
quantities the paper bounds:

==================  ====================================================
``max_rows``        intermediate relation rows — Prop 3.1's ``n^k``
``max_iterations``  fixpoint/round iterations — Theorem 3.8's ``2^{n^k}``
``max_states``      PFP cycle-detection states (also ≤ ``2^{n^k}``)
``max_clauses``     grounded nodes / CNF clauses — Corollary 3.7's size
``max_decisions``   DPLL decisions (the NP oracle's work)
``deadline_seconds``  wall-clock, the catch-all
==================  ====================================================

A :class:`ResourceGuard` is the runtime half: engines call its cheap
``charge_*`` methods from their hot loops (each charge is also a
*checkpoint* — a cooperative cancellation point where the deadline is
checked and fault injection may fire).  Exhausting a budget raises the
matching :class:`~repro.errors.ResourceExhausted` subclass carrying the
partial progress supplied by the engine plus a snapshot of the unified
metrics registry.

The shared no-op :data:`NULL_GUARD` keeps unguarded runs free: the hot
paths gate their charge calls on ``guard.enabled`` exactly like the
tracer convention of :mod:`repro.obs.tracer`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.errors import (
    ClauseBudgetExceeded,
    DeadlineExceeded,
    DecisionBudgetExceeded,
    IterationBudgetExceeded,
    ResourceExhausted,
    SpaceBudgetExceeded,
    StateBudgetExceeded,
)
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits; ``None`` means unlimited.

    Budgets are immutable and shareable — all mutable accounting lives on
    the :class:`ResourceGuard` built from one.
    """

    deadline_seconds: Optional[float] = None
    max_iterations: Optional[int] = None
    max_rows: Optional[int] = None
    max_decisions: Optional[int] = None
    max_clauses: Optional[int] = None
    max_states: Optional[int] = None

    def is_unlimited(self) -> bool:
        return (
            self.deadline_seconds is None
            and self.max_iterations is None
            and self.max_rows is None
            and self.max_decisions is None
            and self.max_clauses is None
            and self.max_states is None
        )


class NullGuard:
    """Shared no-op guard; ``enabled`` is False so hot paths skip work."""

    enabled = False
    __slots__ = ()

    def checkpoint(self, where: str = "") -> None:
        pass

    def charge_iteration(self, amount: int = 1, **partial: object) -> None:
        pass

    def charge_rows(self, rows: int, **partial: object) -> None:
        pass

    def charge_decision(self, amount: int = 1, **partial: object) -> None:
        pass

    def charge_clauses(self, amount: int = 1, **partial: object) -> None:
        pass

    def charge_state(self, amount: int = 1, **partial: object) -> None:
        pass

    def try_charge_state(self, amount: int = 1) -> bool:
        return True

    def reset_clauses(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def remaining_seconds(self) -> Optional[float]:
        return None

    def snapshot(self) -> Dict[str, float]:
        return {}

    def __repr__(self) -> str:
        return "NULL_GUARD"


#: The shared no-op guard used by default everywhere.
NULL_GUARD = NullGuard()


class ResourceGuard:
    """Mutable budget accounting with cooperative checkpoints.

    Parameters
    ----------
    budget:
        The limits to enforce (an unlimited :class:`Budget` when omitted —
        useful for chaos-only guards).
    registry:
        The run's unified metrics registry.  Guard counters are registered
        under ``guard.*`` so exception snapshots and trace reports show
        them alongside the engine metrics; a private registry is created
        when omitted.
    chaos:
        Optional :class:`~repro.guard.chaos.ChaosPolicy`; its hooks fire
        at every checkpoint (deterministically, for unwind testing).
    check_interval:
        Check the wall clock every this many checkpoints.  The default of
        1 checks every time (``time.monotonic`` is a few tens of ns);
        raise it for extremely hot loops.
    clock:
        Injectable monotonic clock, for deterministic deadline tests.
    """

    enabled = True

    __slots__ = (
        "budget",
        "registry",
        "_chaos",
        "_clock",
        "_interval",
        "_checkpoints",
        "_iterations",
        "_decisions",
        "_clauses_total",
        "_states",
        "_stage_clauses",
        "_started",
        "_deadline",
    )

    def __init__(
        self,
        budget: Optional[Budget] = None,
        registry: Optional[MetricsRegistry] = None,
        chaos: Optional[object] = None,
        check_interval: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = budget if budget is not None else Budget()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._chaos = chaos
        self._clock = clock
        self._interval = max(1, check_interval)
        self._checkpoints = self.registry.counter("guard.checkpoints")
        self._iterations = self.registry.counter("guard.iterations")
        self._decisions = self.registry.counter("guard.decisions")
        self._clauses_total = self.registry.counter("guard.clauses")
        self._states = self.registry.counter("guard.states")
        self._stage_clauses = 0
        self._started = clock()
        self._deadline = (
            self._started + self.budget.deadline_seconds
            if self.budget.deadline_seconds is not None
            else None
        )

    # -- readings --------------------------------------------------------

    @property
    def checkpoints(self) -> int:
        return self._checkpoints.value

    @property
    def iterations(self) -> int:
        return self._iterations.value

    @property
    def decisions(self) -> int:
        return self._decisions.value

    @property
    def clauses(self) -> int:
        """Clauses charged in the current stage (see :meth:`reset_clauses`)."""
        return self._stage_clauses

    @property
    def states(self) -> int:
        return self._states.value

    def elapsed_seconds(self) -> float:
        return self._clock() - self._started

    def remaining_seconds(self) -> Optional[float]:
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def snapshot(self) -> Dict[str, float]:
        """The guard's own accounting as a plain dict."""
        return {
            "checkpoints": self.checkpoints,
            "iterations": self.iterations,
            "decisions": self.decisions,
            "clauses": self._clauses_total.value,
            "states": self.states,
            "elapsed_seconds": self.elapsed_seconds(),
        }

    # -- checkpoints and charges -----------------------------------------

    def checkpoint(self, where: str = "", **partial: object) -> None:
        """One cooperative cancellation point.

        Counts the call, runs fault injection (if configured), and checks
        the wall-clock deadline every ``check_interval`` calls.
        """
        self._checkpoints.value += 1
        if self._chaos is not None:
            self._chaos.on_checkpoint(self._checkpoints.value, where)
        if (
            self._deadline is not None
            and self._checkpoints.value % self._interval == 0
        ):
            now = self._clock()
            if now > self._deadline:
                self._exhaust(
                    DeadlineExceeded,
                    "deadline",
                    self.budget.deadline_seconds,
                    now - self._started,
                    f"deadline of {self.budget.deadline_seconds:g}s exceeded"
                    + (f" (at {where})" if where else ""),
                    partial,
                )

    def charge_iteration(self, amount: int = 1, **partial: object) -> None:
        """One fixpoint/round iteration (the ``2^{n^k}`` quantity)."""
        self._iterations.value += amount
        self.checkpoint("iteration", **partial)
        limit = self.budget.max_iterations
        if limit is not None and self._iterations.value > limit:
            self._exhaust(
                IterationBudgetExceeded,
                "iterations",
                limit,
                self._iterations.value,
                f"iteration budget of {limit} exceeded",
                partial,
            )

    def charge_rows(self, rows: int, **partial: object) -> None:
        """One intermediate relation of ``rows`` rows (the ``n^k`` bound).

        A per-relation check, not a cumulative one: the paper bounds
        every *single* intermediate result, not their total.  The rows
        high-water itself is ``eval.max_intermediate_rows``, recorded by
        the evaluator's audit of the same table.
        """
        if self._chaos is not None:
            rows += self._chaos.oversize_rows
        self.checkpoint("rows", **partial)
        limit = self.budget.max_rows
        if limit is not None and rows > limit:
            self._exhaust(
                SpaceBudgetExceeded,
                "rows",
                limit,
                rows,
                f"intermediate relation of {rows} rows exceeds the "
                f"row budget of {limit}",
                partial,
            )

    def charge_decision(self, amount: int = 1, **partial: object) -> None:
        """One SAT decision."""
        self._decisions.value += amount
        self.checkpoint("decision", **partial)
        limit = self.budget.max_decisions
        if limit is not None and self._decisions.value > limit:
            self._exhaust(
                DecisionBudgetExceeded,
                "decisions",
                limit,
                self._decisions.value,
                f"SAT decision budget of {limit} exceeded",
                partial,
            )

    def charge_clauses(self, amount: int = 1, **partial: object) -> None:
        """``amount`` grounded nodes / CNF clauses (the Cor 3.7 size)."""
        self._clauses_total.value += amount
        self._stage_clauses += amount
        self.checkpoint("clauses", **partial)
        limit = self.budget.max_clauses
        if limit is not None and self._stage_clauses > limit:
            self._exhaust(
                ClauseBudgetExceeded,
                "clauses",
                limit,
                self._stage_clauses,
                f"grounded clause budget of {limit} exceeded",
                partial,
            )

    def reset_clauses(self) -> None:
        """Start a fresh clause-budget stage.

        The ESO degradation ladder retries a query at a lower rung after
        a :class:`~repro.errors.ClauseBudgetExceeded`; the per-stage
        counter restarts so the retry gets the full budget while
        ``guard.clauses`` in the metrics keeps the cumulative total.
        """
        self._stage_clauses = 0

    def reset(self) -> None:
        """Start a fresh request on this guard.

        Guards were historically one-shot: the deadline is anchored at
        construction and every counter accumulates forever, so reusing a
        guard across requests would both shrink the second request's
        deadline and charge it for the first one's work.  ``reset()``
        makes sequential reuse sound — a server serving many requests
        per tenant (see :mod:`repro.serve`) calls it between requests:

        * the wall-clock deadline is re-anchored at *now*, so every
          request gets the full ``deadline_seconds``;
        * all accounting (iterations, decisions, clauses, states,
          checkpoints) restarts at zero, so one tenant's
          consumption never leaks into the next request's budget
          arithmetic or error snapshots.

        The budget itself (the limits) is immutable and survives.
        """
        self._checkpoints.set(0)
        self._iterations.set(0)
        self._decisions.set(0)
        self._clauses_total.set(0)
        self._states.set(0)
        self._stage_clauses = 0
        self._started = self._clock()
        self._deadline = (
            self._started + self.budget.deadline_seconds
            if self.budget.deadline_seconds is not None
            else None
        )

    def try_charge_state(self, amount: int = 1) -> bool:
        """Charge cycle-detection states; False when over budget.

        The non-raising variant exists for graceful degradation: PFP
        evaluation switches to its strict O(1)-memory counting mode when
        this returns False instead of failing the query.
        """
        self._states.value += amount
        limit = self.budget.max_states
        return limit is None or self._states.value <= limit

    def charge_state(self, amount: int = 1, **partial: object) -> None:
        """Raising variant of :meth:`try_charge_state`."""
        if not self.try_charge_state(amount):
            self._exhaust(
                StateBudgetExceeded,
                "states",
                self.budget.max_states,
                self._states.value,
                f"cycle-detection state budget of "
                f"{self.budget.max_states} exceeded",
                partial,
            )

    # -- internals -------------------------------------------------------

    def _exhaust(
        self,
        exc_type: type,
        kind: str,
        limit: object,
        used: object,
        message: str,
        partial: Dict[str, object],
    ) -> None:
        progress = dict(partial)
        progress.setdefault("checkpoints", self.checkpoints)
        progress.setdefault("elapsed_seconds", self.elapsed_seconds())
        raise exc_type(
            message,
            kind=kind,
            limit=limit,
            used=used,
            partial=progress,
            metrics=self.registry.snapshot(),
        )

    def __repr__(self) -> str:
        return (
            f"ResourceGuard(budget={self.budget!r}, "
            f"checkpoints={self.checkpoints})"
        )


GuardLike = Union[NullGuard, ResourceGuard]


def resolve_guard(
    budget: Optional[Budget],
    chaos: Optional[object] = None,
    registry: Optional[MetricsRegistry] = None,
    check_interval: int = 1,
) -> GuardLike:
    """The guard for an evaluation: NULL_GUARD when nothing is configured."""
    if (budget is None or budget.is_unlimited()) and chaos is None:
        return NULL_GUARD
    return ResourceGuard(
        budget, registry=registry, chaos=chaos, check_interval=check_interval
    )


__all__ = [
    "Budget",
    "GuardLike",
    "NULL_GUARD",
    "NullGuard",
    "ResourceExhausted",
    "ResourceGuard",
    "resolve_guard",
]
