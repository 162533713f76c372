"""Admission control: bounded queue, weighted fairness, load shedding.

The paper's PTIME data-complexity bound is what makes bounded-variable
queries *servable* at all — but a server also has to survive the moments
when demand outruns that polynomial.  This module is the front door of
:mod:`repro.serve`: every request passes through one
:class:`AdmissionController`, which either grants a concurrency slot,
parks the request in a bounded weighted-fair queue, or *sheds* it with a
structured :class:`~repro.errors.Overloaded` carrying a retry-after
estimate.

Shedding is deadline-aware in three places:

* **enqueue, queue full** — the bounded queue refuses a request the
  moment the backlog hits ``max_queue`` (``"queue-full"``);
* **enqueue, deadline unreachable** — if the predicted queue wait
  (backlog × EWMA service time / concurrency) already exceeds the
  request's deadline, admitting it would only burn a slot on an answer
  nobody is waiting for (``"deadline-unreachable"``);
* **dispatch, expired** — a request whose deadline passed while queued
  is dropped at dispatch instead of evaluated (``"expired"``).

Fairness is classic weighted fair queueing over virtual time: each
tenant's next request is tagged ``max(vclock, last_tag[tenant]) +
cost/weight`` and the smallest tag dispatches first, so a tenant with
weight 4 drains roughly four requests for every one of a weight-1 tenant
under contention, while an idle tenant's first request is never starved.

Everything is asyncio-single-threaded and deterministic given a
deterministic clock — the chaos tests rely on that.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import Overloaded
from repro.guard.budget import Budget
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission currency: weight, budgets, retry allowance.

    ``budget`` is the evaluation budget every request of this tenant
    runs under (the Chen–Elberfeld-style space/row admission currency:
    deadline, rows high-water, iterations).  ``weight`` scales the
    tenant's share of the fair queue.  ``max_attempts`` bounds the
    retry loop; ``breaker_threshold`` consecutive backend failures trip
    the tenant's circuit breaker for ``breaker_cooldown`` seconds.
    """

    weight: float = 1.0
    budget: Budget = field(
        default_factory=lambda: Budget(deadline_seconds=30.0)
    )
    max_attempts: int = 3
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0

    def deadline(self) -> Optional[float]:
        return self.budget.deadline_seconds


class _Ticket:
    """One queued request: a future the dispatcher resolves or sheds."""

    __slots__ = ("future", "tenant", "enqueued", "expires", "cancelled")

    def __init__(
        self,
        future: "asyncio.Future[None]",
        tenant: str,
        enqueued: float,
        expires: Optional[float],
    ):
        self.future = future
        self.tenant = tenant
        self.enqueued = enqueued
        self.expires = expires
        self.cancelled = False


class AdmissionController:
    """Bounded, weighted-fair, deadline-aware request admission.

    Parameters
    ----------
    max_concurrency:
        Requests evaluated at once (the size of the worker pool, or the
        serial-inline slot count).
    max_queue:
        Requests parked beyond the running ones before shedding.
    expected_service_seconds:
        Seed for the EWMA service-time estimate behind retry-after and
        deadline-unreachable predictions; updated from real completions.
    clock:
        Injectable monotonic clock for deterministic tests.
    registry:
        Metrics registry; admission counters land under ``serve.*``.
    """

    def __init__(
        self,
        max_concurrency: int = 4,
        max_queue: int = 64,
        expected_service_seconds: float = 0.02,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricsRegistry] = None,
    ):
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self._clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self._admitted = self.registry.counter("serve.admitted")
        self._shed = self.registry.counter("serve.shed")
        self._expired = self.registry.counter("serve.shed_expired")
        self._queue_depth = self.registry.gauge("serve.queue_depth")
        self._inflight = self.registry.gauge("serve.inflight")
        self._queue_wait = self.registry.histogram(
            "serve.queue_wait_seconds", bounds=LATENCY_BUCKETS
        )
        self._heap: List[Tuple[float, int, _Ticket]] = []
        self._seq = 0
        self._queued = 0
        self._running = 0
        self._vclock = 0.0
        self._last_tag: Dict[str, float] = {}
        self._ewma_service = max(1e-6, expected_service_seconds)

    # -- readings --------------------------------------------------------

    @property
    def queued(self) -> int:
        return self._queued

    @property
    def running(self) -> int:
        return self._running

    def predicted_wait(self) -> float:
        """Expected queue wait for a request arriving now."""
        backlog = self._queued + max(0, self._running - self.max_concurrency + 1)
        return backlog * self._ewma_service / self.max_concurrency

    def retry_after(self) -> float:
        """The shed hint: when the backlog should have drained."""
        drain = (self._queued + self._running) * self._ewma_service
        return max(0.001, drain / self.max_concurrency)

    # -- admission -------------------------------------------------------

    async def admit(
        self,
        tenant: str,
        weight: float = 1.0,
        deadline: Optional[float] = None,
    ) -> float:
        """Wait for a concurrency slot; returns the queue wait in seconds.

        Raises :class:`~repro.errors.Overloaded` when the request is
        shed instead of admitted.  Every successful ``admit`` must be
        paired with exactly one :meth:`release`.
        """
        now = self._clock()
        if self._queued >= self.max_queue and self._running >= self.max_concurrency:
            self._shed.inc()
            raise Overloaded(
                f"queue full ({self._queued} waiting); retry in "
                f"{self.retry_after():.3f}s",
                retry_after=self.retry_after(),
                reason="queue-full",
                tenant=tenant,
            )
        predicted = self.predicted_wait()
        if deadline is not None and predicted > deadline:
            self._shed.inc()
            raise Overloaded(
                f"predicted queue wait {predicted:.3f}s exceeds the "
                f"request deadline of {deadline:g}s",
                retry_after=predicted,
                reason="deadline-unreachable",
                tenant=tenant,
            )
        tag = max(self._vclock, self._last_tag.get(tenant, 0.0)) + (
            self._ewma_service / max(weight, 1e-9)
        )
        self._last_tag[tenant] = tag
        loop = asyncio.get_running_loop()
        ticket = _Ticket(
            loop.create_future(),
            tenant,
            now,
            now + deadline if deadline is not None else None,
        )
        heapq.heappush(self._heap, (tag, self._seq, ticket))
        self._seq += 1
        self._queued += 1
        self._queue_depth.set(self._queued)
        self._dispatch()
        try:
            await ticket.future
        except asyncio.CancelledError:
            ticket.cancelled = True
            future = ticket.future
            if (
                future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                # the slot was granted before the caller was cancelled;
                # nobody will release it, so give it back now
                self.release()
            raise
        wait = self._clock() - ticket.enqueued
        self._queue_wait.observe(wait)
        return wait

    def release(self, service_seconds: Optional[float] = None) -> None:
        """Return a slot; feeds the EWMA and dispatches the next ticket."""
        self._running = max(0, self._running - 1)
        self._inflight.set(self._running)
        if service_seconds is not None and service_seconds >= 0.0:
            self._ewma_service = (
                0.8 * self._ewma_service + 0.2 * max(1e-6, service_seconds)
            )
        self._dispatch()

    # -- internals -------------------------------------------------------

    def _dispatch(self) -> None:
        while self._running < self.max_concurrency and self._heap:
            tag, _, ticket = heapq.heappop(self._heap)
            self._queued -= 1
            if ticket.cancelled or ticket.future.done():
                continue
            self._vclock = max(self._vclock, tag)
            if ticket.expires is not None and self._clock() > ticket.expires:
                self._expired.inc()
                self._shed.inc()
                ticket.future.set_exception(
                    Overloaded(
                        "deadline passed while queued",
                        retry_after=self.retry_after(),
                        reason="expired",
                        tenant=ticket.tenant,
                    )
                )
                continue
            self._running += 1
            self._admitted.inc()
            ticket.future.set_result(None)
        self._queue_depth.set(self._queued)
        self._inflight.set(self._running)

    def __repr__(self) -> str:
        return (
            f"AdmissionController(running={self._running}/"
            f"{self.max_concurrency}, queued={self._queued}/"
            f"{self.max_queue})"
        )


__all__ = ["AdmissionController", "TenantPolicy"]
