"""A resilient multi-tenant query service over the bounded-variable engines.

The paper's central promise — PTIME data complexity for ``L^k`` queries
(Prop 3.1) — is an *amortization* argument: prepare the small, fixed
query once, then answer it against large, changing data within a
polynomial budget.  This package is that argument turned into a server:

* :mod:`~repro.serve.service` — the :class:`QueryService` session layer
  (register databases, prepare queries once, evaluate many times) with
  retry/backoff, per-tenant circuit breakers, and a degradation ladder;
* :mod:`~repro.serve.admission` — bounded weighted-fair admission with
  deadline-aware load shedding (:class:`AdmissionController`,
  :class:`TenantPolicy`);
* :mod:`~repro.serve.retry` — deterministic backoff schedules and the
  breaker state machine (:class:`RetryPolicy`, :class:`CircuitBreaker`);
* :mod:`~repro.serve.workers` — the supervised process pool that
  survives worker crashes (:class:`WorkerPool`);
* :mod:`~repro.serve.http` — a stdlib-only HTTP front end
  (:class:`ServeHTTP`) behind ``repro serve``, including the
  ``GET /metrics`` exposition and ``GET /trace`` endpoints;
* :mod:`~repro.serve.telemetry` — the concurrency-safe JSONL request log.

The observability pipeline itself (rolling windows, SLO burn rates,
trace correlation, the flight recorder) lives in :mod:`repro.obs` and is
threaded through the service — see ``docs/observability.md``
("Operating the service") and ``docs/robustness.md`` ("Serving under
load") for the design tour.
"""

from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.http import ServeHTTP
from repro.serve.retry import CircuitBreaker, RetryPolicy
from repro.serve.service import (
    ChaosSpec,
    QueryService,
    STATS_SCHEMA_VERSION,
    ServeResponse,
)
from repro.serve.telemetry import TelemetryLog
from repro.serve.workers import WorkerCrashed, WorkerPool

__all__ = [
    "AdmissionController",
    "ChaosSpec",
    "CircuitBreaker",
    "QueryService",
    "RetryPolicy",
    "STATS_SCHEMA_VERSION",
    "ServeHTTP",
    "ServeResponse",
    "TelemetryLog",
    "TenantPolicy",
    "WorkerCrashed",
    "WorkerPool",
]
