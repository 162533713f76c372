"""The multi-tenant query service: sessions, retries, degradation.

:class:`QueryService` is the tentpole of :mod:`repro.serve`.  It owns

* a **registry** of named databases and prepared queries — a query is
  parsed and validated once (:meth:`prepare`) and evaluated many times,
  the serving shape the paper's combined-complexity results argue for
  (the query is small and fixed, the data large and changing);
* an **admission controller** (:class:`~repro.serve.admission.AdmissionController`)
  in front of a bounded worker pool, with per-tenant
  :class:`~repro.serve.admission.TenantPolicy` budgets as the admission
  currency;
* a **retry loop** with deterministic jittered backoff and per-tenant
  :class:`~repro.serve.retry.CircuitBreaker` — transient faults
  (injected chaos, worker-process crashes) are retried, and a tenant
  whose backend keeps failing is short-circuited to serial in-process
  evaluation until the breaker's cooldown passes;
* a **degradation ladder** for genuine resource exhaustion — a request
  that blows a row/iteration budget is retried on a cheaper
  configuration (packed → sparse backend, seminaive → naive strategy,
  cache off) instead of failing outright, and the response reports
  exactly which fallback served it;
* **telemetry** — every request lands in the shared metrics registry
  and (optionally) a JSONL event log;
* an **observability pipeline** threaded through all of the above:
  every request gets a deterministic ``request_id`` that crosses the
  worker-pool boundary and comes back stamped on the worker-side spans
  (reassembled into one trace per request, kept in a bounded
  :class:`~repro.obs.correlate.TraceStore`), rolling 60s/300s windows
  feed per-tenant :class:`~repro.obs.slo.SLOBoard` burn rates, the
  always-on :class:`~repro.obs.flight.FlightRecorder` keeps the recent
  event ring (dumped as a JSON post-mortem on crashes and terminal
  failures), and :meth:`QueryService.metrics_text` renders everything
  as the ``GET /metrics`` Prometheus exposition.

Every request resolves to exactly one of: a correct
:class:`ServeResponse`, a structured :class:`~repro.errors.Overloaded`
(shed, expired, or out of retries), or a structured
:class:`~repro.errors.ResourceExhausted` (the tenant's own budget, after
the ladder ran dry).  The chaos suite asserts that trichotomy under
sustained fault injection.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.engine import Query
from repro.database.database import Database
from repro.errors import (
    EvaluationError,
    Overloaded,
    ReproError,
    ResourceExhausted,
)
from repro.guard.chaos import ChaosPolicy, InjectedFault
from repro.obs.correlate import (
    TraceStore,
    assemble_trace,
    attempt_record,
    new_request_id,
)
from repro.obs.expo import Family, gauge_family, registry_families, render_families
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.slo import SLOBoard, SLOPolicy
from repro.perf.cache import SubqueryCache
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.retry import CircuitBreaker, RetryPolicy
from repro.serve.telemetry import TelemetryLog
from repro.serve.workers import (
    NotResident,
    WorkerCrashed,
    WorkerPool,
    build_payload,
    evaluate_payload,
)

#: Per-request chaos: one policy applied to every attempt (a persistent
#: fault), or a sequence indexed by attempt number (entry ``i`` hits
#: attempt ``i+1``; missing/``None`` entries leave the attempt clean —
#: the transient-fault shape retry loops exist for).
ChaosSpec = Union[None, ChaosPolicy, Sequence[Optional[ChaosPolicy]]]

#: Version of the ``/stats`` document layout; bump on key changes (the
#: ``EVAL_JSON_SCHEMA_VERSION`` pattern).  v2 added ``schema_version``,
#: ``uptime_seconds``, per-tenant breaker cooldowns, ``slo``,
#: ``flight``, and ``traces``.
STATS_SCHEMA_VERSION = 2

#: How many trailing flight-recorder events ride inside a structured
#: failure response (the full ring goes in the on-disk dump).
FLIGHT_TAIL = 32


def _chaos_for_attempt(chaos: ChaosSpec, attempt: int) -> Optional[ChaosPolicy]:
    if chaos is None or isinstance(chaos, ChaosPolicy):
        return chaos
    index = attempt - 1
    if 0 <= index < len(chaos):
        return chaos[index]
    return None


@dataclass
class ServeResponse:
    """One successfully served request, with its full robustness trail.

    The answer travels as ``rows_json``, the JSON array the worker
    encoded (:func:`~repro.serve.workers.encode_rows`), and
    ``row_count``; the HTTP layer splices the bytes into the ``/call``
    body unopened.  :attr:`rows` decodes them on first access.
    """

    tenant: str
    query: str
    db: str
    rows_json: bytes
    row_count: int
    arity: int
    language: str
    served_by: str  #: ``"pool"`` | ``"inline"`` | ``"breaker"``
    attempts: int
    retries: int
    degraded: Tuple[str, ...]
    queue_wait: float
    seconds: float = 0.0
    peak_rows: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    request_id: str = ""
    trace: Optional[List[Dict[str, object]]] = None
    _rows: Optional[Tuple[Tuple[object, ...], ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rows(self) -> Tuple[Tuple[object, ...], ...]:
        """The answer rows as an HTTP client receives them.

        JSON scalars come back as they were; a value JSON cannot
        represent comes back as its ``repr``, exactly as over HTTP.
        """
        if self._rows is None:
            self._rows = tuple(
                tuple(row) for row in json.loads(self.rows_json)
            )
        return self._rows

    def as_dict(self, rows: bool = True) -> Dict[str, object]:
        """A JSON-friendly rendering (rows become lists).

        ``rows=False`` leaves the ``rows`` key out, for a caller that
        writes :attr:`rows_json` in its place.
        """
        document: Dict[str, object] = {
            "tenant": self.tenant,
            "query": self.query,
            "db": self.db,
            "arity": self.arity,
            "language": self.language,
            "served_by": self.served_by,
            "attempts": self.attempts,
            "retries": self.retries,
            "degraded": list(self.degraded),
            "queue_wait": self.queue_wait,
            "seconds": self.seconds,
            "peak_rows": self.peak_rows,
            "request_id": self.request_id,
        }
        if rows:
            document["rows"] = json.loads(self.rows_json)
        if self.trace is not None:
            document["trace"] = list(self.trace)
        return document


class QueryService:
    """A long-lived, multi-tenant bounded-variable query service.

    Parameters
    ----------
    max_concurrency / max_queue / expected_service_seconds:
        Admission knobs — see :class:`AdmissionController`.
    workers:
        ``0`` (default) evaluates inline in this process — deterministic
        and single-flight, the right mode for tests and benches.  ``> 0``
        runs a supervised :class:`~repro.serve.workers.WorkerPool` of
        that many processes; worker crashes are retried transparently.
        Each worker keeps a resident copy of every database it has
        served, so a pool payload carries a version token (see
        :meth:`_db_version`) instead of the database.
    retry:
        The backoff schedule shared by all tenants (each tenant's
        ``max_attempts`` comes from its :class:`TenantPolicy`).
    cache:
        ``True`` shares one :class:`~repro.perf.cache.SubqueryCache`
        across requests (inline path) and enables per-process worker
        caches (pool path); an instance is used as-is; falsy disables.
        Cache keys hold the content of every relation a cached table
        was computed from, so :meth:`mutate` needs no cache call, and
        the cache's LRU alone bounds its memory.
    fault_injector:
        Optional ``request_index -> ChaosSpec`` hook — how the smoke
        test and the chaos bench inject faults into a live service
        without touching client code.
    slo:
        The :class:`~repro.obs.slo.SLOPolicy` every tenant's burn rate
        is computed against (``None`` → the default objective).
    flight_dump_dir:
        When set, worker crashes and terminal failures dump the flight
        recorder's event ring as a JSON post-mortem into this directory.
    clock / sleep:
        Injectable for deterministic tests (``sleep`` defaults to
        :func:`asyncio.sleep`).
    """

    def __init__(
        self,
        max_concurrency: int = 2,
        max_queue: int = 16,
        workers: int = 0,
        retry: Optional[RetryPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
        cache: Union[bool, SubqueryCache, None] = True,
        telemetry_path: Optional[str] = None,
        fault_injector: Optional[Callable[[int], ChaosSpec]] = None,
        slo: Optional[SLOPolicy] = None,
        flight_dump_dir: Optional[str] = None,
        flight_capacity: int = 512,
        trace_capacity: int = 64,
        expected_service_seconds: float = 0.02,
        clock: Callable[[], float] = time.monotonic,
        sleep: Optional[Callable[[float], "asyncio.Future"]] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.retry = retry if retry is not None else RetryPolicy()
        self._clock = clock
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self.admission = AdmissionController(
            max_concurrency=max_concurrency,
            max_queue=max_queue,
            expected_service_seconds=expected_service_seconds,
            clock=clock,
            registry=self.registry,
        )
        self._pool = WorkerPool(workers) if workers > 0 else None
        if cache is True:
            self._cache: Optional[SubqueryCache] = SubqueryCache(
                registry=self.registry
            )
        elif isinstance(cache, SubqueryCache):
            self._cache = cache
        else:
            self._cache = None
        self.telemetry = TelemetryLog(telemetry_path)
        self.fault_injector = fault_injector
        self.started = clock()
        self.slo = SLOBoard(slo if slo is not None else SLOPolicy(), clock=clock)
        self.flight = FlightRecorder(capacity=flight_capacity, clock=clock)
        self.flight_dump_dir = flight_dump_dir
        self.traces = TraceStore(capacity=trace_capacity)
        self._dbs: Dict[str, Database] = {}
        #: db name -> (identity, held objects, version token); see
        #: :meth:`_db_version`
        self._versions: Dict[str, Tuple[object, Tuple[object, ...], int]] = {}
        self._version_tokens = itertools.count(1)
        self._queries: Dict[str, Query] = {}
        self._tenants: Dict[str, TenantPolicy] = {}
        self._default_policy = TenantPolicy()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._request_index = 0
        self._requests = self.registry.counter("serve.requests")
        self._ok = self.registry.counter("serve.ok")
        self._failed = self.registry.counter("serve.failed")
        self._retries = self.registry.counter("serve.retries")
        self._degraded = self.registry.counter("serve.degraded")
        self._crashes = self.registry.counter("serve.worker_crashes")
        self._short_circuit = self.registry.counter(
            "serve.breaker_short_circuit"
        )
        self._breaker_trips = self.registry.counter("serve.breaker_trips")
        self._answer_rows = self.registry.counter("serve.answer_rows")
        self._db_ships = self.registry.counter("serve.db_ships")
        self._latency = self.registry.histogram(
            "serve.latency_seconds", bounds=LATENCY_BUCKETS
        )

    # -- registry --------------------------------------------------------

    def register_database(self, name: str, db: Database) -> None:
        """Register (or replace) a named database for serving."""
        if not isinstance(db, Database):
            raise EvaluationError(
                f"register_database expects a Database, got {type(db).__name__}"
            )
        self._dbs[name] = db

    def database(self, name: str) -> Database:
        try:
            return self._dbs[name]
        except KeyError:
            raise EvaluationError(f"unknown database {name!r}") from None

    def _db_version(self, name: str, database: Database) -> int:
        """The version token of the database registered as ``name``.

        Pool workers keep a resident copy per name, tagged with this
        token.  Domains and relations are immutable values, and every
        change to a registered database — :meth:`mutate`, a direct
        ``add_fact``/``remove_fact``, re-registration — swaps in new
        objects, so the token is derived from the identity of the
        domain and relation objects the database holds right now: the
        same objects keep their token, any other object mints a fresh
        one.  The objects behind the current token are held here, so
        their ids cannot be reused by newer objects while compared, and
        tokens come from a counter, so a worker holding an older copy
        can never match a newer token.
        """
        names = database.relation_names()
        objects = (database.domain,) + tuple(
            database.relation(rel) for rel in names
        )
        identity = (names, tuple(map(id, objects)))
        held = self._versions.get(name)
        if held is None or held[0] != identity:
            held = (identity, objects, next(self._version_tokens))
            self._versions[name] = held
        return held[2]

    def mutate(
        self, db_name: str, op: str, relation: str, values: Sequence[object]
    ) -> Dict[str, object]:
        """Apply one fact mutation to a registered database.

        Returns ``{"applied": bool, "db": name}``.  No cache is touched:
        cache keys hold relation content, so entries for the old content
        can never be hit again and age out of the LRU.  Nor is any worker
        told: the swapped-in relation gives the database a new version
        token at its next pool call.
        """
        db = self.database(db_name)
        if op == "add":
            applied = db.add_fact(relation, values)
        elif op == "remove":
            applied = db.remove_fact(relation, values)
        else:
            raise EvaluationError(
                f"unknown mutation op {op!r} (expected 'add' or 'remove')"
            )
        return {"applied": applied, "db": db_name}

    def prepare(
        self, name: str, text: str, output_vars: Sequence[str] = ()
    ) -> Dict[str, object]:
        """Parse, validate, and store a named query — parsed once here,
        evaluated many times by :meth:`call`."""
        query = Query.parse(text, output_vars=output_vars, name=name)
        self._queries[name] = query
        return {
            "name": name,
            "width": query.width,
            "language": query.language.value,
            "arity": query.arity,
        }

    def query(self, name: str) -> Query:
        try:
            return self._queries[name]
        except KeyError:
            raise EvaluationError(f"unknown prepared query {name!r}") from None

    def set_tenant(self, name: str, policy: TenantPolicy) -> None:
        self._tenants[name] = policy

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self._tenants.get(tenant, self._default_policy)

    def _breaker(self, tenant: str, policy: TenantPolicy) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=policy.breaker_threshold,
                cooldown=policy.breaker_cooldown,
                clock=self._clock,
            )
            self._breakers[tenant] = breaker
        return breaker

    # -- serving ---------------------------------------------------------

    async def call(
        self,
        tenant: str,
        query: str,
        db: str,
        strategy: str = "monotone",
        backend: Optional[str] = None,
        request_seed: Optional[int] = None,
        chaos: ChaosSpec = None,
        trace: bool = False,
    ) -> ServeResponse:
        """Serve one request end to end.

        Raises :class:`~repro.errors.Overloaded` when shed or out of
        retries, :class:`~repro.errors.ResourceExhausted` when the
        tenant's own budget ran out even after degradation, and other
        :class:`~repro.errors.ReproError` subclasses for invalid
        requests (unknown names, malformed queries) — those are never
        retried.

        ``trace=True`` records worker-side spans for every attempt and
        returns the assembled cross-process trace on the response (the
        trace is also kept in :attr:`traces` either way a successful
        traced request completes).
        """
        self._request_index += 1
        index = self._request_index
        request_id = new_request_id(index)
        arrival = self._clock()
        self._requests.inc()
        self.flight.record(
            "request", request_id=request_id, tenant=tenant,
            query=query, db=db,
        )
        policy = self.policy_for(tenant)
        if chaos is None and self.fault_injector is not None:
            chaos = self.fault_injector(index)
        seed = index if request_seed is None else request_seed
        try:
            prepared = self.query(query)
            database = self.database(db)
            queue_wait = await self.admission.admit(
                tenant, weight=policy.weight, deadline=policy.deadline()
            )
            start = self._clock()
            try:
                response = await self._serve(
                    tenant, policy, prepared, database,
                    query, db, strategy, backend, seed, chaos, queue_wait,
                    request_id, trace,
                )
            finally:
                self.admission.release(self._clock() - start)
        except Overloaded as exc:
            self._fail(
                tenant, query, db, "overloaded", exc.reason,
                request_id, arrival, exc,
                dump_reason=(
                    "retries-exhausted"
                    if exc.reason == "retries-exhausted"
                    else None
                ),
            )
            raise
        except ResourceExhausted as exc:
            self._fail(
                tenant, query, db, "exhausted", exc.kind,
                request_id, arrival, exc,
                dump_reason="resource-exhausted",
            )
            raise
        except ReproError as exc:
            self._fail(
                tenant, query, db, "error", str(exc),
                request_id, arrival, exc,
            )
            raise
        response.seconds = self._clock() - start
        response.request_id = request_id
        self._ok.inc()
        self._answer_rows.inc(response.row_count)
        self._latency.observe(response.seconds)
        self.slo.record(tenant, True, response.seconds)
        self.flight.record(
            "ok", request_id=request_id, tenant=tenant,
            served_by=response.served_by, attempts=response.attempts,
            seconds=round(response.seconds, 6),
        )
        self.telemetry.emit(
            {
                "event": "call",
                "outcome": "ok",
                "request_id": request_id,
                "tenant": tenant,
                "query": query,
                "db": db,
                "served_by": response.served_by,
                "attempts": response.attempts,
                "retries": response.retries,
                "degraded": list(response.degraded),
                "queue_wait": round(queue_wait, 6),
                "seconds": round(response.seconds, 6),
                "rows": response.row_count,
            }
        )
        return response

    def _fail(
        self,
        tenant: str,
        query: str,
        db: str,
        outcome: str,
        detail: str,
        request_id: str,
        arrival: float,
        exc: ReproError,
        dump_reason: Optional[str] = None,
    ) -> None:
        """The shared failure path: counters, SLO, flight, telemetry.

        Attaches the flight-recorder tail to the exception (the HTTP
        layer ships it in the error body) and, for terminal failures
        with a configured dump directory, writes the full-ring JSON
        post-mortem.
        """
        elapsed = self._clock() - arrival
        self._failed.inc()
        self.slo.record(tenant, False, elapsed)
        self.flight.record(
            outcome, request_id=request_id, tenant=tenant, detail=detail,
        )
        exc.flight = self.flight.snapshot(limit=FLIGHT_TAIL)
        if dump_reason is not None and self.flight_dump_dir is not None:
            self.flight.dump(
                self.flight_dump_dir,
                reason=dump_reason,
                request_id=request_id,
                extra={"tenant": tenant, "query": query, "db": db},
            )
        self._emit_failure(
            tenant, query, db, outcome, detail, request_id=request_id
        )

    async def _serve(
        self,
        tenant: str,
        policy: TenantPolicy,
        prepared: Query,
        database: Database,
        query_name: str,
        db_name: str,
        strategy: str,
        backend: Optional[str],
        seed: int,
        chaos: ChaosSpec,
        queue_wait: float,
        request_id: str,
        trace: bool,
    ) -> ServeResponse:
        """The retry/degradation loop for one admitted request."""
        breaker = self._breaker(tenant, policy)
        trips_before = breaker.trips
        if self._pool is None:
            served_by = "inline"
        elif breaker.allow():
            served_by = "pool"
        else:
            served_by = "breaker"
            self._short_circuit.inc()
        degraded: List[str] = []
        cache_on = self._cache is not None
        cur_strategy = strategy
        cur_backend = backend
        delays = self.retry.delays(seed)
        max_attempts = max(1, policy.max_attempts)
        attempts = 0
        retries = 0
        serve_start = self._clock()
        attempt_trail: List[Dict[str, object]] = []
        while True:
            attempts += 1
            pooled = served_by == "pool"
            version = self._db_version(db_name, database) if pooled else None
            payload = build_payload(
                prepared.formula,
                None if pooled else database,
                prepared.output_vars,
                strategy=cur_strategy,
                k_limit=None,
                backend=cur_backend,
                budget=policy.budget,
                chaos=_chaos_for_attempt(chaos, attempts),
                cache=cache_on,
                allow_crash=pooled,
                request_id=request_id,
                trace=trace,
                db_name=db_name,
                db_version=version,
            )
            attempt_start = self._clock() - serve_start
            shipped = False
            try:
                if pooled:
                    try:
                        raw = await self._pool.submit(payload)
                    except NotResident:
                        # hydration, not a retry: the same attempt again,
                        # with the database attached
                        shipped = True
                        self._db_ships.inc()
                        raw = await self._pool.submit(
                            dict(payload, db=database)
                        )
                else:
                    raw = evaluate_payload(
                        payload, cache=self._cache if cache_on else None
                    )
                breaker.record_success()
                attempt_trail.append(
                    attempt_record(
                        attempts,
                        served_by,
                        attempt_start,
                        self._clock() - serve_start - attempt_start,
                        "ok",
                        spans=raw.get("spans"),
                        pid=raw.get("pid"),
                        shipped_db=shipped,
                    )
                )
                spans = assemble_trace(
                    request_id,
                    attempt_trail,
                    duration=self._clock() - serve_start,
                    tenant=tenant,
                    query=query_name,
                    db=db_name,
                    served_by=served_by,
                )
                self.traces.put(request_id, spans)
                return ServeResponse(
                    tenant=tenant,
                    query=query_name,
                    db=db_name,
                    rows_json=raw["rows_json"],
                    row_count=int(raw["row_count"]),
                    arity=int(raw["arity"]),
                    language=str(raw["language"]),
                    served_by=served_by,
                    attempts=attempts,
                    retries=retries,
                    degraded=tuple(degraded),
                    queue_wait=queue_wait,
                    peak_rows=int(raw["peak_rows"]),
                    stats=dict(raw["stats"]),
                    request_id=request_id,
                    trace=spans if trace else None,
                )
            except (InjectedFault, WorkerCrashed) as exc:
                crashed = isinstance(exc, WorkerCrashed)
                attempt_trail.append(
                    attempt_record(
                        attempts,
                        served_by,
                        attempt_start,
                        self._clock() - serve_start - attempt_start,
                        "crash" if crashed else "fault",
                        shipped_db=shipped,
                    )
                )
                if crashed:
                    self._crashes.inc()
                    self.flight.record(
                        "crash", request_id=request_id, tenant=tenant,
                        attempt=attempts, detail=str(exc),
                    )
                    if self.flight_dump_dir is not None:
                        self.flight.dump(
                            self.flight_dump_dir,
                            reason="worker-crash",
                            request_id=request_id,
                            extra={"tenant": tenant, "query": query_name},
                        )
                else:
                    self.flight.record(
                        "fault", request_id=request_id, tenant=tenant,
                        attempt=attempts, detail=str(exc),
                    )
                breaker.record_failure()
                self._breaker_trips.set(
                    self._breaker_trips.value + breaker.trips - trips_before
                )
                trips_before = breaker.trips
                if attempts >= max_attempts:
                    self.traces.put(
                        request_id,
                        assemble_trace(
                            request_id,
                            attempt_trail,
                            duration=self._clock() - serve_start,
                            tenant=tenant,
                            query=query_name,
                            db=db_name,
                            outcome="retries-exhausted",
                        ),
                    )
                    raise Overloaded(
                        f"request failed after {attempts} attempts "
                        f"(last: {exc})",
                        retry_after=next(delays),
                        reason="retries-exhausted",
                        tenant=tenant,
                    ) from exc
                retries += 1
                self._retries.inc()
                self.flight.record(
                    "retry", request_id=request_id, tenant=tenant,
                    attempt=attempts,
                )
                if served_by == "pool" and not breaker.allow():
                    served_by = "breaker"
                    self._short_circuit.inc()
                await self._sleep(next(delays))
            except ResourceExhausted as exc:
                # The tenant's own budget, not a backend fault: never a
                # breaker failure, and retrying the same configuration
                # would only exhaust it again — walk the ladder instead.
                attempt_trail.append(
                    attempt_record(
                        attempts,
                        served_by,
                        attempt_start,
                        self._clock() - serve_start - attempt_start,
                        f"exhausted:{exc.kind}",
                        shipped_db=shipped,
                    )
                )
                step = self._degrade_step(
                    exc, cur_backend, cur_strategy, cache_on
                )
                if step is None:
                    self.traces.put(
                        request_id,
                        assemble_trace(
                            request_id,
                            attempt_trail,
                            duration=self._clock() - serve_start,
                            tenant=tenant,
                            query=query_name,
                            db=db_name,
                            outcome="resource-exhausted",
                        ),
                    )
                    raise
                tag, cur_backend, cur_strategy, cache_on = step
                degraded.append(tag)
                self._degraded.inc()
                self.flight.record(
                    "degrade", request_id=request_id, tenant=tenant,
                    rung=tag,
                )
                attempts -= 1  # ladder rungs are free; retries are not

    def _degrade_step(
        self,
        exc: ResourceExhausted,
        backend: Optional[str],
        strategy: str,
        cache_on: bool,
    ) -> Optional[Tuple[str, Optional[str], str, bool]]:
        """The next degradation rung, or ``None`` when the ladder is dry.

        Deadline exhaustion is never degraded — a cheaper configuration
        cannot recover wall-clock time already spent.
        """
        if exc.kind == "deadline":
            return None
        if backend == "packed":
            return ("packed→sparse", "sparse", strategy, cache_on)
        if strategy == "seminaive":
            return ("seminaive→naive", backend, "naive", cache_on)
        if cache_on:
            return ("cache-off", backend, strategy, False)
        return None

    def _emit_failure(
        self,
        tenant: str,
        query: str,
        db: str,
        outcome: str,
        detail: str,
        request_id: Optional[str] = None,
    ) -> None:
        event: Dict[str, object] = {
            "event": "call",
            "outcome": outcome,
            "detail": detail,
            "tenant": tenant,
            "query": query,
            "db": db,
        }
        if request_id is not None:
            event["request_id"] = request_id
        self.telemetry.emit(event)

    # -- observability / lifecycle --------------------------------------

    def stats(self) -> Dict[str, object]:
        """The ``/stats`` document: metrics snapshot + structural state.

        The layout is versioned (``schema_version``) so dashboards can
        detect incompatible changes — the serving twin of the run-record
        schema version.
        """
        return {
            "schema_version": STATS_SCHEMA_VERSION,
            "uptime_seconds": max(0.0, self._clock() - self.started),
            "metrics": self.registry.snapshot(),
            "admission": {
                "running": self.admission.running,
                "queued": self.admission.queued,
                "predicted_wait": self.admission.predicted_wait(),
            },
            "breakers": {
                tenant: {
                    "state": breaker.state,
                    "consecutive_failures": breaker.consecutive_failures,
                    "trips": breaker.trips,
                    "cooldown_remaining": breaker.cooldown_remaining(),
                }
                for tenant, breaker in sorted(self._breakers.items())
            },
            "pool": {
                "workers": self._pool.workers if self._pool else 0,
                "restarts": self._pool.restarts if self._pool else 0,
            },
            "databases": sorted(self._dbs),
            "queries": sorted(self._queries),
            "cache": repr(self._cache) if self._cache is not None else None,
            "slo": self.slo.snapshot(),
            "flight": {
                "captured": self.flight.captured,
                "dropped": self.flight.dropped,
                "recorded": self.flight.recorded,
                "last_dump": self.flight.last_dump,
            },
            "traces": {
                "stored": len(self.traces),
                "ids": self.traces.ids()[-8:],
            },
        }

    def metrics_families(self) -> List[Family]:
        """Every exposition family: registry + SLO windows + flight ring."""
        families = registry_families(self.registry)
        families.append(
            gauge_family(
                "serve.uptime_seconds",
                "Seconds since the service started.",
                [({}, max(0.0, self._clock() - self.started))],
            )
        )
        burn, avail, latency, requests, errors = [], [], [], [], []
        board = self.slo.snapshot()
        tenants = dict(board["tenants"])
        tenants["_total"] = board["total"]
        for tenant, horizons in sorted(tenants.items()):
            for label, window in sorted(horizons.items()):
                key = {"tenant": tenant, "window": label}
                burn.append((key, window["burn_rate"]))
                avail.append((key, window["availability"]))
                latency.append((key, window["latency"]))
                requests.append((key, window["requests"]))
                errors.append((key, window["errors"]))
        families.extend(
            [
                gauge_family(
                    "serve.slo_burn_rate",
                    "Error-budget burn rate over the rolling window "
                    "(1.0 = spending exactly the budget).",
                    burn,
                ),
                gauge_family(
                    "serve.slo_availability",
                    "Success fraction over the rolling window.",
                    avail,
                ),
                gauge_family(
                    "serve.slo_latency_seconds",
                    "The SLO latency quantile over the rolling window.",
                    latency,
                ),
                gauge_family(
                    "serve.window_requests",
                    "Requests observed in the rolling window.",
                    requests,
                ),
                gauge_family(
                    "serve.window_errors",
                    "Failed requests observed in the rolling window.",
                    errors,
                ),
                gauge_family(
                    "serve.flight_events",
                    "Flight-recorder ring occupancy.",
                    [
                        ({"state": "captured"}, self.flight.captured),
                        ({"state": "dropped"}, self.flight.dropped),
                    ],
                ),
            ]
        )
        return families

    def metrics_text(self) -> str:
        """The ``GET /metrics`` Prometheus-style exposition document."""
        return render_families(self.metrics_families())

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
        self.telemetry.close()

    def __repr__(self) -> str:
        return (
            f"QueryService(queries={len(self._queries)}, "
            f"dbs={len(self._dbs)}, {self.admission!r})"
        )


__all__ = [
    "ChaosSpec",
    "FLIGHT_TAIL",
    "QueryService",
    "STATS_SCHEMA_VERSION",
    "ServeResponse",
]
