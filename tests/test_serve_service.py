"""End-to-end tests for QueryService: correctness, retries, degradation."""

import asyncio
import json
import pickle

import pytest

from repro.core.engine import Query
from repro.database.database import Database
from repro.database.domain import Domain
from repro.errors import EvaluationError, Overloaded, ResourceExhausted
from repro.guard.budget import Budget
from repro.guard.chaos import ChaosPolicy
from repro.kernel.lru import LRU
from repro.kernel.packed import DomainCodec, PackedRelation
from repro.obs.tracer import Tracer
from repro.perf.cache import SubqueryCache
from repro.serve import workers
from repro.serve.admission import TenantPolicy
from repro.serve.cli import TC_QUERY
from repro.serve.retry import OPEN, RetryPolicy
from repro.serve.service import QueryService
from repro.serve.workers import NotResident, build_payload, worker_call
from repro.workloads.graphs import random_graph

FAST_RETRY = RetryPolicy(base_delay=0.0, jitter=0.0)


def path_db(n=6):
    return Database.from_tuples(
        range(n), {"E": (2, [(i, i + 1) for i in range(n - 1)])}
    )


def make_service(**kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    service = QueryService(**kwargs)
    service.register_database("g", path_db())
    service.prepare("tc", TC_QUERY, ("u", "v"))
    return service


def cycle_db(n=6):
    """``path_db(n)`` plus the back-edge ``(n - 1, 0)``."""
    return Database.from_tuples(
        range(n),
        {"E": (2, [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)])},
    )


def expected_tc(db):
    return sorted(Query.parse(TC_QUERY, ("u", "v")).run(db).relation.tuples)


def run(coro):
    return asyncio.run(coro)


class TestServing:
    def test_differential_correctness_inline(self):
        service = make_service()
        response = run(service.call("t0", "tc", "g"))
        assert sorted(response.rows) == expected_tc(path_db())
        assert response.served_by == "inline"
        assert response.attempts == 1
        assert response.retries == 0
        assert response.degraded == ()
        snap = service.registry.snapshot()
        assert snap["serve.ok"] == 1
        assert snap["serve.answer_rows"] == len(response.rows)
        service.close()

    def test_prepared_once_served_many(self):
        service = make_service()

        async def main():
            return await asyncio.gather(
                *[service.call("t0", "tc", "g") for _ in range(5)]
            )

        responses = run(main())
        want = expected_tc(path_db())
        assert all(sorted(r.rows) == want for r in responses)
        assert service.registry.snapshot()["serve.ok"] == 5
        service.close()

    def test_unknown_query_and_db_are_not_retried(self):
        service = make_service()
        with pytest.raises(EvaluationError):
            run(service.call("t0", "nope", "g"))
        with pytest.raises(EvaluationError):
            run(service.call("t0", "tc", "nope"))
        assert service.registry.snapshot()["serve.retries"] == 0
        service.close()


class TestRetries:
    def test_transient_fault_is_retried_to_success(self):
        service = make_service()
        transient = [ChaosPolicy(seed=1, fail_at=1), None]
        response = run(service.call("t0", "tc", "g", chaos=transient))
        assert sorted(response.rows) == expected_tc(path_db())
        assert response.attempts == 2
        assert response.retries == 1
        assert service.registry.snapshot()["serve.retries"] == 1
        service.close()

    def test_persistent_fault_exhausts_retries_with_structured_error(self):
        service = make_service()
        service.set_tenant("t0", TenantPolicy(max_attempts=3))
        with pytest.raises(Overloaded) as exc:
            run(
                service.call(
                    "t0", "tc", "g", chaos=ChaosPolicy(seed=2, fail_at=1)
                )
            )
        assert exc.value.reason == "retries-exhausted"
        assert exc.value.tenant == "t0"
        assert exc.value.retry_after >= 0  # zero-delay test policy
        snap = service.registry.snapshot()
        assert snap["serve.failed"] == 1
        assert snap["serve.retries"] == 2  # attempts 3 = 2 retries
        service.close()

    def test_breaker_trips_after_repeated_failures(self):
        service = make_service()
        service.set_tenant(
            "flaky", TenantPolicy(max_attempts=2, breaker_threshold=2)
        )
        with pytest.raises(Overloaded):
            run(
                service.call(
                    "flaky", "tc", "g", chaos=ChaosPolicy(seed=3, fail_at=1)
                )
            )
        stats = service.stats()
        assert stats["breakers"]["flaky"]["state"] == OPEN
        assert stats["breakers"]["flaky"]["trips"] == 1
        assert stats["metrics"]["serve.breaker_trips"] == 1
        # a clean request still serves (inline mode never short-circuits
        # to a different path, and success resets the failure streak)
        response = run(service.call("flaky", "tc", "g"))
        assert sorted(response.rows) == expected_tc(path_db())
        service.close()


class TestDegradation:
    def test_ladder_walks_all_rungs_then_raises(self):
        service = make_service()
        service.set_tenant(
            "tight", TenantPolicy(budget=Budget(max_rows=1))
        )
        with pytest.raises(ResourceExhausted) as exc:
            run(
                service.call(
                    "tight", "tc", "g",
                    strategy="seminaive", backend="packed",
                )
            )
        assert exc.value.kind == "rows"
        snap = service.registry.snapshot()
        # packed→sparse, seminaive→naive, cache-off: three rungs tried
        assert snap["serve.degraded"] == 3
        assert snap["serve.retries"] == 0  # rungs are not retries
        service.close()

    def test_deadline_exhaustion_is_never_degraded(self):
        service = make_service()
        # every checkpoint sleeps past the 5ms deadline, so the first
        # one exhausts it mid-evaluation however fast the evaluation
        # runs, yet the request clears admission (dispatch is
        # microseconds)
        service.register_database("big", path_db(40))
        service.set_tenant(
            "late", TenantPolicy(budget=Budget(deadline_seconds=5e-3))
        )
        slow = ChaosPolicy(slow_step_seconds=6e-3)
        with pytest.raises(ResourceExhausted) as exc:
            run(service.call("late", "tc", "big", backend="packed", chaos=slow))
        assert exc.value.kind == "deadline"
        assert service.registry.snapshot()["serve.degraded"] == 0
        service.close()

    def test_full_cache_keeps_serving_hits(self):
        """A cache at its row bound evicts to make room: a repeated
        request still hits it and is never degraded."""
        cache = SubqueryCache(max_total_rows=400)
        service = QueryService(retry=FAST_RETRY, cache=cache)
        service.prepare("tc", TC_QUERY, ("u", "v"))
        graphs = [random_graph(12, 0.25, seed=i) for i in range(3)]
        for i, db in enumerate(graphs):
            service.register_database(f"g{i}", db)
        for name in ("g0", "g1", "g2"):
            run(service.call("t0", "tc", name))
        response = run(service.call("t0", "tc", "g2"))
        assert response.degraded == ()
        assert response.stats.get("subquery_cache_hits", 0) >= 1
        assert cache.total_rows <= 400
        assert sorted(response.rows) == expected_tc(graphs[2])
        service.close()


class TestMutation:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_mutation_results_stay_fresh(self, workers):
        service = make_service(workers=workers)
        try:
            before = run(service.call("t0", "tc", "g"))
            result = service.mutate("g", "add", "E", (5, 0))
            assert result == {"applied": True, "db": "g"}
            after = run(service.call("t0", "tc", "g"))
            assert after.served_by == ("pool" if workers else "inline")
            # the added back-edge closes the cycle: strictly more pairs
            assert len(after.rows) > len(before.rows)
            assert sorted(after.rows) == expected_tc(service.database("g"))
        finally:
            service.close()

    def test_noop_mutation_does_not_bump_generation(self):
        service = make_service()
        edges = service.database("g").relation("E")
        assert service.mutate("g", "add", "E", (0, 1))["applied"] is False
        assert service.database("g").relation("E") is edges
        assert service.mutate("g", "remove", "E", (0, 1))["applied"] is True
        assert (0, 1) not in service.database("g").relation("E")
        service.close()

    def test_unknown_mutation_op(self):
        service = make_service()
        with pytest.raises(EvaluationError):
            service.mutate("g", "upsert", "E", (0, 1))
        service.close()


class TestCacheFreshness:
    """Cached answers stay fresh by content.

    Two distinct, never-mutated databases with different facts must
    never be served each other's rows, neither from the shared inline
    cache nor from a pool worker's per-process cache.
    """

    @pytest.mark.parametrize("workers", [0, 1])
    def test_same_generation_databases_never_share_answers(self, workers):
        forward = path_db()
        backward = Database.from_tuples(
            range(6), {"E": (2, [(i + 1, i) for i in range(5)])}
        )
        assert expected_tc(forward) != expected_tc(backward)
        service = QueryService(retry=FAST_RETRY, workers=workers)
        try:
            service.prepare("tc", TC_QUERY, ("u", "v"))
            # register, re-register over the same name, then register
            # the first database again under a second name
            for name, db in (("g", forward), ("g", backward), ("h", forward)):
                service.register_database(name, db)
                response = run(service.call("t0", "tc", name))
                assert response.served_by == ("pool" if workers else "inline")
                assert sorted(response.rows) == expected_tc(db)
        finally:
            service.close()


class TestTelemetryAndStats:
    def test_jsonl_telemetry_records_outcomes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        service = make_service(telemetry_path=str(path))
        run(service.call("t0", "tc", "g"))
        with pytest.raises(Overloaded):
            run(
                service.call(
                    "t0", "tc", "g", chaos=ChaosPolicy(seed=4, fail_at=1)
                )
            )
        service.close()
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [e["outcome"] for e in events] == ["ok", "overloaded"]
        assert events[0]["rows"] > 0
        assert events[1]["detail"] == "retries-exhausted"

    def test_unknown_names_are_counted_and_logged_once(self, tmp_path):
        path = tmp_path / "events.jsonl"
        service = make_service(telemetry_path=str(path))
        run(service.call("t0", "tc", "g"))
        with pytest.raises(EvaluationError):
            run(service.call("t0", "nope", "g"))
        with pytest.raises(EvaluationError):
            run(service.call("t0", "tc", "nope"))
        service.close()
        snap = service.registry.snapshot()
        ok, failed = snap["serve.ok"], snap["serve.failed"]
        assert snap["serve.requests"] == ok + failed
        assert (ok, failed) == (1, 2)
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [e["request_id"] for e in events] == [
            "req-000001", "req-000002", "req-000003",
        ]
        assert [e["outcome"] for e in events] == ["ok", "error", "error"]
        # every flight `request` event has an outcome event
        for event in service.flight.events(kind="request"):
            kinds = [
                e["kind"]
                for e in service.flight.events(request_id=event["request_id"])
            ]
            assert kinds[0] == "request" and len(kinds) == 2

    def test_stats_document_shape(self):
        service = make_service()
        run(service.call("t0", "tc", "g"))
        stats = service.stats()
        assert stats["databases"] == ["g"]
        assert stats["queries"] == ["tc"]
        assert stats["admission"]["running"] == 0
        assert stats["pool"] == {"workers": 0, "restarts": 0}
        assert stats["metrics"]["serve.requests"] == 1
        assert stats["metrics"]["serve.latency_seconds"]["count"] == 1
        service.close()


class TestWorkerPool:
    def test_pool_crash_is_retried_and_pool_rebuilt(self):
        service = make_service(workers=1)
        try:
            crash = ChaosPolicy(seed=0, fail_at=2, fault_kinds=("crash",))
            response = run(
                service.call("t0", "tc", "g", chaos=[crash, None])
            )
            assert sorted(response.rows) == expected_tc(path_db())
            assert response.served_by == "pool"
            assert response.attempts == 2
            assert response.retries == 1
            snap = service.registry.snapshot()
            assert snap["serve.worker_crashes"] == 1
            assert service.stats()["pool"]["restarts"] == 1
            # the rebuilt pool serves the next request cleanly
            clean = run(service.call("t0", "tc", "g"))
            assert clean.attempts == 1
            assert sorted(clean.rows) == expected_tc(path_db())
        finally:
            service.close()


def attempt_shipped(service, response):
    """``shipped_db`` of each ``serve.attempt`` span of a request."""
    return [
        span["attrs"]["shipped_db"]
        for span in service.traces.get(response.request_id)
        if span["name"] == "serve.attempt"
    ]


class TestResidentDatabases:
    """Pool workers keep a resident copy of each database, tagged with
    the service's version token; a payload carries the token, and a
    database crosses the pool boundary only when a worker lacks it."""

    def test_unchanged_database_ships_once(self):
        service = make_service(workers=1)
        # one attempt and a breaker that trips on the first failure:
        # hydrating the worker must be neither a retry nor a failure
        service.set_tenant(
            "t0", TenantPolicy(max_attempts=1, breaker_threshold=1)
        )
        try:
            shipped = []
            for _ in range(5):
                response = run(service.call("t0", "tc", "g"))
                assert response.served_by == "pool"
                assert response.attempts == 1
                assert sorted(response.rows) == expected_tc(path_db())
                shipped.append(attempt_shipped(service, response))
            assert shipped == [[True], [False], [False], [False], [False]]
            snap = service.registry.snapshot()
            assert snap["serve.db_ships"] == 1
            assert snap["serve.retries"] == 0
            assert service.stats()["breakers"]["t0"]["trips"] == 0
            assert "repro_serve_db_ships_total 1" in service.metrics_text()
        finally:
            service.close()

    def test_mutation_ships_the_new_version_once(self):
        service = make_service(workers=1)
        try:
            run(service.call("t0", "tc", "g"))
            service.mutate("g", "add", "E", (5, 0))
            shipped = []
            for _ in range(3):
                response = run(service.call("t0", "tc", "g"))
                assert sorted(response.rows) == expected_tc(cycle_db())
                shipped.append(attempt_shipped(service, response))
            assert shipped == [[True], [False], [False]]
            assert service.registry.snapshot()["serve.db_ships"] == 2
        finally:
            service.close()

    def test_direct_add_fact_reaches_the_next_pool_call(self):
        service = make_service(workers=1)
        try:
            run(service.call("t0", "tc", "g"))
            # bypasses mutate(): the swapped-in relation object alone
            # must yield a new version token
            assert service.database("g").add_fact("E", (5, 0))
            response = run(service.call("t0", "tc", "g"))
            assert sorted(response.rows) == expected_tc(cycle_db())
            assert attempt_shipped(service, response) == [True]
            assert service.registry.snapshot()["serve.db_ships"] == 2
        finally:
            service.close()

    def test_crash_rebuild_rehydrates_lazily(self):
        service = make_service(workers=1)
        try:
            run(service.call("t0", "tc", "g"))  # hydrates the first pool
            # the warm call is a cache hit: one checkpoint, its one audit
            crash = ChaosPolicy(seed=0, fail_at=1, fault_kinds=("crash",))
            response = run(
                service.call("t0", "tc", "g", chaos=[crash, None])
            )
            assert sorted(response.rows) == expected_tc(path_db())
            assert response.attempts == 2
            assert response.retries == 1
            # the first attempt crashed on the resident copy; the retry
            # met a rebuilt, empty pool and shipped the database again
            assert attempt_shipped(service, response) == [False, True]
            assert service.stats()["pool"]["restarts"] == 1
            snap = service.registry.snapshot()
            assert snap["serve.db_ships"] == 2
            assert snap["serve.worker_crashes"] == 1
            assert snap["serve.retries"] == 1
        finally:
            service.close()


class TestResidentProtocol:
    """The worker side of the protocol, run in this process."""

    def test_worker_call_needs_the_payloads_version(self, monkeypatch):
        monkeypatch.setattr(workers, "_RESIDENT", {})
        formula = Query.parse(TC_QUERY, ("u", "v")).formula
        payload = build_payload(
            formula, None, ("u", "v"), db_name="g", db_version=1
        )
        with pytest.raises(NotResident) as exc:
            worker_call(payload)
        assert (exc.value.db, exc.value.version) == ("g", 1)
        hydrated = worker_call(dict(payload, db=path_db()))
        resident = worker_call(payload)
        assert resident["rows_json"] == hydrated["rows_json"]
        rows = json.loads(resident["rows_json"])
        assert resident["row_count"] == len(rows)
        assert sorted(map(tuple, rows)) == expected_tc(path_db())
        with pytest.raises(NotResident):
            worker_call(dict(payload, db_version=2))

    def test_not_resident_pickles_with_its_fields(self):
        error = pickle.loads(
            pickle.dumps(NotResident("absent", db="g", version=3))
        )
        assert isinstance(error, NotResident)
        assert (str(error), error.db, error.version) == ("absent", "g", 3)


class TestAnswerEncoding:
    """Answers are encoded once per content, in the evaluating process."""

    def test_encoding_is_the_json_array_sorted_by_repr(self):
        rows = frozenset({(10, 2), (2, 10), (3, "a")})
        assert workers.encode_rows(rows) == json.dumps(
            [[10, 2], [2, 10], [3, "a"]]
        ).encode()

    def test_memo_is_keyed_by_the_row_set_and_bounded(self, monkeypatch):
        memo = LRU(2, max_weight=5)
        monkeypatch.setattr(workers, "_ENCODED", memo)
        tracer = Tracer()
        first = frozenset({(1,), (2,)})
        workers.encode_rows(first, tracer)
        workers.encode_rows(first, tracer)
        # equal content in another object is encoded anew: equal rows
        # can render differently, as (1,) == (1.0,) == (True,) shows
        assert workers.encode_rows(frozenset({(1.0,), (2,)}), tracer) == (
            b"[[1.0], [2]]"
        )
        assert [span.name for span in tracer.spans] == ["serve.encode"] * 3
        assert [span.attrs["reused"] for span in tracer.spans] == [
            False, True, False,
        ]
        assert [span.attrs["rows"] for span in tracer.spans] == [2, 2, 2]
        # heavier than the row bound on its own: encoded, not retained
        big = frozenset((i,) for i in range(6))
        assert json.loads(workers.encode_rows(big)) == [[i] for i in range(6)]
        assert (len(memo), memo.weight) == (2, 4)
        # a third answer evicts the least recently used one
        workers.encode_rows(frozenset({(4,)}))
        assert (len(memo), memo.weight, memo.evictions.value) == (2, 3, 1)

    def test_equal_answers_of_other_types_keep_their_own_rendering(self):
        # {(0, 1)} == {(False, True)}: a memo keyed by content alone
        # answered the second database with the first one's [[0, 1]]
        service = QueryService(retry=FAST_RETRY, cache=False)
        for name, values in (("ints", [0, 1]), ("bools", [False, True])):
            service.register_database(
                name,
                Database.from_tuples(values, {"E": (2, [tuple(values)])}),
            )
        service.prepare("e", "E(x, y)", ("x", "y"))
        for name in ("ints", "bools", "ints", "bools"):
            response = run(service.call("t0", "e", name))
            want = b"[[0, 1]]" if name == "ints" else b"[[false, true]]"
            assert response.rows_json == want
        service.close()

    def test_cached_tables_keep_their_value_types(self):
        # a shared subquery cache keyed on domain values compared with
        # ==, so {(False, True)}'s closure was served {(0, 1)}'s table
        service = QueryService(retry=FAST_RETRY, cache=True)
        for name, values in (("ints", [0, 1]), ("bools", [False, True])):
            service.register_database(
                name,
                Database.from_tuples(values, {"E": (2, [tuple(values)])}),
            )
        service.prepare("tc", TC_QUERY, ("u", "v"))
        for name in ("ints", "bools"):
            response = run(service.call("t0", "tc", name))
            want = b"[[0, 1]]" if name == "ints" else b"[[false, true]]"
            assert response.rows_json == want
        service.close()

    def test_packed_answers_are_memoized_by_codec_arity_and_mask(
        self, monkeypatch
    ):
        monkeypatch.setattr(workers, "_ENCODED", LRU(4))
        codec = DomainCodec(Domain([0, 1]))
        twin = DomainCodec(Domain([False, True]))
        tracer = Tracer()
        # every call hands a fresh relation; equal content under one
        # codec is one entry, and a warm one is never decoded
        for _ in range(2):
            answer = PackedRelation(2, 0b0010, codec)
            assert workers.encode_rows(answer, tracer) == b"[[0, 1]]"
        assert answer._materialized is None
        assert workers.encode_rows(PackedRelation(1, 0b10, codec), tracer) == (
            b"[[1]]"
        )
        assert workers.encode_rows(PackedRelation(2, 0b0010, twin), tracer) == (
            b"[[false, true]]"
        )
        assert [span.attrs["reused"] for span in tracer.spans] == [
            False, True, False, False,
        ]
        assert [span.attrs["rows"] for span in tracer.spans] == [1, 1, 1, 1]

    def test_memo_bounds_are_the_module_constants(self):
        assert workers._ENCODED.max_entries == workers.ANSWER_MEMO_ENTRIES
        assert workers._ENCODED.max_weight == workers.ANSWER_MEMO_ROWS

    def test_response_rows_hold_what_an_http_client_receives(self):
        # JSON scalars round-trip; any other value arrives as its repr
        values = [1, 2.5, "b", None, frozenset({7})]
        service = QueryService(retry=FAST_RETRY)
        service.register_database(
            "v", Database.from_tuples(values, {"P": (1, [(v,) for v in values])})
        )
        service.prepare("p", "P(x)", ("x",))
        response = run(service.call("t0", "p", "v"))
        expected = [
            (v if not isinstance(v, frozenset) else repr(v),)
            for v in sorted(values, key=lambda v: repr((v,)))
        ]
        assert list(response.rows) == expected
        assert response.row_count == len(values)
        assert response.as_dict()["rows"] == [list(row) for row in expected]
        assert service.registry.snapshot()["serve.answer_rows"] == len(values)
        service.close()
