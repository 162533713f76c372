"""End-to-end tests for QueryService: correctness, retries, degradation."""

import asyncio
import json

import pytest

from repro.core.engine import Query
from repro.database.database import Database
from repro.errors import EvaluationError, Overloaded, ResourceExhausted
from repro.guard.budget import Budget
from repro.guard.chaos import ChaosPolicy
from repro.perf.cache import SubqueryCache
from repro.serve.admission import TenantPolicy
from repro.serve.cli import TC_QUERY
from repro.serve.retry import OPEN, RetryPolicy
from repro.serve.service import QueryService
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
        # a database slow enough (tens of ms even packed) that a 5ms
        # deadline exhausts mid-evaluation, yet clears admission
        # (dispatch is microseconds)
        service.register_database("big", path_db(40))
        service.set_tenant(
            "late", TenantPolicy(budget=Budget(deadline_seconds=5e-3))
        )
        with pytest.raises(ResourceExhausted) as exc:
            run(service.call("late", "tc", "big", backend="packed"))
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
