"""Unit tests for serve admission control, retry policy, and breakers."""

import asyncio

import pytest

from repro.errors import Overloaded
from repro.serve.admission import AdmissionController, TenantPolicy
from repro.serve.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
)


class FakeClock:
    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_admit_release_roundtrip(self):
        async def main():
            ctrl = AdmissionController(max_concurrency=2, max_queue=4)
            wait = await ctrl.admit("a")
            assert wait >= 0.0
            assert ctrl.running == 1
            ctrl.release(0.01)
            assert ctrl.running == 0

        run(main())

    def test_queue_full_sheds_with_structured_error(self):
        async def main():
            ctrl = AdmissionController(max_concurrency=1, max_queue=1)
            await ctrl.admit("a")  # takes the only slot
            waiter = asyncio.ensure_future(ctrl.admit("b"))
            await asyncio.sleep(0)  # b parks in the queue
            with pytest.raises(Overloaded) as exc:
                await ctrl.admit("c")
            assert exc.value.reason == "queue-full"
            assert exc.value.tenant == "c"
            assert exc.value.retry_after > 0
            ctrl.release(0.01)
            await waiter
            ctrl.release(0.01)

        run(main())

    def test_deadline_unreachable_sheds_at_enqueue(self):
        async def main():
            # every queued request predicts a 10s wait per slot
            ctrl = AdmissionController(
                max_concurrency=1, max_queue=8, expected_service_seconds=10.0
            )
            await ctrl.admit("a")
            waiter = asyncio.ensure_future(ctrl.admit("b"))
            await asyncio.sleep(0)
            with pytest.raises(Overloaded) as exc:
                await ctrl.admit("c", deadline=0.5)
            assert exc.value.reason == "deadline-unreachable"
            ctrl.release(None)
            await waiter
            ctrl.release(None)

        run(main())

    def test_expired_request_is_shed_at_dispatch(self):
        clock = FakeClock()

        async def main():
            ctrl = AdmissionController(
                max_concurrency=1, max_queue=8, clock=clock
            )
            await ctrl.admit("a")
            waiter = asyncio.ensure_future(ctrl.admit("b", deadline=1.0))
            await asyncio.sleep(0)
            clock.advance(5.0)  # b's deadline passes while it queues
            ctrl.release(None)
            with pytest.raises(Overloaded) as exc:
                await waiter
            assert exc.value.reason == "expired"
            # the slot freed by release was not consumed by the corpse
            assert ctrl.running == 0

        run(main())

    def test_cancel_after_grant_returns_the_slot(self):
        """A caller cancelled after its ticket was granted, but before it
        resumed, must not keep the slot: nobody would release it."""

        async def main():
            ctrl = AdmissionController(max_concurrency=1, max_queue=4)
            await ctrl.admit("a")
            waiter = asyncio.ensure_future(ctrl.admit("b"))
            await asyncio.sleep(0)  # b parks in the queue
            ctrl.release(0.01)  # grants b's ticket ...
            waiter.cancel()  # ... and b's caller is cancelled before it runs
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert ctrl.running == 0
            await asyncio.wait_for(ctrl.admit("c"), timeout=1.0)
            assert ctrl.running == 1
            ctrl.release(0.01)

        run(main())

    def test_weighted_fairness_dispatch_order(self):
        """Weight-4 tenant drains ~4 requests per weight-1 request."""

        async def main():
            ctrl = AdmissionController(max_concurrency=1, max_queue=16)
            await ctrl.admit("blocker")
            order = []

            async def req(tenant, label, weight):
                await ctrl.admit(tenant, weight=weight)
                order.append(label)
                ctrl.release(None)

            tasks = [
                asyncio.ensure_future(req("A", f"A{i}", 1.0))
                for i in range(1, 5)
            ]
            tasks += [
                asyncio.ensure_future(req("B", f"B{i}", 4.0))
                for i in range(1, 5)
            ]
            await asyncio.sleep(0)  # everyone queues behind the blocker
            ctrl.release(None)  # blocker leaves; the chain drains itself
            await asyncio.gather(*tasks)
            # B's tags are a quarter of A's: B1-B3 beat A1; the tie at
            # tag(A1) == tag(B4) goes to A1 by arrival order
            assert order == ["B1", "B2", "B3", "A1", "B4", "A2", "A3", "A4"]

        run(main())

    def test_counters_in_registry(self):
        async def main():
            ctrl = AdmissionController(max_concurrency=1, max_queue=0)
            await ctrl.admit("a")
            with pytest.raises(Overloaded):
                await ctrl.admit("b")
            ctrl.release(0.01)
            snap = ctrl.registry.snapshot()
            assert snap["serve.admitted"] == 1
            assert snap["serve.shed"] == 1
            assert snap["serve.queue_wait_seconds"]["count"] == 1

        run(main())

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)


class TestTenantPolicy:
    def test_defaults(self):
        policy = TenantPolicy()
        assert policy.weight == 1.0
        assert policy.deadline() == 30.0
        assert policy.max_attempts == 3

    def test_frozen(self):
        with pytest.raises(AttributeError):
            TenantPolicy().weight = 2.0


class TestRetryPolicy:
    def test_deterministic_per_seed_pair(self):
        policy = RetryPolicy(seed=3)
        a = [next(policy.delays(7)) for _ in range(1)]
        gen = policy.delays(7)
        b = [next(gen)]
        assert a == b

    def test_request_seeds_decorrelate(self):
        policy = RetryPolicy(seed=0, jitter=0.5)
        gen1, gen2 = policy.delays(1), policy.delays(2)
        first = [next(gen1) for _ in range(4)]
        second = [next(gen2) for _ in range(4)]
        assert first != second

    def test_exponential_growth_capped_without_jitter(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        gen = policy.delays()
        delays = [next(gen) for _ in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.1)
        gen = policy.delays(9)
        for _ in range(20):
            assert 0.9 <= next(gen) <= 1.1


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # everyone else still waits

    def test_probe_outcome_closes_or_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        breaker.record_failure()  # trips again (threshold 1)
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # failed probe → straight back to open
        assert breaker.state == OPEN
        assert breaker.trips == 3
