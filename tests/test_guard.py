"""Unit tests for the resource-guard subsystem (budgets + chaos)."""

import pytest

from repro.guard import (
    Budget,
    ChaosPolicy,
    ClauseBudgetExceeded,
    DeadlineExceeded,
    DecisionBudgetExceeded,
    InjectedFault,
    IterationBudgetExceeded,
    NULL_GUARD,
    ResourceExhausted,
    ResourceGuard,
    SpaceBudgetExceeded,
    StateBudgetExceeded,
    resolve_guard,
)
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    """Deterministic monotonic clock for deadline tests."""

    def __init__(self, start: float = 0.0, tick: float = 0.0):
        self.now = start
        self.tick = tick

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBudget:
    def test_default_is_unlimited(self):
        assert Budget().is_unlimited()

    def test_any_limit_makes_it_limited(self):
        assert not Budget(max_rows=10).is_unlimited()
        assert not Budget(deadline_seconds=1.0).is_unlimited()

    def test_frozen(self):
        with pytest.raises(Exception):
            Budget().max_rows = 5  # type: ignore[misc]


class TestResolveGuard:
    def test_nothing_configured_gives_null_guard(self):
        assert resolve_guard(None) is NULL_GUARD
        assert resolve_guard(Budget()) is NULL_GUARD

    def test_limited_budget_gives_real_guard(self):
        guard = resolve_guard(Budget(max_rows=1))
        assert isinstance(guard, ResourceGuard)
        assert guard.enabled

    def test_chaos_alone_gives_real_guard(self):
        guard = resolve_guard(None, chaos=ChaosPolicy(fail_at=1))
        assert isinstance(guard, ResourceGuard)


class TestNullGuard:
    def test_all_operations_are_noops(self):
        NULL_GUARD.checkpoint("anywhere")
        NULL_GUARD.charge_iteration()
        NULL_GUARD.charge_rows(10**9)
        NULL_GUARD.charge_decision()
        NULL_GUARD.charge_clauses(10**9)
        NULL_GUARD.charge_state()
        NULL_GUARD.reset_clauses()
        assert NULL_GUARD.try_charge_state() is True
        assert not NULL_GUARD.enabled


class TestCharges:
    def test_iteration_budget(self):
        guard = ResourceGuard(Budget(max_iterations=3))
        for _ in range(3):
            guard.charge_iteration()
        with pytest.raises(IterationBudgetExceeded) as info:
            guard.charge_iteration(index=3)
        exc = info.value
        assert exc.kind == "iterations"
        assert exc.limit == 3
        assert exc.used == 4
        assert exc.partial["index"] == 3
        assert isinstance(exc, ResourceExhausted)

    def test_rows_is_high_water_not_cumulative(self):
        guard = ResourceGuard(Budget(max_rows=10))
        for _ in range(100):
            guard.charge_rows(9)  # 900 cumulative rows never trip
        assert guard.checkpoints == 100
        with pytest.raises(SpaceBudgetExceeded):
            guard.charge_rows(11)

    def test_decision_budget(self):
        guard = ResourceGuard(Budget(max_decisions=1))
        guard.charge_decision()
        with pytest.raises(DecisionBudgetExceeded):
            guard.charge_decision()

    def test_clause_budget_is_per_stage(self):
        guard = ResourceGuard(Budget(max_clauses=5))
        guard.charge_clauses(5)
        guard.reset_clauses()
        guard.charge_clauses(5)  # a fresh stage gets the full budget again
        assert guard.clauses == 5
        assert guard.snapshot()["clauses"] == 10  # cumulative total kept
        with pytest.raises(ClauseBudgetExceeded):
            guard.charge_clauses(1)

    def test_state_budget_raising_and_nonraising(self):
        guard = ResourceGuard(Budget(max_states=2))
        assert guard.try_charge_state()
        assert guard.try_charge_state()
        assert not guard.try_charge_state()
        with pytest.raises(StateBudgetExceeded):
            guard.charge_state()

    def test_deadline_with_fake_clock(self):
        clock = FakeClock()
        guard = ResourceGuard(Budget(deadline_seconds=1.0), clock=clock)
        guard.checkpoint("early")
        clock.advance(2.0)
        with pytest.raises(DeadlineExceeded) as info:
            guard.checkpoint("late")
        assert info.value.kind == "deadline"
        assert "late" in str(info.value)

    def test_check_interval_skips_clock_reads(self):
        clock = FakeClock()
        guard = ResourceGuard(
            Budget(deadline_seconds=1.0), clock=clock, check_interval=10
        )
        clock.advance(5.0)
        # checkpoints 1..9 do not hit the clock; the 10th does
        for _ in range(9):
            guard.checkpoint()
        with pytest.raises(DeadlineExceeded):
            guard.checkpoint()


class TestExhaustionPayload:
    def test_exception_carries_metrics_snapshot(self):
        registry = MetricsRegistry()
        guard = ResourceGuard(Budget(max_iterations=1), registry=registry)
        guard.charge_iteration()
        with pytest.raises(IterationBudgetExceeded) as info:
            guard.charge_iteration()
        metrics = info.value.metrics
        assert metrics["guard.iterations"] == 2
        assert metrics["guard.checkpoints"] >= 2

    def test_partial_progress_defaults(self):
        guard = ResourceGuard(Budget(max_rows=0))
        with pytest.raises(SpaceBudgetExceeded) as info:
            guard.charge_rows(1, node="And")
        partial = info.value.partial
        assert partial["node"] == "And"
        assert "checkpoints" in partial
        assert "elapsed_seconds" in partial

    def test_shared_registry_sees_guard_counters(self):
        registry = MetricsRegistry()
        guard = ResourceGuard(Budget(), registry=registry)
        guard.charge_iteration()
        assert registry.snapshot()["guard.iterations"] == 1


class TestChaosPolicy:
    def test_fail_at_exact_checkpoint(self):
        guard = ResourceGuard(chaos=ChaosPolicy(fail_at=3))
        guard.checkpoint()
        guard.checkpoint()
        with pytest.raises(InjectedFault) as info:
            guard.checkpoint("third")
        assert info.value.checkpoint == 3
        assert info.value.where == "third"

    def test_fail_within_is_seed_deterministic(self):
        picks = {ChaosPolicy(seed=7, fail_within=100).fail_at for _ in range(5)}
        assert len(picks) == 1
        assert 1 <= picks.pop() <= 100
        assert (
            ChaosPolicy(seed=1, fail_within=10**6).fail_at
            != ChaosPolicy(seed=2, fail_within=10**6).fail_at
        )

    def test_injected_fault_is_not_resource_exhaustion(self):
        # sweeps must classify injected faults as "error", not "timeout"
        assert not issubclass(InjectedFault, ResourceExhausted)

    def test_slow_step_uses_injected_sleep(self):
        naps = []
        policy = ChaosPolicy(
            slow_step_seconds=0.5, slow_every=2, sleep=naps.append
        )
        guard = ResourceGuard(chaos=policy)
        for _ in range(4):
            guard.checkpoint()
        assert naps == [0.5, 0.5]  # every 2nd checkpoint

    def test_oversize_rows_forces_space_exhaustion(self):
        guard = ResourceGuard(
            Budget(max_rows=100), chaos=ChaosPolicy(oversize_rows=1000)
        )
        with pytest.raises(SpaceBudgetExceeded):
            guard.charge_rows(1)


class TestGuardReset:
    """Sequential reuse across requests: repro.serve's guard lifecycle."""

    def test_reset_restores_the_full_iteration_budget(self):
        guard = ResourceGuard(Budget(max_iterations=3))
        for _ in range(3):
            guard.charge_iteration()
        guard.reset()
        for _ in range(3):  # the second request gets the full budget
            guard.charge_iteration()
        with pytest.raises(IterationBudgetExceeded):
            guard.charge_iteration()

    def test_reset_reanchors_the_deadline(self):
        clock = FakeClock()
        guard = ResourceGuard(Budget(deadline_seconds=1.0), clock=clock)
        clock.advance(0.9)
        guard.checkpoint()  # still inside the first request's deadline
        guard.reset()
        clock.advance(0.9)
        guard.checkpoint()  # a full fresh second, not the 0.1s remnant
        clock.advance(0.2)
        with pytest.raises(DeadlineExceeded):
            guard.checkpoint()

    def test_reset_clears_snapshot(self):
        guard = ResourceGuard(Budget(max_rows=10))
        guard.charge_rows(9)
        guard.charge_decision()
        guard.reset()
        snap = guard.snapshot()
        assert snap["decisions"] == 0
        assert snap["checkpoints"] == 0
        guard.charge_rows(9)  # no leak from the first request

    def test_reset_clears_stage_clauses(self):
        guard = ResourceGuard(Budget(max_clauses=5))
        guard.charge_clauses(5)
        guard.reset()
        guard.charge_clauses(5)  # would raise if the stage count leaked
        assert guard.clauses == 5

    def test_null_guard_reset_is_a_noop(self):
        NULL_GUARD.reset()  # must not raise


class TestChaosFaultKinds:
    def test_unknown_kind_is_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError) as info:
            ChaosPolicy(fault_kinds=("bogus",))
        assert "bogus" in str(info.value)

    def test_kind_choice_is_seed_deterministic(self):
        from repro.guard.chaos import FAULT_KINDS

        kinds = {
            ChaosPolicy(seed=5, fail_at=1, fault_kinds=FAULT_KINDS).kind
            for _ in range(5)
        }
        assert len(kinds) == 1
        assert kinds.pop() in FAULT_KINDS

    def test_fault_carries_its_kind(self):
        policy = ChaosPolicy(fail_at=1, fault_kinds=("crash",))
        guard = ResourceGuard(chaos=policy)
        with pytest.raises(InjectedFault) as info:
            guard.checkpoint()
        assert info.value.kind == "crash"
        assert info.value.checkpoint == 1

    def test_slow_kind_sleeps_once_instead_of_raising(self):
        naps = []
        policy = ChaosPolicy(
            fail_at=1,
            fault_kinds=("slow",),
            slow_fault_seconds=0.25,
            sleep=naps.append,
        )
        guard = ResourceGuard(chaos=policy)
        guard.checkpoint()  # fires the slow fault: a delay, not an error
        guard.checkpoint()
        assert naps == [0.25]
