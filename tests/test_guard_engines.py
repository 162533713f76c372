"""Integration tests: budgets, chaos, and degradation across all engines.

Every engine must (a) stop promptly when its budget trips, (b) raise the
*matching* :class:`~repro.errors.ResourceExhausted` subclass with partial
progress and a metrics snapshot, (c) unwind cleanly under fault injection
(no leaked meter state), and (d) — where a sound cheaper mode exists —
degrade to it instead of failing.
"""

import time

import pytest

from repro.core.engine import EvalOptions, evaluate
from repro.core.eso_eval import eso_decide
from repro.core.interp import EvalStats
from repro.core.pfp_eval import SpaceMeter, pfp_answer
from repro.database import Database
from repro.datalog import parse_program, semi_naive
from repro.datalog.engine import evaluate_program
from repro.errors import (
    ClauseBudgetExceeded,
    DeadlineExceeded,
    DecisionBudgetExceeded,
    IterationBudgetExceeded,
    SpaceBudgetExceeded,
    StateBudgetExceeded,
)
from repro.guard import Budget, ChaosPolicy, InjectedFault, resolve_guard
from repro.logic.parser import parse_formula
from repro.mucalculus import model_check
from repro.mucalculus.kripke import KripkeStructure
from repro.mucalculus.syntax import Diamond, Mu, MuOr, Prop, RecVar
from repro.sat.cnf import CNF
from repro.sat.dpll import solve
from repro.workloads.graphs import labeled_graph, path_graph

REACH = parse_formula("[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)")

# the bench's unary binary counter: ~2^n pfp iterations on an n-path
COUNTER = parse_formula(
    "[pfp X(x). (X(x) & ~forall y. (~LT(y, x) | X(y)))"
    " | (~X(x) & forall y. (~LT(y, x) | X(y)))](u)"
)


def counter_db(n: int) -> Database:
    base = path_graph(n)
    from repro.database import Relation

    lt = [(i, j) for i in range(n) for j in range(n) if i < j]
    return Database(
        base.domain, {"E": base.relation("E"), "LT": Relation(2, lt)}
    )


class TestFOGuard:
    def test_row_budget_enforces_nk_invariant(self, tiny_graph):
        phi = parse_formula("E(x, y) | E(y, x)")
        with pytest.raises(SpaceBudgetExceeded) as info:
            evaluate(
                phi, tiny_graph, ("x", "y"),
                EvalOptions(budget=Budget(max_rows=2)),
            )
        assert info.value.used > 2
        assert info.value.metrics["guard.checkpoints"] >= 1

    def test_unguarded_run_has_no_guard_on_result(self, tiny_graph):
        result = evaluate(parse_formula("P(x)"), tiny_graph, ("x",))
        assert result.guard is None

    def test_guarded_run_surfaces_guard(self, tiny_graph):
        result = evaluate(
            parse_formula("P(x)"), tiny_graph, ("x",),
            EvalOptions(budget=Budget(max_rows=100)),
        )
        assert result.guard is not None
        # one table, P's, audited once: one row charge, one checkpoint
        assert result.guard.snapshot()["checkpoints"] == 1
        assert result.stats.max_intermediate_rows == 2


class TestFPGuard:
    def test_iteration_budget(self, tiny_graph):
        with pytest.raises(IterationBudgetExceeded) as info:
            evaluate(
                REACH, tiny_graph, ("u",),
                EvalOptions(budget=Budget(max_iterations=1)),
            )
        assert info.value.kind == "iterations"
        assert "index" in info.value.partial

    def test_ample_budget_leaves_answer_unchanged(self, tiny_graph):
        free = evaluate(REACH, tiny_graph, ("u",))
        guarded = evaluate(
            REACH, tiny_graph, ("u",),
            EvalOptions(budget=Budget(max_iterations=10_000, max_rows=10_000)),
        )
        assert free.relation == guarded.relation

    @pytest.mark.parametrize("backend", ["sparse", "packed"])
    def test_stage_cylinder_is_charged(self, backend):
        # the body leaves y free, so each stage is the cylinder of x = 0
        # over y: a 30-row table that the row budget must see
        query = parse_formula("[lfp S(x, y). x = 0](u, 5)")
        with pytest.raises(SpaceBudgetExceeded) as info:
            evaluate(
                query, path_graph(30), ("u",),
                EvalOptions(backend=backend, budget=Budget(max_rows=5)),
            )
        assert info.value.used == 30
        result = evaluate(
            query, path_graph(30), ("u",), EvalOptions(backend=backend)
        )
        assert sorted(result.relation.tuples) == [(0,)]
        assert result.stats.max_intermediate_rows == 30
        assert result.stats.table_ops == 4


class TestPFPGuard:
    def test_cycling_pfp_with_deadline_terminates(self):
        # acceptance: a pfp that would otherwise run for ~2^18 iterations
        # stops within a 1-second deadline instead of hanging
        db = counter_db(18)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded) as info:
            pfp_answer(
                COUNTER, db, ("u",),
                guard=resolve_guard(Budget(deadline_seconds=1.0)),
            )
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        assert info.value.kind == "deadline"
        assert info.value.metrics["guard.iterations"] >= 1

    def test_state_budget_degrades_to_strict_counting(self):
        # the counter visits 2^n distinct states; a tiny state budget
        # forces the seen-set to be dropped mid-run, and the strict
        # counting mode must still produce the exact answer
        db = counter_db(5)
        stats = EvalStats()
        guarded = pfp_answer(
            COUNTER, db, ("u",), stats=stats,
            guard=resolve_guard(Budget(max_states=3)),
        )
        assert stats.registry.snapshot()["note.pfp_strict_fallbacks"] >= 1
        assert guarded == pfp_answer(COUNTER, db, ("u",))

    def test_state_budget_raises_without_degrade(self):
        db = counter_db(5)
        with pytest.raises(StateBudgetExceeded):
            pfp_answer(
                COUNTER, db, ("u",),
                guard=resolve_guard(Budget(max_states=3)),
                degrade=False,
            )

    def test_nested_rounds_reach_the_guard(self):
        # the pfp takes two rounds, but its first one solves a
        # 13-round reachability lfp: every nested round is charged
        phi = parse_formula(
            "[pfp X(x). [lfp S(x). P(x) | exists y. "
            "(E(y, x) & S(y))](x)](u)"
        )
        db = labeled_graph(path_graph(12), {"P": [0]})
        with pytest.raises(IterationBudgetExceeded):
            evaluate(
                phi, db, ("u",), EvalOptions(budget=Budget(max_iterations=3))
            )
        ample = evaluate(
            phi, db, ("u",), EvalOptions(budget=Budget(max_iterations=100))
        )
        assert ample.guard.iterations == ample.stats.fixpoint_iterations

    def test_chaos_unwind_releases_meter(self, tiny_graph):
        phi = parse_formula("[pfp X(x). Q(x) | exists y. (E(x, y) & ~X(y))](u)")
        meter = SpaceMeter()
        guard = resolve_guard(None, chaos=ChaosPolicy(fail_at=20))
        with pytest.raises(InjectedFault):
            pfp_answer(phi, tiny_graph, ("u",), meter=meter, guard=guard)
        # the fixpoint frames were released on the way out
        assert meter.live_relations == 0
        assert meter.live_tuples == 0

    def test_chaos_seed_sweep_always_unwinds(self, tiny_graph):
        phi = parse_formula("[pfp X(x). Q(x) | exists y. (E(x, y) & ~X(y))](u)")
        expected = pfp_answer(phi, tiny_graph, ("u",))
        for seed in range(5):
            meter = SpaceMeter()
            guard = resolve_guard(
                None, chaos=ChaosPolicy(seed=seed, fail_within=30)
            )
            try:
                got = pfp_answer(phi, tiny_graph, ("u",), meter=meter, guard=guard)
                assert got == expected  # fault point past the evaluation
            except InjectedFault:
                pass
            assert meter.live_relations == 0


class TestESOGuard:
    TWO_COLOR = parse_formula(
        "exists2 R/1. forall x. forall y. "
        "(~E(x, y) | (R(x) & ~R(y)) | (~R(x) & R(y)))"
    )

    def test_clause_budget_without_degrade_raises(self):
        db = path_graph(4)
        with pytest.raises(ClauseBudgetExceeded) as info:
            eso_decide(
                self.TWO_COLOR, db,
                guard=resolve_guard(Budget(max_clauses=10)),
            )
        assert info.value.kind == "clauses"

    def test_degradation_ladder_preserves_answer(self):
        db = path_graph(4)
        stats = EvalStats()
        outcome = eso_decide(
            self.TWO_COLOR, db, stats=stats,
            guard=resolve_guard(Budget(max_clauses=10)),
            degrade=True,
        )
        assert outcome.truth == eso_decide(self.TWO_COLOR, db).truth
        notes = stats.registry.snapshot()
        assert notes["note.eso_fallback_naive_ground"] == 1
        assert notes["note.eso_fallback_naive_eval"] == 1

    def test_last_rung_failure_reraises_original_budget_error(self):
        # so_budget=0 makes the naive rung fail too: the reported error
        # must be the original clause exhaustion, not a converted one
        db = path_graph(4)
        with pytest.raises(ClauseBudgetExceeded):
            eso_decide(
                self.TWO_COLOR, db,
                guard=resolve_guard(Budget(max_clauses=10)),
                degrade=True, so_budget=0,
            )

    def test_decision_budget_reaches_dpll(self):
        # no unit clauses: the solver must branch, and may not
        cnf = CNF()
        x, y = cnf.var("x"), cnf.var("y")
        cnf.add_clause([x, y])
        cnf.add_clause([-x, y])
        cnf.add_clause([x, -y])
        assert solve(cnf).satisfiable
        with pytest.raises(DecisionBudgetExceeded):
            solve(cnf, guard=resolve_guard(Budget(max_decisions=0)))

    def test_full_pipeline_budget_via_evaluate(self, tiny_graph):
        phi = parse_formula("exists2 R/1. (R(x) & forall y. (~E(x, y) | R(y)))")
        free = evaluate(phi, tiny_graph, ("x",))
        guarded = evaluate(
            phi, tiny_graph, ("x",),
            EvalOptions(budget=Budget(max_clauses=40)),  # degrade defaults on
        )
        assert free.relation == guarded.relation


class TestDatalogGuard:
    PROGRAM = """
    reach(X) :- p(X).
    reach(Y) :- reach(X), e(X, Y).
    """

    def db(self) -> Database:
        return Database.from_tuples(
            range(6),
            {
                "e": (2, [(i, i + 1) for i in range(5)]),
                "p": (1, [(0,)]),
            },
        )

    def test_round_budget_both_modes(self):
        program = parse_program(self.PROGRAM)
        for engine in (evaluate_program, semi_naive):
            with pytest.raises(IterationBudgetExceeded) as info:
                engine(
                    program, self.db(),
                    guard=resolve_guard(Budget(max_iterations=2)),
                )
            assert info.value.partial["rounds"] >= 2

    def test_row_budget_on_idb(self):
        program = parse_program(self.PROGRAM)
        with pytest.raises(SpaceBudgetExceeded):
            semi_naive(
                program, self.db(),
                guard=resolve_guard(Budget(max_rows=3)),
            )

    def test_ample_budget_matches_unguarded(self):
        program = parse_program(self.PROGRAM)
        free = semi_naive(program, self.db())
        guarded = semi_naive(
            program, self.db(),
            guard=resolve_guard(Budget(max_iterations=100, max_rows=100)),
        )
        assert free["reach"] == guarded["reach"]


class TestMuCalculusGuard:
    def structure(self) -> KripkeStructure:
        return KripkeStructure.build(
            5, [(i, i + 1) for i in range(4)], {"goal": [4]}
        )

    def formula(self):
        # reachability: mu X. goal | <>X
        return Mu("X", MuOr((Prop("goal"), Diamond(RecVar("X")))))

    def test_iteration_budget(self):
        with pytest.raises(IterationBudgetExceeded) as info:
            model_check(
                self.structure(), self.formula(),
                guard=resolve_guard(Budget(max_iterations=2)),
            )
        assert info.value.partial["var"] == "X"

    def test_ample_budget_matches_unguarded(self):
        structure = self.structure()
        free = model_check(structure, self.formula())
        guarded = model_check(
            structure, self.formula(),
            guard=resolve_guard(Budget(max_iterations=100)),
        )
        assert free == guarded


class TestChaosAcrossEngines:
    """Every engine must surface InjectedFault, not swallow or wrap it."""

    def test_fo(self, tiny_graph):
        with pytest.raises(InjectedFault):
            evaluate(
                parse_formula("E(x, y) & E(y, x)"), tiny_graph, ("x", "y"),
                EvalOptions(chaos=ChaosPolicy(fail_at=1)),
            )

    def test_fp(self, tiny_graph):
        with pytest.raises(InjectedFault):
            evaluate(
                REACH, tiny_graph, ("u",),
                EvalOptions(chaos=ChaosPolicy(fail_at=3)),
            )

    def test_eso(self, tiny_graph):
        phi = parse_formula("exists2 R/1. (R(x) | ~R(x))")
        with pytest.raises(InjectedFault):
            evaluate(
                phi, tiny_graph, ("x",),
                EvalOptions(chaos=ChaosPolicy(fail_at=5)),
            )

    def test_datalog(self):
        program = parse_program("t(X, Y) :- e(X, Y).")
        db = Database.from_tuples(range(3), {"e": (2, [(0, 1)])})
        with pytest.raises(InjectedFault):
            semi_naive(
                program, db,
                guard=resolve_guard(None, chaos=ChaosPolicy(fail_at=1)),
            )

    def test_mucalculus(self):
        structure = KripkeStructure.build(2, [(0, 1)], {"goal": [1]})
        phi = Mu("X", MuOr((Prop("goal"), Diamond(RecVar("X")))))
        with pytest.raises(InjectedFault):
            model_check(
                structure, phi,
                guard=resolve_guard(None, chaos=ChaosPolicy(fail_at=2)),
            )
