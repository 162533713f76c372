"""Targeted tests for the MONOTONE strategy's warm-start soundness rules.

The warm-start decision depends on the *direction* the environment moved
and the *polarity* of each environment relation in the fixpoint body;
these tests pin each branch of that decision table.
"""

from repro.core.fp_eval import FixpointStrategy, KleeneSolver, solve_query
from repro.core.interp import EvalStats
from repro.core.naive_eval import naive_answer
from repro.database import Database
from repro.logic.parser import parse_formula


def stats_pair(phi, db, out):
    naive_stats, monotone_stats = EvalStats(), EvalStats()
    a = solve_query(phi, db, out, strategy=FixpointStrategy.NAIVE, stats=naive_stats)
    b = solve_query(
        phi, db, out, strategy=FixpointStrategy.MONOTONE, stats=monotone_stats
    )
    expected = naive_answer(phi, db, out)
    assert a == b == expected
    return naive_stats, monotone_stats


def chain_db(n=6):
    return Database.from_tuples(
        range(n),
        {
            "E": (2, [(i, i + 1) for i in range(n - 1)]),
            "P": (1, [(0,)]),
            "L": (1, [(n - 1,)]),
        },
    )


class TestWarmStartDirections:
    def test_lfp_inside_lfp_warm_starts(self):
        # inner lfp re-solved under a growing outer env: warm-start valid
        phi = parse_formula(
            "[lfp N2(z). [lfp N1(x). P(x) | N2(x) | "
            "exists y. (E(y, x) & N1(y))](z) & "
            "(L(z) | exists y. (E(z, y) & N2(y)))](w)"
        )
        _, monotone = stats_pair(phi, chain_db(), ("w",))
        assert monotone.notes.get("warm_starts", 0) >= 1

    def test_gfp_inside_lfp_restarts(self):
        # inner gfp under a growing lfp env: previous limit is below the
        # new one, so a descending warm start would be unsound — the
        # solver must cold-start (and still agree with the reference)
        phi = parse_formula(
            "[lfp S(x). P(x) | exists y. (E(y, x) & S(y) & "
            "[gfp T(z). S(z) & (L(z) | exists w. (E(z, w) & T(w)))](y))](u)"
        )
        naive_stats, monotone = stats_pair(phi, chain_db(), ("u",))
        # correctness is the assertion that matters; cold starts recorded
        assert monotone.notes.get("cold_starts", 0) >= 1

    def test_gfp_inside_gfp_warm_starts(self):
        # shrinking env + descending inner: previous limit is above — valid
        phi = parse_formula(
            "[gfp S(x). exists y. (E(x, y) & S(y)) | "
            "[gfp T(z). S(z) & exists y. (E(z, y) & T(y))](x)](u)"
        )
        _, monotone = stats_pair(phi, chain_db(), ("u",))
        # the inner gfp may warm- or cold-start depending on convergence
        # order; the contract is agreement with the reference (asserted
        # in stats_pair) plus no crash on either path
        assert monotone.fixpoint_iterations >= 1

    def test_memory_is_per_closed_node(self):
        solver = KleeneSolver(FixpointStrategy.MONOTONE, EvalStats())
        assert solver._memory == {}

    def test_pfp_inside_lfp_never_warm_starts(self):
        # pfp bodies need not be monotone in the environment, so the
        # solver always recomputes them; note S may only occur
        # positively (the lfp's own positivity applies inside too)
        phi = parse_formula(
            "[lfp S(x). P(x) | exists y. (E(y, x) & S(y) & "
            "[pfp X(z). S(z) & ~X(z) | X(z)](y))](u)"
        )
        db = chain_db(4)
        a = solve_query(phi, db, ("u",), strategy=FixpointStrategy.NAIVE)
        b = solve_query(phi, db, ("u",), strategy=FixpointStrategy.MONOTONE)
        assert a == b == naive_answer(phi, db, ("u",))
