"""Property-based tests for the performance layer (hypothesis, seeded).

Two claims that must hold on *random* inputs, not just the curated
differential corpus:

* semi-naive fixpoint evaluation equals naive iteration (and the
  brute-force reference) on random FP formulas, and across all four
  fixpoint operators on explicit ascending/descending/inflationary/
  partial queries;
* a shared subquery cache never produces a stale hit: interleaving
  evaluations that mutate the relation environment — different
  databases, updated relations, changing ``rel_env`` bindings — always
  yields the same tables as evaluating cache-free.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import EvalOptions, evaluate
from repro.core.fo_eval import BoundedEvaluator
from repro.core.fp_eval import FixpointStrategy, solve_query
from repro.core.interp import EvalStats
from repro.core.naive_eval import naive_answer
from repro.database.database import Database
from repro.database.relation import Relation
from repro.logic.parser import parse_formula
from repro.logic.variables import free_variables
from repro.perf import SubqueryCache

from tests.conftest import databases, fo_formulas, fp_formulas


@given(databases(), fp_formulas())
def test_seminaive_equals_naive_on_random_fp(db, formula):
    out = tuple(sorted(free_variables(formula)))
    naive = solve_query(
        formula, db, out, strategy=FixpointStrategy.NAIVE
    )
    semi = solve_query(
        formula, db, out, strategy=FixpointStrategy.SEMINAIVE
    )
    assert semi == naive == naive_answer(formula, db, out)


#: Explicit single-operator queries — one per fixpoint flavor, so the
#: semi-naive path (lfp) and each naive fallback (gfp/ifp/pfp) is hit.
OPERATOR_QUERIES = [
    "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)",
    "[gfp S(x). P(x) & exists y. (E(x, y) & S(y))](u)",
    "[ifp S(x). P(x) | exists y. (E(y, x) & S(y))](u)",
    "[pfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)",
]


@pytest.mark.parametrize("text", OPERATOR_QUERIES)
@given(db=databases(min_size=2))
def test_seminaive_equals_naive_per_operator(text, db):
    formula = parse_formula(text)
    naive = solve_query(
        formula, db, ("u",), strategy=FixpointStrategy.NAIVE,
        require_positive=False,
    )
    stats = EvalStats()
    semi = solve_query(
        formula, db, ("u",), strategy=FixpointStrategy.SEMINAIVE,
        require_positive=False, stats=stats,
    )
    assert semi == naive == naive_answer(formula, db, ("u",))


@given(databases(), databases(), fo_formulas())
def test_shared_cache_never_serves_stale_tables(db_a, db_b, formula):
    """Interleave evaluations over two databases and a mutated variant of
    the first, all through one shared cache; every answer must equal the
    cache-free evaluation of the same (formula, database) pair."""
    out = tuple(sorted(free_variables(formula)))
    # a third environment: db_a with its edge relation inverted, the
    # classic stale-cache trap (same formula, same domain, changed rows)
    flipped = db_a.with_relation(
        "E",
        Relation(
            2,
            [
                (i, j)
                for i in db_a.domain
                for j in db_a.domain
                if (j, i) in db_a.relation("E")
            ],
        ),
    )
    cache = SubqueryCache()
    for db in (db_a, db_b, flipped, db_a, flipped, db_b):
        cached = evaluate(
            formula, db, out, EvalOptions(subquery_cache=cache)
        ).relation
        plain = evaluate(formula, db, out, EvalOptions()).relation
        assert cached == plain


@given(databases(min_size=2), fo_formulas())
def test_cache_correct_under_rel_env_mutation(db, formula):
    """The same evaluator, the same cache, but the free relation ``P``
    rebound between calls through ``rel_env`` — the binding is part of
    the cache key, so answers must track it exactly."""
    out = tuple(sorted(free_variables(formula)))
    cache = SubqueryCache()
    evaluator = BoundedEvaluator(db, subquery_cache=cache)
    bindings = [
        None,
        {"P": Relation(1, [(v,) for v in db.domain])},
        {"P": Relation(1, [])},
        None,
    ]
    for rel_env in bindings:
        got = evaluator.answer(formula, out, rel_env=rel_env)
        expected = naive_answer(formula, db, out, rel_env=rel_env)
        assert got == expected, rel_env


@given(databases(), fo_formulas(), st.data())
def test_shared_cache_tracks_in_place_mutation(db, formula, data):
    """One database mutated in place between evaluations through one
    shared cache, with no cache call after a mutation: every answer must
    equal the brute-force oracle on the database as it is now."""
    out = tuple(sorted(free_variables(formula)))
    options = EvalOptions(subquery_cache=SubqueryCache(), backend=None)
    values = st.sampled_from(db.domain.values)
    for _ in range(4):
        got = evaluate(formula, db, out, options).relation
        assert got == naive_answer(formula, db, out)
        name = data.draw(st.sampled_from(db.relation_names()))
        relation = db.relation(name)
        if relation and data.draw(st.booleans()):
            fact = data.draw(st.sampled_from(sorted(relation.tuples)))
            assert db.remove_fact(name, fact)
        else:
            db.add_fact(name, data.draw(st.tuples(*[values] * relation.arity)))
