"""The differential test harness: optimized evaluation vs the reference.

The performance layer (semi-naive fixpoints + the subquery cache,
``src/repro/perf/``) is only shippable because this suite pins it
tuple-for-tuple to the reference semantics: for a corpus of FO^k/FP^k
queries over seeded random databases, the optimized configuration
(``SEMINAIVE`` strategy + shared :class:`~repro.perf.SubqueryCache`)
must produce exactly the relations that ``naive_eval`` and the naive
iteration strategy produce.  Cross-engine checks pit Datalog semi-naive
against naive rule firing and against the FP translation of the same
program.

The ``explain --why`` witnesses are built on the same reference, so the
suite also pins them to the engines: for every candidate tuple, a
witness's claim must equal the tuple's membership in the sparse and the
packed answer, and the witness must replay cleanly.

The full corpus sweep is marked ``slow`` (it re-evaluates every query
four ways over several databases); the CI fast lane skips it while the
main lane and the default tier-1 run keep it.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import EvalOptions, evaluate
from repro.core.fp_eval import FixpointStrategy
from repro.core.naive_eval import naive_answer
from repro.database.database import Database
from repro.datalog import evaluate_program, parse_program, semi_naive
from repro.datalog.to_fp import program_to_fp_query
from repro.logic.parser import parse_formula
from repro.obs.provenance import check_witness, explain_answer
from repro.perf import SubqueryCache

#: (query text, output variables) — FO^3 over the standard test schema.
FO_CORPUS = [
    ("exists y. E(x, y)", ("x",)),
    ("forall y. (~E(x, y) | P(y))", ("x",)),
    ("exists y. (E(x, y) & exists x. (E(y, x) & Q(x)))", ("x",)),
    ("P(x) & ~Q(x)", ("x",)),
    ("exists x. exists y. (E(x, y) & E(y, x))", ()),
    ("forall x. (P(x) | Q(x) | exists y. E(x, y))", ()),
    ("exists y. (E(x, y) & (P(y) | exists z. (E(y, z) & Q(z))))", ("x",)),
]

#: FP^k corpus: ascending, descending, and nested/repeated fixpoints.
FP_CORPUS = [
    (
        "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)",
        ("u", "v"),
    ),
    ("[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)", ("u",)),
    ("[gfp S(x). P(x) & exists y. (E(x, y) & S(y))](u)", ("u",)),
    (
        "[lfp S(x). Q(x) | forall y. (~E(x, y) | S(y))](u)",
        ("u",),
    ),
    (
        # repeated subtree: the second occurrence is structurally equal,
        # so the shared cache serves it without re-evaluation
        "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u) & "
        "([lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u) | Q(u))",
        ("u",),
    ),
    (
        "[lfp T(x). [lfp S(y). P(y) | exists z. (E(z, y) & S(z))](x) "
        "| exists y. (E(x, y) & T(y))](u)",
        ("u",),
    ),
]


#: Witness-only extras: fixpoint kinds and shapes the corpora lack.
WITNESS_EXTRAS = [
    ("[pfp S(x). ~S(x)](u)", ("u",)),  # cycles without converging
    (
        # IFP whose body negates its recursion atom: stage-absent claims
        "[ifp S(x). P(x) | exists y. (E(y, x) & S(y) & ~S(x))](u)",
        ("u",),
    ),
    ("[gfp S(x). exists y. (E(x, y) & S(y))](u)", ("u",)),
    # reachability from a free source: one solve per value of y
    ("[lfp S(x). x = y | exists z. (E(z, x) & S(z))](x)", ("x", "y")),
    (
        # an inner recursion variable named like the database relation
        # Q that the outer body reads
        "[lfp S(x). Q(x) | exists y. (E(y, x) & "
        "[lfp Q(z). S(z) | exists x. (E(x, z) & Q(x))](y))](u)",
        ("u",),
    ),
]


def _random_db(rng: random.Random, n: int) -> Database:
    return Database.from_tuples(
        range(n),
        {
            "E": (
                2,
                [
                    (i, j)
                    for i in range(n)
                    for j in range(n)
                    if rng.random() < 0.4
                ],
            ),
            "P": (1, [(i,) for i in range(n) if rng.random() < 0.5]),
            "Q": (1, [(i,) for i in range(n) if rng.random() < 0.4]),
        },
    )


def _optimized(cache: SubqueryCache) -> EvalOptions:
    return EvalOptions(
        strategy=FixpointStrategy.SEMINAIVE, subquery_cache=cache
    )


@pytest.mark.slow
def test_corpus_optimized_equals_reference():
    """Every corpus query, on several random databases: semi-naive with a
    shared cache == naive strategy == brute-force reference — and the
    optimizations demonstrably *engaged* (≥1 cache hit, ≥1 delta round)."""
    rng = random.Random(20260805)
    cache = SubqueryCache()
    delta_rounds = 0
    for text, out in FO_CORPUS + FP_CORPUS:
        formula = parse_formula(text)
        for _ in range(3):
            db = _random_db(rng, rng.randint(2, 4))
            reference = naive_answer(formula, db, out)
            naive = evaluate(
                formula, db, out,
                EvalOptions(strategy=FixpointStrategy.NAIVE),
            ).relation
            assert naive == reference, (text, db)
            # twice per database: the repeat exercises cross-evaluation
            # cache hits and must be byte-identical to the first pass
            for _ in range(2):
                result = evaluate(formula, db, out, _optimized(cache))
                assert result.relation == reference, (text, db)
                delta_rounds += result.stats.notes.get(
                    "seminaive_delta_rounds", 0
                )
    assert cache.hits >= 1
    assert delta_rounds >= 1


def test_witnesses_agree_with_engines():
    """For every candidate tuple, the witness claims exactly the tuple's
    membership in the engine's answer, on both backends, and replays
    with no problems."""
    rng = random.Random(20261018)
    databases = [_random_db(rng, 5) for _ in range(2)]
    witnesses = 0
    for text, out in FO_CORPUS + FP_CORPUS + WITNESS_EXTRAS:
        formula = parse_formula(text)
        for db in databases:
            answers = [
                evaluate(formula, db, out, EvalOptions(backend=b)).relation
                for b in ("sparse", "packed")
            ]
            for values in db.domain.tuples(len(out)):
                witness = explain_answer(formula, db, out, values)
                for answer in answers:
                    assert witness.holds == (values in answer), (text, values)
                assert check_witness(witness, db) == [], (text, values)
                witnesses += 1
    assert witnesses == 2 * (77 + 5 + 5 + 5 + 25 + 5)


def test_seminaive_matches_naive_on_transitive_closure(tiny_graph):
    """Fast-lane anchor: the canonical delta-paying query, all strategies."""
    text = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"
    formula = parse_formula(text)
    out = ("u", "v")
    reference = naive_answer(formula, tiny_graph, out)
    for strategy in (
        FixpointStrategy.NAIVE,
        FixpointStrategy.MONOTONE,
        FixpointStrategy.SEMINAIVE,
    ):
        result = evaluate(
            formula, tiny_graph, out, EvalOptions(strategy=strategy)
        )
        assert result.relation == reference, strategy
    semi = evaluate(
        formula, tiny_graph, out,
        EvalOptions(strategy=FixpointStrategy.SEMINAIVE),
    )
    assert semi.stats.notes["seminaive_delta_rounds"] >= 1


def test_cached_evaluation_is_pure(tiny_graph):
    """A shared cache never changes answers, only work: the same query
    evaluated repeatedly — interleaved with a *different* database using
    the same cache — stays equal to the uncached answer every time."""
    text = "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"
    formula = parse_formula(text)
    other = _random_db(random.Random(7), 3)
    cache = SubqueryCache()
    expected = {
        id(db): naive_answer(formula, db, ("u",))
        for db in (tiny_graph, other)
    }
    for _ in range(3):
        for db in (tiny_graph, other):
            result = evaluate(formula, db, ("u",), _optimized(cache))
            assert result.relation == expected[id(db)]
    assert cache.hits >= 1


DATALOG_TC = """
reach(X, Y) :- E(X, Y).
reach(X, Y) :- E(X, Z), reach(Z, Y).
"""

DATALOG_LABELED = """
good(X) :- P(X).
good(X) :- E(Y, X), good(Y).
"""


@pytest.mark.slow
@pytest.mark.parametrize("text", [DATALOG_TC, DATALOG_LABELED])
def test_datalog_semi_naive_matches_naive(text):
    rng = random.Random(99)
    program = parse_program(text)
    for _ in range(5):
        db = _random_db(rng, rng.randint(2, 5))
        assert semi_naive(program, db) == evaluate_program(program, db)


@pytest.mark.parametrize("text", [DATALOG_TC, DATALOG_LABELED])
def test_fp_translation_cross_engine(text):
    """The same recursion three ways: Datalog semi-naive, Datalog naive,
    and the FP^k translation under the semi-naive FP strategy."""
    rng = random.Random(41)
    program = parse_program(text)
    query = program_to_fp_query(program)
    predicate = next(iter(program.idb_predicates()))
    for _ in range(3):
        db = _random_db(rng, rng.randint(2, 4))
        from_datalog = semi_naive(program, db)[predicate]
        assert from_datalog == evaluate_program(program, db)[predicate]
        from_fp = query.run(
            db, EvalOptions(strategy=FixpointStrategy.SEMINAIVE)
        ).relation
        assert from_fp == from_datalog
