"""Golden records of how every fixpoint schedule iterates.

Answers alone do not pin a fixpoint engine: two schedules can agree on
every answer while counting rounds, charging work or reporting stages
differently.  This table-driven test fixes, for a small corpus, the
exact :meth:`~repro.core.interp.EvalStats.as_dict`, the ordered
``fp.*`` / ``pfp.*`` spans with their attributes (and their nesting
depth among such spans; an ``fp.iteration`` span carries the size of
the stage its round produced), plus the checkpoint, iteration and
state counts of an ample resource guard (every row charge is a
checkpoint; the rows high-water is the stats' ``max_intermediate_rows``):

* transitive closure on a path, a nested alternation-free lfp, a gfp,
  an ifp, the Section 2.2 gfp/lfp nest and a gfp/lfp nest whose inner
  fixpoint depends on the outer one, each under the NAIVE,
  MONOTONE and SEMINAIVE schedules (:func:`repro.core.fp_eval.solve_query`);
* the three PFP bodies of ``tests/test_backend_differential.py``
  through :func:`repro.core.engine.evaluate` (the metered Theorem 3.8
  path), with strict space off and on; these also record the
  :class:`~repro.core.pfp_eval.SpaceMeter` readings.

Every case runs on both backends against the same record: the
counters and spans are representation-independent.  Each case runs
twice, instrumented (tracer, guard) and bare; both runs must count the
same.

The records live in ``tests/golden/fixpoint_golden.json``.  After a
change that is *meant* to alter them, regenerate with
``PYTHONPATH=src python -m tests.test_fixpoint_golden`` and review the
diff.

The spans are also checked against an oracle: on single closed
fixpoints, each ``fp.iteration`` span's ``size`` is the size of the
stage its round produced in :func:`repro.core.naive_eval.kleene_stages`,
and ``delta`` is that stage's change from the one before.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.engine import EvalOptions, evaluate
from repro.core.fp_eval import FixpointStrategy, solve_query
from repro.core.interp import EvalStats
from repro.core.naive_eval import kleene_stages
from repro.database import Database
from repro.guard.budget import Budget, resolve_guard
from repro.logic.parser import parse_formula
from repro.obs.tracer import Tracer
from repro.workloads.graphs import labeled_graph, path_graph, random_graph

GOLDEN = Path(__file__).parent / "golden" / "fixpoint_golden.json"


def _tiny_graph() -> Database:
    # the ``tiny_graph`` fixture of tests/conftest.py
    return Database.from_tuples(
        range(4),
        {
            "E": (2, [(0, 1), (1, 2), (2, 3), (3, 1)]),
            "P": (1, [(0,), (2,)]),
            "Q": (1, [(3,)]),
        },
    )


def _random_db(seed: int, n: int) -> Database:
    import random

    rng = random.Random(seed)
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


FP_CASES = {
    "tc-path": (
        "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)",
        ("u", "v"),
        lambda: path_graph(6),
    ),
    "nested-lfp": (
        "[lfp S(x). P(x) | exists y. (E(y, x) & "
        "[lfp T(z). S(z) | exists y. (E(y, z) & T(y))](x))](u)",
        ("u",),
        lambda: labeled_graph(random_graph(6, 0.3, seed=7), {"P": [0]}),
    ),
    "gfp": (
        "[gfp S(x). exists y. (E(x, y) & S(y))](u)",
        ("u",),
        lambda: random_graph(5, 0.35, seed=1),
    ),
    "ifp": (
        "[ifp S(x). P(x) | exists y. (E(y, x) & S(y))](u)",
        ("u",),
        lambda: labeled_graph(path_graph(5), {"P": [0]}),
    ),
    "section-2.2": (
        "[gfp S(x). [lfp T(z). forall y. "
        "(~E(z, y) | S(y) | (P(y) & T(y)))](x)](u)",
        ("u",),
        _tiny_graph,
    ),
    "gfp-lfp-nest": (
        "[gfp S(x). [lfp T(z). forall y. "
        "(~E(z, y) | (P(y) & S(y)) | T(y))](x)](u)",
        ("u",),
        lambda: labeled_graph(random_graph(5, 0.35, seed=5), {"P": [0, 2]}),
    ),
}

PFP_CASES = {
    "pfp-reach": (
        "[pfp X(x). P(x) | exists y. (E(y, x) & X(y))](u)",
        ("u",),
        lambda: _random_db(12, 5),
    ),
    "pfp-flip": ("[pfp X(x). ~X(x)](u)", ("u",), lambda: _random_db(4, 3)),
    "pfp-game": (
        "[pfp X(x). Q(x) | exists y. (E(x, y) & ~X(y))](u)",
        ("u",),
        lambda: _random_db(19, 5),
    ),
}

STRATEGIES = ("naive", "monotone", "seminaive")

CASE_IDS = [
    f"{name}/{strategy}" for name in FP_CASES for strategy in STRATEGIES
] + [
    f"{name}/{'strict' if strict else 'seen'}"
    for name in PFP_CASES
    for strict in (False, True)
]


def _value(value):
    if value is None or isinstance(value, (int, str, bool)):
        return value
    return repr(value)


def _spans(tracer: Tracer) -> list:
    """``depth:name k=v ...`` per fp/pfp span, in open order; depth
    counts enclosing fp/pfp spans only."""
    by_id = {span.span_id: span for span in tracer.spans}
    out = []
    for span in tracer.spans:
        if not span.name.startswith(("fp.", "pfp.")):
            continue
        depth = 0
        parent = by_id.get(span.parent_id)
        while parent is not None:
            if parent.name.startswith(("fp.", "pfp.")):
                depth += 1
            parent = by_id.get(parent.parent_id)
        attrs = " ".join(
            f"{key}={_value(span.attrs[key])}" for key in sorted(span.attrs)
        )
        out.append(f"{depth}:{span.name} {attrs}".rstrip())
    return out


AMPLE = Budget(max_iterations=10**9, max_states=10**9, max_rows=10**9)


def _run(case_id: str, backend: str, instrumented: bool):
    """One evaluation of a corpus case: (answer, stats, meter, tracer,
    guard); the last two are ``None`` when bare."""
    name, mode = case_id.split("/")
    tracer = Tracer() if instrumented else None
    if name in FP_CASES:
        text, out, make_db = FP_CASES[name]
        stats = EvalStats()
        guard = resolve_guard(AMPLE if instrumented else None)
        answer = solve_query(
            parse_formula(text),
            make_db(),
            out,
            strategy=FixpointStrategy(mode),
            stats=stats,
            guard=guard,
            backend=backend,
            **({"tracer": tracer} if instrumented else {}),
        )
        return answer, stats, None, tracer, guard
    text, out, make_db = PFP_CASES[name]
    result = evaluate(
        parse_formula(text),
        make_db(),
        out,
        EvalOptions(
            strict_pfp_space=(mode == "strict"),
            check_positive=False,
            trace=tracer,
            budget=AMPLE if instrumented else None,
            backend=backend,
        ),
    )
    return (
        result.relation,
        result.stats,
        result.space,
        tracer,
        result.guard,
    )


def record(case_id: str, backend: str) -> dict:
    """Run one corpus case and return its golden record."""
    answer, stats, meter, tracer, guard = _run(case_id, backend, True)
    bare_answer, bare_stats, bare_meter, _, _ = _run(case_id, backend, False)
    assert bare_answer == answer
    assert bare_stats.as_dict() == stats.as_dict()
    charges = guard.snapshot()
    space = None
    if meter is not None:
        space = [
            meter.peak_live_tuples,
            meter.peak_live_relations,
            meter.total_iterations,
        ]
        assert space == [
            bare_meter.peak_live_tuples,
            bare_meter.peak_live_relations,
            bare_meter.total_iterations,
        ]
    return {
        "answer": sorted(list(row) for row in answer.tuples),
        "stats": stats.as_dict(),
        "spans": _spans(tracer),
        "space": space,
        "guard": {
            key: charges[key]
            for key in ("checkpoints", "iterations", "states")
        },
    }


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("backend", ["sparse", "packed"])
@pytest.mark.parametrize("case_id", CASE_IDS)
def test_matches_golden_record(case_id, backend):
    expected = _load()[case_id]
    got = record(case_id, backend)
    assert got["answer"] == expected["answer"]
    assert got["stats"] == expected["stats"]
    assert got["spans"] == expected["spans"]
    assert got["space"] == expected["space"]
    assert got["guard"] == expected["guard"]


def test_corpus_is_complete():
    assert sorted(_load()) == sorted(CASE_IDS)


#: single closed fixpoints whose spans are checked against the stages
#: of the reference semantics
STAGE_CASES = {
    **{name: FP_CASES[name] for name in ("tc-path", "gfp", "ifp")},
    # an IFP body that drops tuples of the stage it reads: each stage
    # is S ∪ φ(S), which φ(S) alone undercounts
    "ifp-drop": (
        "[ifp S(x). P(x) | (~S(x) & exists y. (E(y, x) & S(y)))](u)",
        ("u",),
        lambda: labeled_graph(path_graph(5), {"P": [0]}),
    ),
    **{name: PFP_CASES[name] for name in ("pfp-reach", "pfp-flip")},
}

STAGE_IDS = [
    f"{name}/{mode}"
    for name in STAGE_CASES
    for mode in (("seen",) if name in PFP_CASES else STRATEGIES)
]


def _iteration_spans(case_id: str, backend: str) -> list:
    """``(size, delta)`` of each ``fp.iteration`` span of one run."""
    name, mode = case_id.split("/")
    text, out, make_db = STAGE_CASES[name]
    tracer = Tracer()
    if mode == "seen":
        options = EvalOptions(
            check_positive=False, trace=tracer, backend=backend
        )
        evaluate(parse_formula(text), make_db(), out, options)
    else:
        solve_query(
            parse_formula(text),
            make_db(),
            out,
            strategy=FixpointStrategy(mode),
            tracer=tracer,
            backend=backend,
        )
    return [
        (span.attrs["size"], span.attrs["delta"])
        for span in tracer.spans
        if span.name == "fp.iteration"
    ]


@pytest.mark.parametrize("backend", ["sparse", "packed"])
@pytest.mark.parametrize("case_id", STAGE_IDS)
def test_iteration_spans_follow_the_kleene_stages(case_id, backend):
    text, _, make_db = STAGE_CASES[case_id.split("/")[0]]
    stages, diverged = kleene_stages(parse_formula(text), make_db())
    sizes = [len(stage) for stage in stages]
    # round i produces stage i + 1; a sequence that converges takes one
    # more round, which reproduces the limit
    expected = sizes[1:] + ([] if diverged else sizes[-1:])
    spans = _iteration_spans(case_id, backend)
    assert [size for size, _ in spans] == expected
    assert [delta for _, delta in spans] == [
        after - before for before, after in zip(sizes, expected)
    ]


def test_reference_stages_follow_a_hand_built_chain():
    # transitive closure on a path: S_0 = ∅, S_{i+1} = E ∪ (E ∘ S_i)
    text, _, make_db = FP_CASES["tc-path"]
    db = make_db()
    edges = set(db.relation("E").tuples)
    chain = [set()]
    while True:
        after = edges | {
            (a, d) for a, b in edges for c, d in chain[-1] if b == c
        }
        if after == chain[-1]:
            break
        chain.append(after)
    stages, diverged = kleene_stages(parse_formula(text), db)
    assert not diverged
    assert [set(stage.tuples) for stage in stages] == chain


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {case_id: record(case_id, "sparse") for case_id in CASE_IDS}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {GOLDEN}")
