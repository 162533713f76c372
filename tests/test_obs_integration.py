"""End-to-end tracing through ``evaluate()`` for all four languages.

One representative query per language runs with tracing on; the test
asserts the expected spans and the paper-bound counters: intermediate
arity stays within the variable bound k (Prop 3.1), fixpoint engines
iterate at least once (Theorem 3.5), and the ESO pipeline grounds a
non-trivial CNF (Lemma 3.6 / Corollary 3.7).
"""

import time

import pytest

from repro import EvalOptions, Language, evaluate
from repro.logic.parser import parse_formula
from repro.logic.variables import variable_width
from repro.obs.tracer import NULL_TRACER, Tracer

CASES = [
    pytest.param(
        "exists y. E(x, y)",
        ("x",),
        Language.FO,
        {"evaluate", "fo.Exists", "fo.RelAtom"},
        id="FO",
    ),
    pytest.param(
        "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)",
        ("u",),
        Language.FP,
        {"evaluate", "fo.LFP", "fp.solve", "fp.iteration"},
        id="FP",
    ),
    pytest.param(
        "exists2 R/1. (R(x) & P(x))",
        ("x",),
        Language.ESO,
        {
            "evaluate",
            "eso.tuple",
            "eso.ground",
            "eso.tseitin",
            "eso.dpll",
        },
        id="ESO",
    ),
    pytest.param(
        "[pfp X(x). P(x) | exists y. (E(y, x) & X(y))](u)",
        ("u",),
        Language.PFP,
        {"evaluate", "fp.solve", "fp.iteration", "pfp.space"},
        id="PFP",
    ),
]


@pytest.mark.parametrize("text, out, language, expected_spans", CASES)
def test_traced_evaluation(tiny_graph, text, out, language, expected_spans):
    formula = parse_formula(text)
    result = evaluate(formula, tiny_graph, out, EvalOptions(trace=True))
    assert result.language == language
    tracer = result.tracer
    assert isinstance(tracer, Tracer)

    names = {span.name for span in tracer.spans}
    assert expected_spans <= names, names

    # the root span is the evaluate() wrapper, annotated with the answer
    roots = tracer.roots()
    assert [r.name for r in roots] == ["evaluate"]
    assert roots[0].attrs["language"] == language.value
    assert roots[0].attrs["answer_rows"] == len(result.relation)
    # every non-root span links to a recorded parent
    ids = {span.span_id for span in tracer.spans}
    for span in tracer.spans:
        if span.parent_id is not None:
            assert span.parent_id in ids

    # paper-bound counters (Prop 3.1 / Thm 3.5 / Cor 3.7)
    stats = result.stats
    assert stats.max_intermediate_arity <= variable_width(formula)
    if language in (Language.FP, Language.PFP):
        assert stats.fixpoint_iterations >= 1
    if language == Language.ESO:
        assert stats.sat_clauses > 0
        assert stats.sat_variables > 0


@pytest.mark.parametrize("text, out, language, expected_spans", CASES)
def test_disabled_tracing_changes_nothing(
    tiny_graph, text, out, language, expected_spans
):
    formula = parse_formula(text)
    plain = evaluate(formula, tiny_graph, out)
    traced = evaluate(formula, tiny_graph, out, EvalOptions(trace=True))
    assert plain.tracer is None
    assert plain.relation == traced.relation
    assert plain.stats.as_dict() == traced.stats.as_dict()


def test_tracer_instance_is_reused_and_returned(tiny_graph):
    tracer = Tracer()
    formula = parse_formula("P(x)")
    result = evaluate(formula, tiny_graph, ("x",), EvalOptions(trace=tracer))
    assert result.tracer is tracer
    assert tracer.spans


def test_noop_tracer_overhead(tiny_graph):
    """Disabled tracing must cost ~nothing: the shared null span means no
    allocation on the hot path, and min-of-N wall clock stays at or below
    the recording tracer's (which does strictly more work)."""
    # structural: the disabled path hands back one shared object
    assert NULL_TRACER.span("fo.And", rows=1) is NULL_TRACER.span("fp.solve")

    formula = parse_formula("[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)")

    def best_of(options, reps=15):
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            evaluate(formula, tiny_graph, ("u",), options)
            best = min(best, time.perf_counter() - start)
        return best

    disabled = best_of(EvalOptions())
    enabled = best_of(EvalOptions(trace=True))
    # generous 1.5x margin absorbs scheduler noise; the point is that the
    # guarded no-op path is not paying for span bookkeeping
    assert disabled <= enabled * 1.5, (disabled, enabled)
