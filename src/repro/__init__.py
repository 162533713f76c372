"""repro — bounded-variable query evaluation.

A faithful, executable reproduction of Moshe Y. Vardi, *On the Complexity
of Bounded-Variable Queries* (PODS 1995): evaluators for FO^k, FP^k,
ESO^k and PFP^k with polynomially bounded intermediate results, the
certificate machinery of Theorem 3.5, the Lemma 3.6 arity reduction, the
lower-bound reductions of Sections 3-4, and a benchmark harness that
regenerates the complexity-table shapes of the paper.

Quickstart::

    from repro import Database, Query

    db = Database.from_tuples(range(5), {"E": (2, [(i, i + 1) for i in range(4)])})
    reach = Query.parse(
        "[lfp S(x). x = y | exists z. (E(z, x) & S(z))](x)",
        output_vars=("x", "y"),
    )
    result = reach.run(db)
    print(result.relation)
"""

from repro.database import Database, DatabaseSchema, Domain, Relation, RelationSchema
from repro.logic import (
    Language,
    format_formula,
    parse_formula,
    variable_width,
)
from repro.core import (
    EvalOptions,
    EvalResult,
    EvalStats,
    FixpointStrategy,
    Query,
    evaluate,
)
from repro.errors import (
    CertificateError,
    DeadlineExceeded,
    EvaluationError,
    IterationBudgetExceeded,
    PositivityError,
    ReductionError,
    ReproError,
    ResourceExhausted,
    SchemaError,
    SpaceBudgetExceeded,
    SyntaxError_,
    VariableBoundError,
)
from repro.guard import Budget, ChaosPolicy, ResourceGuard
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_report
from repro.obs.tracer import NULL_TRACER, Span, Tracer

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Domain",
    "Relation",
    "RelationSchema",
    "DatabaseSchema",
    "Query",
    "evaluate",
    "EvalOptions",
    "EvalResult",
    "EvalStats",
    "FixpointStrategy",
    "Language",
    "parse_formula",
    "format_formula",
    "variable_width",
    "ReproError",
    "SchemaError",
    "SyntaxError_",
    "VariableBoundError",
    "PositivityError",
    "EvaluationError",
    "CertificateError",
    "ReductionError",
    "ResourceExhausted",
    "DeadlineExceeded",
    "IterationBudgetExceeded",
    "SpaceBudgetExceeded",
    "Budget",
    "ChaosPolicy",
    "ResourceGuard",
    "Tracer",
    "NULL_TRACER",
    "Span",
    "MetricsRegistry",
    "render_report",
    "__version__",
]
