"""Performance layer: subquery caching and semi-naive fixpoints.

Both optimizations are off by default and switched on through
:class:`repro.core.engine.EvalOptions` —
``EvalOptions(subquery_cache=True)`` and
``EvalOptions(strategy=FixpointStrategy.SEMINAIVE)`` — so the reference
semantics stay untouched and the differential test harness
(``tests/test_differential.py``) can pit optimized evaluation against
it.  See ``docs/performance.md``.

:mod:`repro.perf.seminaive` holds only the differential formula
transform; the semi-naive ascent is a round rule of the one fixpoint
solver, :class:`repro.core.fp_eval.KleeneSolver`.

:mod:`repro.perf.experiments` keeps the speedups honest over time: it
registers deterministic, runnable perf experiments for the
``repro perf`` observatory (run records, committed baselines, the
regression gate — see ``docs/benchmarking.md``).
"""

from repro.perf.cache import SubqueryCache, resolve_subquery_cache
from repro.perf.experiments import (
    EXPERIMENTS,
    ExperimentError,
    PerfExperiment,
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.perf.seminaive import delta_relation_name, differential

__all__ = [
    "EXPERIMENTS",
    "ExperimentError",
    "PerfExperiment",
    "SubqueryCache",
    "delta_relation_name",
    "differential",
    "experiment_ids",
    "get_experiment",
    "resolve_subquery_cache",
    "run_experiment",
]
