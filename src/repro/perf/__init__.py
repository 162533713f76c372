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

:mod:`repro.perf.experiments` registers the runnable experiments of the
``repro perf`` observatory (run records, committed baselines, the
regression gate — see ``docs/benchmarking.md``).  The engine imports
this package for the cache and the transform, so the registry is not
imported here: import it by its module path.
"""

from repro.perf.cache import SubqueryCache, resolve_subquery_cache
from repro.perf.seminaive import delta_relation_name, differential

__all__ = [
    "SubqueryCache",
    "delta_relation_name",
    "differential",
    "resolve_subquery_cache",
]
