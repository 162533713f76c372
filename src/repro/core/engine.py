"""The uniform front door: :class:`Query` objects and :func:`evaluate`.

A query in the paper's sense is ``(x̄)φ(ȳ)`` — a formula plus an output
variable tuple (Section 2.2).  :func:`evaluate` classifies the formula
into FO / FP / PFP / ESO and routes it to the right engine:

=========  ==========================================================
FO         bounded bottom-up evaluation (Prop 3.1)
FP         fixpoint strategies (Section 3.2 / Theorem 3.5)
PFP        space-metered iteration (Theorem 3.8)
ESO        Lemma 3.6 rewriting + grounding + SAT (Corollary 3.7)
=========  ==========================================================

Example::

    from repro import Database, Query

    db = Database.from_tuples(range(4), {"E": (2, [(0, 1), (1, 2), (2, 3)])})
    reach = Query.parse("[lfp S(x). x = y | exists z. (E(z, x) & S(z))](x)",
                        output_vars=("x", "y"))
    print(reach.run(db).relation)   # the reachability relation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.database.database import Database
from repro.database.relation import Relation
from repro.errors import EvaluationError
from repro.core.fo_eval import BoundedEvaluator
from repro.core.fp_eval import FixpointStrategy, solve_query
from repro.core.interp import EvalStats
from repro.core.pfp_eval import SpaceMeter
from repro.guard.budget import Budget, GuardLike, resolve_guard
from repro.guard.chaos import ChaosPolicy
from repro.obs.tracer import Tracer, TracerLike, resolve_tracer
from repro.logic.analysis import Language, classify_language
from repro.logic.parser import parse_formula
from repro.logic.printer import format_formula
from repro.logic.syntax import Formula
from repro.logic.variables import free_variables, variable_width
from repro.perf.cache import SubqueryCache, resolve_subquery_cache


@dataclass
class EvalOptions:
    """Knobs for :func:`evaluate`.

    ``strategy`` selects the FP scheduling (Section 3.2); ``k_limit``
    enforces the variable bound; ``use_eso_rewrite`` toggles the Lemma 3.6
    arity reduction; ``strict_pfp_space`` selects the textbook PSPACE
    iteration for partial fixpoints.

    ``trace`` turns on span tracing: ``True`` records into a fresh
    :class:`~repro.obs.tracer.Tracer` (returned on the result), a tracer
    instance records into that tracer, and ``None``/``False`` (default)
    uses the shared no-op tracer — the engines then skip all span work.

    ``budget`` bounds the evaluation (see :class:`~repro.guard.Budget`);
    exhausting a limit raises the matching
    :class:`~repro.errors.ResourceExhausted` subclass.  ``degrade``
    (default on) lets the ESO engine walk its fallback ladder and PFP
    switch to strict counting instead of failing outright where a sound
    cheaper mode exists.  ``chaos`` installs a deterministic
    fault-injection policy — testing only.

    ``subquery_cache`` memoizes subformula tables in the FO/FP engines
    (see :mod:`repro.perf.cache`): ``True`` uses a fresh private cache
    for the evaluation, a :class:`~repro.perf.cache.SubqueryCache`
    instance shares cached tables across evaluations, and
    ``None``/``False`` (default) disables caching — the reference
    configuration the differential tests compare against.

    ``backend`` selects the table representation for the FO/FP/PFP
    engines: ``"sparse"`` (reference frozensets), ``"packed"`` (the
    :mod:`repro.kernel` ``n^k``-bit masks), or ``None`` (default) to
    consult the ``REPRO_BENCH_BACKEND`` environment variable.  Backends
    never change answers or the representation-independent stats
    counters.  The ESO engine grounds to SAT rather than iterating
    tables, so it ignores the backend.
    """

    strategy: FixpointStrategy = FixpointStrategy.MONOTONE
    k_limit: Optional[int] = None
    use_eso_rewrite: bool = True
    strict_pfp_space: bool = False
    check_positive: bool = True
    trace: Union[bool, Tracer, None] = None
    budget: Optional[Budget] = None
    chaos: Optional[ChaosPolicy] = None
    degrade: bool = True
    subquery_cache: Union[bool, "SubqueryCache", None] = None
    backend: Union[str, None] = None


@dataclass
class EvalResult:
    """The answer plus the audit trail of how it was computed.

    ``stats.registry`` is the unified metrics registry for the run;
    ``tracer`` is the recording tracer when tracing was requested
    (``None`` otherwise).
    """

    relation: Relation
    language: Language
    strategy: Optional[FixpointStrategy]
    stats: EvalStats
    space: Optional[SpaceMeter] = None
    tracer: Optional[Tracer] = None
    guard: Optional[GuardLike] = None

    def as_bool(self) -> bool:
        """Boolean answer, for sentence queries (0-ary output)."""
        return self.relation.as_bool()


def evaluate(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str] = (),
    options: Optional[EvalOptions] = None,
) -> EvalResult:
    """Evaluate ``(output_vars)formula`` against ``db``.

    Output variables must cover the free variables of the formula; extra
    output variables range over the whole domain (the paper's convention).
    """
    options = options if options is not None else EvalOptions()
    tracer = resolve_tracer(options.trace)
    stats = EvalStats()
    guard = resolve_guard(
        options.budget, chaos=options.chaos, registry=stats.registry
    )
    language = classify_language(formula)
    if tracer.enabled:
        with tracer.span(
            "evaluate",
            language=language.value,
            width=variable_width(formula),
        ) as span:
            result = _dispatch(
                formula, db, output_vars, options, language, stats, tracer, guard
            )
            span.set(answer_rows=len(result.relation))
        return result
    return _dispatch(
        formula, db, output_vars, options, language, stats, tracer, guard
    )


def _dispatch(
    formula: Formula,
    db: Database,
    output_vars: Sequence[str],
    options: EvalOptions,
    language: Language,
    stats: EvalStats,
    tracer: TracerLike,
    guard: GuardLike,
) -> EvalResult:
    recorded = tracer if tracer.enabled else None
    watched = guard if guard.enabled else None
    cache = resolve_subquery_cache(options.subquery_cache)
    if language == Language.FO:
        evaluator = BoundedEvaluator(
            db,
            k_limit=options.k_limit,
            stats=stats,
            tracer=tracer,
            guard=guard,
            subquery_cache=cache,
            backend=options.backend,
        )
        relation = evaluator.answer(formula, tuple(output_vars))
        return EvalResult(
            relation, language, None, stats, tracer=recorded, guard=watched
        )
    if language == Language.ESO:
        from repro.core.eso_eval import eso_answer

        relation = eso_answer(
            formula,
            db,
            tuple(output_vars),
            use_rewrite=options.use_eso_rewrite,
            stats=stats,
            tracer=tracer,
            guard=guard,
            degrade=options.degrade,
        )
        return EvalResult(
            relation, language, None, stats, tracer=recorded, guard=watched
        )
    # FP and PFP: one fixpoint solver.  Pure lfp/gfp formulas run under
    # any strategy; pfp/ifp mixtures classify as Language.PFP and take
    # Theorem 3.8's metered naive iteration, as pfp_answer does
    metered = language == Language.PFP
    meter = SpaceMeter(registry=stats.registry) if metered else None
    strategy = FixpointStrategy.NAIVE if metered else options.strategy
    relation = solve_query(
        formula,
        db,
        tuple(output_vars),
        strategy=strategy,
        k_limit=options.k_limit,
        stats=stats,
        require_positive=options.check_positive,
        tracer=tracer,
        guard=guard,
        # like pfp_answer, the metered path runs without the cache
        subquery_cache=None if metered else cache,
        backend=options.backend,
        meter=meter,
        strict_space=options.strict_pfp_space,
        degrade=options.degrade,
    )
    return EvalResult(
        relation,
        language,
        None if metered else strategy,
        stats,
        space=meter,
        tracer=recorded,
        guard=watched,
    )


@dataclass(frozen=True)
class Query:
    """A named query ``(output_vars)formula`` — the paper's query objects.

    >>> q = Query.parse("exists y. E(x, y)", output_vars=("x",))
    >>> q.width
    2
    """

    formula: Formula
    output_vars: Tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        missing = free_variables(self.formula) - set(self.output_vars)
        if missing:
            raise EvaluationError(
                f"output variables {self.output_vars} do not cover free "
                f"variables {sorted(missing)}"
            )

    @classmethod
    def parse(
        cls,
        text: str,
        output_vars: Sequence[str] = (),
        name: str = "",
    ) -> "Query":
        return cls(parse_formula(text), tuple(output_vars), name)

    @property
    def width(self) -> int:
        """The number of distinct individual variables — the query's k."""
        return variable_width(self.formula)

    @property
    def language(self) -> Language:
        return classify_language(self.formula)

    @property
    def arity(self) -> int:
        return len(self.output_vars)

    def text(self) -> str:
        """The concrete syntax (its length is the ``|e|`` of the paper)."""
        return format_formula(self.formula)

    def run(
        self, db: Database, options: Optional[EvalOptions] = None
    ) -> EvalResult:
        """Evaluate against a database."""
        return evaluate(self.formula, db, self.output_vars, options)

    def holds(
        self, db: Database, options: Optional[EvalOptions] = None
    ) -> bool:
        """Boolean answer for sentence queries."""
        if self.output_vars:
            raise EvaluationError(
                "holds() is for sentence queries; this query has output "
                f"variables {self.output_vars}"
            )
        return self.run(db, options).as_bool()

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Query{label}(({', '.join(self.output_vars)})"
            f"{format_formula(self.formula)})"
        )
