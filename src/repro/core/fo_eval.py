"""Bottom-up bounded-variable evaluation (Proposition 3.1).

The evaluator views every subformula as a subquery and computes its value —
a :class:`~repro.core.interp.VarTable` over the subformula's free variables —
bottom-up.  For a query in ``FO^k`` every such table has at most ``k``
columns, hence at most ``n^k`` rows: this is the paper's polynomial bound on
intermediate results, and :class:`~repro.core.interp.EvalStats` checks it at
runtime.  Each intermediate table is audited once, by
:meth:`BoundedEvaluator._audit`, which also charges the row guard and feeds
the backend's kernel metrics.

Fixpoint subformulas are delegated to a pluggable solver (see
:mod:`repro.core.fp_eval`); second-order quantifiers are rejected here and
handled by :mod:`repro.core.eso_eval`.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.database.database import Database
from repro.database.relation import Relation
from repro.errors import EvaluationError, VariableBoundError
from repro.core.interp import EvalStats, VarTable
from repro.kernel.backend import resolve_backend
from repro.guard.budget import GuardLike, NULL_GUARD
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.logic.syntax import (
    And,
    Const,
    Equals,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    RelAtom,
    SOExists,
    Truth,
    Var,
    _FixpointBase,
)
from repro.logic.variables import free_variables, variable_width

RelEnv = Mapping[str, Relation]
FixpointSolver = Callable[
    ["BoundedEvaluator", _FixpointBase, Dict[str, Relation]], Relation
]


def check_variable_bound(formula: Formula, k_limit: Optional[int]) -> None:
    """Raise :class:`~repro.errors.VariableBoundError` when ``formula``
    uses more than ``k_limit`` variables (``None``: no bound)."""
    if k_limit is None:
        return
    width = variable_width(formula)
    if width > k_limit:
        raise VariableBoundError(
            f"query uses {width} variables, engine bound is k={k_limit}"
        )


class BoundedEvaluator:
    """Evaluates formulas bottom-up with bounded-arity intermediates.

    This is the one FO evaluation path: the FP and PFP engines run their
    iteration bodies through :meth:`_eval`, and the differential suites
    check it against the brute-force oracle :mod:`repro.core.naive_eval`.

    Parameters
    ----------
    db:
        The database ``B``.
    fixpoint_solver:
        Callback ``(evaluator, node, rel_env) -> Relation`` computing the
        limit of a fixpoint subformula whose free individual variables have
        already been substituted away (the engine evaluates parameterized
        fixpoints one parameter assignment at a time).  ``None`` rejects
        fixpoints (pure FO^k mode).
    k_limit:
        Optional hard bound ``k``; queries of larger variable width raise
        :class:`~repro.errors.VariableBoundError` instead of silently
        building wide intermediates.
    stats:
        Shared audit object; a fresh one is created when omitted.
    tracer:
        Span tracer; the shared no-op tracer by default.  When enabled,
        every subformula evaluation is a ``fo.<Connective>`` span
        annotated with the resulting table's rows and arity.
    guard:
        Resource guard; the shared no-op guard by default.  When enabled,
        every intermediate table is charged once against the row budget
        (the enforced version of Prop 3.1's ``n^k`` invariant), and each
        charge is a cooperative checkpoint.
    subquery_cache:
        Optional :class:`repro.perf.cache.SubqueryCache`.  Unlike the
        internal per-evaluation memo (which keys on formula *identity*),
        the cache keys on formula *structure* plus the relevant relation
        environment, so it also serves repeated subtrees, fixpoint
        parameter assignments, and — when one instance is shared —
        entirely separate evaluations.  Served tables are charged to the
        guard's row budget and counted in ``stats`` like computed ones.
    backend:
        Table representation: ``"sparse"`` (reference), ``"packed"``
        (the :mod:`repro.kernel` bitmask kernel), an already-built
        backend instance, or ``None`` to consult ``REPRO_BENCH_BACKEND``
        (see :func:`repro.kernel.backend.resolve_backend`).  Backends
        change only the representation of intermediate tables — answers
        and all :class:`EvalStats` counters are identical.
    """

    def __init__(
        self,
        db: Database,
        fixpoint_solver: Optional[FixpointSolver] = None,
        k_limit: Optional[int] = None,
        stats: Optional[EvalStats] = None,
        tracer: TracerLike = NULL_TRACER,
        guard: GuardLike = NULL_GUARD,
        subquery_cache=None,
        backend=None,
    ):
        self.db = db
        self.domain = db.domain
        self.fixpoint_solver = fixpoint_solver
        self.k_limit = k_limit
        self.stats = stats if stats is not None else EvalStats()
        self.backend = resolve_backend(
            backend, db.domain, registry=self.stats.registry, tracer=tracer
        )
        self.tracer = tracer
        self.guard = guard
        if guard.enabled:
            # an exhaustion's metrics snapshot carries the kernel tallies
            guard.add_publisher(self.backend.publish_tallies)
        self.subquery_cache = subquery_cache
        # memo entries keep a strong reference to their formula so the
        # id()-based key can never alias a recycled object
        self._memo: Dict[tuple, Tuple[Formula, VarTable]] = {}
        # free-relation-variable sets per formula, same strong-ref scheme
        self._free_rels: Dict[int, tuple] = {}
        # clipped formula renderings for span `expr` attributes, keyed by
        # id() with the usual strong-reference scheme; only populated
        # when tracing is on
        self._expr_labels: Dict[int, Tuple[Formula, str]] = {}
        # the table the latest _eval call returned (see _eval's audit)
        self._last_result: Optional[VarTable] = None

    # -- public API --------------------------------------------------------

    def evaluate(
        self, formula: Formula, rel_env: Optional[RelEnv] = None
    ) -> VarTable:
        """The table ``{assignments a : (B, a) ⊨ formula}``."""
        check_variable_bound(formula, self.k_limit)
        env = dict(rel_env or {})
        try:
            return self._eval(formula, env)
        finally:
            self.backend.publish_tallies()

    def answer(
        self,
        formula: Formula,
        output_vars: Sequence[str],
        rel_env: Optional[RelEnv] = None,
    ) -> Relation:
        """The query answer as a relation with the given column order.

        Per the paper's Prop 3.1 proof: compute the table, then project and
        permute — extra output variables not free in the formula range over
        the whole domain.
        """
        out = tuple(output_vars)
        if len(set(out)) != len(out):
            raise EvaluationError(f"duplicate output variables: {out}")
        missing = free_variables(formula) - set(out)
        if missing:
            raise EvaluationError(
                f"output variables {out} do not cover free variables "
                f"{sorted(missing)}"
            )
        try:
            table = self.evaluate(formula, rel_env)
            out_table = table.cylindrify(out, self.domain)
            if out_table is not table:
                self._audit(out_table, "answer")
            return out_table.to_relation(out)
        finally:
            self.backend.publish_tallies()

    # -- recursive evaluation ------------------------------------------

    def _eval(self, formula: Formula, env: Dict[str, Relation]) -> VarTable:
        rels = self._relation_names(formula)
        # state_key lets packed relations key by mask instead of hashing
        # their materialized tuple sets
        key = (
            id(formula),
            tuple([(name, env[name].state_key()) for name in rels if name in env]),
        )
        cached = self._memo.get(key)
        if cached is not None:
            # the entry holds a strong reference to its formula, so an
            # id() match on a *live* object guarantees identity — without
            # the reference CPython could reuse the id of a dead formula
            self.stats.bump("memo_hits")
            self._last_result = cached[1]
            return cached[1]
        cache = self.subquery_cache
        ckey = None
        if cache is not None and cache.cacheable(formula):
            ckey = cache.key_for(
                formula, rels, env, self.db, self.backend.name
            )
            if ckey is not None:
                hit = cache.get(ckey)
                if hit is not None:
                    # entries are stored untraced; this evaluation's
                    # kernel ops on the table belong in its own trace
                    hit = self.backend.bind(hit, self.tracer)
                    self.stats.bump("subquery_cache_hits")
                    self._audit(hit, type(formula).__name__)
                    self._memo[key] = (formula, hit)
                    self._last_result = hit
                    return hit
                self.stats.bump("subquery_cache_misses")
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(
                f"fo.{type(formula).__name__}", expr=self._expr_label(formula)
            ) as span:
                table = self._eval_node(formula, env)
                span.set(rows=len(table), arity=len(table.variables))
        else:
            table = self._eval_node(formula, env)
        # a vacuous ∃/∀ or a one-part ∧/∨ hands up its child's table
        # unchanged: the table the child's _eval returned last, audited
        # when it was built
        if table is not self._last_result:
            self._audit(table, type(formula).__name__)
        if ckey is not None:
            cache.put(ckey, self.backend.bind(table, NULL_TRACER))
        self._memo[key] = (formula, table)
        self._last_result = table
        return table

    def _audit(self, table: VarTable, node: str) -> None:
        """Record one intermediate table, once: charge it to the row
        guard, audit it in ``stats`` and feed the backend's mask-bit
        high-water.  Its cache tallies are published once, when
        :meth:`evaluate` or :meth:`answer` returns or raises."""
        if self.guard.enabled:
            self.guard.charge_rows(len(table), node=node)
        self.stats.observe_table(table)
        self.backend.observe(table)

    def _expr_label(self, formula: Formula) -> str:
        cached = self._expr_labels.get(id(formula))
        if cached is None:
            from repro.logic.printer import formula_label

            cached = (formula, formula_label(formula))
            self._expr_labels[id(formula)] = cached
        return cached[1]

    def _relation_names(self, formula: Formula) -> Tuple[str, ...]:
        """The formula's free relation variables, sorted."""
        cached = self._free_rels.get(id(formula))
        if cached is None:
            from repro.logic.variables import free_relation_variables

            cached = (formula, tuple(sorted(free_relation_variables(formula))))
            self._free_rels[id(formula)] = cached
        return cached[1]

    def _eval_node(self, formula: Formula, env: Dict[str, Relation]) -> VarTable:
        if isinstance(formula, RelAtom):
            relation = env.get(formula.name)
            if relation is None:
                relation = self.db.relation(formula.name)
            return self.backend.atom_table(relation, formula.terms)
        if isinstance(formula, Equals):
            return self._eval_equals(formula)
        if isinstance(formula, Truth):
            return (
                self.backend.tautology()
                if formula.value
                else self.backend.contradiction()
            )
        if isinstance(formula, Not):
            sub = self._eval(formula.sub, env)
            return sub.complement(self.domain)
        if isinstance(formula, And):
            if not formula.subs:
                return self.backend.tautology()
            table = self._eval(formula.subs[0], env)
            for i, part in enumerate(formula.subs[1:]):
                if i:
                    # a fold step; the last one is the node's result
                    self._audit(table, "And")
                table = table.join(self._eval(part, env))
            return table
        if isinstance(formula, Or):
            if not formula.subs:
                return self.backend.contradiction()
            table = self._eval(formula.subs[0], env)
            for i, part in enumerate(formula.subs[1:]):
                if i:
                    self._audit(table, "Or")
                table = table.union(self._eval(part, env), self.domain)
            return table
        if isinstance(formula, Exists):
            sub = self._eval(formula.sub, env)
            if formula.var.name in sub.variables:
                return sub.project_out(formula.var.name)
            # vacuous quantification: true iff the domain is non-empty
            if len(self.domain) == 0:
                return self.backend.table(sub.variables, [])
            return sub
        if isinstance(formula, Forall):
            sub = self._eval(formula.sub, env)
            if formula.var.name in sub.variables:
                return sub.forall_out(formula.var.name, self.domain)
            if len(self.domain) == 0:
                # vacuously true; with free variables present there are no
                # assignments at all, otherwise the single empty assignment
                return self.backend.table(
                    sub.variables, [()] if not sub.variables else []
                )
            return sub
        if isinstance(formula, _FixpointBase):
            return self._eval_fixpoint(formula, env)
        if isinstance(formula, SOExists):
            raise EvaluationError(
                "second-order quantification reached the bounded FO/FP "
                "evaluator; route ESO queries through repro.core.eso_eval"
            )
        raise EvaluationError(f"unknown formula node {formula!r}")

    def _eval_equals(self, formula: Equals) -> VarTable:
        left, right = formula.left, formula.right
        if isinstance(left, Var) and isinstance(right, Var):
            if left.name == right.name:
                return self.backend.full((left.name,))
            return self.backend.table(
                (left.name, right.name),
                ((v, v) for v in self.domain),
            )
        if isinstance(left, Const) and isinstance(right, Var):
            left, right = right, left
        if isinstance(left, Var) and isinstance(right, Const):
            if right.value not in self.domain:
                return self.backend.table((left.name,), [])
            return self.backend.table((left.name,), [(right.value,)])
        if isinstance(left, Const) and isinstance(right, Const):
            return (
                self.backend.tautology()
                if left.value == right.value
                else self.backend.contradiction()
            )
        raise EvaluationError(f"malformed equality {formula!r}")

    # -- fixpoints ----------------------------------------------------

    def _eval_fixpoint(
        self, node: _FixpointBase, env: Dict[str, Relation]
    ) -> VarTable:
        if self.fixpoint_solver is None:
            raise EvaluationError(
                "fixpoint operator reached a pure-FO evaluator; use the FP "
                "engine (repro.core.fp_eval) for fixpoint queries"
            )
        from repro.logic.substitution import substitute

        bound_names = {v.name for v in node.bound_vars}
        params = tuple(sorted(free_variables(node.body) - bound_names))
        arg_vars = sorted(
            {t.name for t in node.args if isinstance(t, Var)}
        )
        out_columns = tuple(sorted(set(arg_vars) | set(params)))
        rows = []
        for combo in self.domain.tuples(len(params)):
            if params:
                mapping = {p: Const(v) for p, v in zip(params, combo)}
                closed = type(node)(
                    node.rel,
                    node.bound_vars,
                    substitute(node.body, mapping),
                    node.args,
                )
            else:
                closed = node
            limit = self.fixpoint_solver(self, closed, dict(env))
            self.stats.bump("fixpoint_solves")
            # rows of the node's table: assignments to arg variables (and
            # the parameters) whose argument tuple lands in the limit
            param_assignment = dict(zip(params, combo))
            member_table = self.backend.atom_table(limit, node.args)
            member_table = member_table.cylindrify(arg_vars, self.domain)
            if not params:
                # no parameters: the member table over the (sorted) arg
                # variables IS the node's table — skip the per-row merge
                return member_table
            for assignment in member_table.assignments():
                merged = dict(param_assignment)
                consistent = True
                for var, value in assignment.items():
                    # an argument variable that is also a parameter must
                    # agree with the parameter's current value
                    if var in merged and merged[var] != value:
                        consistent = False
                        break
                    merged[var] = value
                if consistent:
                    rows.append(tuple(merged[c] for c in out_columns))
        return self.backend.table(out_columns, rows)
