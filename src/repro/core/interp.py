"""Assignment tables: the intermediate results of bounded evaluation.

Prop 3.1 evaluates an FO^k query bottom-up, one subformula at a time, with
every intermediate result a relation of arity at most ``k``.  A
:class:`VarTable` is that intermediate result made concrete: a set of
assignments to the subformula's free variables, stored as a relation with
*named*, canonically-ordered columns.

The logical connectives become the obvious table operations:

==============  =============================================
``φ ∧ ψ``        natural join on shared variables
``φ ∨ ψ``        cylindrify both sides to the union of their
                 variables, then set union
``¬φ``           complement relative to ``D^{vars}``
``∃x φ``         project out column ``x``
``∀x φ``         complement–project–complement (or directly:
                 keep rows whose x-section is all of ``D``)
==============  =============================================

Because a subformula of an ``L^k`` query has at most ``k`` free variables,
every table here has at most ``n^k`` rows — the paper's polynomial bound on
intermediate results.  :class:`EvalStats` audits that bound at runtime.
"""

from __future__ import annotations

import itertools
import operator
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.database.domain import Domain, Value
from repro.database.relation import Relation
from repro.errors import EvaluationError
from repro.obs.metrics import MetricsRegistry

Row = Tuple[Value, ...]

#: Registry names behind each ``EvalStats`` attribute (see
#: ``docs/observability.md`` for the full catalogue).
_NOTE_PREFIX = "note."


def _counter_attr(metric: str, slot: str):
    def getter(self):
        return getattr(self, slot).value

    def setter(self, value):
        getattr(self, slot).value = value

    return property(getter, setter, doc=f"backed by counter {metric!r}")


def _gauge_attr(metric: str, slot: str):
    def getter(self):
        return getattr(self, slot).value

    def setter(self, value):
        getattr(self, slot).value = value

    return property(getter, setter, doc=f"backed by gauge {metric!r}")


class EvalStats:
    """Runtime audit of an evaluation: the quantities the paper bounds.

    ``max_intermediate_rows``/``max_intermediate_arity`` verify Prop 3.1's
    ``n^k`` bound; ``fixpoint_iterations`` is the quantity Theorem 3.5
    reduces from ``n^{k·l}`` to ``l·n^k``; ``table_ops`` counts the
    intermediate tables, each built by one polynomial-time relation
    operation (Prop 3.1) and audited once by :meth:`observe_table`.

    Every attribute is backed by an instrument in a
    :class:`~repro.obs.metrics.MetricsRegistry` (attribute reads/writes
    are views onto it), so the same numbers are exportable by name; pass
    a shared ``registry`` to aggregate several evaluations into one
    store.  The classic ``stats.field += n`` call sites work unchanged.
    """

    __slots__ = (
        "registry",
        "_table_ops",
        "_max_rows",
        "_max_arity",
        "_fixpoint_iterations",
        "_body_evaluations",
        "_sat_variables",
        "_sat_clauses",
        "_rows_hist",
        "_note_cache",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._table_ops = self.registry.counter("eval.table_ops")
        self._max_rows = self.registry.gauge("eval.max_intermediate_rows")
        self._max_arity = self.registry.gauge("eval.max_intermediate_arity")
        self._fixpoint_iterations = self.registry.counter(
            "eval.fixpoint_iterations"
        )
        self._body_evaluations = self.registry.counter("eval.body_evaluations")
        self._sat_variables = self.registry.counter("sat.variables")
        self._sat_clauses = self.registry.counter("sat.clauses")
        self._rows_hist = self.registry.histogram("eval.table_rows")
        self._note_cache: Dict[str, object] = {}

    table_ops = _counter_attr("eval.table_ops", "_table_ops")
    max_intermediate_rows = _gauge_attr(
        "eval.max_intermediate_rows", "_max_rows"
    )
    max_intermediate_arity = _gauge_attr(
        "eval.max_intermediate_arity", "_max_arity"
    )
    fixpoint_iterations = _counter_attr(
        "eval.fixpoint_iterations", "_fixpoint_iterations"
    )
    body_evaluations = _counter_attr(
        "eval.body_evaluations", "_body_evaluations"
    )
    sat_variables = _counter_attr("sat.variables", "_sat_variables")
    sat_clauses = _counter_attr("sat.clauses", "_sat_clauses")

    @property
    def notes(self) -> Dict[str, int]:
        """Ad-hoc named counters, as a plain dict (read-only view)."""
        prefix = _NOTE_PREFIX
        return {
            metric.name[len(prefix) :]: metric.value
            for metric in self.registry
            if metric.name.startswith(prefix)
        }

    def observe_table(self, table) -> None:
        """Audit one intermediate table (``VarTable``, any backend's, or
        an algebra plan's ``Table``: anything with ``len`` and
        ``variables``).

        Uses ``len(table)`` rather than ``len(table.rows)`` so a packed
        table answers with a popcount instead of decoding its rows.
        """
        self._table_ops.value += 1
        rows = len(table)
        self._rows_hist.observe(rows)
        if rows > self._max_rows.value:
            self._max_rows.value = rows
        if len(table.variables) > self._max_arity.value:
            self._max_arity.value = len(table.variables)

    def bump(self, key: str, amount: int = 1) -> None:
        counter = self._note_cache.get(key)
        if counter is None:
            counter = self.registry.counter(_NOTE_PREFIX + key)
            self._note_cache[key] = counter
        counter.value += amount

    def as_dict(self) -> Dict[str, int]:
        """The classic audit fields as a flat dict (for reports/benches)."""
        return {
            "table_ops": self.table_ops,
            "max_intermediate_rows": self.max_intermediate_rows,
            "max_intermediate_arity": self.max_intermediate_arity,
            "fixpoint_iterations": self.fixpoint_iterations,
            "body_evaluations": self.body_evaluations,
            "sat_variables": self.sat_variables,
            "sat_clauses": self.sat_clauses,
            **self.notes,
        }

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"EvalStats({fields})"


class VarTable:
    """An immutable relation with named columns over a fixed domain.

    Columns are kept in sorted order so two tables over the same variables
    have identical layouts and row-sets compare directly.
    """

    __slots__ = ("_vars", "_rows")

    def __init__(self, variables: Sequence[str], rows: Iterable[Row]):
        ordered = tuple(sorted(variables))
        if len(set(ordered)) != len(ordered):
            raise EvaluationError(f"duplicate table columns: {variables}")
        if tuple(variables) != ordered:
            # reorder the incoming rows to canonical column order; one
            # position map instead of an O(k^2) .index() scan per column
            pos = {v: i for i, v in enumerate(variables)}
            positions = [pos[v] for v in ordered]
            rows = (tuple(row[p] for p in positions) for row in rows)
        frozen = frozenset(tuple(r) for r in rows)
        width = len(ordered)
        for row in frozen:
            if len(row) != width:
                raise EvaluationError(
                    f"row {row!r} does not match columns {ordered}"
                )
        self._vars = ordered
        self._rows = frozen

    # -- constructors --------------------------------------------------

    @classmethod
    def _trusted(
        cls, variables: Tuple[str, ...], rows: FrozenSet[Row]
    ) -> "VarTable":
        """Internal constructor for operator results.

        Skips all validation: ``variables`` must already be canonically
        sorted and duplicate-free, ``rows`` a frozenset of tuples of the
        right width.  Every public path still goes through ``__init__``.
        """
        table = cls.__new__(cls)
        table._vars = variables
        table._rows = rows
        return table

    @classmethod
    def tautology(cls) -> "VarTable":
        """The table of the always-true 0-variable formula: one empty row."""
        return cls((), [()])

    @classmethod
    def contradiction(cls) -> "VarTable":
        """The table of the always-false 0-variable formula: no rows."""
        return cls((), [])

    @classmethod
    def full(cls, variables: Sequence[str], domain: Domain) -> "VarTable":
        """``D^{variables}`` — every assignment to the given variables."""
        ordered = tuple(sorted(variables))
        if len(set(ordered)) != len(ordered):
            raise EvaluationError(f"duplicate table columns: {variables}")
        return cls._trusted(
            ordered,
            frozenset(itertools.product(domain.values, repeat=len(ordered))),
        )

    # -- basic accessors -------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._vars

    @property
    def rows(self) -> FrozenSet[Row]:
        return self._rows

    def assignments(self) -> Iterator[Dict[str, Value]]:
        """Iterate rows as variable→value dictionaries."""
        for row in self._rows:
            yield dict(zip(self._vars, row))

    def is_empty(self) -> bool:
        return not self._rows

    # -- relational operations ---------------------------------------

    def join(self, other: "VarTable") -> "VarTable":
        """Natural join (the table operation behind conjunction)."""
        other_vars = set(other._vars)
        shared = [v for v in self._vars if v in other_vars]
        if not shared:
            merged = self._vars + other._vars
            order = sorted(range(len(merged)), key=merged.__getitem__)
            out_vars = tuple(merged[i] for i in order)
            rows = frozenset(
                tuple((left + right)[i] for i in order)
                for left in self._rows
                for right in other._rows
            )
            return VarTable._trusted(out_vars, rows)
        # hash join on the shared columns; probe the smaller side
        if len(self._rows) > len(other._rows):
            return other.join(self)
        shared_set = set(shared)
        left_pos = [self._vars.index(v) for v in shared]
        right_pos = [other._vars.index(v) for v in shared]
        right_only = [
            i for i, v in enumerate(other._vars) if v not in shared_set
        ]
        index: Dict[Row, list] = {}
        for row in self._rows:
            index.setdefault(tuple(row[p] for p in left_pos), []).append(row)
        merged = self._vars + tuple(other._vars[i] for i in right_only)
        order = sorted(range(len(merged)), key=merged.__getitem__)
        out_vars = tuple(merged[i] for i in order)
        rows = set()
        for row in other._rows:
            key = tuple(row[p] for p in right_pos)
            extras = tuple(row[i] for i in right_only)
            for match in index.get(key, ()):
                combined = match + extras
                rows.add(tuple(combined[i] for i in order))
        return VarTable._trusted(out_vars, frozenset(rows))

    def cylindrify(self, variables: Iterable[str], domain: Domain) -> "VarTable":
        """Extend with the given (new) variables, free over the domain."""
        extra = sorted(set(variables) - set(self._vars))
        if not extra:
            return self
        merged = self._vars + tuple(extra)
        order = sorted(range(len(merged)), key=merged.__getitem__)
        out_vars = tuple(merged[i] for i in order)
        combos = tuple(itertools.product(domain.values, repeat=len(extra)))
        rows = set()
        for row in self._rows:
            for combo in combos:
                combined = row + combo
                rows.add(tuple(combined[i] for i in order))
        return VarTable._trusted(out_vars, frozenset(rows))

    def union(self, other: "VarTable", domain: Domain) -> "VarTable":
        """Set union after cylindrifying both sides to a common schema."""
        target = set(self._vars) | set(other._vars)
        left = self.cylindrify(target, domain)
        right = other.cylindrify(target, domain)
        return VarTable._trusted(left._vars, left._rows | right._rows)

    def complement(self, domain: Domain) -> "VarTable":
        """``D^{vars}`` minus this table (the semantics of negation)."""
        universe = itertools.product(domain.values, repeat=len(self._vars))
        rows = frozenset(row for row in universe if row not in self._rows)
        return VarTable._trusted(self._vars, rows)

    def project_out(self, variable: str) -> "VarTable":
        """Existential quantification: drop one column, dedupe rows."""
        if variable not in self._vars:
            return self
        keep = [i for i, v in enumerate(self._vars) if v != variable]
        return VarTable._trusted(
            tuple(self._vars[i] for i in keep),
            frozenset(tuple(row[i] for i in keep) for row in self._rows),
        )

    def forall_out(self, variable: str, domain: Domain) -> "VarTable":
        """Universal quantification over one column.

        Keeps those reduced rows whose ``variable``-section covers the whole
        domain — equivalent to complement/project/complement but direct.
        """
        if variable not in self._vars:
            return self
        idx = self._vars.index(variable)
        keep = [i for i in range(len(self._vars)) if i != idx]
        if len(domain) == 0:
            # vacuously true over an empty domain; with other variables
            # remaining there are no assignments at all
            remaining = tuple(self._vars[i] for i in keep)
            return VarTable._trusted(
                remaining, frozenset([()]) if not remaining else frozenset()
            )
        sections: Dict[Row, set] = {}
        for row in self._rows:
            sections.setdefault(
                tuple(row[i] for i in keep), set()
            ).add(row[idx])
        n = len(domain)
        rows = frozenset(
            base for base, seen in sections.items() if len(seen) == n
        )
        return VarTable._trusted(tuple(self._vars[i] for i in keep), rows)

    def to_relation(self, output_vars: Sequence[str]) -> Relation:
        """Read the table out as a plain relation in the given column order.

        Columns must be exactly the table's variables (this is the final
        projection/permutation step of Prop 3.1's proof).  In the table's
        own column order the relation shares the table's frozenset.
        """
        if set(output_vars) != set(self._vars) or len(output_vars) != len(
            self._vars
        ):
            raise EvaluationError(
                f"output variables {tuple(output_vars)} must be a permutation "
                f"of table columns {self._vars}"
            )
        width = len(self._vars)
        if tuple(output_vars) == self._vars:
            return Relation._trusted(width, self._rows)
        # a permutation moves at least two columns, so itemgetter
        # returns tuples
        pick = operator.itemgetter(*(self._vars.index(v) for v in output_vars))
        return Relation._trusted(width, frozenset(map(pick, self._rows)))

    # -- dunder ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VarTable):
            return NotImplemented
        return self._vars == other._vars and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._vars, self._rows))

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"VarTable(vars={self._vars}, rows={len(self._rows)})"
