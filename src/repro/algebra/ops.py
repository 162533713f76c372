"""Relational algebra plan nodes.

A plan is an immutable tree of operators; ``plan.evaluate(db)`` runs it
against a database and returns a :class:`Table` (named columns + rows).
``plan.evaluate(db, stats)`` audits *every* intermediate result through
:meth:`repro.core.interp.EvalStats.observe_table`, the audit the bounded
evaluator uses — the quantity the paper's introduction is about: the
naive plan for the company query peaks at arity 12, the bounded plan at
arity 3, and on large instances the difference is the whole game.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.database.database import Database
from repro.database.domain import Value
from repro.errors import EvaluationError

if TYPE_CHECKING:
    from repro.core.interp import EvalStats

Row = Tuple[Value, ...]


@dataclass(frozen=True)
class Table:
    """An intermediate result: named columns and a tuple of rows."""

    columns: Tuple[str, ...]
    rows: Tuple[Row, ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise EvaluationError(f"duplicate columns {self.columns}")

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def variables(self) -> Tuple[str, ...]:
        """The column names, under the name ``EvalStats`` audits."""
        return self.columns

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise EvaluationError(
                f"unknown column {name!r} (have {self.columns})"
            ) from None

    def distinct(self) -> "Table":
        seen = set()
        out: List[Row] = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Table(self.columns, tuple(out))

    def __len__(self) -> int:
        return len(self.rows)


class PlanNode:
    """Base class for algebra operators."""

    def evaluate(
        self, db: Database, stats: Optional[EvalStats] = None
    ) -> Table:
        """This node's table; ``stats`` audits it and every table below."""
        table = self._run(db, stats)
        if stats is not None:
            stats.observe_table(table)
        return table

    def _run(self, db: Database, stats: Optional[EvalStats]) -> Table:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Predicates for Select
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnEq:
    """Positional equality predicate ``row[left] == row[right]``."""

    left: int
    right: int

    def __call__(self, row: Row) -> bool:
        return row[self.left] == row[self.right]


@dataclass(frozen=True)
class ColumnEqConst:
    """Positional constant predicate ``row[column] == value``."""

    column: int
    value: Value

    def __call__(self, row: Row) -> bool:
        return row[self.column] == self.value


def column_eq(left: int, right: int) -> ColumnEq:
    return ColumnEq(left, right)


def column_eq_const(column: int, value: Value) -> ColumnEqConst:
    return ColumnEqConst(column, value)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


_scan_counter = itertools.count()


@dataclass(frozen=True)
class RelationScan(PlanNode):
    """Read a database relation; columns are auto-named unless given."""

    name: str
    arity: int
    columns: Optional[Tuple[str, ...]] = None
    _uid: int = field(default_factory=lambda: next(_scan_counter))

    def schema(self) -> Tuple[str, ...]:
        if self.columns is not None:
            if len(self.columns) != self.arity:
                raise EvaluationError(
                    f"scan of {self.name}: {len(self.columns)} column names "
                    f"for arity {self.arity}"
                )
            return tuple(self.columns)
        return tuple(f"{self.name}.{i}#{self._uid}" for i in range(self.arity))

    def _run(self, db: Database, stats) -> Table:
        relation = db.relation(self.name)
        if relation.arity != self.arity:
            raise EvaluationError(
                f"scan of {self.name}: declared arity {self.arity}, "
                f"relation has {relation.arity}"
            )
        return Table(self.schema(), tuple(sorted(relation.tuples, key=repr)))


@dataclass(frozen=True)
class CrossProduct(PlanNode):
    """Cartesian product of several inputs (the Section 1 anti-pattern)."""

    inputs: Tuple[PlanNode, ...]

    def _run(self, db: Database, stats) -> Table:
        tables = [child.evaluate(db, stats) for child in self.inputs]
        columns: List[str] = []
        seen_cols = set()
        for i, table in enumerate(tables):
            for col in table.columns:
                name = f"{col}@{i}" if col in seen_cols else col
                columns.append(name)
                seen_cols.add(name)
        rows = tuple(
            tuple(itertools.chain.from_iterable(combo))
            for combo in itertools.product(*(t.rows for t in tables))
        )
        return Table(tuple(columns), rows)


@dataclass(frozen=True)
class Join(PlanNode):
    """Natural join on shared column names (hash join)."""

    left: PlanNode
    right: PlanNode

    def _run(self, db: Database, stats) -> Table:
        left = self.left.evaluate(db, stats)
        right = self.right.evaluate(db, stats)
        right_cols = set(right.columns)
        shared = [c for c in left.columns if c in right_cols]
        shared_set = set(shared)
        left_pos = [left.column_index(c) for c in shared]
        right_pos = [right.column_index(c) for c in shared]
        right_extra = [
            i for i, c in enumerate(right.columns) if c not in shared_set
        ]
        index: Dict[Row, List[Row]] = {}
        for row in left.rows:
            index.setdefault(tuple(row[p] for p in left_pos), []).append(row)
        out_columns = left.columns + tuple(right.columns[i] for i in right_extra)
        out_rows: List[Row] = []
        for row in right.rows:
            key = tuple(row[p] for p in right_pos)
            for match in index.get(key, ()):
                out_rows.append(match + tuple(row[i] for i in right_extra))
        return Table(out_columns, tuple(out_rows))


@dataclass(frozen=True)
class Select(PlanNode):
    """Filter rows by conjunction of positional predicates."""

    input: PlanNode
    predicates: Tuple[Callable[[Row], bool], ...]

    def _run(self, db: Database, stats) -> Table:
        table = self.input.evaluate(db, stats)
        rows = tuple(
            row for row in table.rows if all(p(row) for p in self.predicates)
        )
        return Table(table.columns, rows)


@dataclass(frozen=True)
class Project(PlanNode):
    """Project to columns given by position or (``by_name=True``) by name."""

    input: PlanNode
    columns: Tuple[object, ...]
    by_name: bool = False

    def _run(self, db: Database, stats) -> Table:
        table = self.input.evaluate(db, stats)
        if self.by_name:
            positions = [table.column_index(str(c)) for c in self.columns]
        else:
            positions = [int(c) for c in self.columns]
            for p in positions:
                if not 0 <= p < table.arity:
                    raise EvaluationError(
                        f"projection position {p} out of range "
                        f"(arity {table.arity})"
                    )
        out_columns = tuple(table.columns[p] for p in positions)
        rows = tuple(tuple(row[p] for p in positions) for row in table.rows)
        return Table(out_columns, rows).distinct()


@dataclass(frozen=True)
class Rename(PlanNode):
    """Rename columns via an old→new mapping."""

    input: PlanNode
    mapping: Tuple[Tuple[str, str], ...]

    def _run(self, db: Database, stats) -> Table:
        table = self.input.evaluate(db, stats)
        mapping = dict(self.mapping)
        return Table(
            tuple(mapping.get(c, c) for c in table.columns), table.rows
        )
