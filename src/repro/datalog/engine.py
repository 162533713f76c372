"""Bottom-up Datalog evaluation: naive and semi-naive.

Both compute the simultaneous least fixpoint of the program over the
database's EDB relations.  Semi-naive evaluation only joins rule bodies
against *newly derived* tuples each round — the standard optimization,
and the Datalog cousin of the paper's warm-started fixpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.database.database import Database
from repro.database.relation import Relation
from repro.errors import EvaluationError
from repro.datalog.syntax import Atom, DatalogConst, DatalogProgram, Rule
from repro.guard.budget import GuardLike, NULL_GUARD
from repro.obs.tracer import NULL_TRACER, TracerLike

Row = Tuple[object, ...]


@dataclass
class DatalogStats:
    """Work counters for the two evaluation modes."""

    rounds: int = 0
    rule_firings: int = 0
    tuples_derived: int = 0


def _match_atom(
    atom: Atom,
    rows: FrozenSet[Row],
    binding: Dict[str, object],
) -> List[Dict[str, object]]:
    """All extensions of ``binding`` that match ``atom`` against ``rows``."""
    out = []
    for row in rows:
        candidate = dict(binding)
        ok = True
        for term, value in zip(atom.terms, row):
            if isinstance(term, DatalogConst):
                if term.value != value:
                    ok = False
                    break
            else:
                bound = candidate.get(term.name, _MISSING)
                if bound is _MISSING:
                    candidate[term.name] = value
                elif bound != value:
                    ok = False
                    break
        if ok:
            out.append(candidate)
    return out


_MISSING = object()


def _instantiate_head(head: Atom, binding: Dict[str, object]) -> Row:
    row = []
    for term in head.terms:
        if isinstance(term, DatalogConst):
            row.append(term.value)
        else:
            row.append(binding[term.name])
    return tuple(row)


def _relation_rows(
    predicate: str,
    arity: int,
    db: Database,
    idb: Dict[str, Set[Row]],
) -> FrozenSet[Row]:
    if predicate in idb:
        return frozenset(idb[predicate])
    try:
        relation = db.relation(predicate)
    except Exception as exc:
        raise EvaluationError(
            f"EDB predicate {predicate!r} not found in the database"
        ) from exc
    if relation.arity != arity:
        raise EvaluationError(
            f"predicate {predicate!r}: program arity {arity} != database "
            f"arity {relation.arity}"
        )
    return relation.tuples


def _fire_rule(
    rule: Rule,
    db: Database,
    idb: Dict[str, Set[Row]],
    stats: DatalogStats,
    delta: Optional[Dict[str, Set[Row]]] = None,
) -> Set[Row]:
    """All head tuples derivable by one rule.

    With ``delta`` given (semi-naive), at least one IDB body atom is
    constrained to the delta; each choice of the "delta position" is
    enumerated so no derivation is missed.
    """
    derived: Set[Row] = set()
    idb_positions = [
        i for i, atom in enumerate(rule.body) if atom.predicate in idb
    ]
    if delta is None or not idb_positions:
        position_choices = [None]
    else:
        position_choices = idb_positions
    for delta_position in position_choices:
        bindings = [dict()]
        for i, atom in enumerate(rule.body):
            if delta is not None and i == delta_position:
                rows = frozenset(delta.get(atom.predicate, set()))
            else:
                rows = _relation_rows(atom.predicate, atom.arity, db, idb)
            next_bindings: List[Dict[str, object]] = []
            for binding in bindings:
                next_bindings.extend(_match_atom(atom, rows, binding))
            bindings = next_bindings
            if not bindings:
                break
        stats.rule_firings += 1
        for binding in bindings:
            derived.add(_instantiate_head(rule.head, binding))
    return derived


def evaluate_program(
    program: DatalogProgram,
    db: Database,
    stats: Optional[DatalogStats] = None,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
) -> Dict[str, Relation]:
    """Naive bottom-up evaluation: re-derive everything each round.

    Each round is a guarded iteration; the total IDB size is charged
    against the row budget per round.
    """
    stats = stats if stats is not None else DatalogStats()
    idb: Dict[str, Set[Row]] = {
        pred: set() for pred in program.idb_predicates()
    }
    changed = True
    while changed:
        stats.rounds += 1
        if guard.enabled:
            _charge_round(guard, stats, idb)
        if tracer.enabled:
            with tracer.span("datalog.round") as span:
                changed = _naive_round(program, db, idb, stats)
                span.set(
                    index=stats.rounds - 1,
                    total_tuples=sum(len(rows) for rows in idb.values()),
                )
        else:
            changed = _naive_round(program, db, idb, stats)
    return {
        pred: Relation(program.arity_of(pred), rows)
        for pred, rows in idb.items()
    }


def _charge_round(
    guard: GuardLike, stats: DatalogStats, idb: Dict[str, Set[Row]]
) -> None:
    """One round = one iteration charge plus a row-budget check on the IDB."""
    total = sum(len(rows) for rows in idb.values())
    guard.charge_iteration(rounds=stats.rounds, idb_tuples=total)
    guard.charge_rows(
        total, rounds=stats.rounds, tuples_derived=stats.tuples_derived
    )


def _naive_round(
    program: DatalogProgram,
    db: Database,
    idb: Dict[str, Set[Row]],
    stats: DatalogStats,
) -> bool:
    changed = False
    for rule in program.rules:
        for row in _fire_rule(rule, db, idb, stats):
            if row not in idb[rule.head.predicate]:
                idb[rule.head.predicate].add(row)
                stats.tuples_derived += 1
                changed = True
    return changed


def semi_naive(
    program: DatalogProgram,
    db: Database,
    stats: Optional[DatalogStats] = None,
    tracer: TracerLike = NULL_TRACER,
    guard: GuardLike = NULL_GUARD,
) -> Dict[str, Relation]:
    """Semi-naive evaluation: join against the per-round deltas only.

    Guarded identically to :func:`evaluate_program`: every round charges
    one iteration and re-checks the IDB against the row budget.
    """
    stats = stats if stats is not None else DatalogStats()
    idb: Dict[str, Set[Row]] = {
        pred: set() for pred in program.idb_predicates()
    }

    def seed_round() -> Dict[str, Set[Row]]:
        # round 0: rules fired with empty IDB (facts and EDB-only rules)
        delta: Dict[str, Set[Row]] = {pred: set() for pred in idb}
        for rule in program.rules:
            for row in _fire_rule(rule, db, idb, stats):
                if row not in idb[rule.head.predicate]:
                    idb[rule.head.predicate].add(row)
                    delta[rule.head.predicate].add(row)
                    stats.tuples_derived += 1
        return delta

    def delta_round(delta: Dict[str, Set[Row]]) -> Dict[str, Set[Row]]:
        next_delta: Dict[str, Set[Row]] = {pred: set() for pred in idb}
        for rule in program.rules:
            for row in _fire_rule(rule, db, idb, stats, delta=delta):
                if row not in idb[rule.head.predicate]:
                    idb[rule.head.predicate].add(row)
                    next_delta[rule.head.predicate].add(row)
                    stats.tuples_derived += 1
        return next_delta

    stats.rounds += 1
    if guard.enabled:
        _charge_round(guard, stats, idb)
    if tracer.enabled:
        with tracer.span("datalog.round") as span:
            delta = seed_round()
            span.set(
                index=0, delta=sum(len(rows) for rows in delta.values())
            )
    else:
        delta = seed_round()
    while any(delta.values()):
        stats.rounds += 1
        if guard.enabled:
            _charge_round(guard, stats, idb)
        if tracer.enabled:
            with tracer.span("datalog.round") as span:
                delta = delta_round(delta)
                span.set(
                    index=stats.rounds - 1,
                    delta=sum(len(rows) for rows in delta.values()),
                )
        else:
            delta = delta_round(delta)
    return {
        pred: Relation(program.arity_of(pred), rows)
        for pred, rows in idb.items()
    }
