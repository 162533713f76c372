"""The relational database instance ``B = (D, R_1, ..., R_l)``.

This is the central data object of Section 2.1: a finite domain plus named
relations over it.  Relations and the domain are immutable values;
"updates" either build new databases (:meth:`Database.with_relation`) or
— for long-lived *registered* databases behind the :mod:`repro.serve`
query service — go through the fact-mutation hooks
(:meth:`Database.add_fact` / :meth:`Database.remove_fact`), which swap in
a fresh immutable relation.  Caches key on relation content, so a
mutated database can never serve stale cached rows and needs no cache
call (see :class:`repro.perf.cache.SubqueryCache`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.database.domain import Domain, Value
from repro.database.relation import Relation
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.errors import SchemaError


class Database:
    """An immutable relational database instance.

    >>> b = Database(Domain([3, 5, 7]), {"E": Relation(2, [(3, 5), (5, 7)])})
    >>> b.relation("E").arity
    2
    >>> b.size()
    3

    Every value of every relation must be a domain value, of the same type
    as that domain value (:meth:`Domain.check_rows`); this invariant is
    checked at construction time so downstream evaluators, whichever
    backend they run on, can rely on it.
    """

    __slots__ = ("_domain", "_relations", "_schema")

    def __init__(self, domain: Domain, relations: Mapping[str, Relation]):
        self._domain = domain
        rels: Dict[str, Relation] = dict(relations)
        for name, rel in rels.items():
            domain.check_rows(rel.tuples, f"relation {name!r}")
        self._relations = rels
        self._schema = DatabaseSchema(
            RelationSchema(name, rel.arity) for name, rel in rels.items()
        )

    @classmethod
    def from_tuples(
        cls,
        domain: Iterable[Value],
        relations: Mapping[str, Tuple[int, Iterable[Sequence[Value]]]],
    ) -> "Database":
        """Convenience constructor from plain Python data.

        ``relations`` maps each name to a ``(arity, tuples)`` pair.

        >>> b = Database.from_tuples([0, 1, 2], {"E": (2, [(0, 1), (1, 2)])})
        >>> len(b.relation("E"))
        2
        """
        dom = Domain(domain)
        rels = {
            name: Relation(arity, tuples)
            for name, (arity, tuples) in relations.items()
        }
        return cls(dom, rels)

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    def size(self) -> int:
        """Number of domain elements ``n`` — the data-complexity parameter."""
        return len(self._domain)

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def with_relation(self, name: str, relation: Relation) -> "Database":
        """A new database with ``name`` bound (or rebound) to ``relation``.

        Used by evaluators to push fixpoint/second-order relation values into
        the structure without mutating the original database.
        """
        updated = dict(self._relations)
        updated[name] = relation
        return Database(self._domain, updated)

    def without_relation(self, name: str) -> "Database":
        """A new database with ``name`` removed."""
        if name not in self._relations:
            raise SchemaError(f"unknown relation {name!r}")
        remaining = {k: v for k, v in self._relations.items() if k != name}
        return Database(self._domain, remaining)

    def add_fact(self, name: str, values: Sequence["Value"]) -> bool:
        """Add one tuple to relation ``name`` in place.

        The mutation hook for registered databases: validates the tuple
        against the domain and the relation's arity and, when the fact
        is new, swaps in a fresh immutable
        :class:`~repro.database.relation.Relation`.  Returns whether the
        database changed.
        """
        rel = self.relation(name)
        fact = tuple(values)
        if len(fact) != rel.arity:
            raise SchemaError(
                f"fact {fact!r} has length {len(fact)}, relation {name!r} "
                f"has arity {rel.arity}"
            )
        self._domain.check_rows((fact,), f"fact {fact!r}")
        if fact in rel:
            return False
        self._relations[name] = Relation(rel.arity, rel.tuples | {fact})
        return True

    def remove_fact(self, name: str, values: Sequence["Value"]) -> bool:
        """Remove one tuple from relation ``name`` in place.

        The counterpart of :meth:`add_fact`; removing an absent fact is a
        no-op.  Returns whether the database changed.
        """
        rel = self.relation(name)
        fact = tuple(values)
        if fact not in rel:
            return False
        self._relations[name] = Relation(rel.arity, rel.tuples - {fact})
        return True

    def total_tuples(self) -> int:
        """Total tuple count across relations (a size proxy for encodings)."""
        return sum(len(rel) for rel in self._relations.values())

    def is_nontrivial(self) -> bool:
        """Paper footnote 4: at least 2 domain elements and one relation that
        is non-empty and not all of ``D^k``."""
        if len(self._domain) < 2:
            return False
        n = len(self._domain)
        for rel in self._relations.values():
            if rel.arity >= 1 and rel and len(rel) < n**rel.arity:
                return True
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._domain == other._domain and self._relations == other._relations

    def __hash__(self) -> int:
        return hash((self._domain, tuple(sorted(self._relations.items()))))

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}/{rel.arity}[{len(rel)}]" for name, rel in self._relations.items()
        )
        return f"Database(n={len(self._domain)}, {rels})"
