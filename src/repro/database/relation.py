"""Immutable fixed-arity relations.

A :class:`Relation` is a finite set of equal-length tuples.  It is the value
of a database relation symbol and also the result type of query evaluation
(``Q(B) ⊆ D^b`` in the paper's notation).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Sequence, Tuple

from repro.database.domain import Value
from repro.errors import SchemaError

TupleOfValues = Tuple[Value, ...]


class Relation:
    """An immutable ``arity``-ary relation: a frozen set of value tuples.

    The arity must be given explicitly so that the empty relation of arity 3
    is distinguishable from the empty relation of arity 2 — the distinction
    matters for complementation and for schema checking.

    >>> r = Relation(2, [(1, 2), (2, 3)])
    >>> (1, 2) in r
    True
    >>> len(r)
    2
    """

    __slots__ = ("_arity", "_tuples")

    def __init__(self, arity: int, tuples: Iterable[Sequence[Value]] = ()):
        if arity < 0:
            raise SchemaError(f"arity must be non-negative, got {arity}")
        self._arity = arity
        frozen = frozenset(tuple(t) for t in tuples)
        for t in frozen:
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t!r} has length {len(t)}, expected arity {arity}"
                )
        self._tuples: FrozenSet[TupleOfValues] = frozen

    @classmethod
    def _trusted(cls, arity: int, tuples: FrozenSet[TupleOfValues]) -> "Relation":
        """Internal constructor for answers the engines build and for
        the tuples :func:`~repro.database.encoding.decode_database` has
        checked as it read them.

        Skips all validation: ``tuples`` must already be a frozenset of
        tuples of length ``arity``.  It is shared, not copied — frozensets
        are immutable.  Every other public path goes through ``__init__``.
        """
        relation = cls.__new__(cls)
        relation._arity = arity
        relation._tuples = tuples
        return relation

    @classmethod
    def empty(cls, arity: int) -> "Relation":
        """The empty relation of the given arity."""
        return cls(arity, ())

    @classmethod
    def nullary(cls, truth: bool) -> "Relation":
        """A 0-ary relation: ``{()}`` for true, ``{}`` for false.

        Nullary relations are how Boolean query answers are represented: a
        sentence's answer is either the empty 0-tuple set or the singleton.
        """
        return cls(0, [()] if truth else [])

    @property
    def arity(self) -> int:
        """Number of columns."""
        return self._arity

    @property
    def tuples(self) -> FrozenSet[TupleOfValues]:
        """The underlying frozen set of tuples."""
        return self._tuples

    def as_bool(self) -> bool:
        """Interpret a 0-ary relation as a Boolean answer."""
        if self._arity != 0:
            raise SchemaError(
                f"as_bool() requires arity 0, relation has arity {self._arity}"
            )
        return bool(self._tuples)

    def union(self, other: "Relation") -> "Relation":
        self._check_same_arity(other, "union")
        return Relation(self._arity, self._tuples | other._tuples)

    def intersection(self, other: "Relation") -> "Relation":
        self._check_same_arity(other, "intersection")
        return Relation(self._arity, self._tuples & other._tuples)

    def difference(self, other: "Relation") -> "Relation":
        self._check_same_arity(other, "difference")
        return Relation(self._arity, self._tuples - other._tuples)

    def issubset(self, other: "Relation") -> bool:
        self._check_same_arity(other, "issubset")
        return self._tuples <= other._tuples

    def project(self, columns: Sequence[int]) -> "Relation":
        """Project onto (and reorder by) the given 0-based column indices."""
        for c in columns:
            if not 0 <= c < self._arity:
                raise SchemaError(
                    f"projection column {c} out of range for arity {self._arity}"
                )
        cols = tuple(columns)
        return Relation(
            len(cols), {tuple(t[c] for c in cols) for t in self._tuples}
        )

    def state_key(self) -> object:
        """A cheap hashable proxy for this relation's identity.

        Fixpoint seen-sets and subquery-cache fingerprints key on this
        instead of the relation itself, so a representation that can
        identify itself without hashing its tuple set (see
        :class:`repro.kernel.packed.PackedRelation`) may return a
        compact token.  The default is the relation itself: equal
        relations must produce equal keys, and keys from different
        representations of the same domain must not collide.
        """
        return self

    def _check_same_arity(self, other: "Relation", op: str) -> None:
        if self._arity != other._arity:
            raise SchemaError(
                f"{op} requires equal arities, got {self._arity} and {other._arity}"
            )

    def __contains__(self, item: object) -> bool:
        return item in self._tuples

    def __iter__(self) -> Iterator[TupleOfValues]:
        return iter(sorted(self._tuples, key=repr))

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._arity == other._arity and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self._arity, self._tuples))

    def __repr__(self) -> str:
        shown = sorted(self._tuples, key=repr)[:4]
        suffix = ", ..." if len(self._tuples) > 4 else ""
        body = ", ".join(repr(t) for t in shown)
        return f"Relation(arity={self._arity}, {{{body}{suffix}}} /{len(self)})"
