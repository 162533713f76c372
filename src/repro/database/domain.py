"""Finite domains of database values.

The paper fixes domains to be finite sets of natural numbers (Section 2.1:
``D ⊆ IN``).  We keep that convention — values are hashable and, by default,
integers — while allowing any hashable Python value so examples can use
readable strings for employees and departments.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Sequence, Tuple

from repro.errors import SchemaError

Value = Hashable


class Domain:
    """An explicit finite domain ``D`` of values.

    The domain is stored in a canonical sorted order so iteration, encoding
    and cross products are deterministic across runs.

    >>> d = Domain([3, 5, 7])
    >>> len(d)
    3
    >>> 5 in d
    True
    >>> list(d.tuples(2))[:3]
    [(3, 3), (3, 5), (3, 7)]
    """

    __slots__ = ("_values", "_index", "_value_set", "_exact_key")

    def __init__(self, values: Iterable[Value]):
        ordered = _canonical_order(values)
        self._values: Tuple[Value, ...] = ordered
        self._value_set = frozenset(ordered)
        if len(self._value_set) != len(ordered):
            raise SchemaError("domain contains duplicate values")
        self._index = {value: i for i, value in enumerate(ordered)}
        self._exact_key = None

    @classmethod
    def range(cls, n: int) -> "Domain":
        """The canonical ``n``-element domain ``{0, 1, ..., n-1}``."""
        if n < 0:
            raise SchemaError(f"domain size must be non-negative, got {n}")
        return cls(range(n))

    @property
    def values(self) -> Tuple[Value, ...]:
        """The domain values in canonical order."""
        return self._values

    @property
    def exact_key(self) -> Hashable:
        """A hashable key equal only for domains with the same values of
        the same types in the same order.

        Domain equality compares value sets, where ``0 == False`` and
        ``1 == 1.0``; a cache whose entries render or decode values
        (packed codecs, subquery tables) must not share them between
        such domains, so it keys on this instead.  Built once per
        domain object, with its hash, so a lookup rehashes nothing.
        """
        key = self._exact_key
        if key is None:
            key = self._exact_key = _ExactValues(self._values)
        return key

    def index_of(self, value: Value) -> int:
        """Position of ``value`` in the canonical order (for encodings)."""
        try:
            return self._index[value]
        except KeyError:
            raise SchemaError(f"value {value!r} not in domain") from None

    def check_rows(self, rows: Iterable[Sequence[Value]], owner: str) -> None:
        """Refuse any value in ``rows`` that is not a domain value.

        A value equal to a domain value only across types (``False`` for
        ``0``, ``1.0`` for ``1``) is refused too: a backend that encodes
        values by domain position would read it as the domain's value,
        one that keeps tuples as they are would not.  ``owner`` names the
        rows in the error.
        """
        index, values = self._index, self._values
        for row in rows:
            for value in row:
                position = index.get(value)
                if position is None:
                    raise SchemaError(
                        f"{owner} contains value {value!r} outside the domain"
                    )
                own = values[position]
                if type(own) is not type(value):
                    raise SchemaError(
                        f"{owner} contains value {value!r} of type "
                        f"{type(value).__name__}, which equals the domain "
                        f"value {own!r} of type {type(own).__name__}"
                    )

    def tuples(self, arity: int) -> Iterator[Tuple[Value, ...]]:
        """All ``arity``-tuples over the domain, in lexicographic order.

        This is the ``D^k`` the bounded-variable languages quantify over;
        callers should treat it as a stream — it has ``n**arity`` elements.
        """
        if arity < 0:
            raise SchemaError(f"arity must be non-negative, got {arity}")
        return itertools.product(self._values, repeat=arity)

    def __contains__(self, value: object) -> bool:
        return value in self._value_set

    def __iter__(self) -> Iterator[Value]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        return self._value_set == other._value_set

    def __hash__(self) -> int:
        return hash(self._value_set)

    def __repr__(self) -> str:
        if len(self._values) <= 8:
            return f"Domain({list(self._values)!r})"
        head = ", ".join(repr(v) for v in self._values[:6])
        return f"Domain([{head}, ... {len(self._values)} values])"


class _ExactValues:
    """A domain's values and, per position, their types, hashed once;
    see :attr:`Domain.exact_key`."""

    __slots__ = ("_values", "_types", "_hash")

    def __init__(self, values: Tuple[Value, ...]):
        self._values = values
        self._types = tuple(map(type, values))
        self._hash = hash((values, self._types))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ExactValues):
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self._types == other._types
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # hashes of types (and of strings) differ between processes, so
        # a pickled key is rebuilt rather than carrying its hash along
        return (_ExactValues, (self._values,))


def _canonical_order(values: Iterable[Value]) -> Tuple[Value, ...]:
    """Sort mixed-type hashable values deterministically.

    Values of one orderable type sort naturally; mixed types fall back to
    sorting by ``(type name, repr)`` which is stable and total.
    """
    materialized = list(values)
    try:
        return tuple(sorted(materialized))
    except TypeError:
        return tuple(sorted(materialized, key=lambda v: (type(v).__name__, repr(v))))
