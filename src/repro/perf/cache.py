"""A shared, bounded subquery-result cache for bottom-up evaluation.

Bounded-variable evaluation (Prop 3.1) computes one :class:`VarTable` per
subformula, and that table depends only on

* the subformula itself (structurally — formulas are frozen dataclasses
  with structural equality),
* the *relevant* relation environment: the value of every relation name
  occurring free in the subformula, resolved through the fixpoint/SO
  bindings first and the database second, and
* the domain.

Nothing else — in particular not the surrounding assignment context.  So a
table computed once can be served for every later occurrence of an equal
subtree under an equal relevant environment: repeated subtrees inside one
query, repeated closed subformulas across fixpoint parameter assignments,
and whole repeated queries across evaluations that share a cache instance.

The cache key *contains* the relevant relation values, so a mutated
environment (a fixpoint iteration's new recursion relation, a database
relation changed in place by :meth:`~repro.database.database.Database.add_fact`)
can never produce a stale hit — it simply misses, and nothing ever needs
invalidating.  The price is hashing those relations;
:class:`~repro.database.relation.Relation` hashes its frozenset, which
CPython caches after the first computation.

Capacity is bounded two ways by one :class:`~repro.kernel.lru.LRU`:

* ``max_entries`` bounds the number of retained tables;
* ``max_total_rows`` bounds the *sum of retained rows* — the cache's
  answer to the row budget of :mod:`repro.guard` (a cache must not hoard
  more tuples than the evaluation itself is allowed to materialize).
  Served hits are additionally charged against the active guard's row
  budget by the evaluator, exactly like freshly computed tables.

Hits, misses, and evictions are counters in a
:class:`~repro.obs.metrics.MetricsRegistry` (``cache.hits`` /
``cache.misses`` / ``cache.evictions``, plus ``cache.entries`` /
``cache.rows`` gauges), so ``repro`` metric reports show cache behaviour
alongside the engine counters.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from repro.core.interp import VarTable
from repro.database.database import Database
from repro.database.relation import Relation
from repro.kernel.lru import LRU, TALLIES
from repro.logic.syntax import Formula
from repro.obs.metrics import MetricsRegistry

#: Default bound on retained tables.
DEFAULT_MAX_ENTRIES = 512

#: Default bound on the sum of retained rows across all tables.
DEFAULT_MAX_TOTAL_ROWS = 1 << 20

#: Nodes smaller than this are cheaper to recompute than to hash/lookup.
DEFAULT_MIN_FORMULA_SIZE = 3

CacheKey = Tuple[
    Formula, Hashable, str, Tuple[Tuple[str, object], ...]
]


class SubqueryCache:
    """A bounded LRU of ``(formula, environment) → VarTable`` entries.

    One instance may be shared across many evaluators and evaluations
    (it is not thread-safe — share within one process/thread only, which
    matches the engines' single-threaded-per-evaluation design).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_total_rows: int = DEFAULT_MAX_TOTAL_ROWS,
        min_formula_size: int = DEFAULT_MIN_FORMULA_SIZE,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.min_formula_size = min_formula_size
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lru = LRU(
            max_entries,
            max_total_rows,
            tallies=[self.registry.counter("cache." + t) for t in TALLIES],
        )
        self._entries_gauge = self.registry.gauge("cache.entries")
        self._rows_gauge = self.registry.gauge("cache.rows")

    # -- readings --------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._lru.hits.value

    @property
    def misses(self) -> int:
        return self._lru.misses.value

    @property
    def evictions(self) -> int:
        return self._lru.evictions.value

    @property
    def total_rows(self) -> int:
        return self._lru.weight

    def __len__(self) -> int:
        return len(self._lru)

    # -- keying ----------------------------------------------------------

    def cacheable(self, formula: Formula) -> bool:
        """Is this node worth caching?  Leaves are cheaper recomputed."""
        return bool(formula.children()) and formula.size() >= self.min_formula_size

    def key_for(
        self,
        formula: Formula,
        rels: Iterable[str],
        env: Dict[str, Relation],
        db: Database,
        backend: str = "sparse",
    ) -> Optional[CacheKey]:
        """The structural cache key, or ``None`` when the formula cannot
        be keyed (a relation name that resolves nowhere — the evaluation
        itself will fail, so there is nothing to cache).

        ``rels`` names the formula's free relation variables in sorted
        order (the evaluator keeps them for its memo key).

        The key embeds the backend name so a shared cache never serves a
        sparse table to a packed evaluation or vice versa, and relations
        enter the fingerprint via :meth:`Relation.state_key`, which packed
        relations answer with their mask instead of hashing a materialized
        tuple set.  The domain enters as :attr:`Domain.exact_key`, so
        domains whose values are equal but of other types (``0`` and
        ``False``) never share a table.
        """
        fingerprint = []
        for name in rels:
            relation = env.get(name)
            if relation is None:
                try:
                    relation = db.relation(name)
                except Exception:
                    return None
            fingerprint.append((name, relation.state_key()))
        return (formula, db.domain.exact_key, backend, tuple(fingerprint))

    # -- lookup / store --------------------------------------------------

    def get(self, key: CacheKey) -> Optional[VarTable]:
        """The cached table for ``key``, refreshing its LRU position."""
        return self._lru.get(key)

    def put(self, key: CacheKey, table: VarTable) -> None:
        """Store a table, evicting least-recently-used entries as needed.

        A table larger than ``max_total_rows`` on its own is not retained
        at all (retaining it would evict everything else for one entry).
        """
        self._lru.put(key, table, len(table))
        self._entries_gauge.set(len(self._lru))
        self._rows_gauge.set(self._lru.weight)

    def __repr__(self) -> str:
        return (
            f"SubqueryCache(entries={len(self._lru)}/{self._lru.max_entries}, "
            f"rows={self.total_rows}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


def resolve_subquery_cache(value) -> Optional[SubqueryCache]:
    """Normalize an ``EvalOptions.subquery_cache`` value.

    ``None``/``False`` → no cache; ``True`` → a fresh private cache (still
    useful: repeated subtrees and fixpoint parameter assignments within one
    query hit it); a :class:`SubqueryCache` instance is used as-is, which
    is how results are shared across evaluations.
    """
    if value is None or value is False:
        return None
    if value is True:
        return SubqueryCache()
    return value


__all__ = ["CacheKey", "SubqueryCache", "resolve_subquery_cache"]
