"""Table-backend selection for the bounded-variable engines.

A backend decides how the engines *represent* intermediate tables and
fixpoint state; it never changes what they compute.  Two implementations:

``sparse``
    The reference representation — :class:`repro.core.interp.VarTable`
    frozensets of row tuples and plain
    :class:`repro.database.relation.Relation` fixpoint state.

``packed``
    The :mod:`repro.kernel.packed` kernel — every table one ``n^k``-bit
    integer, every fixpoint iterate a :class:`PackedRelation`, so the
    boolean algebra that dominates FP/PFP iteration runs as single
    big-int operations.

Backends are resolved per evaluation by :func:`resolve_backend`:
``EvalOptions(backend=...)`` / CLI ``--backend`` name one explicitly,
``None`` defers to the ``REPRO_BENCH_BACKEND`` environment variable
(default ``sparse``) so a whole test lane or bench run can be flipped
without touching call sites.

The packed backend reports ``kernel.*`` metrics (mask width, codec
and cache reuse) into the evaluation's
:class:`~repro.obs.metrics.MetricsRegistry`.  They are deliberately
*not* part of :meth:`EvalStats.as_dict`: the stats counters stay
representation-independent, which is what lets the differential suites
assert sparse/packed counter equality.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.core.interp import VarTable
from repro.database.domain import Domain, Value
from repro.database.relation import Relation
from repro.errors import EvaluationError, SchemaError
from repro.kernel.lru import LRU
from repro.kernel.packed import (
    DEFAULT_MAX_BITS,
    DomainCodec,
    PackedRelation,
    PackedTable,
)
from repro.logic.syntax import Const, Term, Var
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, TracerLike

#: Environment variable consulted when no backend is named explicitly.
BACKEND_ENV = "REPRO_BENCH_BACKEND"

#: The reference representation.
DEFAULT_BACKEND = "sparse"

#: Shared codecs, keyed by the domain's type-exact values
#: (:attr:`Domain.exact_key`) and mask-bit cap, so selector-mask caches
#: survive across evaluations.  Codecs are small, but long property-test
#: sessions create thousands of throwaway domains.
_CODECS = LRU(256)


def codec_for(
    domain: Domain,
    registry: Optional[MetricsRegistry] = None,
    max_bits: int = DEFAULT_MAX_BITS,
) -> DomainCodec:
    """The shared :class:`DomainCodec` for a domain and cap (created on
    miss).

    A codec decodes bits into its own domain's values, so domains that
    are equal as value sets but not in their values' types (``[0, 1]``
    and ``[False, True]``) get codecs of their own."""
    key = (domain.exact_key, max_bits)
    codec = _CODECS.get(key)
    if registry is not None:
        registry.counter(
            "kernel.codec_hits" if codec is not None else "kernel.codec_misses"
        ).inc()
    if codec is None:
        codec = DomainCodec(domain, max_bits)
        _CODECS.put(key, codec)
    return codec


def select_atom(relation: Relation, terms: Sequence[Term]):
    """The selection pattern behind the table of an atom
    ``R(t_1, ..., t_m)``, shared by both backends.

    Columns are the distinct variables among the terms, sorted;
    constants select, repeated variables impose equality — the
    "selection condition on S_i according to the pattern of equalities"
    of Lemma 3.6's proof.  Returns ``(columns, var_positions,
    const_positions)``; :func:`selected_rows` applies it row by row.
    """
    if len(terms) != relation.arity:
        raise EvaluationError(
            f"atom has {len(terms)} arguments for a relation of arity "
            f"{relation.arity}"
        )
    var_positions: Dict[str, list] = {}
    const_positions = []
    for i, term in enumerate(terms):
        if isinstance(term, Var):
            var_positions.setdefault(term.name, []).append(i)
        elif isinstance(term, Const):
            const_positions.append((i, term.value))
        else:
            raise EvaluationError(f"unknown term {term!r}")
    return sorted(var_positions), var_positions, const_positions


def selected_rows(relation: Relation, pattern) -> Iterator[Tuple[Value, ...]]:
    """The rows of ``relation`` that match a :func:`select_atom`
    pattern, projected to its columns.  A generator: the relation's
    tuples are read only once iteration starts."""
    columns, var_positions, const_positions = pattern
    firsts = [var_positions[v][0] for v in columns]
    repeats = [(ps[0], p) for ps in var_positions.values() for p in ps[1:]]
    for tup in relation.tuples:
        if all(tup[i] == value for i, value in const_positions) and all(
            tup[i] == tup[j] for i, j in repeats
        ):
            yield tuple(tup[i] for i in firsts)


class SparseBackend:
    """The reference representation: ``VarTable`` + plain ``Relation``."""

    name = "sparse"

    def __init__(self, domain: Domain):
        self.domain = domain

    def table(self, variables: Sequence[str], rows: Iterable) -> VarTable:
        return VarTable(variables, rows)

    def tautology(self) -> VarTable:
        return VarTable.tautology()

    def contradiction(self) -> VarTable:
        return VarTable.contradiction()

    def full(self, variables: Sequence[str]) -> VarTable:
        return VarTable.full(variables, self.domain)

    def atom_table(self, relation: Relation, terms: Sequence[Term]) -> VarTable:
        pattern = select_atom(relation, terms)
        return VarTable(tuple(pattern[0]), selected_rows(relation, pattern))

    def empty_relation(self, arity: int) -> Relation:
        return Relation.empty(arity)

    def full_relation(self, arity: int) -> Relation:
        return Relation(arity, self.domain.tuples(arity))

    def observe(self, table) -> None:
        """No kernel metrics for the reference representation."""

    def bind(self, table: VarTable, tracer: TracerLike) -> VarTable:
        """Sparse tables trace nothing: there is nothing to re-bind."""
        return table

    def __repr__(self) -> str:
        return f"SparseBackend(n={len(self.domain)})"


class PackedBackend:
    """The ``n^k``-bit kernel of :mod:`repro.kernel.packed`.

    Every table wider than ``max_bits`` mask bits is refused with an
    :class:`EvaluationError` before its mask is built: here for tables
    made from rows, atoms and ``full``; for the wider schema of a join,
    union or cylindrification by the table itself, through the codec,
    which carries the cap.
    """

    name = "packed"

    def __init__(
        self,
        domain: Domain,
        registry: Optional[MetricsRegistry] = None,
        max_bits: int = DEFAULT_MAX_BITS,
        tracer: TracerLike = NULL_TRACER,
    ):
        self.domain = domain
        registry = registry if registry is not None else MetricsRegistry()
        self.codec = codec_for(domain, registry, max_bits)
        self.tracer = tracer
        self._mask_bits = registry.gauge("kernel.mask_bits")
        # cache tallies live on the shared codec; this backend publishes
        # the deltas it witnesses as kernel.cache.* counters
        tallies = self.codec.align_tallies
        self._cache_tallies = [
            (tally, registry.counter("kernel.cache." + tally.name))
            for tally in tallies
        ]
        self._cache_seen = [tally.value for tally in tallies]

    def _sync_cache_tallies(self) -> None:
        seen = self._cache_seen
        for i, (tally, counter) in enumerate(self._cache_tallies):
            if tally.value != seen[i]:
                counter.inc(tally.value - seen[i])
                seen[i] = tally.value

    def table(self, variables: Sequence[str], rows: Iterable) -> PackedTable:
        self.codec.check_width(len(set(variables)))
        return PackedTable.from_rows(
            self.codec, variables, rows, tracer=self.tracer
        )

    def tautology(self) -> PackedTable:
        return PackedTable.tautology(self.codec, tracer=self.tracer)

    def contradiction(self) -> PackedTable:
        return PackedTable.contradiction(self.codec, tracer=self.tracer)

    def full(self, variables: Sequence[str]) -> PackedTable:
        self.codec.check_width(len(set(variables)))
        return PackedTable.full(self.codec, variables, tracer=self.tracer)

    def empty_relation(self, arity: int) -> PackedRelation:
        return PackedRelation(arity, 0, self.codec, tracer=self.tracer)

    def full_relation(self, arity: int) -> PackedRelation:
        self.codec.check_width(arity)
        return PackedRelation(
            arity, self.codec.full_mask(arity), self.codec, tracer=self.tracer
        )

    def observe(self, table) -> None:
        """Kernel metrics of one audited table: the mask-bit high-water
        and the cache tallies this backend has witnessed since the last
        table."""
        if isinstance(table, PackedTable):
            # the widest schema observed, n^k bits, whether its mask is
            # built or not: a factored join reports n³ and builds none
            self._mask_bits.set_max(self.codec.size(len(table.variables)))
        self._sync_cache_tallies()

    def bind(self, table: PackedTable, tracer: TracerLike) -> PackedTable:
        """``table`` over this backend's codec, tracing into ``tracer``.

        For tables kept in a cache that outlives evaluations: stored
        bound to no tracer, an entry holds no evaluation's spans in
        memory; served bound to the current evaluation's tracer, its
        later kernel ops are traced there.
        """
        return table.bound_to(self.codec, tracer)

    # -- atoms ---------------------------------------------------------

    def atom_table(self, relation: Relation, terms: Sequence[Term]) -> PackedTable:
        """The table of ``R(t_1, ..., t_m)``.

        When the relation is itself packed over this codec (the fixpoint
        recursion variable on every round), the whole atom — constant
        selection, repeated-variable equality, projection to distinct
        variables, permutation to sorted columns — runs as mask kernels
        with no per-row Python work.  A 2-column atom that lists its
        columns out of sorted order (``S(z, y)``) comes back as a
        :meth:`PackedTable.transposed` table.
        """
        pattern = select_atom(relation, terms)
        columns, var_positions, const_positions = pattern
        self.codec.check_width(len(columns))
        if isinstance(relation, PackedRelation) and relation.codec is self.codec:
            return self._atom_from_mask(
                relation, var_positions, const_positions, columns
            )
        # Encoding a sparse relation walks it row by row — the only
        # per-row loop left in the packed pipeline.  Within one
        # evaluation the evaluator's memo serves a repeated atom.
        encode = self.codec.encode_row
        mask = 0
        for row in selected_rows(relation, pattern):
            mask |= 1 << encode(row)
        return PackedTable(self.codec, tuple(columns), mask, self.tracer)

    def _atom_from_mask(
        self, relation, var_positions, const_positions, columns
    ) -> PackedTable:
        codec = self.codec
        m = relation.arity
        mask = relation.mask
        # positional column i of the relation is digit m-1-i
        for i, value in const_positions:
            try:
                v = self.domain.index_of(value)
            except SchemaError:
                return PackedTable(codec, tuple(columns), 0, self.tracer)
            mask = codec.select_value(mask, m, m - 1 - i, v)
        for positions in var_positions.values():
            first = positions[0]
            for p in positions[1:]:
                mask &= codec.eq_mask(m, m - 1 - first, m - 1 - p)
        keep = sorted(ps[0] for ps in var_positions.values())
        keep_set = set(keep)
        k = m
        for d in sorted((m - 1 - i for i in range(m) if i not in keep_set), reverse=True):
            mask = codec.project(mask, k, d, universal=False)
            k -= 1
        # remaining digits follow the kept positions' relative order
        names = sorted(var_positions, key=lambda v: var_positions[v][0])
        if names != columns:
            if k == 2:
                # the mask transposes only if something needs it; a
                # composition cuts the relation's order in place
                return PackedTable.transposed(
                    codec, tuple(columns), mask, self.tracer
                )
            src_for = [0] * k
            for j, name in enumerate(columns):
                i = names.index(name)
                src_for[k - 1 - j] = k - 1 - i
            mask = codec.permute(mask, k, src_for)
        return PackedTable(codec, tuple(columns), mask, self.tracer)

    def __repr__(self) -> str:
        return f"PackedBackend(n={len(self.domain)})"


def resolve_backend(
    value,
    domain: Domain,
    registry: Optional[MetricsRegistry] = None,
    tracer: TracerLike = NULL_TRACER,
):
    """Normalize a backend selection for one evaluation.

    ``None`` consults ``REPRO_BENCH_BACKEND`` (default ``sparse``);
    ``"sparse"``/``"packed"`` build the named backend over ``domain``;
    an already-constructed backend object passes through unchanged.
    ``tracer`` reaches the packed kernel, which records ``kernel.join``
    / ``kernel.project`` / ``kernel.fixpoint_check`` spans when enabled.
    """
    if value is None:
        value = os.environ.get(BACKEND_ENV) or DEFAULT_BACKEND
    if isinstance(value, str):
        name = value.strip().lower()
        if name == SparseBackend.name:
            return SparseBackend(domain)
        if name == PackedBackend.name:
            return PackedBackend(domain, registry=registry, tracer=tracer)
        raise EvaluationError(
            f"unknown table backend {value!r} (expected 'sparse' or 'packed')"
        )
    return value


__all__ = [
    "BACKEND_ENV",
    "DEFAULT_BACKEND",
    "PackedBackend",
    "SparseBackend",
    "codec_for",
    "resolve_backend",
    "select_atom",
    "selected_rows",
]
