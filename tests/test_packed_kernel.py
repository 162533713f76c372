"""The packed ``n^k``-bit kernel against the sparse reference tables.

Three layers:

* brute-force checks of the bigint digit kernels (stretch/compress,
  selectors, expand/project/swap/permute) against explicit row sets,
  and bit-equality of the doubling expand/project with the linear
  folds they replaced on random masks;
* a hypothesis differential — every :class:`PackedTable` operation must
  agree with the corresponding :class:`VarTable` operation on random
  tables over random small domains (including ``n = 0`` and ``n = 1``);
* :class:`PackedRelation` against plain :class:`Relation`, including the
  cross-representation equality/hash contract the engines rely on;
* the factored join of two 2-column tables, by its slice cut and its
  diagonal cut, against the align-and-AND join it stands in for,
  operation by operation, and closures in every atom order on both
  backends;
* atom plans reused across relations, the bounded align mask caches
  and their ``kernel.cache.*`` counters, published once per evaluation
  and before an exhaustion's snapshot, the mask-bit cap on tables a
  join or union widens, and codecs kept apart for domains whose values
  differ only in type.
"""

import gc
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import EvalOptions, evaluate
from repro.core.fp_eval import FixpointStrategy, solve_query
from repro.core.interp import EvalStats, VarTable
from repro.database.database import Database
from repro.database.domain import Domain
from repro.database.relation import Relation
from repro.errors import EvaluationError, IterationBudgetExceeded, SchemaError
from repro.guard.budget import Budget, resolve_guard
from repro.kernel.backend import PackedBackend, SparseBackend, codec_for
from repro.kernel.lru import LRU
from repro.kernel.packed import (
    ALIGN_CACHE_LIMIT,
    DomainCodec,
    PackedRelation,
    PackedTable,
    RowSet,
    _rep_factor,
    popcount,
)
from repro.logic.parser import parse_formula
from repro.logic.syntax import Const, Var
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.workloads.graphs import path_graph, random_graph

VARS = ("w", "x", "y", "z")


def rows_of(codec, mask, k):
    return frozenset(codec.iter_rows(mask, k))


def mask_of(codec, rows):
    mask = 0
    for row in rows:
        mask |= 1 << codec.encode_row(row)
    return mask


# ---------------------------------------------------------------------------
# bigint primitives
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount((1 << 300) | 1) == 2

    def test_rep_factor(self):
        assert _rep_factor(4, 0) == 0
        assert _rep_factor(4, 1) == 1
        assert _rep_factor(4, 3) == 0x111
        assert _rep_factor(1, 5) == 0b11111

    @given(
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(0, 4),
        st.data(),
    )
    def test_stretch_compress_roundtrip(self, count, width, pad, data):
        stride = width + pad
        blocks = data.draw(
            st.lists(
                st.integers(0, (1 << width) - 1),
                min_size=count,
                max_size=count,
            )
        )
        packed = 0
        for h, block in enumerate(blocks):
            packed |= block << (h * width)
        codec = DomainCodec(Domain.range(2))
        spread = codec._stretch_fast(packed, count, width, stride)
        for h, block in enumerate(blocks):
            assert (spread >> (h * stride)) & ((1 << width) - 1) == block
        assert spread.bit_length() <= (count - 1) * stride + width
        assert codec._compress_fast(spread, count, width, stride) == packed


# ---------------------------------------------------------------------------
# codec kernels vs brute force
# ---------------------------------------------------------------------------


# 5, 6, 7 and 9 run three or four doubling steps, the last one clipped
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 9])
class TestCodecBruteForce:
    def codec(self, n):
        return DomainCodec(Domain.range(n))

    def test_encode_decode_roundtrip(self, n):
        codec = self.codec(n)
        for k in range(4):
            for idx, row in enumerate(codec.domain.tuples(k)):
                assert codec.encode_row(row) == idx
                assert codec.decode_index(idx, k) == row

    def test_iter_rows(self, n):
        codec = self.codec(n)
        rows = set(itertools.islice(codec.domain.tuples(2), 0, None, 2))
        assert rows_of(codec, mask_of(codec, rows), 2) == rows

    def test_selectors(self, n):
        codec = self.codec(n)
        for k in (1, 2, 3):
            for d in range(k):
                for v in range(n):
                    expect = {
                        row
                        for row in codec.domain.tuples(k)
                        if row[k - 1 - d] == codec.domain.values[v]
                    }
                    assert rows_of(codec, codec.sel(k, d, v), k) == expect

    def test_eq_mask(self, n):
        codec = self.codec(n)
        k = 3
        for da, db in itertools.combinations(range(k), 2):
            expect = {
                row
                for row in codec.domain.tuples(k)
                if row[k - 1 - da] == row[k - 1 - db]
            }
            assert rows_of(codec, codec.eq_mask(k, da, db), k) == expect
            assert codec.eq_mask(k, db, da) == codec.eq_mask(k, da, db)
        assert codec.eq_mask(k, 1, 1) == codec.full_mask(k)

    def test_expand_inserts_free_digit(self, n):
        codec = self.codec(n)
        k = 2
        base = set(itertools.islice(codec.domain.tuples(k), 0, None, 3))
        for d in range(k + 1):
            # inserting at weight d = new column position k - d
            pos = k - d
            expect = {
                row[:pos] + (value,) + row[pos:]
                for row in base
                for value in codec.domain.values
            }
            got = codec.expand(mask_of(codec, base), k, d)
            assert rows_of(codec, got, k + 1) == expect

    def test_project_folds_digit(self, n):
        codec = self.codec(n)
        k = 3
        base = set(itertools.islice(codec.domain.tuples(k), 0, None, 7))
        for d in range(k):
            pos = k - 1 - d
            exists = {row[:pos] + row[pos + 1 :] for row in base}
            forall = {
                short
                for short in exists
                if all(
                    short[:pos] + (value,) + short[pos:] in base
                    for value in codec.domain.values
                )
            }
            mask = mask_of(codec, base)
            assert rows_of(codec, codec.project(mask, k, d), k - 1) == exists
            assert (
                rows_of(codec, codec.project(mask, k, d, universal=True), k - 1)
                == forall
            )

    def test_swap_and_permute(self, n):
        codec = self.codec(n)
        k = 3
        base = set(itertools.islice(codec.domain.tuples(k), 0, None, 5))
        mask = mask_of(codec, base)
        for da, db in itertools.combinations(range(k), 2):
            pa, pb = k - 1 - da, k - 1 - db
            expect = set()
            for row in base:
                out = list(row)
                out[pa], out[pb] = out[pb], out[pa]
                expect.add(tuple(out))
            assert rows_of(codec, codec.swap(mask, k, da, db), k) == expect
        for perm in itertools.permutations(range(k)):
            # result digit d takes source digit perm[d]
            expect = {
                tuple(row[k - 1 - perm[k - 1 - j]] for j in range(k))
                for row in base
            }
            got = codec.permute(mask, k, list(perm))
            assert rows_of(codec, got, k) == expect

    def test_width_invariants(self, n):
        codec = self.codec(n)
        for k in range(4):
            assert codec.size(k) == n**k
            assert popcount(codec.full_mask(k)) == n**k


def test_empty_domain_codec():
    codec = DomainCodec(Domain.range(0))
    assert codec.full_mask(0) == 1
    assert codec.full_mask(2) == 0
    assert codec.expand(1, 0, 0) == 0
    assert codec.project(0, 1, 0) == 0
    assert codec.sel0(2, 0) == 0


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 40])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_iter_rows_matches_decode_index(n, k):
    """The block decode lists exactly the set bits, in ascending index
    order, as decoding each index on its own does: on random masks,
    single bits, one row per last-digit block and full blocks."""
    codec = DomainCodec(Domain.range(n))
    rng = random.Random(n * 10 + k)
    size = codec.size(k)
    masks = [0, codec.full_mask(k)] + [rng.getrandbits(size) for _ in range(5)]
    masks += [1 << i for i in rng.sample(range(size), min(size, 6))]
    if k and n:
        blocks = range(0, size, n)
        masks.append(sum(1 << (b + rng.randrange(n)) for b in blocks))
        full_block = (1 << n) - 1
        masks.append(sum(full_block << b for b in blocks if rng.random() < 0.5))
    for mask in masks:
        expected = [
            codec.decode_index(i, k) for i in range(size) if mask >> i & 1
        ]
        assert list(codec.iter_rows(mask, k)) == expected


def test_iter_rows_leaves_no_reference_cycle():
    """A decoded row list is freed by reference counting alone: the
    block decoder keeps no cycle that only the collector could free."""
    codec = DomainCodec(Domain.range(9))
    rows = [(a, b) for a in range(9) for b in range(9) if (a * b) % 4 == 1]
    mask = mask_of(codec, rows)
    gc.collect()
    gc.disable()
    try:
        assert codec.iter_rows(mask, 2) == sorted(rows)
        assert gc.collect() == 0
    finally:
        gc.enable()


class CountingInt(int):
    """An ``int`` that counts the ``<`` comparisons made on it."""

    lt_calls = 0

    def __lt__(self, other):
        CountingInt.lt_calls += 1
        return int.__lt__(self, other)


def closure_answers(values, out):
    """The packed and sparse answers of a closure over ``values``."""
    rng = random.Random(len(values))
    edges = {tuple(rng.sample(values, 2)) for _ in range(2 * len(values))}
    db = Database.from_tuples(values, {"E": (2, edges)})
    formula = parse_formula(
        "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"
    )
    return [
        evaluate(formula, db, out, EvalOptions(backend=backend)).relation
        for backend in ("packed", "sparse")
    ]


@pytest.mark.parametrize("out", [("u", "v"), ("v", "u")])
def test_packed_answers_and_tables_iterate_in_row_order(out):
    packed, sparse = closure_answers(list(range(12)), out)
    table = PackedTable.from_rows(packed.codec, ("y", "x"), sparse.tuples)
    for rows in (packed.tuples, table.rows):
        assert isinstance(rows, RowSet)
        assert list(rows) == sorted(rows)
    rows, plain = packed.tuples, sparse.tuples
    assert type(plain) is frozenset
    assert len(rows) > 1
    assert rows == plain and hash(rows) == hash(plain)
    half = frozenset(list(plain)[::2])
    for combined in (rows | half, rows & half, rows - half, rows ^ half):
        assert type(combined) is frozenset
    assert rows | half == plain and rows & half == half
    copy = pickle.loads(pickle.dumps(rows))
    assert type(copy) is RowSet
    assert list(copy) == list(rows) and copy == plain


def test_sorting_a_packed_answer_is_one_pass():
    """``sorted`` finds the rows in one ascending run: ``r - 1``
    comparisons for ``r`` rows, whatever the host."""
    values = [CountingInt(i) for i in range(12)]
    packed, sparse = closure_answers(values, ("u", "v"))
    rows = packed.tuples
    CountingInt.lt_calls = 0
    ordered = sorted(rows)
    assert 0 < CountingInt.lt_calls <= len(rows) - 1
    assert ordered == sorted(sparse.tuples)


# ---------------------------------------------------------------------------
# doubling folds vs the linear folds they replaced
# ---------------------------------------------------------------------------


def linear_project(codec, mask, k, d, universal=False):
    """∃/∀-projection as an OR/AND of ``n − 1`` shifted copies."""
    n = codec.n
    if n == 0:
        return 0
    width = n**d
    acc = mask
    if universal:
        for v in range(1, n):
            acc &= mask >> (v * width)
    else:
        for v in range(1, n):
            acc |= mask >> (v * width)
    acc &= codec.sel0(k, d)
    return codec._compress_fast(acc, n ** (k - 1 - d), width, width * n)


def multiply_expand(codec, mask, k, d):
    """Cylindrification as a stretch times an ``n``-copy multiplier."""
    if mask == 0 or codec.n == 0:
        return 0
    width = codec.n**d
    stretched = codec._stretch_fast(
        mask, codec.n ** (k - d), width, width * codec.n
    )
    return stretched * _rep_factor(width, codec.n)


def random_masks(rng, codec, k):
    """``k``-digit masks from empty through sparse, half and dense to
    full, plus cylinders with holes punched in them, on which ∀ keeps
    some rows but not all."""
    size = codec.size(k)

    def bits():
        return rng.getrandbits(size) if size else 0

    masks = [0, codec.full_mask(k), bits() & bits() & bits(), bits()]
    masks.append(bits() | bits() | bits())
    if size:
        masks.append(1 << rng.randrange(size))
        masks.append(codec.full_mask(k) ^ (1 << rng.randrange(size)))
    if k and codec.n:
        narrow = codec.size(k - 1)
        for d in range(k):
            cylinder = multiply_expand(
                codec, rng.getrandbits(narrow) | 1, k - 1, d
            )
            for _ in range(2):
                cylinder &= ~(1 << rng.randrange(size))
            masks.append(cylinder)
    return masks


@pytest.mark.parametrize("n", range(18))
def test_doubling_folds_match_linear_folds(n):
    """Bit-equal outputs for every n up to 17 (powers of two and their
    neighbours among them), every k ≤ 3 and every digit."""
    rng = random.Random(n)
    codec = DomainCodec(Domain.range(n))
    for k in range(4):
        for mask in random_masks(rng, codec, k):
            for d in range(k + 1):
                assert codec.expand(mask, k, d) == multiply_expand(
                    codec, mask, k, d
                )
            for d in range(k):
                for universal in (False, True):
                    assert codec.project(
                        mask, k, d, universal
                    ) == linear_project(codec, mask, k, d, universal)


# ---------------------------------------------------------------------------
# hypothesis differential: PackedTable vs VarTable
# ---------------------------------------------------------------------------


@st.composite
def table_pairs(draw, min_n=0, shared_vars=None):
    """A (VarTable, PackedTable, Domain) triple with identical contents."""
    n = draw(st.integers(min_n, 3))
    domain = Domain.range(n)
    codec = DomainCodec(domain)
    if shared_vars is None:
        variables = tuple(
            sorted(draw(st.sets(st.sampled_from(VARS), max_size=3)))
        )
    else:
        variables = shared_vars
    universe = list(itertools.product(domain.values, repeat=len(variables)))
    rows = draw(st.sets(st.sampled_from(universe))) if universe else set()
    if not universe and not variables:
        rows = draw(st.sampled_from([set(), {()}]))
    sparse = VarTable(variables, rows)
    packed = PackedTable.from_rows(codec, variables, rows)
    return sparse, packed, domain


def assert_same(sparse, packed):
    assert packed.variables == sparse.variables
    assert packed.rows == sparse.rows
    assert len(packed) == len(sparse)
    assert packed.is_empty() == sparse.is_empty()
    assert packed == sparse  # cross-representation __eq__


class TestPackedMatchesSparse:
    @given(table_pairs())
    def test_construction(self, pair):
        assert_same(pair[0], pair[1])

    @given(st.data())
    def test_unsorted_construction(self, data):
        n = data.draw(st.integers(1, 3))
        domain = Domain.range(n)
        codec = DomainCodec(domain)
        variables = ("y", "x", "z")
        universe = list(itertools.product(domain.values, repeat=3))
        rows = data.draw(st.sets(st.sampled_from(universe)))
        assert_same(
            VarTable(variables, rows),
            PackedTable.from_rows(codec, variables, rows),
        )

    @given(st.data())
    def test_join(self, data):
        sa, pa, domain = data.draw(table_pairs(min_n=1))
        codec = pa.codec
        variables = tuple(
            sorted(data.draw(st.sets(st.sampled_from(VARS), max_size=3)))
        )
        universe = list(
            itertools.product(domain.values, repeat=len(variables))
        )
        rows = data.draw(st.sets(st.sampled_from(universe))) if universe else set()
        sb = VarTable(variables, rows)
        pb = PackedTable.from_rows(codec, variables, rows)
        assert_same(sa.join(sb), pa.join(pb))

    @given(st.data())
    def test_union(self, data):
        sa, pa, domain = data.draw(table_pairs(min_n=1))
        variables = tuple(
            sorted(data.draw(st.sets(st.sampled_from(VARS), max_size=3)))
        )
        universe = list(
            itertools.product(domain.values, repeat=len(variables))
        )
        rows = data.draw(st.sets(st.sampled_from(universe))) if universe else set()
        sb = VarTable(variables, rows)
        pb = PackedTable.from_rows(codec=pa.codec, variables=variables, rows=rows)
        assert_same(sa.union(sb, domain), pa.union(pb))

    @given(table_pairs())
    def test_complement(self, pair):
        sparse, packed, domain = pair
        assert_same(sparse.complement(domain), packed.complement())

    @given(table_pairs(shared_vars=("x", "y")))
    def test_project_and_forall(self, pair):
        sparse, packed, domain = pair
        for var in ("x", "y"):
            assert_same(sparse.project_out(var), packed.project_out(var))
            assert_same(sparse.forall_out(var, domain), packed.forall_out(var))

    @given(table_pairs(shared_vars=("x",)))
    def test_cylindrify(self, pair):
        sparse, packed, domain = pair
        assert_same(
            sparse.cylindrify(("w", "z"), domain),
            packed.cylindrify(("w", "z")),
        )

    @given(table_pairs(shared_vars=("x", "y")))
    def test_to_relation(self, pair):
        sparse, packed, _ = pair
        for order in (("x", "y"), ("y", "x")):
            got = packed.to_relation(order)
            assert isinstance(got, PackedRelation)
            assert got == sparse.to_relation(order)

    @given(table_pairs())
    def test_hash_matches_sparse(self, pair):
        sparse, packed, _ = pair
        assert hash(packed) == hash(sparse)

    @given(table_pairs(shared_vars=("x", "y")))
    def test_quantifier_duality(self, pair):
        _, packed, _ = pair
        direct = packed.forall_out("y")
        dual = packed.complement().project_out("y").complement()
        assert direct == dual


class TestPackedTableEdges:
    def test_nullary(self):
        codec = DomainCodec(Domain.range(2))
        taut = PackedTable.tautology(codec)
        contra = PackedTable.contradiction(codec)
        assert taut.rows == frozenset([()])
        assert contra.rows == frozenset()
        assert not taut.is_empty() and contra.is_empty()
        t = PackedTable.from_rows(codec, ("x",), [(0,)])
        assert t.join(taut) == t
        assert t.join(contra).is_empty()

    def test_full(self):
        codec = DomainCodec(Domain.range(3))
        t = PackedTable.full(codec, ("y", "x"))
        assert t.variables == ("x", "y")
        assert len(t) == 9

    def test_empty_domain_forall(self):
        codec = DomainCodec(Domain.range(0))
        t = PackedTable.from_rows(codec, ("x",), [])
        vacuous = t.forall_out("x")
        assert vacuous.variables == ()
        assert vacuous.rows == frozenset([()])
        wide = PackedTable.from_rows(codec, ("x", "y"), [])
        assert wide.forall_out("x").is_empty()

    def test_duplicate_columns_rejected(self):
        codec = DomainCodec(Domain.range(2))
        with pytest.raises(EvaluationError):
            PackedTable.from_rows(codec, ("x", "x"), [])
        with pytest.raises(EvaluationError):
            PackedTable.full(codec, ("x", "x"))

    def test_bad_row_width_rejected(self):
        codec = DomainCodec(Domain.range(2))
        with pytest.raises(EvaluationError):
            PackedTable.from_rows(codec, ("x", "y"), [(0,)])

    def test_out_of_domain_row_rejected(self):
        codec = DomainCodec(Domain.range(2))
        with pytest.raises(SchemaError):
            PackedTable.from_rows(codec, ("x",), [(9,)])

    def test_to_relation_requires_permutation(self):
        codec = DomainCodec(Domain.range(2))
        t = PackedTable.from_rows(codec, ("x", "y"), [(0, 1)])
        with pytest.raises(EvaluationError):
            t.to_relation(("x",))

    def test_coerces_sparse_operand(self):
        domain = Domain.range(2)
        codec = DomainCodec(domain)
        packed = PackedTable.from_rows(codec, ("x",), [(0,)])
        sparse = VarTable(("y",), [(1,)])
        joined = packed.join(sparse)
        assert isinstance(joined, PackedTable)
        assert joined.rows == frozenset([(0, 1)])


# ---------------------------------------------------------------------------
# PackedRelation vs Relation
# ---------------------------------------------------------------------------


_REL_DOMAIN = Domain.range(3)
_REL_CODEC = DomainCodec(_REL_DOMAIN)


@st.composite
def relation_pairs(draw, arity=2):
    # all pairs share one codec, as codec_for guarantees in production
    universe = list(itertools.product(_REL_DOMAIN.values, repeat=arity))
    rows = draw(st.sets(st.sampled_from(universe))) if universe else set()
    mask = 0
    for row in rows:
        mask |= 1 << _REL_CODEC.encode_row(row)
    return Relation(arity, rows), PackedRelation(arity, mask, _REL_CODEC)


class TestPackedRelation:
    @given(relation_pairs(), relation_pairs())
    @settings(max_examples=50)
    def test_set_algebra(self, pa, pb):
        ra, ka = pa
        rb, kb = pb
        for op in ("union", "intersection", "difference"):
            plain = getattr(ra, op)(rb)
            packed = getattr(ka, op)(kb)
            assert isinstance(packed, PackedRelation)
            assert packed == plain
            # mixed representations fall back to the sparse path
            assert getattr(ka, op)(rb) == plain
        assert ka.issubset(kb) == ra.issubset(rb)
        assert ka.issubset(rb) == ra.issubset(rb)

    @given(relation_pairs())
    @settings(max_examples=50)
    def test_protocol(self, pair):
        plain, packed = pair
        assert len(packed) == len(plain)
        assert bool(packed) == bool(plain)
        assert set(packed) == set(plain)
        assert packed.tuples == plain.tuples
        assert packed == plain and plain == packed
        assert hash(packed) == hash(plain)
        for probe in [(0, 0), (2, 1), (9, 9), "junk", (0,)]:
            assert (probe in packed) == (probe in plain)

    def test_state_key(self):
        domain = Domain.range(3)
        codec = DomainCodec(domain)
        a = PackedRelation(2, 0b101, codec)
        b = PackedRelation(2, 0b101, DomainCodec(domain))
        c = PackedRelation(2, 0b100, codec)
        assert a.state_key() == b.state_key()
        assert a.state_key() != c.state_key()
        plain = Relation(2, a.tuples)
        assert plain.state_key() == plain
        # keys are hashable and usable in seen-sets
        assert len({a.state_key(), b.state_key(), c.state_key()}) == 2

    def test_projection_and_as_bool_inherited(self):
        codec = DomainCodec(Domain.range(3))
        rel = PackedRelation(2, 0, codec)
        assert rel.project([0]).arity == 1
        truthy = PackedRelation(0, 1, codec)
        falsy = PackedRelation(0, 0, codec)
        assert truthy.as_bool() is True
        assert falsy.as_bool() is False

    def test_negative_arity_rejected(self):
        codec = DomainCodec(Domain.range(2))
        with pytest.raises(SchemaError):
            PackedRelation(-1, 0, codec)


# ---------------------------------------------------------------------------
# bounded kernel caches (kernel.cache.*)
# ---------------------------------------------------------------------------


def test_bounded_mask_cache_caps_and_counts():
    cache = LRU(3)
    for i in range(5):
        assert cache.get(("k", i)) is None
        cache.put(("k", i), i)
    assert len(cache) == 3
    assert cache.evictions.value == 2
    assert cache.get(("k", 4)) == 4
    assert cache.hits.value == 1
    assert cache.misses.value == 5
    assert cache.evictions.value == 2
    # LRU order: touching an entry protects it from the next eviction
    cache.get(("k", 2))
    cache.put(("k", 9), 9)
    assert cache.get(("k", 2)) == 2
    assert cache.get(("k", 3)) is None
    # a falsy value is still a hit
    cache.put(("k", 0), 0)
    assert cache.get(("k", 0)) == 0
    assert cache.hits.value == 4


def test_align_cache_is_bounded():
    # codecs are shared per domain, so tallies are read as deltas
    table = PackedBackend(Domain.range(2)).full(["a"])
    _, _, evictions = table.codec.align_tallies
    evicted = evictions.value
    # hammer one table with more join schemas than the cap
    for i in range(ALIGN_CACHE_LIMIT + 10):
        table._aligned(tuple(sorted(["a", "v{:03d}".format(i)])))
    assert len(table._align_cache) <= ALIGN_CACHE_LIMIT
    assert evictions.value - evicted >= 10


def test_constant_atoms_over_a_sparse_relation():
    # E(c, x) for every c in a successor cycle, each encoded from the
    # sparse relation's rows
    n = 12
    backend = PackedBackend(Domain.range(n))
    edges = Relation(2, [(i, (i + 1) % n) for i in range(n)])
    for c in range(n):
        table = backend.atom_table(edges, (Const(c), Var("x")))
        assert table.rows == frozenset({((c + 1) % n,)})


def test_atom_over_a_packed_relation_never_decodes_it():
    # a fixpoint iterate is a PackedRelation over the backend's codec:
    # its atoms must run on the mask alone, without decoding its rows
    domain = Domain.range(4)
    backend = PackedBackend(domain)
    rows = [(0, 1, 0), (2, 1, 2), (1, 1, 0), (3, 0, 3), (2, 3, 3)]
    for terms in [
        (Var("y"), Const(1), Var("y")),
        (Var("z"), Var("x"), Var("x")),
        (Const(9), Var("x"), Var("y")),
    ]:
        rel = PackedRelation(3, mask_of(backend.codec, rows), backend.codec)
        table = backend.atom_table(rel, terms)
        assert rel._materialized is None
        expected = SparseBackend(domain).atom_table(Relation(3, rows), terms)
        assert table == expected


#: Atoms whose plans cover every mask step: sorted and transposed
#: columns, a repeated variable, constants in and out of every tested
#: domain, dropped positions and 3-column permutations.
PLANNED_ATOMS = [
    (Var("x"), Var("y")),
    (Var("y"), Var("x")),
    (Var("x"), Var("x")),
    (Var("x"), Const(1)),
    (Const(9), Var("x")),
    (Const(0), Const(0)),
    (Var("z"), Var("x"), Var("y")),
    (Var("y"), Var("z"), Var("x")),
    (Var("x"), Var("y"), Var("x")),
    (Var("y"), Const(0), Var("x")),
    (Var("z"), Var("z"), Var("y")),
    (Const(1), Var("y"), Const(9)),
]


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("terms", PLANNED_ATOMS, ids=repr)
def test_one_atom_plan_serves_every_relation(n, terms):
    """One terms object, planned once, against two packed relations of
    its arity: each table equals the sparse backend's."""
    domain = Domain.range(n)
    backend = PackedBackend(domain)
    sparse = SparseBackend(domain)
    rng = random.Random(f"{n}:{terms}")
    every = list(itertools.product(range(n), repeat=len(terms)))
    for _ in range(2):
        rows = [row for row in every if rng.random() < 0.5]
        mask = mask_of(backend.codec, rows)
        rel = PackedRelation(len(terms), mask, backend.codec)
        table = backend.atom_table(rel, terms)
        assert table == sparse.atom_table(Relation(len(terms), rows), terms)
    assert len(backend._plans) == 1


def test_rebound_tables_share_one_align_cache():
    # a cached table is stored bound to no tracer and served rebound to
    # each evaluation's tracer; alignments one binding computes are hits
    # for the others
    codec = PackedBackend(Domain.range(3)).codec
    built = PackedTable(codec, ("a",), 0b101, Tracer())
    stored = built.bound_to(codec, NULL_TRACER)
    served = stored.bound_to(codec, Tracer())
    hits = codec.align_tallies[0]
    built._aligned(("a", "b"))
    before = hits.value
    assert served._aligned(("a", "b")) == built._aligned(("a", "b"))
    assert hits.value - before == 2


def test_kernel_cache_counters_reach_registry():
    db = Database.from_tuples(
        range(6), {"E": (2, [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5)])}
    )
    formula = parse_formula(
        "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](x, y)"
    )
    result = evaluate(
        formula, db, ("x", "y"),
        EvalOptions(backend="packed", strategy=FixpointStrategy.SEMINAIVE),
    )
    snap = result.stats.registry.snapshot()
    # the closure joins E against S every round, so the align cache sees use
    assert snap["kernel.cache.align_hits"] + snap["kernel.cache.align_misses"] >= 1
    assert not any(name.startswith("kernel.cache.atom_") for name in snap)


def test_exhaustion_snapshot_carries_the_kernel_tallies():
    """Tallies are published once per evaluation, and also before an
    exhausted budget takes its metrics snapshot: the snapshot, the
    registry after the unwind and the codec's own tallies agree."""
    db = path_graph(20)
    tallies = codec_for(db.domain).align_tallies
    before = [tally.value for tally in tallies]
    stats = EvalStats()
    guard = resolve_guard(Budget(max_iterations=3), registry=stats.registry)
    with pytest.raises(IterationBudgetExceeded) as info:
        solve_query(
            parse_formula(
                "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"
            ),
            db,
            ("u", "v"),
            stats=stats,
            guard=guard,
            backend="packed",
        )
    metrics = info.value.metrics
    assert metrics["kernel.cache.align_hits"] == 1
    assert metrics["kernel.cache.align_misses"] == 3
    assert metrics["kernel.cache.align_evictions"] == 0
    for tally, old in zip(tallies, before):
        name = "kernel.cache." + tally.name
        assert stats.registry.get(name).value == metrics[name]
        assert metrics[name] == tally.value - old


# ---------------------------------------------------------------------------
# the factored join: ∃v. A(u, v) ∧ B(v, w) without the n³-bit mask
# ---------------------------------------------------------------------------


def eager_join(left, right):
    """The align-and-AND join, the reference for the factored one."""
    target = tuple(sorted(set(left.variables) | set(right.variables)))
    mask = left._aligned(target) & right._aligned(target)
    return PackedTable(left.codec, target, mask, left._tracer)


@st.composite
def compositions(draw):
    """The tables of ``A(u, v)`` and ``B(v, w)``, in either join order,
    and the names ``(u, v, w)``.  The names are a permutation of
    ``a < b < c``, so ``v`` lands at either digit of either operand and
    ``u < w`` and ``u > w`` both occur.  Either table may be a
    transposed one, as the table of an atom ``R(y, x)`` is."""
    n = draw(st.integers(0, 6))
    codec = DomainCodec(Domain.range(n))
    u, v, w = draw(st.permutations(("a", "b", "c")))
    tables = []
    for pair in ((u, v), (v, w)):
        variables = tuple(sorted(pair))
        mask = draw(st.integers(0, codec.full_mask(2)))
        if draw(st.booleans()):
            table = PackedTable.transposed(
                codec, variables, codec.swap(mask, 2, 0, 1)
            )
        else:
            table = PackedTable(codec, variables, mask)
        tables.append(table)
    left, right = tables
    if draw(st.booleans()):
        left, right = right, left
    return left, right, (u, v, w)


def factored(left, right):
    """A fresh factored join, its mask not yet built."""
    table = left.join(right)
    assert table._factors is not None and table._mask is None
    return table


class TestFactoredJoin:
    @given(compositions())
    def test_count_and_composition_are_bit_identical(self, case):
        left, right, (u, v, w) = case
        eager = eager_join(left, right)
        table = factored(left, right)
        assert table.variables == eager.variables
        assert len(table) == popcount(eager.mask)
        assert table.is_empty() == (eager.mask == 0)
        composed = factored(left, right).project_out(v)
        projected = eager.project_out(v)
        assert composed.variables == projected.variables == tuple(sorted((u, w)))
        assert composed.mask == projected.mask
        # the composition never built the join's mask
        assert table._mask is None

    @given(compositions(), st.data())
    def test_other_operations_match_the_eager_join(self, case, data):
        left, right, (u, v, w) = case
        eager = eager_join(left, right)
        codec = eager.codec
        assert factored(left, right).mask == eager.mask
        assert factored(left, right).rows == eager.rows
        assert factored(left, right) == eager
        assert hash(factored(left, right)) == hash(eager)
        assert factored(left, right).complement() == eager.complement()
        for var in (u, w):
            assert factored(left, right).project_out(var) == eager.project_out(var)
        for var in (u, v, w):
            assert factored(left, right).forall_out(var) == eager.forall_out(var)
        for order in itertools.permutations((u, v, w)):
            assert factored(left, right).to_relation(order) == eager.to_relation(
                order
            )
        for variables in (("a", "b", "c"), ("a", "b"), ("c", "d")):
            other = PackedTable(
                codec,
                variables,
                data.draw(st.integers(0, codec.full_mask(len(variables)))),
            )
            assert factored(left, right).union(other) == eager.union(other)
            assert factored(left, right).join(other) == eager.join(other)
            assert other.join(factored(left, right)) == other.join(eager)
        # rebound to an equal domain's codec and a tracer: still factored
        twin = DomainCodec(Domain.range(codec.n))
        bound = factored(left, right).bound_to(twin, Tracer())
        assert bound._mask is None and bound.codec is twin
        assert len(bound) == len(eager)
        assert bound == eager.bound_to(twin, Tracer())
        assert bound.project_out(v).mask == eager.project_out(v).mask

    def test_only_two_binary_tables_sharing_one_column_factor(self):
        codec = DomainCodec(Domain.range(3))
        xy = PackedTable(codec, ("x", "y"), 0b101010101)
        for other in [
            PackedTable(codec, ("x", "y"), 0b11),  # same columns
            PackedTable(codec, ("z",), 0b101),  # a unary table
            PackedTable(codec, ("w", "z"), 0b1001),  # nothing shared
            PackedTable(codec, ("x", "y", "z"), 1 << 26),  # a ternary table
        ]:
            assert xy.join(other)._factors is None
            assert other.join(xy)._factors is None


def _kernel_span_rows(monkeypatch, factor):
    """The ``(name, attrs)`` of every ``kernel.join`` and
    ``kernel.project`` span of a traced packed transitive closure."""
    if not factor:
        monkeypatch.setattr(
            PackedTable,
            "_join",
            lambda self, other: eager_join(self, self._coerced(other)),
        )
    db = Database.from_tuples(
        range(7), {"E": (2, [(0, 1), (1, 2), (2, 3), (3, 1), (4, 5), (5, 6)])}
    )
    formula = parse_formula(
        "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"
    )
    rows = []
    for strategy in FixpointStrategy:
        tracer = Tracer()
        evaluate(
            formula, db, ("u", "v"),
            EvalOptions(backend="packed", strategy=strategy, trace=tracer),
        )
        rows.extend(
            (span.name, dict(span.attrs))
            for span in tracer.spans
            if span.name in ("kernel.join", "kernel.project")
        )
    monkeypatch.undo()
    return rows


def test_traced_closure_spans_match_the_eager_join(monkeypatch):
    factored_rows = _kernel_span_rows(monkeypatch, factor=True)
    eager_rows = _kernel_span_rows(monkeypatch, factor=False)
    assert any(name == "kernel.join" for name, _ in factored_rows)
    # a factored ∃-projection also records its cut, which the eager
    # join has none of; every other attribute is equal
    cuts = set()
    for _, attrs in factored_rows:
        if "cut" in attrs:
            cuts.add(attrs.pop("cut"))
            assert attrs.pop("pieces") >= 0
    assert cuts == {"slices", "diagonal"}
    assert factored_rows == eager_rows


# ---------------------------------------------------------------------------
# the diagonal cut: a reused operand shifts the other once per diagonal
# ---------------------------------------------------------------------------


def two_column(codec, variables, pairs, transposed):
    """The table over sorted ``variables`` of the ``(first, second)``
    value-index pairs, held as its mask or, ``transposed``, as the mask
    with its two digits exchanged (as an atom ``R(y, x)`` holds it)."""
    n = codec.n
    mask = 0
    for first, second in pairs:
        mask |= 1 << (first * n + second)
    if transposed:
        return PackedTable.transposed(codec, variables, codec.swap(mask, 2, 0, 1))
    return PackedTable(codec, variables, mask)


def fresh(table):
    """An equal table in the same layout, met for the first time."""
    if table._transposed is not None:
        return PackedTable.transposed(table.codec, table.variables, table._transposed)
    return PackedTable(table.codec, table.variables, table._mask)


def met_again(table):
    """An equal table in the same layout, as an earlier round's cut
    leaves it: with its cache made."""
    table = fresh(table)
    table._align_lru()
    return table


def three_cuts(left, right, shared, reused):
    """The eager join, a factored join of fresh operands (the slice
    cut) and one whose ``reused`` operand (``"left"``/``"right"``) was
    met before; each factored join's count and ∃-projection must equal
    the eager join's.  Returns the last join's cut."""
    eager = eager_join(fresh(left), fresh(right))
    projected = eager.project_out(shared).mask
    first = factored(fresh(left), fresh(right))
    assert first._factor_cut()[0] == "slices"
    again = (met_again(left), fresh(right)) if reused == "left" else (
        fresh(left), met_again(right)
    )
    second = factored(*again)
    for table in (first, second):
        assert len(table) == popcount(eager.mask)
        assert table.project_out(shared).mask == projected
        assert table._mask is None
    return second._factor_cut()


def band(n, offsets):
    """The ``(i, i + t)`` pairs of a ``n``-value domain, ``t ∈ offsets``."""
    return [(i, i + t) for t in offsets for i in range(n) if 0 <= i + t < n]


class TestDiagonalCut:
    def test_row_shifts_with_negative_offsets(self):
        """``E(x, z) ∧ S(z, y)``: E holds the high output column x and
        lies on t = x − z ∈ {−1, −2}; S's atom holds z as its high
        digit, so each diagonal shifts S down by rows."""
        codec = DomainCodec(Domain.range(9))
        e = two_column(codec, ("x", "z"), band(9, (1, 2)), False)
        pairs = [(y, z) for z in range(9) for y in range(z % 3, 9, 2)]
        s = two_column(codec, ("y", "z"), pairs, True)
        cut, _, pieces, _ = three_cuts(e, s, "z", "left")
        assert (cut, pieces) == ("diagonal", 2)
        steps = met_again(e)._diagonal_steps("z", True)
        assert [shift for shift, _ in steps] == [-2 * 9, -1 * 9]

    def test_column_shifts_with_positive_offsets(self):
        """``S(x, z) ∧ E(z, y)``: E holds the low output column y and
        lies on t = y − z ∈ {1, 2}; S holds z as its low digit, so each
        diagonal shifts S up by columns."""
        codec = DomainCodec(Domain.range(8))
        pairs = [(x, z) for x in range(8) for z in range(x % 2, 8, 3)]
        s = two_column(codec, ("x", "z"), pairs, False)
        e = two_column(codec, ("y", "z"), [(y, z) for z, y in band(8, (1, 2))], True)
        cut, _, pieces, _ = three_cuts(s, e, "z", "right")
        assert (cut, pieces) == ("diagonal", 2)
        steps = met_again(e)._diagonal_steps("z", False)
        assert [shift for shift, _ in steps] == [1, 2]

    def test_offsets_of_both_signs(self):
        """An undirected path lies on t = ±1 from both sides."""
        codec = DomainCodec(Domain.range(7))
        e = two_column(codec, ("a", "b"), band(7, (-1, 1)), False)
        s = two_column(codec, ("b", "c"), band(7, (0, 3)), False)
        assert three_cuts(e, s, "b", "left")[0] == "diagonal"
        assert three_cuts(s, e, "b", "right")[0] == "diagonal"

    def test_a_tie_takes_the_slice_cut(self):
        """E = {(0, 1), (1, 3)} has 2 diagonals and 2 nonempty slices."""
        codec = DomainCodec(Domain.range(5))
        e = two_column(codec, ("x", "z"), [(0, 1), (1, 3)], False)
        s = two_column(codec, ("y", "z"), band(5, (0, 1)), True)
        assert three_cuts(e, s, "z", "left")[0] == "slices"
        # one more slice on an old diagonal breaks the tie
        e = two_column(codec, ("x", "z"), [(0, 1), (1, 3), (2, 4)], False)
        assert three_cuts(e, s, "z", "left")[0] == "diagonal"

    def test_the_other_operand_held_the_wrong_way_takes_the_slice_cut(self):
        """Row shifts need the other operand to hold the shared column
        as its high digit: ``S(y, z)`` holds y there."""
        codec = DomainCodec(Domain.range(6))
        e = two_column(codec, ("x", "z"), band(6, (1,)), False)
        s = two_column(codec, ("y", "z"), band(6, (0, 2)), False)
        assert three_cuts(e, s, "z", "left")[0] == "slices"
        # held the right way, the same tables take the diagonal cut
        s = two_column(codec, ("y", "z"), [(z, y) for y, z in band(6, (0, 2))], True)
        assert three_cuts(e, s, "z", "left")[0] == "diagonal"

    def test_empty_operands(self):
        codec = DomainCodec(Domain.range(5))
        e = two_column(codec, ("x", "z"), band(5, (1,)), False)
        empty = two_column(codec, ("y", "z"), [], True)
        # an empty reused operand has no slices: the slice cut
        assert three_cuts(empty, e, "z", "left")[0] == "slices"
        # an empty other operand shifts to nothing
        cut, count, _, mask = three_cuts(e, empty, "z", "left")
        assert (cut, count, mask) == ("diagonal", 0, 0)

    def test_a_one_value_domain_takes_the_slice_cut(self):
        codec = DomainCodec(Domain.range(1))
        for e_pairs in ([], [(0, 0)]):
            e = two_column(codec, ("x", "z"), e_pairs, False)
            s = two_column(codec, ("y", "z"), [(0, 0)], True)
            assert three_cuts(e, s, "z", "left")[0] == "slices"

    def test_the_walk_runs_once_per_table(self, monkeypatch):
        """The steps, or the rule's rejection, are cached beside the
        slices; a table met the first time is never walked."""
        codec = DomainCodec(Domain.range(6))
        walks = []
        diagonals = DomainCodec.diagonals
        monkeypatch.setattr(
            DomainCodec,
            "diagonals",
            lambda self, mask, d: walks.append(d) or diagonals(self, mask, d),
        )
        s = two_column(codec, ("y", "z"), band(6, (0,)), True)
        for pairs, cut in ((band(6, (1,)), "diagonal"), (band(6, range(6)), "slices")):
            e = met_again(two_column(codec, ("x", "z"), pairs, False))
            for _ in range(3):
                assert factored(e, fresh(s))._factor_cut()[0] == cut
            assert factored(fresh(e), fresh(s))._factor_cut()[0] == "slices"
        assert walks == [0, 0]

    @given(st.data())
    @settings(max_examples=150)
    def test_random_banded_and_dense_tables_match_the_eager_join(self, data):
        n = data.draw(st.integers(1, 8))
        codec = DomainCodec(Domain.range(n))
        u, v, w = data.draw(st.permutations(("a", "b", "c")))
        tables = []
        for pair in ((u, v), (v, w)):
            if data.draw(st.booleans()):
                offsets = data.draw(
                    st.lists(st.integers(-(n - 1), n - 1), max_size=3)
                )
                pairs = band(n, offsets)
                keep = data.draw(st.integers(0, (1 << len(pairs)) - 1))
                pairs = [p for i, p in enumerate(pairs) if keep >> i & 1]
            else:
                pairs = data.draw(
                    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
                )
            # pairs are (sorted first column, second) values
            tables.append(
                two_column(codec, tuple(sorted(pair)), pairs, data.draw(st.booleans()))
            )
        left, right = tables
        if data.draw(st.booleans()):
            left, right = right, left
        three_cuts(left, right, v, data.draw(st.sampled_from(("left", "right"))))


#: The four atom orders of a composition step, over sorted columns
#: (x, z) and (y, z): E holds the high or the low output column, each
#: operand as its mask or transposed.  The last holds S's shared column
#: on the wrong side for E's column shifts.
COMPOSITIONS = {
    "E(x,z)&S(z,y)": ("E(x, z) & S(z, y)", "diagonal"),
    "S(x,z)&E(z,y)": ("S(x, z) & E(z, y)", "diagonal"),
    "E(z,x)&S(z,y)": ("E(z, x) & S(z, y)", "diagonal"),
    "S(z,x)&E(y,z)": ("S(z, x) & E(y, z)", "slices"),
}


def _banded_graph(n):
    """A path with forward chords a → a + 2 on every third vertex."""
    edges = band(n, (1,)) + [(a, a + 2) for a in range(0, n - 2, 3)]
    return Database.from_tuples(range(n), {"E": (2, edges)})


@pytest.mark.parametrize("order", sorted(COMPOSITIONS))
@pytest.mark.parametrize(
    "strategy",
    [FixpointStrategy.NAIVE, FixpointStrategy.MONOTONE, FixpointStrategy.SEMINAIVE],
    ids=lambda strategy: strategy.value,
)
@pytest.mark.parametrize(
    "graph, banded",
    [
        (lambda: path_graph(14), True),
        (lambda: _banded_graph(15), True),
        (lambda: random_graph(12, 0.25, seed=3), False),
    ],
    ids=["path", "banded", "random"],
)
def test_closure_is_equal_on_both_backends(order, strategy, graph, banded):
    """Every atom order of the composition step, every strategy:
    equal answers and ``EvalStats`` on both backends, and the banded
    graphs take the diagonal cut wherever the layout lets them."""
    body, cut = COMPOSITIONS[order]
    formula = parse_formula(f"[lfp S(x, y). E(x, y) | exists z. ({body})](u, v)")
    db = graph()
    sparse = evaluate(
        formula, db, ("u", "v"), EvalOptions(backend="sparse", strategy=strategy)
    )
    tracer = Tracer()
    packed = evaluate(
        formula,
        db,
        ("u", "v"),
        EvalOptions(backend="packed", strategy=strategy, trace=tracer),
    )
    assert packed.relation == sparse.relation
    assert packed.stats.as_dict() == sparse.stats.as_dict()
    cuts = {
        span.attrs["cut"]
        for span in tracer.spans
        if span.name == "kernel.project" and "cut" in span.attrs
    }
    if cut == "slices":
        assert cuts == {"slices"}
    elif banded:
        # the first round meets E for the first time
        assert cuts == {"slices", "diagonal"}


# ---------------------------------------------------------------------------
# the mask-bit cap on widened tables
# ---------------------------------------------------------------------------


def _capped_path(max_bits):
    """E = {(0, 1), (1, 2)} over n = 3 and a packed backend whose cap
    admits masks of ``max_bits`` bits."""
    db = Database.from_tuples(range(3), {"E": (2, [(0, 1), (1, 2)])})
    return db, PackedBackend(db.domain, max_bits=max_bits)


@pytest.mark.parametrize(
    "query, out, rows",
    [
        # every atom has two columns; the join widens to three
        ("exists z. (E(x, z) & E(z, y))", ("x", "y"), 1),
        # and so does the union
        ("E(x, y) | E(y, z)", ("x", "y", "z"), 11),
    ],
    ids=["join", "union"],
)
def test_width_cap_refuses_widened_tables(query, out, rows):
    """A cap of n² bits refuses the n³-bit table before building it;
    a cap of n³ bits admits it."""
    formula = parse_formula(query)
    db, backend = _capped_path(9)
    with pytest.raises(EvaluationError, match="3-column table.*sparse"):
        evaluate(formula, db, out, EvalOptions(backend=backend))
    db, backend = _capped_path(27)
    answer = evaluate(formula, db, out, EvalOptions(backend=backend)).relation
    sparse = evaluate(formula, db, out, EvalOptions(backend="sparse")).relation
    assert answer == sparse and len(answer) == rows


# ---------------------------------------------------------------------------
# codecs are shared only between domains whose values agree in type
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "query, out, first, second, expected",
    [
        # 0 == False and 1 == True: equal value sets, other types
        ("E(x, y)", ("x", "y"), [0, 1], [False, True], [(False, True)]),
        ("exists y. E(x, y)", ("x",), [1, 2], [1.0, 2.0], [(1.0,)]),
    ],
)
def test_codecs_keep_value_types_apart(query, out, first, second, expected):
    """A packed answer decodes into its own domain's values, even after
    an evaluation over a domain equal to it as a value set."""
    formula = parse_formula(query)
    options = EvalOptions(backend="packed")
    for values in (first, second):
        db = Database.from_tuples(values, {"E": (2, [tuple(values)])})
        answer = evaluate(formula, db, out, options).relation
    rows = sorted(answer.tuples)
    assert rows == expected
    assert [tuple(map(type, row)) for row in rows] == [
        tuple(map(type, row)) for row in expected
    ]
