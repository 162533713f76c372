"""Packed relation kernel: a k-ary table as one ``n^k``-bit integer.

The paper's load-bearing observation (Prop 3.1) is that bounding the
number of variables bounds the arity of every intermediate relation:
each table is a subset of ``D^k`` and hence has at most ``n^k`` rows.
That same bound licenses a *packed* representation — enumerate ``D^k``
once and store a k-ary table as an ``n^k``-bit Python integer with bit
``i`` set iff the ``i``-th tuple is present.  Set algebra then collapses
to single big-int operations:

==============================  ====================================
union / intersect / difference  ``|`` / ``&`` / ``& ~``
complement                      ``^ full_mask``
emptiness / equality            ``== 0`` / integer ``==``
row count                       popcount
``∃v. A(u, v) ∧ B(v, w)``       one multiply per value of ``v``
==============================  ====================================

Quantification and schema manipulation become *stride kernels* over
mixed-radix digits: a row ``(a_0, ..., a_{k-1})`` over the sorted
variables maps to index ``Σ_i index(a_i) · n^{k-1-i}`` (column 0 most
significant, matching :meth:`repro.database.domain.Domain.tuples`
lexicographic order), so the column at sorted position ``i`` is the
base-``n`` digit at weight position ``d = k-1-i``.  Inserting a digit
(cylindrification) is a stretch and an OR-doubling; removing one
(∃/∀-projection) is an OR/AND-doubling and a compress — each doubling
``⌈log₂ n⌉`` whole-integer shifts.  Equality selection and digit
transposition are precomputed selector masks.  All selector masks are
cached per ``(k, digit)`` on the :class:`DomainCodec`, which is itself
shared per domain (see :func:`repro.kernel.backend.codec_for`).

The composition step of Prop 3.1 — join two binary tables on their one
shared variable, then project it away, the inner loop of every path
query and transitive closure — never builds its ``n^3``-bit join.  The
join stays *factored*: it holds its two operands and cuts them once,
computing its row count and the projection of the shared variable
together.  The *slice cut* multiplies one ``n^2``-bit mask per value of
the shared variable (:meth:`DomainCodec.compose`); the *diagonal cut*,
taken when an operand met again lies on fewer diagonals than it has
slices, shifts the other operand whole once per diagonal
(:meth:`DomainCodec.diagonals`, :meth:`PackedTable.join`).  Any other
use of the join builds its mask by aligning and ANDing the operands, so
every table, answer and counter equals the eager join's.

:class:`PackedTable` mirrors the full operation surface of
:class:`repro.core.interp.VarTable`; :class:`PackedRelation` is a
:class:`repro.database.relation.Relation` whose tuple set materializes
lazily from the mask, so fixpoint state flows through the engines as
masks end-to-end and convergence checks are integer comparisons.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat
from operator import mul
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.database.domain import Domain, Value
from repro.database.relation import Relation
from repro.errors import EvaluationError, SchemaError
from repro.kernel.lru import LRU, new_tallies
from repro.obs.tracer import NULL_TRACER, TracerLike

Row = Tuple[Value, ...]

if hasattr(int, "bit_count"):  # Python >= 3.10
    #: Number of set bits — the packed row count.  The C method itself,
    #: so ``map(popcount, ...)`` over a table's slices runs no Python
    #: frame per slice.
    popcount = int.bit_count

else:  # pragma: no cover - exercised on the 3.9 CI lane

    def popcount(mask: int) -> int:
        """Number of set bits — the packed row count."""
        return bin(mask).count("1")


def _rep_factor(width: int, count: int) -> int:
    """``Σ_{h < count} 2^(h·width)`` — replicates a ``width``-bit block
    ``count`` times when used as a multiplier.

    Built by binary doubling (``O(log count)`` shift/ORs), *not* by the
    geometric-series division ``(2^(w·c) - 1) // (2^w - 1)``: CPython
    big-int division is quadratic, which turns multi-megabit selector
    builds into minutes."""
    if count <= 0:
        return 0
    rep = 1  # replicates 2^j copies after j doublings
    copies = 1
    result = 0
    placed = 0
    while count:
        if count & 1:
            result |= rep << (placed * width)
            placed += copies
        count >>= 1
        if count:
            rep |= rep << (copies * width)
            copies <<= 1
    return result


#: Refuse packed masks wider than this many bits (≈16 MiB of mask): a
#: query that needs them has left the regime where one dense bit-table
#: per subformula is sane, and the sparse backend handles it gracefully.
DEFAULT_MAX_BITS = 1 << 27

#: Per-table cap on cached alignment (cylindrification) masks.  A table
#: is only ever re-aligned against the join schemas it actually meets —
#: normally a handful — but adversarial property-test formulas can meet
#: one memoized atom under hundreds of schemas.
ALIGN_CACHE_LIMIT = 64


#: ``bytes.translate`` table turning a mask's binary digits ``b"0"`` and
#: ``b"1"`` into the flag bytes 0 and 1 that ``itertools.compress`` reads.
_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class RowSet(frozenset):
    """A decoded answer: a ``frozenset`` of rows that iterates in row
    order, the ascending mask-index order of its packed mask.

    That order is lexicographic over the domain's canonical values
    (:meth:`repro.database.domain.Domain.tuples`), so over a domain of
    one orderable type ``list(rows) == sorted(rows)``, and ``sorted``
    finds one ascending run: ``r - 1`` comparisons for ``r`` rows.

    Everything else is ``frozenset``'s own: equality, hashing and
    membership ignore the order, and ``|``, ``&``, ``-`` return plain
    frozensets.  Pickling keeps the order."""

    __slots__ = ("_rows",)

    def __new__(cls, rows: List[Row]) -> "RowSet":
        self = super().__new__(cls, rows)
        self._rows = rows
        return self

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __reduce__(self):
        return (RowSet, (self._rows,))


class DomainCodec:
    """Mixed-radix row↔bit-index codec and mask kernels for one domain.

    One codec is shared per domain and mask-bit cap (all tables over
    that domain reuse its selector-mask caches); all kernels take the
    digit count ``k`` explicitly so one codec serves every arity.
    """

    __slots__ = (
        "domain",
        "n",
        "max_bits",
        "_full",
        "_sel0",
        "_eq",
        "_steps",
        "_plans",
        "_diffs",
        "align_tallies",
    )

    def __init__(self, domain: Domain, max_bits: int = DEFAULT_MAX_BITS):
        self.domain = domain
        self.n = len(domain)
        self.max_bits = max_bits
        self._full: Dict[int, int] = {}
        self._sel0: Dict[Tuple[int, int], int] = {}
        self._eq: Dict[Tuple[int, int, int], int] = {}
        # expand's and project's doubling shifts, in digit values: with 0,
        # their running sums are exactly 0, 1, ..., n - 1
        self._steps: List[int] = []
        covered = 1
        while covered < self.n:
            step = min(covered, self.n - covered)
            self._steps.append(step)
            covered += step
        self._plans: Dict[Tuple[int, int, int], list] = {}
        self._diffs: Dict[Tuple[int, int, int], list] = {}
        # one tally triple shared by the alignment caches of all this
        # codec's tables; backends publish the deltas as kernel.cache.*
        # counters
        self.align_tallies = new_tallies("align_")

    # -- encoding ------------------------------------------------------

    def size(self, k: int) -> int:
        """``n^k`` — the number of bit positions of a ``k``-digit mask."""
        return self.n**k

    def check_width(self, k: int) -> None:
        """Refuse a ``k``-column table whose mask exceeds ``max_bits``."""
        bits = self.n**k
        if bits > self.max_bits:
            raise EvaluationError(
                f"packed backend refuses a {k}-column table over "
                f"n={self.n}: {bits} mask bits exceed the "
                f"{self.max_bits}-bit cap — use backend='sparse' for "
                f"this query"
            )

    def full_mask(self, k: int) -> int:
        """The mask of ``D^k`` itself (``n^0 = 1`` even when ``n = 0``)."""
        mask = self._full.get(k)
        if mask is None:
            mask = (1 << self.n**k) - 1
            self._full[k] = mask
        return mask

    def encode_row(self, row: Sequence[Value]) -> int:
        """The mixed-radix index of a row (first column most significant).

        Raises :class:`~repro.errors.SchemaError` for values outside the
        domain — a packed mask has no bit for them.
        """
        index_of = self.domain.index_of
        n = self.n
        idx = 0
        for value in row:
            idx = idx * n + index_of(value)
        return idx

    def decode_index(self, idx: int, k: int) -> Row:
        """The row at a bit index (inverse of :meth:`encode_row`)."""
        n = self.n
        values = self.domain.values
        out: List[Value] = [None] * k
        for pos in range(k - 1, -1, -1):
            out[pos] = values[idx % n]
            idx //= n
        return tuple(out)

    def iter_rows(self, mask: int, k: int) -> List[Row]:
        """Decode every set bit of ``mask`` into its row, in ascending
        index order.

        The mask is formatted once and translated into one flag byte per
        bit, most significant first: flag ``p`` is bit ``n^k - 1 - p``,
        and each run of ``n`` flags is a last-digit block, the rows that
        share their first ``k - 1`` values.  ``bytes.find`` skips to the
        next block that holds a row; ``itertools.compress`` picks that
        block's last values, zipped with ``repeat`` of its prefix.  Each
        row then costs one tuple built in C, and each block a few Python
        steps.  The walk meets the rows in descending index order, so it
        reads digits and values through the reversed value tuple and
        reverses the row list once at the end.  One flag buffer, a byte
        per bit, lives through the walk.
        """
        rows: List[Row] = []
        if k == 0:
            return [()] if mask else rows
        if not mask:
            return rows
        n = self.n
        high = self.domain.values[::-1]
        flags = format(mask, f"0{n ** k}b").encode().translate(_FLAG_BYTES)
        find = flags.find
        extend = rows.extend
        start = find(1)
        while start >= 0:
            block, offset = divmod(start, n)
            start -= offset
            prefix = []
            for _ in range(k - 1):
                block, digit = divmod(block, n)
                prefix.append(repeat(high[digit]))
            prefix.reverse()
            stop = start + n
            extend(zip(*prefix, compress(high, flags[start:stop])))
            start = find(1, stop)
        rows.reverse()
        return rows

    # -- selector masks (cached per (k, digit)) ------------------------

    def sel0(self, k: int, d: int) -> int:
        """Selector of every index whose digit ``d`` equals 0."""
        key = (k, d)
        mask = self._sel0.get(key)
        if mask is None:
            n = self.n
            if n == 0:
                mask = 0
            else:
                block = (1 << n**d) - 1
                mask = block * _rep_factor(n ** (d + 1), n ** (k - 1 - d))
            self._sel0[key] = mask
        return mask

    def sel(self, k: int, d: int, v: int) -> int:
        """Selector of every index whose digit ``d`` equals ``v``."""
        return self.sel0(k, d) << (v * self.n**d)

    def eq_mask(self, k: int, da: int, db: int) -> int:
        """Selector of every index whose digits ``da`` and ``db`` agree."""
        if da > db:
            da, db = db, da
        key = (k, da, db)
        mask = self._eq.get(key)
        if mask is None:
            if da == db:
                mask = self.full_mask(k)
            else:
                mask = 0
                for v in range(self.n):
                    mask |= self.sel(k, da, v) & self.sel(k, db, v)
            self._eq[key] = mask
        return mask

    # -- digit kernels -------------------------------------------------

    def _fold_plan(self, count: int, width: int, stride: int) -> list:
        """Rounds of pairwise block merges for compress/stretch.

        Each round halves the block count by moving every odd-indexed
        ``width``-bit block down next to its even neighbour — one AND,
        XOR, shift, OR on the whole integer per round, ``O(log count)``
        rounds total.  The round masks are cached per layout; building
        them costs ``O(count)`` once."""
        key = (count, width, stride)
        plan = self._plans.get(key)
        if plan is None:
            plan = []
            c, w, s = count, width, stride
            while c > 1 and w != s:
                # blocks at positions s, 3s, 5s, ... — one geometric
                # replication, never a per-block Python loop (count can
                # be n^{k-1})
                odd = (((1 << w) - 1) << s) * _rep_factor(2 * s, c // 2)
                plan.append((odd, s - w))
                c = (c + 1) // 2
                w, s = 2 * w, 2 * s
            self._plans[key] = plan
        return plan

    def _compress_fast(self, mask: int, count: int, width: int, stride: int) -> int:
        for odd, shift in self._fold_plan(count, width, stride):
            moved = mask & odd
            mask = (mask ^ moved) | (moved >> shift)
        return mask

    def _stretch_fast(self, mask: int, count: int, width: int, stride: int) -> int:
        for odd, shift in reversed(self._fold_plan(count, width, stride)):
            moved = mask & (odd >> shift)
            mask = (mask ^ moved) | (moved << shift)
        return mask

    def expand(self, mask: int, k: int, d: int) -> int:
        """Insert a fresh, unconstrained digit at weight position ``d``
        (cylindrification): each index splits into ``n`` copies.  The
        stretch puts every row at digit value 0; once values ``[0, c)``
        hold copies, a doubling step ORs them in shifted up by
        ``min(c, n - c)`` values."""
        n = self.n
        if mask == 0 or n == 0:
            return 0
        width = n**d
        mask = self._stretch_fast(mask, n ** (k - d), width, width * n)
        for step in self._steps:
            mask |= mask << (step * width)
        return mask

    def project(self, mask: int, k: int, d: int, universal: bool = False) -> int:
        """Remove digit ``d``: OR-fold (∃) or AND-fold (∀) its ``n`` values.

        Doubling: once digit value 0 holds the fold of values ``[0, c)``,
        a shift down by ``min(c, n - c)`` values and an OR/AND extend it
        to ``[0, c + min(c, n - c))``, never past value ``n - 1`` into the
        next digit group.  Callers handle the empty-domain ∀ convention
        themselves; here an empty domain simply yields the empty mask.
        """
        n = self.n
        if n == 0:
            return 0
        width = n**d
        if universal:
            for step in self._steps:
                mask &= mask >> (step * width)
        else:
            for step in self._steps:
                mask |= mask >> (step * width)
        mask &= self.sel0(k, d)
        return self._compress_fast(mask, n ** (k - 1 - d), width, width * n)

    def select_value(self, mask: int, k: int, d: int, v: int) -> int:
        """Keep indices whose digit ``d`` equals value index ``v``."""
        return mask & self.sel(k, d, v)

    def _diff_plan(self, k: int, da: int, db: int) -> list:
        """Cached ``(selector, shift)`` pairs for :meth:`swap`, one per
        digit difference ``t = digit(db) - digit(da) ≠ 0``.  Building is
        ``O(n^2)`` once per ``(k, da, db)``; each swap is then ``O(n)``."""
        key = (k, da, db)
        plan = self._diffs.get(key)
        if plan is None:
            n = self.n
            wa, wb = n**da, n**db
            plan = []
            for t in range(-(n - 1), n):
                if t == 0:
                    continue
                selector = 0
                for u in range(max(0, -t), min(n, n - t)):
                    selector |= self.sel(k, da, u) & self.sel(k, db, u + t)
                # swapping moves a piece by (v-u)·wa + (u-v)·wb = -t·(wb-wa)
                plan.append((selector, -t * (wb - wa)))
            self._diffs[key] = plan
        return plan

    def swap(self, mask: int, k: int, da: int, db: int) -> int:
        """Transpose two digits via the cached difference selectors."""
        if da == db or mask == 0:
            return mask
        if da > db:
            da, db = db, da
        out = mask & self.eq_mask(k, da, db)
        for selector, delta in self._diff_plan(k, da, db):
            piece = mask & selector
            if piece:
                out |= piece << delta if delta > 0 else piece >> -delta
        return out

    def permute(self, mask: int, k: int, src_for: Sequence[int]) -> int:
        """Rearrange digits: result digit ``d`` takes source digit
        ``src_for[d]``.  Decomposed into at most ``k-1`` transpositions."""
        cur = list(range(k))
        for d in range(k):
            want = src_for[d]
            if cur[d] == want:
                continue
            j = cur.index(want)
            mask = self.swap(mask, k, d, j)
            cur[d], cur[j] = cur[j], cur[d]
        return mask

    # -- composition (∃v. A(u, v) ∧ B(v, w)) --------------------------

    def row_slices(self, mask: int, d: int) -> List[int]:
        """Cut a 2-digit mask along digit ``d``: entry ``z`` is the
        ``n``-bit row of the other digit's values where digit ``d`` is
        ``z`` (bit ``i`` set iff that index is).

        With ``d = 1`` each row is a contiguous block of the mask; with
        ``d = 0`` it is a column, read in place from the mask's binary
        string at stride ``n``.  Either way ``O(n^2)`` bit work and no
        transposition."""
        n = self.n
        if d == 1:
            row = (1 << n) - 1
            return [(mask >> (z * n)) & row for z in range(n)]
        # character j of the string is bit n²-1-j, so column z, highest
        # value first, starts at character n-1-z
        text = format(mask, f"0{n * n}b")
        return [int(text[n - 1 - z :: n], 2) for z in range(n)]

    def spread_slices(self, mask: int, d: int) -> List[int]:
        """Like :meth:`row_slices`, but each entry spreads its row ``n``
        bits apart: bit ``i·n`` for value ``i``, the high digit of a
        2-digit index.  With ``d = 0`` that is the column in place,
        shifted down; with ``d = 1`` the mask is transposed first."""
        if d == 1:
            mask = self.swap(mask, 2, 0, 1)
        column = self.sel0(2, 0)
        return [(mask >> z) & column for z in range(self.n)]

    @staticmethod
    def compose(spreads: Sequence[int], rows: Sequence[int]) -> int:
        """The bit-matrix product ``⋁_z spreads[z] · rows[z]``: the
        2-digit mask of ``{(i, j) : ∃z. i ∈ spreads[z], j ∈ rows[z]}``.

        One multiply per ``z`` copies row ``z`` into every ``n``-bit
        slot its spread column marks; the copies cannot carry into each
        other, since a row is below ``2^n`` and the marks lie ``n`` bits
        apart."""
        mask = 0
        for spread, row in zip(spreads, rows):
            if spread and row:
                mask |= spread * row
        return mask

    def diagonals(self, mask: int, d: int) -> Optional[List[Tuple[int, int]]]:
        """Group a 2-digit mask's set bits by diagonal, for the shared
        digit ``d``: ``(t, bits)`` per diagonal ``t = other − shared``
        (value indices), in ascending ``t``, where ``bits`` marks the
        other digit's values on that diagonal.

        ``None`` unless the mask lies on fewer diagonals than it has
        slices, nonempty values of digit ``d``.  The slice count comes
        first, from one fold; the walk over the mask's ``n``-bit rows
        then marks the diagonal of every set bit, one shift per row, and
        stops as soon as the diagonals reach the slice count.  Only a
        mask the rule accepts is decoded bit by bit."""
        n = self.n
        # a nonempty mask lies on at least one diagonal, so it needs two
        # slices to lie on fewer
        slices = popcount(self.project(mask, 2, 1 - d)) if n else 0
        if slices < 2:
            return None
        full_row = (1 << n) - 1
        rows = []
        # bit (l - h) + n - 1 marks the diagonal of the bit at high digit
        # h and low digit l
        seen = 0
        for h in range(n):
            row = (mask >> (h * n)) & full_row
            rows.append(row)
            if row:
                seen |= row << (n - 1 - h)
                if popcount(seen) >= slices:
                    return None
        groups: Dict[int, int] = {}
        for h, row in enumerate(rows):
            while row:
                low = row & -row
                row ^= low
                l = low.bit_length() - 1
                # shared high: t = l - h, other value l; shared low:
                # t = h - l, other value h
                t, other = (l - h, l) if d == 1 else (h - l, h)
                groups[t] = groups.get(t, 0) | (1 << other)
        return sorted(groups.items())

    def __repr__(self) -> str:
        return f"DomainCodec(n={self.n})"


class PackedTable:
    """A :class:`~repro.core.interp.VarTable`-compatible table stored as
    one ``n^k``-bit mask over canonically sorted columns.

    The bare constructor is trusted (columns must already be sorted and
    the mask in range); :meth:`from_rows` is the validated public path.

    Two kinds of table hold something else in place of their mask
    until an operation needs it, which then builds it once:

    * a *factored* table, the join of two 2-column tables that share one
      column (see :meth:`join`), holds the two operands instead of its
      ``n^3``-bit mask and answers ``len`` and the ∃-projection of the
      shared column from one cut of them, by slices or by diagonals;
    * a *transposed* table (see :meth:`transposed`), a 2-column atom
      whose relation lists its columns in the other order, holds the
      relation's mask and is cut into slices from it directly.
    """

    __slots__ = (
        "_vars",
        "_mask",
        "_codec",
        "_row_cache",
        "_align_cache",
        "_factors",
        "_cut",
        "_transposed",
        "_tracer",
    )

    def __init__(
        self,
        codec: DomainCodec,
        variables: Tuple[str, ...],
        mask: Optional[int],
        tracer: TracerLike = NULL_TRACER,
    ):
        self._codec = codec
        self._vars = variables
        self._mask = mask
        self._tracer = tracer
        self._row_cache: Optional[FrozenSet[Row]] = None
        self._align_cache: Optional[LRU] = None
        # a factored join's (left, right, shared column); its mask is
        # None until built and its cut None until decided
        self._factors: Optional[Tuple["PackedTable", "PackedTable", str]] = None
        self._cut: Optional[tuple] = None
        # a transposed table's mask with its two digits swapped
        self._transposed: Optional[int] = None

    # -- constructors --------------------------------------------------

    @classmethod
    def transposed(
        cls,
        codec: DomainCodec,
        variables: Tuple[str, str],
        swapped: int,
        tracer: TracerLike = NULL_TRACER,
    ) -> "PackedTable":
        """The 2-column table over sorted ``variables`` whose mask is
        ``swapped`` with its two digits exchanged — an atom ``R(y, x)``
        over a packed relation.  The transposition runs only if the
        mask is needed; a composition reads ``swapped`` in place."""
        table = cls(codec, variables, None, tracer)
        table._transposed = swapped
        return table

    @classmethod
    def from_rows(
        cls,
        codec: DomainCodec,
        variables: Sequence[str],
        rows: Iterable[Row],
        tracer: TracerLike = NULL_TRACER,
    ) -> "PackedTable":
        """Validated construction mirroring ``VarTable(variables, rows)``."""
        ordered = tuple(sorted(variables))
        if len(set(ordered)) != len(ordered):
            raise EvaluationError(f"duplicate table columns: {variables}")
        if tuple(variables) != ordered:
            pos = {v: i for i, v in enumerate(variables)}
            positions = [pos[v] for v in ordered]
            rows = (tuple(row[p] for p in positions) for row in rows)
        width = len(ordered)
        encode = codec.encode_row
        mask = 0
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise EvaluationError(
                    f"row {row!r} does not match columns {ordered}"
                )
            mask |= 1 << encode(row)
        return cls(codec, ordered, mask, tracer)

    @classmethod
    def tautology(
        cls, codec: DomainCodec, tracer: TracerLike = NULL_TRACER
    ) -> "PackedTable":
        """The always-true 0-variable table: one empty row (bit 0 set)."""
        return cls(codec, (), 1, tracer)

    @classmethod
    def contradiction(
        cls, codec: DomainCodec, tracer: TracerLike = NULL_TRACER
    ) -> "PackedTable":
        """The always-false 0-variable table: no rows."""
        return cls(codec, (), 0, tracer)

    @classmethod
    def full(
        cls,
        codec: DomainCodec,
        variables: Sequence[str],
        tracer: TracerLike = NULL_TRACER,
    ) -> "PackedTable":
        """``D^{variables}`` — the full mask."""
        ordered = tuple(sorted(variables))
        if len(set(ordered)) != len(ordered):
            raise EvaluationError(f"duplicate table columns: {variables}")
        return cls(codec, ordered, codec.full_mask(len(ordered)), tracer)

    def bound_to(self, codec: DomainCodec, tracer: TracerLike) -> "PackedTable":
        """This table over ``codec`` (one for an equal domain), tracing
        into ``tracer``.  Alignment masks depend only on the content:
        both tables use one align cache from here on.  Decoded rows are
        passed on if this table has them; the copy decodes its own
        otherwise."""
        if codec is self._codec and tracer is self._tracer:
            return self
        table = PackedTable(codec, self._vars, self._mask, tracer)
        table._row_cache = self._row_cache
        table._align_cache = self._align_lru()
        if self._factors is not None:
            left, right, shared = self._factors
            table._factors = (
                left.bound_to(codec, tracer),
                right.bound_to(codec, tracer),
                shared,
            )
            table._cut = self._cut
        table._transposed = self._transposed
        return table

    # -- accessors -----------------------------------------------------

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._vars

    @property
    def mask(self) -> int:
        """The ``n^k``-bit mask.  A transposed table builds it here on
        first use by a digit swap, a factored join through its operands'
        alignment masks."""
        mask = self._mask
        if mask is None:
            if self._factors is None:
                mask = self._codec.swap(self._transposed, 2, 0, 1)
            else:
                left, right, _ = self._factors
                mask = left._aligned(self._vars) & right._aligned(self._vars)
            self._mask = mask
        return mask

    @property
    def codec(self) -> DomainCodec:
        return self._codec

    @property
    def rows(self) -> FrozenSet[Row]:
        """The decoded row set, a :class:`RowSet` in row order
        (materialized once, then cached)."""
        cached = self._row_cache
        if cached is None:
            cached = RowSet(self._codec.iter_rows(self.mask, len(self._vars)))
            self._row_cache = cached
        return cached

    def assignments(self) -> Iterator[Dict[str, Value]]:
        for row in self.rows:
            yield dict(zip(self._vars, row))

    def is_empty(self) -> bool:
        if self._mask is None:
            return len(self) == 0
        return self._mask == 0

    # -- alignment helpers ---------------------------------------------

    def _coerced(self, other) -> "PackedTable":
        """``other`` as a packed table over this codec (same-codec tables
        pass through; anything table-like is re-encoded row by row)."""
        if isinstance(other, PackedTable) and other._codec is self._codec:
            return other
        return PackedTable.from_rows(
            self._codec, other.variables, other.rows, tracer=self._tracer
        )

    def _align_lru(self) -> LRU:
        """This table's cache of derived masks — alignments, keyed by
        target schema, and slices, keyed by ``(column, spread)`` —
        created on first use."""
        cache = self._align_cache
        if cache is None:
            cache = self._align_cache = LRU(
                ALIGN_CACHE_LIMIT, tallies=self._codec.align_tallies
            )
        return cache

    def _aligned(self, target: Tuple[str, ...]) -> int:
        """The mask cylindrified to a sorted superset schema.

        Cached per target: a memoized table (an atom, say) is re-joined
        on every fixpoint round against the same union schema, and the
        expansion is the expensive half of a packed join."""
        if target == self._vars:
            return self.mask
        codec = self._codec
        codec.check_width(len(target))
        cache = self._align_lru()
        mask = cache.get(target)
        if mask is not None:
            return mask
        mask = self.mask
        cur = list(self._vars)
        have = set(cur)
        for var in target:
            if var not in have:
                pos = bisect_left(cur, var)
                mask = codec.expand(mask, len(cur), len(cur) - pos)
                cur.insert(pos, var)
                have.add(var)
        cache.put(target, mask)
        return mask

    def _slices(self, var: str, spread: bool) -> Tuple[List[int], List[int]]:
        """This 2-column table cut along column ``var`` — the other
        column's values per value of ``var``, as rows or spread (see
        :meth:`DomainCodec.row_slices`) — with each slice's row count.

        Cached with the alignment masks, under ``(var, spread)`` (no
        schema of variable names equals it): a memoized atom is cut once
        per evaluation however many fixpoint rounds compose with it."""
        cache = self._align_lru()
        key = (var, spread)
        slices = cache.get(key)
        if slices is None:
            codec = self._codec
            cut = codec.spread_slices if spread else codec.row_slices
            if self._transposed is None:
                parts = cut(self.mask, 1 - self._vars.index(var))
            else:
                parts = cut(self._transposed, self._vars.index(var))
            slices = (parts, list(map(popcount, parts)))
            cache.put(key, slices)
        return slices

    def _held(self, high: str) -> Optional[int]:
        """This 2-column table's mask with column ``high`` as its high
        digit, if the table holds that layout; ``None`` if only a
        transposition would give it."""
        return self._mask if high == self._vars[0] else self._transposed

    def _diagonal_steps(self, var: str, rows: bool) -> list:
        """The diagonal cut's steps for this 2-column table as the
        reused operand of a factored join on column ``var``: one
        ``(shift, selector)`` per diagonal ``t``, the shift ``t`` rows
        (``rows``) or ``t`` columns, the selector the output rows or
        columns on that diagonal.  Empty when the cut does not apply.

        Only a table met again is walked, one whose cache an earlier
        operation made: a table used once never pays for the walk.  The
        steps, or the rule's rejection, are cached beside the slices,
        under ``("diagonals", var, rows)`` (no schema of variable names
        equals it), so the walk runs once per table and orientation."""
        cache = self._align_cache
        if cache is None:
            return []
        key = ("diagonals", var, rows)
        steps = cache.get(key)
        if steps is None:
            codec = self._codec
            mask, high = self._mask, self._vars[0]
            if mask is None:
                mask, high = self._transposed, self._vars[1]
            groups = codec.diagonals(mask, 1 if var == high else 0) or ()
            unit, digit = (codec.n, 0) if rows else (1, 1)
            steps = [
                (t * unit, codec.expand(bits, 1, digit)) for t, bits in groups
            ]
            cache.put(key, steps)
        return steps

    def _factor_cut(self) -> tuple:
        """A factored join's cut, decided once and computing its row
        count and the ∃-projection of its shared column together:
        ``(cut, count, pieces, parts)``.

        The operand holding the first remaining column is the *upper*
        one.  The diagonal cut (``parts`` the projection's mask) shifts
        the other operand whole, as it is held, once per diagonal of a
        reused operand: by rows when the reused one is the upper, by
        columns when it is the lower.  It applies when the reused
        operand lies on fewer diagonals than it has slices and the other
        holds the shared column as its high digit (row shifts) or low
        digit (column shifts).  Otherwise the slice cut (``parts`` the
        ``(spreads, rows)`` slices, see :meth:`DomainCodec.compose`)
        counts from the slices' popcounts.  ``pieces`` is the number of
        shifted masks or slice products the projection ORs."""
        cut = self._cut
        if cut is not None:
            return cut
        left, right, shared = self._factors
        high = self._vars[1] if self._vars[0] == shared else self._vars[0]
        upper, lower = (left, right) if high in left._vars else (right, left)
        for reused, by_rows, held in (
            (upper, True, lower._held(shared)),
            (lower, False, upper._held(high)),
        ):
            if held is None:
                continue
            steps = reused._diagonal_steps(shared, by_rows)
            if steps:
                count = mask = 0
                for shift, selector in steps:
                    shifted = held << shift if shift >= 0 else held >> -shift
                    piece = shifted & selector
                    count += popcount(piece)
                    mask |= piece
                cut = ("diagonal", count, len(steps), mask)
                break
        else:
            spreads, spread_counts = upper._slices(shared, True)
            rows, row_counts = lower._slices(shared, False)
            products = list(map(mul, spread_counts, row_counts))
            pieces = len(products) - products.count(0)
            cut = ("slices", sum(products), pieces, (spreads, rows))
        self._cut = cut
        return cut

    # -- relational operations -----------------------------------------

    def join(self, other) -> "PackedTable":
        """Natural join: cylindrify both to the union schema, then AND.

        Two 2-column tables over one codec that share exactly one column
        ``v`` — ``A(u, v) ⋈ B(v, w)``, the inner step of every path query
        and transitive closure — join *factored* instead: the result
        holds ``A`` and ``B`` rather than its ``n^3``-bit mask.  One cut
        of the operands gives both its row count and ``project_out(v)``
        (:meth:`_factor_cut`): by slices, ``Σ_z |A_{v=z}|·|B_{v=z}|`` and
        the bit-matrix product :meth:`DomainCodec.compose`; by
        diagonals, the popcounts and the OR of one shifted operand per
        diagonal of the other.  So ``∃v. A ∧ B`` never builds the mask;
        any other use builds it by the align-and-AND path.  The width
        cap refuses the ``n^3``-bit schema here either way."""
        tracer = self._tracer
        if not tracer.enabled:
            return self._join(other)
        with tracer.span(
            "kernel.join", left=len(self._vars)
        ) as span:
            result = self._join(other)
            span.set(vars=len(result._vars), rows=len(result))
        return result

    def _join(self, other) -> "PackedTable":
        other = self._coerced(other)
        if other._vars == self._vars:
            return PackedTable(
                self._codec, self._vars, self.mask & other.mask, self._tracer
            )
        target = tuple(sorted(set(self._vars) | set(other._vars)))
        if len(self._vars) == len(other._vars) == 2 and len(target) == 3:
            self._codec.check_width(3)
            table = PackedTable(self._codec, target, None, self._tracer)
            shared = (set(self._vars) & set(other._vars)).pop()
            table._factors = (self, other, shared)
            return table
        return PackedTable(
            self._codec,
            target,
            self._aligned(target) & other._aligned(target),
            self._tracer,
        )

    def cylindrify(self, variables: Iterable[str], domain: Optional[Domain] = None) -> "PackedTable":
        """Extend with the given (new) variables, free over the domain.

        ``domain`` is accepted for :class:`VarTable` signature parity; the
        codec already fixes it.
        """
        target = tuple(sorted(set(variables) | set(self._vars)))
        if target == self._vars:
            return self
        return PackedTable(
            self._codec, target, self._aligned(target), self._tracer
        )

    def union(self, other, domain: Optional[Domain] = None) -> "PackedTable":
        other = self._coerced(other)
        if other._vars == self._vars:
            return PackedTable(
                self._codec, self._vars, self.mask | other.mask, self._tracer
            )
        target = tuple(sorted(set(self._vars) | set(other._vars)))
        return PackedTable(
            self._codec,
            target,
            self._aligned(target) | other._aligned(target),
            self._tracer,
        )

    def complement(self, domain: Optional[Domain] = None) -> "PackedTable":
        full = self._codec.full_mask(len(self._vars))
        return PackedTable(
            self._codec, self._vars, self.mask ^ full, self._tracer
        )

    def project_out(self, variable: str) -> "PackedTable":
        """Existential quantification: OR-fold one digit away — or, for
        the shared column of a factored join, the product of its
        operands' slices, without building the join's mask."""
        if variable not in self._vars:
            return self
        tracer = self._tracer
        if not tracer.enabled:
            return self._project_out(variable)
        with tracer.span(
            "kernel.project", var=variable, universal=False
        ) as span:
            result = self._project_out(variable)
            span.set(rows=len(result))
            if self._factors is not None and variable == self._factors[2]:
                cut, _, pieces, _ = self._cut
                span.set(cut=cut, pieces=pieces)
        return result

    def _project_out(self, variable: str) -> "PackedTable":
        k = len(self._vars)
        i = self._vars.index(variable)
        remaining = self._vars[:i] + self._vars[i + 1 :]
        if self._factors is not None and variable == self._factors[2]:
            cut, _, _, parts = self._factor_cut()
            mask = parts if cut == "diagonal" else self._codec.compose(*parts)
        else:
            mask = self._codec.project(self.mask, k, k - 1 - i, universal=False)
        return PackedTable(self._codec, remaining, mask, self._tracer)

    def forall_out(self, variable: str, domain: Optional[Domain] = None) -> "PackedTable":
        """Universal quantification: AND-fold one digit away."""
        if variable not in self._vars:
            return self
        tracer = self._tracer
        if not tracer.enabled:
            return self._forall_out(variable)
        with tracer.span(
            "kernel.project", var=variable, universal=True
        ) as span:
            result = self._forall_out(variable)
            span.set(rows=len(result))
        return result

    def _forall_out(self, variable: str) -> "PackedTable":
        k = len(self._vars)
        i = self._vars.index(variable)
        remaining = self._vars[:i] + self._vars[i + 1 :]
        if self._codec.n == 0:
            # vacuously true over an empty domain; with other variables
            # remaining there are no assignments at all
            return PackedTable(
                self._codec, remaining, 0 if remaining else 1, self._tracer
            )
        mask = self._codec.project(self.mask, k, k - 1 - i, universal=True)
        return PackedTable(self._codec, remaining, mask, self._tracer)

    def to_relation(self, output_vars: Sequence[str]) -> Relation:
        """Read the table out as a (packed) relation in the given order."""
        k = len(self._vars)
        if tuple(output_vars) == self._vars:
            return PackedRelation(k, self.mask, self._codec, tracer=self._tracer)
        if set(output_vars) != set(self._vars) or len(output_vars) != k:
            raise EvaluationError(
                f"output variables {tuple(output_vars)} must be a permutation "
                f"of table columns {self._vars}"
            )
        pos = {v: i for i, v in enumerate(self._vars)}
        src_for = [0] * k
        for j, v in enumerate(output_vars):
            src_for[k - 1 - j] = k - 1 - pos[v]
        mask = self._codec.permute(self.mask, k, src_for)
        return PackedRelation(k, mask, self._codec, tracer=self._tracer)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedTable):
            if other._codec is self._codec:
                return self._vars == other._vars and self.mask == other.mask
            return self._vars == other._vars and self.rows == other.rows
        variables = getattr(other, "variables", None)
        rows = getattr(other, "rows", None)
        if variables is not None and rows is not None:
            return self._vars == tuple(variables) and self.rows == rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._vars, self.rows))

    def __len__(self) -> int:
        if self._mask is not None:
            return popcount(self._mask)
        if self._factors is None:
            return popcount(self._transposed)
        return self._factor_cut()[1]

    def __repr__(self) -> str:
        return f"PackedTable(vars={self._vars}, rows={len(self)})"


class PackedRelation(Relation):
    """A :class:`Relation` backed by a packed mask.

    Tuples materialize lazily (and are cached) the first time something
    actually iterates or hashes the relation; until then every hot
    operation the fixpoint engines perform — union, difference,
    subset/equality tests, length, membership — runs on the mask.
    Cross-representation equality with a plain :class:`Relation` holds
    (and hashing stays consistent with it); for hot identity checks the
    engines use :meth:`state_key`, which never materializes.
    """

    __slots__ = ("_mask", "_codec", "_materialized", "_tracer")

    def __init__(
        self,
        arity: int,
        mask: int,
        codec: DomainCodec,
        tracer: TracerLike = NULL_TRACER,
    ):
        if arity < 0:
            raise SchemaError(f"arity must be non-negative, got {arity}")
        self._arity = arity
        self._mask = mask
        self._codec = codec
        self._tracer = tracer
        self._materialized: Optional[FrozenSet[Row]] = None

    @property
    def _tuples(self) -> FrozenSet[Row]:  # shadows the Relation slot
        frozen = self._materialized
        if frozen is None:
            frozen = RowSet(self._codec.iter_rows(self._mask, self._arity))
            self._materialized = frozen
        return frozen

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def codec(self) -> DomainCodec:
        return self._codec

    def state_key(self):
        """A cheap hashable identity: ``O(1)``-ish, no tuple decoding."""
        return ("packed", self._arity, self._mask, self._codec.domain)

    def _same_kind(self, other) -> bool:
        return (
            isinstance(other, PackedRelation) and other._codec is self._codec
        )

    def union(self, other: Relation) -> Relation:
        if self._same_kind(other):
            self._check_same_arity(other, "union")
            return PackedRelation(
                self._arity, self._mask | other._mask, self._codec, self._tracer
            )
        return super().union(other)

    def intersection(self, other: Relation) -> Relation:
        if self._same_kind(other):
            self._check_same_arity(other, "intersection")
            return PackedRelation(
                self._arity, self._mask & other._mask, self._codec, self._tracer
            )
        return super().intersection(other)

    def difference(self, other: Relation) -> Relation:
        if self._same_kind(other):
            self._check_same_arity(other, "difference")
            return PackedRelation(
                self._arity, self._mask & ~other._mask, self._codec, self._tracer
            )
        return super().difference(other)

    def issubset(self, other: Relation) -> bool:
        if self._same_kind(other):
            self._check_same_arity(other, "issubset")
            tracer = self._tracer
            if tracer.enabled:
                with tracer.span("kernel.fixpoint_check", op="issubset") as span:
                    result = self._mask & ~other._mask == 0
                    span.set(holds=result)
                return result
            return self._mask & ~other._mask == 0
        return super().issubset(other)

    def __contains__(self, item: object) -> bool:
        if self._materialized is not None:
            return item in self._materialized
        if not isinstance(item, tuple) or len(item) != self._arity:
            return False
        try:
            idx = self._codec.encode_row(item)
        except (SchemaError, TypeError):
            return False
        return bool((self._mask >> idx) & 1)

    def __len__(self) -> int:
        return popcount(self._mask)

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other: object) -> bool:
        if self._same_kind(other):
            tracer = self._tracer
            if tracer.enabled:
                # the convergence test of every packed fixpoint round
                with tracer.span("kernel.fixpoint_check", op="eq") as span:
                    result = (
                        self._arity == other._arity
                        and self._mask == other._mask
                    )
                    span.set(holds=result)
                return result
            return self._arity == other._arity and self._mask == other._mask
        return super().__eq__(other)

    # defining __eq__ would otherwise reset __hash__ to None; keep the
    # tuple-set hash so equal sparse and packed relations hash alike
    __hash__ = Relation.__hash__

    def __repr__(self) -> str:
        return (
            f"PackedRelation(arity={self._arity}, rows={len(self)}, "
            f"bits={self._codec.size(self._arity)})"
        )


__all__ = [
    "ALIGN_CACHE_LIMIT",
    "DEFAULT_MAX_BITS",
    "DomainCodec",
    "PackedRelation",
    "PackedTable",
    "RowSet",
    "popcount",
]
