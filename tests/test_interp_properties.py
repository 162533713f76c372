"""Property-based laws of the VarTable algebra (hypothesis)."""

from hypothesis import given, strategies as st

from repro.core.interp import VarTable
from repro.database.domain import Domain

DOMAIN = Domain.range(3)
VARS = ("x", "y", "z")


@st.composite
def tables(draw, variables=None):
    if variables is None:
        count = draw(st.integers(0, 3))
        variables = VARS[:count]
    import itertools

    universe = list(itertools.product(DOMAIN.values, repeat=len(variables)))
    rows = draw(st.sets(st.sampled_from(universe))) if universe else set()
    return VarTable(tuple(variables), rows)


class TestBooleanLaws:
    @given(tables())
    def test_complement_is_involutive(self, t):
        assert t.complement(DOMAIN).complement(DOMAIN) == t

    @given(tables(), tables())
    def test_de_morgan(self, a, b):
        lhs = a.union(b, DOMAIN).complement(DOMAIN)
        # a natural join intersects both sides cylindrified to the
        # union schema
        rhs = a.complement(DOMAIN).join(b.complement(DOMAIN))
        assert lhs == rhs

    @given(tables(), tables())
    def test_union_commutes(self, a, b):
        assert a.union(b, DOMAIN) == b.union(a, DOMAIN)

    @given(tables(), tables(), tables())
    def test_union_associates(self, a, b, c):
        assert a.union(b, DOMAIN).union(c, DOMAIN) == a.union(
            b.union(c, DOMAIN), DOMAIN
        )

    @given(tables())
    def test_union_idempotent(self, t):
        assert t.union(t, DOMAIN) == t


class TestJoinLaws:
    @given(tables(), tables())
    def test_join_commutes(self, a, b):
        assert a.join(b) == b.join(a)

    @given(tables(), tables(), tables())
    def test_join_associates(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(tables())
    def test_tautology_is_join_identity(self, t):
        assert t.join(VarTable.tautology()) == t

    @given(tables())
    def test_contradiction_annihilates(self, t):
        joined = t.join(VarTable.contradiction())
        assert joined.is_empty()

    @given(tables())
    def test_join_with_full_is_cylindrification(self, t):
        full = VarTable.full(("x", "y", "z"), DOMAIN)
        assert t.join(full) == t.cylindrify(("x", "y", "z"), DOMAIN)


class TestQuantifierLaws:
    @given(tables(variables=("x", "y")))
    def test_exists_forall_duality(self, t):
        # ∀y φ = ¬∃y ¬φ
        direct = t.forall_out("y", DOMAIN)
        dual = t.complement(DOMAIN).project_out("y").complement(DOMAIN)
        assert direct == dual

    @given(tables(variables=("x", "y")))
    def test_project_then_cylindrify_grows(self, t):
        # φ ⊆ ∃y φ (as a cylinder)
        projected = t.project_out("y").cylindrify(("x", "y"), DOMAIN)
        assert t.rows <= projected.rows

    @given(tables(variables=("x", "y")))
    def test_forall_implies_exists_on_nonempty_domain(self, t):
        assert t.forall_out("y", DOMAIN).rows <= t.project_out("y").rows

    @given(tables(variables=("x", "y")), tables(variables=("x",)))
    def test_projection_distributes_over_union(self, a, b):
        wide_b = b.cylindrify(("x", "y"), DOMAIN)
        lhs = a.union(wide_b, DOMAIN).project_out("y")
        rhs = a.project_out("y").union(wide_b.project_out("y"), DOMAIN)
        assert lhs == rhs


class TestConstructionContract:
    """The public constructor validates; ``_trusted`` is fast but must
    only ever see canonical input — these regressions pin both halves."""

    def test_duplicate_columns_rejected(self):
        import pytest

        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError, match="duplicate"):
            VarTable(("x", "x"), [(0, 0)])

    def test_ragged_row_rejected(self):
        import pytest

        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError, match="does not match"):
            VarTable(("x", "y"), [(0,)])

    def test_unsorted_input_reorders_rows(self):
        # rows come in (y, x) order; the table stores columns sorted, so
        # each row must be permuted, not just relabeled
        t = VarTable(("y", "x"), [(1, 0), (2, 1)])
        assert t.variables == ("x", "y")
        assert t.rows == {(0, 1), (1, 2)}

    @given(
        tables(variables=("x", "y")),
        tables(variables=("y", "z")),
        tables(variables=("x", "y")),
    )
    def test_operator_results_are_canonical(self, a, b, c):
        """Every operator output (built via the trusted path) would
        survive re-validation by the public constructor unchanged."""
        joined = a.join(b)
        for t in (
            joined,
            joined.project_out("y"),
            a.union(c, DOMAIN),
            a.complement(DOMAIN),
            a.cylindrify(("x", "y", "z"), DOMAIN),
        ):
            assert t == VarTable(t.variables, t.rows)
            assert t.variables == tuple(sorted(t.variables))

    @given(tables())
    def test_to_relation_equals_a_validated_relation(self, t):
        """The trusted readout equals ``Relation(arity, rows)`` built by
        hand in every column order, and the table's own order shares
        its frozenset instead of copying it."""
        import itertools

        from repro.database.relation import Relation

        for order in itertools.permutations(t.variables):
            positions = [t.variables.index(v) for v in order]
            expected = Relation(
                len(order), [[row[p] for p in positions] for row in t.rows]
            )
            relation = t.to_relation(order)
            assert relation == expected
            assert type(relation.tuples) is frozenset
            assert all(type(row) is tuple for row in relation.tuples)
            if order == t.variables:
                assert relation.tuples is t.rows
