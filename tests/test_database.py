"""Tests for repro.database.database and .schema."""

import pytest

from repro.database import Database, DatabaseSchema, Domain, Relation, RelationSchema
from repro.errors import SchemaError


class TestSchema:
    def test_from_arities(self):
        s = DatabaseSchema.from_arities({"E": 2, "P": 1})
        assert s.arity_of("E") == 2
        assert s.max_arity() == 2
        assert s.arities() == (2, 1)
        assert "P" in s and "R" not in s

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([RelationSchema("E", 2), RelationSchema("E", 1)])

    def test_bad_names_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", 1)
        with pytest.raises(SchemaError):
            RelationSchema("has space", 1)

    def test_unknown_relation(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([]).arity_of("E")


class TestDatabase:
    def test_from_tuples(self):
        db = Database.from_tuples(range(3), {"E": (2, [(0, 1)])})
        assert db.size() == 3
        assert db.relation("E").arity == 2
        assert db.total_tuples() == 1

    def test_domain_violation_rejected(self):
        with pytest.raises(SchemaError):
            Database(Domain.range(2), {"E": Relation(2, [(0, 5)])})

    @pytest.mark.parametrize(
        "domain,edge,shown,own",
        [([0, 1], (False, True), "False", "0"), ([1, 2], (1.0, 2), "1.0", "1")],
    )
    def test_value_equal_only_across_types_rejected(
        self, domain, edge, shown, own
    ):
        # accepted, E(x, y) would answer the value itself on the sparse
        # backend and the domain value it equals on the packed one
        with pytest.raises(
            SchemaError, match=f"value {shown} of type .* domain value {own} "
        ):
            Database.from_tuples(domain, {"E": (2, [edge])})

    def test_add_fact_rejects_value_equal_only_across_types(self):
        db = Database.from_tuples([0, 1], {"E": (2, [])})
        with pytest.raises(SchemaError, match="domain value 1 of type int"):
            db.add_fact("E", (0, True))
        assert len(db.relation("E")) == 0

    def test_with_relation_is_functional(self):
        db = Database.from_tuples(range(2), {"E": (2, [])})
        db2 = db.with_relation("E", Relation(2, [(0, 1)]))
        assert len(db.relation("E")) == 0
        assert len(db2.relation("E")) == 1

    def test_with_relation_can_add_new(self):
        db = Database.from_tuples(range(2), {})
        db2 = db.with_relation("S", Relation(1, [(0,)]))
        assert "S" in db2.relation_names()

    def test_without_relation(self):
        db = Database.from_tuples(range(2), {"E": (2, []), "P": (1, [])})
        db2 = db.without_relation("P")
        assert db2.relation_names() == ("E",)
        with pytest.raises(SchemaError):
            db.without_relation("missing")

    def test_unknown_relation(self):
        db = Database.from_tuples(range(2), {})
        with pytest.raises(SchemaError):
            db.relation("E")

    def test_equality_and_hash(self):
        a = Database.from_tuples(range(2), {"E": (2, [(0, 1)])})
        b = Database.from_tuples(range(2), {"E": (2, [(0, 1)])})
        assert a == b
        assert hash(a) == hash(b)

    def test_nontrivial_per_footnote_4(self):
        # needs >= 2 elements and a relation that is neither empty nor full
        assert Database.from_tuples(
            range(2), {"P": (1, [(0,)])}
        ).is_nontrivial()
        assert not Database.from_tuples(range(1), {"P": (1, [(0,)])}).is_nontrivial()
        assert not Database.from_tuples(
            range(2), {"P": (1, [(0,), (1,)])}
        ).is_nontrivial()
        assert not Database.from_tuples(range(2), {"P": (1, [])}).is_nontrivial()
