"""Tests for the standard binary encoding (Section 2.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.database.encoding import (
    decode_database,
    encode_database,
    encoded_length,
)
from repro.database import Database
from repro.errors import SchemaError

from tests.conftest import databases


class TestEncodeDecode:
    def test_paper_style_example(self):
        # the paper encodes ({3,5,7}, {<3,5>,<5,7>}); after canonical
        # renaming the domain indices are 0,1,2
        db = Database.from_tuples([3, 5, 7], {"R": (2, [(3, 5), (5, 7)])})
        text = encode_database(db)
        assert text.startswith("({")
        decoded = decode_database(text)
        assert decoded.size() == 3
        assert sorted(decoded.relation("R").tuples) == [(0, 1), (1, 2)]

    def test_roundtrip_on_canonical_domain(self):
        db = Database.from_tuples(
            range(5), {"E": (2, [(0, 1), (3, 4)]), "P": (1, [(2,)])}
        )
        assert decode_database(encode_database(db)) == db

    @given(databases())
    def test_roundtrip_property(self, db):
        assert decode_database(encode_database(db)) == db

    def test_empty_relation_encodes(self):
        db = Database.from_tuples(range(2), {"E": (2, [])})
        assert decode_database(encode_database(db)) == db

    def test_nullary_relation_encodes(self):
        db = Database.from_tuples(range(2), {"T": (0, [()])})
        assert decode_database(encode_database(db)) == db

    def test_empty_relation_of_arity_two(self):
        db = decode_database("({0,1};E:2:{})")
        assert db.relation("E").arity == 2
        assert len(db.relation("E")) == 0

    def test_empty_tuple(self):
        db = decode_database("({0,1};T:0:{<>})")
        assert db.relation("T").tuples == frozenset({()})

    def test_name_with_underscore_and_dash(self):
        db = decode_database("({0,1};a_b-C9:1:{<1>})")
        assert db.relation("a_b-C9").tuples == frozenset({(1,)})

    def test_domain_in_any_order_and_width(self):
        # values are read as binary numbers, not checked for width
        db = decode_database("({10,0,01};E:1:{<010>})")
        assert db.size() == 3
        assert db.relation("E").tuples == frozenset({(2,)})

    def test_length_grows_with_data(self):
        small = Database.from_tuples(range(2), {"E": (2, [(0, 1)])})
        big = Database.from_tuples(
            range(16), {"E": (2, [(i, (i + 1) % 16) for i in range(16)])}
        )
        assert encoded_length(big) > encoded_length(small)


class TestDecodingErrors:
    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            decode_database("hello")

    def test_trailing_garbage_rejected(self):
        db = Database.from_tuples(range(2), {})
        with pytest.raises(SchemaError):
            decode_database(encode_database(db) + "x")

    def test_out_of_range_tuple_value(self):
        with pytest.raises(SchemaError):
            decode_database("({0,1};E:1:{<11>})")

    def test_duplicate_relation_name(self):
        with pytest.raises(SchemaError):
            decode_database("({0,1};E:1:{};E:1:{})")

    def test_missing_close_paren(self):
        with pytest.raises(SchemaError, match="position 16"):
            decode_database("({0,1};E:1:{<1>}")

    def test_trailing_text_names_its_position(self):
        with pytest.raises(SchemaError, match="trailing characters at position 7"):
            decode_database("({0,1})x")

    def test_message_names_the_failing_position(self):
        with pytest.raises(SchemaError, match="position 16"):
            decode_database("({0,1};E:1:{<1>,<2>})")
        with pytest.raises(SchemaError, match="index 2 at position 12"):
            decode_database("({0,1};E:1:{<10>})")

    def test_domain_other_than_0_to_n_minus_1(self):
        with pytest.raises(SchemaError, match="not 0..n-1"):
            decode_database("({0,10})")

    def test_tuple_of_the_wrong_arity(self):
        with pytest.raises(SchemaError, match="position 12"):
            decode_database("({0,1};E:2:{<1>})")

    def test_non_decimal_digit_arity(self):
        # "²" is a digit to str.isdigit but not a number to int()
        with pytest.raises(SchemaError, match="position"):
            decode_database("({0,1};E:²:{})")

    def test_non_ascii_name(self):
        with pytest.raises(SchemaError, match="position 7"):
            decode_database("({0,1};Eé:1:{<1>})")

    @given(st.text(alphabet="(){}<>,;:01EPab_-²é", max_size=40))
    @settings(max_examples=200)
    def test_every_error_names_a_position(self, text):
        try:
            decode_database(text)
        except SchemaError as error:
            assert "position" in str(error)
