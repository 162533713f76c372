"""Fuzz tests: parsers and evaluators must fail *predictably*.

Arbitrary input may be rejected, but only ever with the library's own
exception types — no bare crashes, no hangs on small inputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.database.encoding import decode_database
from repro.datalog.parser import parse_program
from repro.logic.parser import parse_formula
from repro.mucalculus.parser import parse_mu

_FORMULA_ALPHABET = "PQESxyz()[].&|~=!<->123 'exists-foralllfpgfp,/"


class TestFormulaParserFuzz:
    @given(st.text(alphabet=_FORMULA_ALPHABET, max_size=40))
    @settings(max_examples=60)
    def test_never_crashes_unexpectedly(self, text):
        try:
            parse_formula(text)
        except ReproError:
            pass  # the only acceptable failure mode

    @given(st.text(max_size=20))
    @settings(max_examples=40)
    def test_arbitrary_unicode(self, text):
        try:
            parse_formula(text)
        except ReproError:
            pass


class TestMuParserFuzz:
    @given(st.text(alphabet="pqXY<>[]().&|~munu ", max_size=30))
    @settings(max_examples=60)
    def test_never_crashes_unexpectedly(self, text):
        try:
            parse_mu(text)
        except ReproError:
            pass


class TestDatalogParserFuzz:
    @given(st.text(alphabet="pqrXY(),.:-% \n0123'", max_size=40))
    @settings(max_examples=60)
    def test_never_crashes_unexpectedly(self, text):
        try:
            parse_program(text)
        except ReproError:
            pass


class TestEncodingFuzz:
    @given(st.text(alphabet="(){}<>,;:01EPab", max_size=40))
    @settings(max_examples=60)
    def test_decoder_never_crashes_unexpectedly(self, text):
        try:
            decode_database(text)
        except ReproError:
            pass
