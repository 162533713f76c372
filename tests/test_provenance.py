"""Answer provenance: witnesses checked against the engines.

A witness built by ``explain_answer`` is a *checkable certificate*:
replaying it against the database finds no problems, tampering with it
does, and its claims agree with the engines' answers.
"""

import pytest

from repro.core.engine import evaluate
from repro.database.database import Database
from repro.logic.parser import parse_formula
from repro.obs.provenance import (
    ProvenanceError,
    check_witness,
    explain_answer,
    explain_membership,
)

TC_QUERY = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"


def path_db(n=6):
    return Database.from_tuples(
        range(n),
        {
            "E": (2, [(i, i + 1) for i in range(n - 1)]),
            "P": (1, [(0,)]),
        },
    )


class TestWitnesses:
    def test_positive_witness_replays_cleanly(self):
        db = path_db()
        formula = parse_formula(TC_QUERY)
        witness = explain_answer(formula, db, ("u", "v"), (0, 3))
        assert witness.holds
        assert check_witness(witness, db) == []

    def test_negative_witness_replays_cleanly(self):
        db = path_db()
        formula = parse_formula(TC_QUERY)
        witness = explain_answer(formula, db, ("u", "v"), (3, 0))
        assert not witness.holds
        assert check_witness(witness, db) == []

    def test_witness_agrees_with_engine_answers(self):
        db = path_db()
        formula = parse_formula(TC_QUERY)
        answers = evaluate(formula, db, ("u", "v")).relation.tuples
        for tup in [(0, 1), (0, 5), (2, 4), (1, 0), (4, 4)]:
            witness = explain_answer(formula, db, ("u", "v"), tup)
            assert witness.holds == (tup in answers), tup

    def test_fo_witness_through_connectives(self):
        db = path_db()
        formula = parse_formula("exists y. (E(x, y) & P(x))")
        witness = explain_answer(formula, db, ("x",), (0,))
        assert witness.holds
        assert check_witness(witness, db) == []
        kinds = set()

        def walk(w):
            kinds.add(w.kind)
            for child in w.children:
                walk(child)

        walk(witness)
        assert "exists" in kinds
        assert "and" in kinds

    def test_tampered_witness_is_caught(self):
        db = path_db()
        formula = parse_formula("E(x, y)")
        witness = explain_answer(formula, db, ("x", "y"), (0, 1))
        assert witness.holds
        witness.detail["tuple"] = (0, 5)  # not an edge
        assert check_witness(witness, db) != []

    def test_derivation_stages_strictly_decrease(self):
        db = path_db()
        formula = parse_formula(TC_QUERY)
        witness = explain_answer(formula, db, ("u", "v"), (0, 4))

        def check(w, ceiling):
            stage = w.detail.get("stage")
            if w.kind == "derivation" and stage is not None:
                assert ceiling is None or stage < ceiling
                ceiling = stage
            for child in w.children:
                check(child, ceiling)

        check(witness, None)

    def test_membership_requires_full_assignment(self):
        db = path_db()
        formula = parse_formula("E(x, y)")
        with pytest.raises(ProvenanceError):
            explain_membership(formula, db, {"x": 0})

    def test_value_outside_domain_rejected(self):
        db = path_db()
        formula = parse_formula("E(x, y)")
        with pytest.raises(ProvenanceError):
            explain_answer(formula, db, ("x", "y"), (0, 99))
