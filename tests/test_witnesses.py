"""Witness trees judged by the reference semantics.

Two contracts beyond ``tests/test_provenance.py``:

* **Renderings are pinned.** ``Witness.format()`` of a fixed set of
  witnesses on the path graph 0→1→…→5 is recorded in
  ``tests/golden/witness_golden.json``: transitive closure for a member
  and a non-member, a diverging PFP, an IFP whose body negates its
  recursion atom, and reachability from a free source.  After a change
  that is *meant* to alter them, regenerate with
  ``PYTHONPATH=src python -m tests.test_witnesses`` and review the diff.
* **Forgeries are refused.** ``check_witness`` recomputes every leaf,
  equality and fixpoint value from its terms under its assignment, ties
  each child's assignment to its parent's, and checks stage claims
  against the enclosing derivation's previous stage.  Each forgery
  below is a well-formed tree that a checker trusting the witness's own
  ``detail`` would certify.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.database.database import Database
from repro.logic.parser import parse_formula
from repro.obs.provenance import (
    ProvenanceError,
    Witness,
    check_witness,
    explain_answer,
)

GOLDEN = Path(__file__).parent / "golden" / "witness_golden.json"

TC_QUERY = "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)"

#: name -> (query, output variables, asked tuple)
GOLDEN_CASES = {
    "tc-member": (TC_QUERY, ("u", "v"), (0, 3)),
    "tc-non-member": (TC_QUERY, ("u", "v"), (3, 0)),
    "pfp-diverging": ("[pfp S(x). ~S(x)](u)", ("u",), (0,)),
    "ifp-negated-recursion": (
        "[ifp S(x). P(x) | exists y. (E(y, x) & S(y) & ~S(x))](u)",
        ("u",),
        (3,),
    ),
    "reach-from-free-source": (
        "[lfp S(x). x = y | exists z. (E(z, x) & S(z))](x)",
        ("x", "y"),
        (3, 1),
    ),
}


def path_db(n=6):
    return Database.from_tuples(
        range(n),
        {
            "E": (2, [(i, i + 1) for i in range(n - 1)]),
            "P": (1, [(0,)]),
        },
    )


def _render_all():
    db = path_db()
    return {
        name: explain_answer(parse_formula(query), db, out, values).format()
        for name, (query, out, values) in GOLDEN_CASES.items()
    }


class TestGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_rendering_matches_golden(self, name):
        golden = json.loads(GOLDEN.read_text())
        query, out, values = GOLDEN_CASES[name]
        db = path_db()
        witness = explain_answer(parse_formula(query), db, out, values)
        assert witness.format() == golden[name]
        assert check_witness(witness, db) == []


def test_second_order_formulas_are_refused():
    # refused up front, even where the builder would never reach ∃R
    formula = parse_formula("P(x) | exists2 R/1. R(x)")
    with pytest.raises(ProvenanceError):
        explain_answer(formula, path_db(), ("x",), (0,))


def _leaf(kind, text, assignment, holds, **detail):
    return Witness(kind, parse_formula(text), assignment, holds, detail)


class TestForgeries:
    """``exists y. E(x, y)`` is false at x = 5: 5 has no successor."""

    EXISTS = "exists y. E(x, y)"

    def _exists_claim(self, child, value):
        return Witness(
            "exists",
            parse_formula(self.EXISTS),
            {"x": 5},
            True,
            {"value": value},
            (child,),
        )

    def test_atom_tuple_not_named_by_its_terms(self):
        # the child binds y = 0 but cites the unrelated edge (0, 1)
        atom = _leaf(
            "atom", "E(x, y)", {"x": 5, "y": 0}, True, rel="E", tuple=(0, 1)
        )
        forged = self._exists_claim(atom, 0)
        assert check_witness(forged, path_db()) != []

    def test_child_rebinds_a_parent_variable(self):
        # E(x, y) does hold under {x: 0, y: 1}, but the ∃ was asked at x = 5
        atom = _leaf(
            "atom", "E(x, y)", {"x": 0, "y": 1}, True, rel="E", tuple=(0, 1)
        )
        forged = self._exists_claim(atom, 1)
        assert check_witness(forged, path_db()) != []

    def test_equality_values_not_named_by_its_terms(self):
        forged = _leaf("equals", "x = y", {"x": 1, "y": 2}, True, left=1, right=1)
        assert check_witness(forged, path_db()) != []

    def test_stage_member_cites_a_later_stage(self):
        db = path_db()
        formula = parse_formula(TC_QUERY)
        witness = explain_answer(formula, db, ("u", "v"), (0, 3))
        assert check_witness(witness, db) == []
        # a genuine derivation of S(1, 5), which first enters at stage 4
        late = explain_answer(formula, db, ("u", "v"), (1, 5)).children[0]
        assert late.detail["stage"] == 4

        def forge(w):
            if w.kind == "stage-member" and w.detail["tuple"] == (1, 3):
                # S(z, y) under z = 1, y = 3 inside the stage-3 derivation:
                # cite S(1, 5) at stage 4 instead of S(1, 3) at stage 2
                detail = dict(w.detail, tuple=(1, 5), stage=4)
                return dataclasses.replace(w, detail=detail, children=(late,))
            children = tuple(forge(c) for c in w.children)
            return dataclasses.replace(w, children=children)

        forged = forge(witness)
        assert forged.format() != witness.format()
        assert check_witness(forged, db) != []

    def test_missing_variable_is_a_problem_not_an_error(self):
        atom = _leaf("atom", "E(x, y)", {"x": 0}, True, rel="E", tuple=(0, 1))
        problems = check_witness(atom, path_db())
        assert problems and "y" in problems[0]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = _render_all()
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} witness renderings to {GOLDEN}")
