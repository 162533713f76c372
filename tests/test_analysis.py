"""Tests for structural analyses: positivity, alternation depth, languages."""

import pytest

from repro.errors import PositivityError
from repro.logic.analysis import (
    Language,
    alternation_depth,
    check_positivity,
    classify_language,
    fixpoint_nesting_depth,
    max_so_arity,
    polarity_of,
)
from repro.logic.builders import atom, exists, forall, gfp, lfp, not_, pfp, so_exists
from repro.logic.parser import parse_formula
from repro.workloads.formulas import alternating_fixpoint_family


class TestPolarity:
    def test_positive(self):
        assert polarity_of(atom("S", "x") & atom("P", "x"), "S") == "positive"

    def test_negative(self):
        assert polarity_of(not_(atom("S", "x")), "S") == "negative"

    def test_double_negation_is_positive(self):
        assert polarity_of(not_(not_(atom("S", "x"))), "S") == "positive"

    def test_forall_does_not_flip(self):
        assert polarity_of(forall("x", atom("S", "x")), "S") == "positive"

    def test_both(self):
        phi = atom("S", "x") & not_(atom("S", "x"))
        assert polarity_of(phi, "S") == "both"

    def test_absent(self):
        assert polarity_of(atom("P", "x"), "S") is None

    def test_occurrence_inside_nested_fixpoint_counts(self):
        inner = lfp("T", ["y"], not_(atom("S", "y")), ["x"])
        assert polarity_of(inner, "S") == "negative"

    def test_shadowed_occurrences_do_not_count(self):
        shadowed = lfp("S", ["y"], not_(atom("S", "y")), ["x"])
        assert polarity_of(shadowed, "S") is None


class TestPositivity:
    def test_good_lfp_passes(self):
        check_positivity(parse_formula("[lfp S(x). P(x) | S(x)](u)"))

    def test_negative_lfp_rejected(self):
        with pytest.raises(PositivityError):
            check_positivity(parse_formula("[lfp S(x). ~S(x)](u)"))

    def test_negative_gfp_rejected(self):
        with pytest.raises(PositivityError):
            check_positivity(parse_formula("[gfp S(x). ~S(x)](u)"))

    def test_pfp_exempt(self):
        check_positivity(parse_formula("[pfp X(x). ~X(x)](u)"))

    def test_violation_through_nesting_detected(self):
        phi = lfp(
            "S",
            ["x"],
            lfp("T", ["y"], not_(atom("S", "y")) | atom("T", "y"), ["x"]),
            ["u"],
        )
        with pytest.raises(PositivityError):
            check_positivity(phi)


class TestAlternationDepth:
    def test_fo_is_zero(self):
        assert alternation_depth(parse_formula("exists x. P(x)")) == 0

    def test_single_fixpoint_is_one(self):
        assert alternation_depth(parse_formula("[lfp S(x). S(x)](u)")) == 1

    def test_same_kind_nesting_stays_one(self):
        phi = lfp(
            "S", ["x"], lfp("T", ["y"], atom("S", "y") | atom("T", "y"), ["x"]), ["u"]
        )
        assert alternation_depth(phi) == 1

    def test_independent_opposite_nesting_stays_one(self):
        # the inner gfp never mentions S, so no dependent alternation
        phi = lfp(
            "S", ["x"], gfp("T", ["y"], atom("T", "y"), ["x"]), ["u"]
        )
        assert alternation_depth(phi) == 1

    def test_dependent_alternation_counts(self):
        phi = lfp(
            "S", ["x"], gfp("T", ["y"], atom("S", "y") & atom("T", "y"), ["x"]), ["u"]
        )
        assert alternation_depth(phi) == 2

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_family_has_requested_depth(self, depth):
        q = alternating_fixpoint_family(depth)
        assert alternation_depth(q.formula) == depth

    def test_nesting_depth(self):
        phi = lfp(
            "S", ["x"], gfp("T", ["y"], atom("T", "y"), ["x"]), ["u"]
        )
        assert fixpoint_nesting_depth(phi) == 2


class TestClassification:
    def test_fo(self):
        assert classify_language(parse_formula("exists x. P(x)")) == Language.FO

    def test_fp(self):
        assert (
            classify_language(parse_formula("[lfp S(x). S(x)](u)"))
            == Language.FP
        )

    def test_pfp_dominates_fp(self):
        phi = parse_formula("[lfp S(x). S(x)](u) & [pfp X(x). P(x)](u)")
        assert classify_language(phi) == Language.PFP

    def test_eso_dominates_all(self):
        phi = so_exists("R", 1, parse_formula("[lfp S(x). S(x)](u)"))
        assert classify_language(phi) == Language.ESO


class TestArities:

    def test_max_so_arity(self):
        phi = so_exists("R", 4, atom("R", "x", "x", "y", "y"))
        assert max_so_arity(phi) == 4


class TestQuantifierRank:
    def test_atoms_have_rank_zero(self):
        from repro.logic.analysis import quantifier_rank

        assert quantifier_rank(parse_formula("E(x, y)")) == 0

    def test_nesting_counts(self):
        from repro.logic.analysis import quantifier_rank

        assert quantifier_rank(parse_formula("exists x. forall y. E(x, y)")) == 2
        assert (
            quantifier_rank(parse_formula("exists x. P(x) & exists y. Q(y)"))
            == 2
        )

    def test_parallel_branches_take_max(self):
        from repro.logic.analysis import quantifier_rank

        phi = parse_formula("(exists x. P(x)) & (exists x. exists y. E(x, y))")
        assert quantifier_rank(phi) == 2

    def test_rank_vs_width_on_path_queries(self):
        # the FO^3 trick trades width for rank: reuse keeps width at 3
        # while the quantifier rank grows with the path length
        from repro.logic.analysis import quantifier_rank
        from repro.logic.variables import variable_width
        from repro.workloads.formulas import path_query_fo3

        short, long = path_query_fo3(2).formula, path_query_fo3(6).formula
        assert variable_width(short) == variable_width(long) == 3
        assert quantifier_rank(long) > quantifier_rank(short)

    def test_fixpoint_bodies_count_through(self):
        from repro.logic.analysis import quantifier_rank

        phi = parse_formula("[lfp S(x). exists y. (E(y, x) & S(y))](u)")
        assert quantifier_rank(phi) == 1
