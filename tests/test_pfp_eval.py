"""Tests for PFP^k evaluation and space metering (Theorem 3.8)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.naive_eval import naive_answer
from repro.core.pfp_eval import SpaceMeter, pfp_answer
from repro.core.interp import EvalStats
from repro.database import Database
from repro.logic.parser import parse_formula

from tests.conftest import databases


class TestPFPSemantics:
    def test_oscillation_yields_empty(self, tiny_graph):
        phi = parse_formula("[pfp X(x). ~X(x)](u)")
        assert len(pfp_answer(phi, tiny_graph, ("u",))) == 0

    def test_convergent_pfp_matches_naive(self, tiny_graph):
        phi = parse_formula("[pfp X(x). P(x) | exists y. (E(y, x) & X(y))](u)")
        assert pfp_answer(phi, tiny_graph, ("u",)) == naive_answer(
            phi, tiny_graph, ("u",)
        )

    @given(databases(max_size=3))
    def test_strict_space_mode_agrees(self, db):
        phi = parse_formula("[pfp X(x). Q(x) | exists y. (E(x, y) & ~X(y))](u)")
        fast = pfp_answer(phi, db, ("u",))
        strict = pfp_answer(phi, db, ("u",), strict_space=True)
        assert fast == strict == naive_answer(phi, db, ("u",))

    def test_nested_pfp(self, tiny_graph):
        phi = parse_formula(
            "[pfp X(x). P(x) | [pfp Y(z). E(x, z) | Y(z)](x)](u)"
        )
        assert pfp_answer(phi, tiny_graph, ("u",)) == naive_answer(
            phi, tiny_graph, ("u",)
        )


class TestSpaceMeter:
    def test_live_state_bounded_by_nk(self, tiny_graph):
        phi = parse_formula("[pfp X(x). Q(x) | exists y. (E(x, y) & ~X(y))](u)")
        meter = SpaceMeter()
        pfp_answer(phi, tiny_graph, ("u",), meter=meter)
        n = tiny_graph.size()
        assert meter.peak_live_tuples <= n**1  # unary fixpoint
        assert meter.total_iterations >= 1

    def test_nested_fixpoints_stack_live_relations(self, tiny_graph):
        phi = parse_formula(
            "[pfp X(x). [pfp Y(z). E(x, z) | Y(z)](x) | X(x)](u)"
        )
        meter = SpaceMeter()
        pfp_answer(phi, tiny_graph, ("u",), meter=meter)
        assert meter.peak_live_relations >= 2

    def test_meter_enter_update_leave(self):
        meter = SpaceMeter()
        meter.enter(1, 0)
        meter.update(1, 5)
        meter.enter(2, 3)
        assert meter.peak_live_tuples == 8
        assert meter.peak_live_relations == 2
        meter.leave(2)
        meter.leave(1)
        assert meter.total_iterations == 1

    def test_iterations_can_exceed_live_state(self):
        # a 2-bit binary-counter pfp: iterations grow faster than live size
        db = Database.from_tuples(
            range(2), {"P": (1, [(0,)]), "E": (2, []), "Q": (1, [])}
        )
        # X cycles through subsets until repeat: worst case all 4 subsets
        phi = parse_formula(
            "[pfp X(x). (P(x) & ~X(x)) | (~P(x) & (X(x) <-> ~exists y. "
            "(P(y) & X(y))))](u)"
        )
        meter = SpaceMeter()
        result = pfp_answer(phi, db, ("u",), meter=meter)
        assert result == naive_answer(phi, db, ("u",))
        assert meter.total_iterations >= 3


class TestLFPThroughMeteredSolver:
    def test_lfp_gfp_also_supported(self, tiny_graph):
        phi = parse_formula(
            "[lfp S(x). P(x) | exists y. (E(y, x) & S(y))](u)"
        )
        assert pfp_answer(phi, tiny_graph, ("u",)) == naive_answer(
            phi, tiny_graph, ("u",)
        )
