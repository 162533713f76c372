"""Tests for bounded bottom-up FO evaluation (Prop 3.1)."""

import pytest
from hypothesis import given

from repro.core.engine import EvalOptions, evaluate
from repro.core.fo_eval import BoundedEvaluator
from repro.core.interp import EvalStats
from repro.core.naive_eval import naive_answer
from repro.database import Database, Relation
from repro.errors import EvaluationError, VariableBoundError
from repro.kernel.backend import SparseBackend
from repro.logic.parser import parse_formula
from repro.logic.variables import free_variables, variable_width
from repro.perf.cache import SubqueryCache

from tests.conftest import databases, fo_formulas


def atom_table(relation, terms, domain):
    return SparseBackend(domain).atom_table(relation, terms)


class TestAtomTable:
    def test_distinct_variables(self, tiny_graph):
        t = atom_table(
            tiny_graph.relation("E"),
            parse_formula("E(x, y)").terms,
            tiny_graph.domain,
        )
        assert t.variables == ("x", "y")
        assert (0, 1) in t.rows

    def test_repeated_variable_selects_diagonal(self, tiny_graph):
        t = atom_table(
            tiny_graph.relation("E"),
            parse_formula("E(x, x)").terms,
            tiny_graph.domain,
        )
        assert t.variables == ("x",)
        assert t.is_empty()  # tiny_graph has no self-loops

    def test_constant_selects(self, tiny_graph):
        t = atom_table(
            tiny_graph.relation("E"),
            parse_formula("E(0, y)").terms,
            tiny_graph.domain,
        )
        assert t.rows == frozenset({(1,)})

    def test_arity_mismatch(self, tiny_graph):
        with pytest.raises(EvaluationError):
            atom_table(
                tiny_graph.relation("E"),
                parse_formula("E(x, y, z)").terms,
                tiny_graph.domain,
            )


class TestAgreementWithReference:
    @given(fo_formulas(), databases(max_size=3))
    def test_property_agreement(self, phi, db):
        out = sorted(free_variables(phi))
        bounded = BoundedEvaluator(db).answer(phi, out)
        assert bounded == naive_answer(phi, db, out)

    def test_specific_nested_query(self, tiny_graph):
        phi = parse_formula(
            "forall y. (~E(x, y) | exists x. (x = y & exists y. E(x, y)))"
        )
        assert BoundedEvaluator(tiny_graph).answer(phi, ("x",)) == naive_answer(
            phi, tiny_graph, ("x",)
        )


class TestBoundsAndStats:
    def test_intermediate_arity_bounded_by_width(self, tiny_graph):
        phi = parse_formula("exists z. (E(x, z) & exists x. (x = z & E(x, y)))")
        stats = EvalStats()
        BoundedEvaluator(tiny_graph, stats=stats).answer(phi, ("x", "y"))
        assert stats.max_intermediate_arity <= variable_width(phi)

    def test_intermediate_rows_bounded_by_n_to_k(self, tiny_graph):
        phi = parse_formula("exists z. (E(x, z) & E(z, y))")
        stats = EvalStats()
        BoundedEvaluator(tiny_graph, stats=stats).answer(phi, ("x", "y"))
        n, k = tiny_graph.size(), variable_width(phi)
        assert stats.max_intermediate_rows <= n**k

    def test_k_limit_enforced(self, tiny_graph):
        phi = parse_formula("exists x. exists y. exists z. (E(x,y) & E(y,z))")
        with pytest.raises(VariableBoundError):
            BoundedEvaluator(tiny_graph, k_limit=2).answer(phi, ())

    def test_k_limit_allows_within_budget(self, tiny_graph):
        phi = parse_formula("exists y. E(x, y)")
        BoundedEvaluator(tiny_graph, k_limit=2).answer(phi, ("x",))

    def test_memoization_hits_on_shared_subformulas(self, tiny_graph):
        sub = parse_formula("exists y. E(x, y)")
        from repro.logic.syntax import And

        phi = And((sub, sub))  # identical object shared
        stats = EvalStats()
        BoundedEvaluator(tiny_graph, stats=stats).answer(phi, ("x",))
        assert stats.notes.get("memo_hits", 0) >= 1


class TestAuditOnce:
    """Every intermediate table is audited exactly once: ``table_ops``
    counts tables, not the places that saw them."""

    CORPUS = [
        # (query, output variables, tables built)
        ("E(x, y)", ("x", "y"), 1),
        ("E(x, y)", ("x", "y", "z"), 2),  # the answer's cylinder
        ("exists x. P(y)", ("y",), 1),  # vacuous: P's table, handed up
        ("forall x. P(y)", ("y",), 1),
        ("P(x) & Q(x) & E(x, x)", ("x",), 5),  # 3 atoms, 2 fold steps
        ("P(x) | Q(x) | E(x, x)", ("x",), 5),
        ("exists z. (E(x, z) & E(z, y))", ("x", "y"), 4),
        (
            "[lfp S(x, y). E(x, y) | exists z. (E(x, z) & S(z, y))](u, v)",
            ("u", "v"),
            19,
        ),
    ]

    @pytest.fixture
    def audited(self, monkeypatch):
        """The tables ``EvalStats.observe_table`` sees, in order."""
        seen = []
        observe = EvalStats.observe_table

        def spy(stats, table):
            seen.append(table)
            observe(stats, table)

        monkeypatch.setattr(EvalStats, "observe_table", spy)
        return seen

    def _check(self, result, audited, db, backend, tables):
        stats = result.stats
        assert len({id(table) for table in audited}) == len(audited)
        assert stats.table_ops == len(audited) == tables
        snap = stats.registry.snapshot()
        # the kernel keeps no table count of its own: besides its cache
        # tallies it reports only the widest mask of the audited tables
        kernel = {
            name for name in snap
            if name.startswith("kernel.") and not name.startswith(
                ("kernel.cache.", "kernel.codec_")
            )
        }
        if backend == "packed":
            assert kernel == {"kernel.mask_bits"}
            n = len(db.domain)
            assert snap["kernel.mask_bits"] == n ** stats.max_intermediate_arity
        else:
            assert kernel == set()

    @pytest.mark.parametrize("backend", ["sparse", "packed"])
    @pytest.mark.parametrize("query,out,tables", CORPUS)
    def test_each_table_audited_once(
        self, tiny_graph, audited, backend, query, out, tables
    ):
        result = evaluate(
            parse_formula(query), tiny_graph, out, EvalOptions(backend=backend)
        )
        self._check(result, audited, tiny_graph, backend, tables)

    @pytest.mark.parametrize("backend", ["sparse", "packed"])
    def test_subquery_cache_hit_audited_once(
        self, tiny_graph, audited, backend
    ):
        phi = parse_formula("exists z. (E(x, z) & E(z, y))")
        options = EvalOptions(backend=backend, subquery_cache=SubqueryCache())
        evaluate(phi, tiny_graph, ("x", "y"), options)
        audited.clear()
        result = evaluate(phi, tiny_graph, ("x", "y"), options)
        assert result.stats.notes["subquery_cache_hits"] == 1
        self._check(result, audited, tiny_graph, backend, 1)


class TestAnswerAPI:
    def test_extra_output_variables_cylindrify(self, tiny_graph):
        relation = BoundedEvaluator(tiny_graph).answer(
            parse_formula("P(x)"), ("x", "w")
        )
        assert len(relation) == 2 * tiny_graph.size()

    def test_column_permutation(self, tiny_graph):
        phi = parse_formula("E(x, y)")
        xy = BoundedEvaluator(tiny_graph).answer(phi, ("x", "y"))
        yx = BoundedEvaluator(tiny_graph).answer(phi, ("y", "x"))
        assert {(b, a) for a, b in xy.tuples} == set(yx.tuples)

    def test_duplicate_output_variables_rejected(self, tiny_graph):
        with pytest.raises(EvaluationError):
            BoundedEvaluator(tiny_graph).answer(parse_formula("P(x)"), ("x", "x"))

    def test_missing_output_variable_rejected(self, tiny_graph):
        with pytest.raises(EvaluationError):
            BoundedEvaluator(tiny_graph).answer(parse_formula("E(x, y)"), ("x",))

    def test_sentence_gives_boolean_relation(self, tiny_graph):
        relation = BoundedEvaluator(tiny_graph).answer(
            parse_formula("exists x. P(x)"), ()
        )
        assert relation.as_bool() is True

    def test_rel_env_overrides_database(self, tiny_graph):
        relation = BoundedEvaluator(tiny_graph).answer(
            parse_formula("P(x)"), ("x",), rel_env={"P": Relation(1, [(3,)])}
        )
        assert relation.tuples == frozenset({(3,)})

    def test_fixpoint_without_solver_rejected(self, tiny_graph):
        with pytest.raises(EvaluationError):
            BoundedEvaluator(tiny_graph).answer(
                parse_formula("[lfp S(x). S(x)](u)"), ("u",)
            )

    def test_so_exists_rejected_here(self, tiny_graph):
        with pytest.raises(EvaluationError):
            BoundedEvaluator(tiny_graph).answer(
                parse_formula("exists2 R/1. R(x)"), ("x",)
            )


class TestEmptyDomain:
    def test_quantifiers_over_empty_domain(self):
        db = Database.from_tuples([], {})
        ev = BoundedEvaluator(db)
        assert not ev.answer(parse_formula("exists x. x = x"), ()).as_bool()
        assert ev.answer(parse_formula("forall x. ~(x = x)"), ()).as_bool()
