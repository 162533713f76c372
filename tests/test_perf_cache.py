"""Unit tests for the SubqueryCache: LRU bounds, content keys, metrics."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.engine import EvalOptions, evaluate
from repro.core.interp import VarTable
from repro.database.database import Database
from repro.logic.parser import parse_formula
from repro.logic.variables import free_relation_variables
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.perf import SubqueryCache
from repro.perf.cache import resolve_subquery_cache


def _db(n=3):
    return Database.from_tuples(
        range(n), {"E": (2, [(i, i + 1) for i in range(n - 1)])}
    )


def _key(cache, text, db):
    return _key_of(cache, parse_formula(text), db)


def _key_of(cache, formula, db):
    rels = sorted(free_relation_variables(formula))
    return cache.key_for(formula, rels, {}, db)


def _table(rows):
    return VarTable(("x",), [(r,) for r in rows])


class TestLRUBounds:
    def test_max_entries_evicts_least_recently_used(self):
        cache = SubqueryCache(max_entries=2)
        db = _db()
        keys = [
            _key(cache, text, db)
            for text in ("exists y. E(x, y)", "E(x, x)", "~E(x, x)")
        ]
        cache.put(keys[0], _table([0]))
        cache.put(keys[1], _table([1]))
        assert cache.get(keys[0]) is not None  # refresh: [1] is now LRU
        cache.put(keys[2], _table([2]))
        assert cache.evictions == 1
        assert cache.get(keys[1]) is None  # the unrefreshed entry went
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None
        assert len(cache) == 2

    def test_max_total_rows_bounds_retained_tuples(self):
        cache = SubqueryCache(max_entries=100, max_total_rows=5)
        db = _db(8)
        k1 = _key(cache, "E(x, x)", db)
        k2 = _key(cache, "~E(x, x)", db)
        cache.put(k1, _table(range(3)))
        cache.put(k2, _table(range(3)))  # 6 rows total > 5: k1 evicted
        assert cache.evictions == 1
        assert cache.total_rows == 3
        assert cache.get(k1) is None

    def test_oversized_table_is_not_retained(self):
        cache = SubqueryCache(max_total_rows=2)
        db = _db(8)
        k1 = _key(cache, "E(x, x)", db)
        k2 = _key(cache, "~E(x, x)", db)
        cache.put(k2, _table([0]))
        cache.put(k1, _table(range(5)))  # larger than the whole budget
        assert cache.get(k1) is None
        assert cache.get(k2) is not None  # and it displaced nothing

    def test_replacing_an_entry_does_not_double_count_rows(self):
        cache = SubqueryCache()
        key = _key(cache, "E(x, x)", _db())
        cache.put(key, _table(range(4)))
        cache.put(key, _table(range(2)))
        assert cache.total_rows == 2
        assert len(cache) == 1

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            SubqueryCache(max_entries=0)

    def test_evicted_formulas_are_released(self):
        """Only the retained entries keep formulas alive: the cache
        holds no side table that outgrows its entry bound."""
        cache = SubqueryCache(max_entries=4)
        db = _db(4)
        refs = []
        for i in range(300):
            formula = parse_formula(f"exists y. (E(x, y) & ~(y = {i}))")
            evaluate(formula, db, ("x",), EvalOptions(subquery_cache=cache))
            refs.append(weakref.ref(formula))
            del formula
        gc.collect()
        assert len(cache) == 4
        assert sum(ref() is not None for ref in refs) <= len(cache)


class TestMetricsAndKeys:
    def test_counters_live_in_the_registry(self):
        registry = MetricsRegistry()
        cache = SubqueryCache(registry=registry)
        key = _key(cache, "E(x, x)", _db())
        assert cache.get(key) is None
        cache.put(key, _table([0]))
        assert cache.get(key) is not None
        snapshot = {m.name: m.value for m in registry}
        assert snapshot["cache.hits"] == 1
        assert snapshot["cache.misses"] == 1
        assert snapshot["cache.evictions"] == 0
        assert snapshot["cache.entries"] == 1
        assert snapshot["cache.rows"] == 1

    def test_key_distinguishes_environments(self):
        cache = SubqueryCache()
        formula = parse_formula("exists y. E(x, y)")
        db = _db()
        grown = db.with_relation(
            "E", db.relation("E").union(db.relation("E"))
        )
        mutated = _db(3).with_relation(
            "E", _db(3).relation("E").__class__(2, [(2, 0)])
        )
        assert _key_of(cache, formula, db) == _key_of(
            cache, formula, grown
        )  # same relation value → same key
        assert _key_of(cache, formula, db) != _key_of(
            cache, formula, mutated
        )

    def test_key_tells_apart_values_of_other_types(self):
        # [0, 1] == [False, True] as value sets; a shared entry would
        # serve one database's rows, with their types, to the other
        cache = SubqueryCache()
        formula = parse_formula("exists y. E(x, y)")
        keys = [
            _key_of(
                cache,
                formula,
                Database.from_tuples(values, {"E": (2, [tuple(values)])}),
            )
            for values in ([0, 1], [False, True], [0.0, 1.0], [0, 1])
        ]
        assert len(set(keys[:3])) == 3
        assert keys[0] == keys[3]

    def test_domain_key_is_built_once_per_domain(self):
        domain = _db().domain
        assert domain.exact_key is domain.exact_key

    def test_key_is_none_for_unresolvable_relation(self):
        cache = SubqueryCache()
        assert _key(cache, "R(x)", _db()) is None

    def test_leaves_are_not_cacheable(self):
        cache = SubqueryCache()
        assert not cache.cacheable(parse_formula("E(x, y)"))
        assert cache.cacheable(parse_formula("exists y. (E(x, y) & P(y))"))

    def test_resolve_subquery_cache(self):
        assert resolve_subquery_cache(None) is None
        assert resolve_subquery_cache(False) is None
        assert isinstance(resolve_subquery_cache(True), SubqueryCache)
        cache = SubqueryCache()
        assert resolve_subquery_cache(cache) is cache


class TestEngineIntegration:
    def test_options_true_uses_a_private_cache(self):
        db = _db(4)
        formula = parse_formula(
            "[lfp S(x). E(x, x) | exists y. (E(y, x) & S(y))](u) | "
            "[lfp S(x). E(x, x) | exists y. (E(y, x) & S(y))](u)"
        )
        plain = evaluate(formula, db, ("u",), EvalOptions())
        cached = evaluate(
            formula, db, ("u",), EvalOptions(subquery_cache=True)
        )
        assert cached.relation == plain.relation

    def test_shared_cache_hit_counts_surface_in_stats(self):
        db = _db(4)
        formula = parse_formula("exists y. (E(x, y) & exists x. E(y, x))")
        cache = SubqueryCache()
        evaluate(formula, db, ("x",), EvalOptions(subquery_cache=cache))
        second = evaluate(
            formula, db, ("x",), EvalOptions(subquery_cache=cache)
        )
        assert cache.hits >= 1
        assert second.stats.notes.get("subquery_cache_hits", 0) >= 1

    def test_cache_hit_records_kernel_spans_into_the_current_trace(self):
        """A packed table served from a shared cache runs its later
        kernel ops under the evaluation it is served to, not the one
        that built it."""
        db = Database.from_tuples(
            range(4),
            {
                "E": (2, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]),
                "P": (1, [(1,), (3,)]),
            },
        )
        inner = "exists y. (E(x, y) & exists x. E(y, x))"
        outer = f"({inner}) & exists z. (E(z, x) & P(z))"
        cache = SubqueryCache()

        def kernel_spans(tracer):
            return [s.name for s in tracer.spans if s.name.startswith("kernel.")]

        first, second = Tracer(), Tracer()
        evaluate(
            parse_formula(inner), db, ("x",),
            EvalOptions(backend="packed", subquery_cache=cache, trace=first),
        )
        built = kernel_spans(first)
        result = evaluate(
            parse_formula(outer), db, ("x",),
            EvalOptions(backend="packed", subquery_cache=cache, trace=second),
        )
        assert result.stats.notes["subquery_cache_hits"] >= 1
        assert kernel_spans(first) == built
        # the second conjunct's own join, then its join with the served
        # table
        assert kernel_spans(second).count("kernel.join") == 2


class TestGenerationKeys:
    """Keys are built from relation content, so each content generation
    of a database keys apart: an add or remove that changes a relation
    moves the key, one that changes nothing keeps it, and no cache call
    is needed after a mutation."""

    def test_key_moves_when_a_fact_is_added(self):
        cache = SubqueryCache()
        db = _db()
        before = _key(cache, "E(x, x)", db)
        assert db.add_fact("E", (2, 0))
        after = _key(cache, "E(x, x)", db)
        assert before != after
        rebuilt = Database.from_tuples(
            range(3), {"E": (2, [(0, 1), (1, 2), (2, 0)])}
        )
        assert after == _key(cache, "E(x, x)", rebuilt)

    def test_noop_mutations_keep_the_key(self):
        cache = SubqueryCache()
        db = _db()
        before = _key(cache, "E(x, x)", db)
        assert not db.add_fact("E", (0, 1))  # already present
        assert not db.remove_fact("E", (2, 0))  # never existed
        assert _key(cache, "E(x, x)", db) == before

    def test_stale_rows_regression_after_add_fact(self):
        """The bug this guards: a warm shared cache returning rows
        computed before the database changed."""
        db = _db(4)  # path 0→1→2→3
        formula = parse_formula("exists y. E(x, y)")
        cache = SubqueryCache()
        first = evaluate(formula, db, ("x",), EvalOptions(subquery_cache=cache))
        assert (3,) not in first.relation.tuples
        assert db.add_fact("E", (3, 0))
        second = evaluate(
            formula, db, ("x",), EvalOptions(subquery_cache=cache)
        )
        assert (3,) in second.relation.tuples  # fresh, not the cached rows
        plain = evaluate(formula, db, ("x",), EvalOptions())
        assert second.relation == plain.relation

    def test_remove_fact_also_moves_the_generation(self):
        db = _db(4)
        formula = parse_formula("exists y. E(x, y)")
        cache = SubqueryCache()
        before = _key_of(cache, formula, db)
        first = evaluate(formula, db, ("x",), EvalOptions(subquery_cache=cache))
        assert (2,) in first.relation.tuples
        assert db.remove_fact("E", (2, 3))
        assert _key_of(cache, formula, db) != before
        second = evaluate(
            formula, db, ("x",), EvalOptions(subquery_cache=cache)
        )
        assert (2,) not in second.relation.tuples
        # restoring the fact restores the content, and with it the key
        assert db.add_fact("E", (2, 3))
        assert _key_of(cache, formula, db) == before
