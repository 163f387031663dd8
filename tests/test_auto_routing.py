"""``method="auto"``, the engine default, and the plans live engines share.

Routing: ``auto`` runs the vectorized sweep, trees included, unless a
``ctx`` asks for simulated-rank load (DB).  Whatever it picks must count
exactly what DB and the brute-force oracle count.  Plans: every live engine gets
the same :class:`Plan` object for equal queries, and the shared table
forgets a plan once no engine holds it.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.engine.engine as engine_mod
from repro.counting import coloring_batch, count_colorful_matches
from repro.engine import DEFAULT_REGISTRY, CountingEngine, EngineConfig
from repro.graph import Graph, erdos_renyi
from repro.graph.generators import chung_lu_power_law
from repro.graph.properties import largest_component_subgraph
from repro.motifs import all_tw2_motifs, motif_census
from repro.motifs.nullmodel import double_edge_swap
from repro.query import cycle_query, paper_queries, path_query, star_query
from repro.query.library import with_random_labels

MOTIFS5 = all_tw2_motifs(5)


@pytest.fixture
def dense_graph():
    """Max degree >= 12, so 10-node trees can overflow int64 tables."""
    g = erdos_renyi(20, 0.8, np.random.default_rng(3), name="dense20")
    assert g.max_degree() >= 12
    return g


@pytest.fixture
def shared_plans(monkeypatch):
    """An empty table of shared plans for the test."""
    table: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
    monkeypatch.setattr(engine_mod, "_SHARED_PLANS", table)
    return table


def method_of(g: Graph, query, **kwargs) -> str:
    return CountingEngine(g).count(query, trials=1, seed=0, **kwargs).method


class TestRouting:
    def test_auto_is_the_engine_default(self):
        assert EngineConfig().method == "auto"

    def test_tree_inside_the_bound_takes_the_sweep(self):
        g = erdos_renyi(30, 0.2, np.random.default_rng(1))
        assert method_of(g, path_query(5)) == "ps-vec"
        assert method_of(g, star_query(4)) == "ps-vec"

    def test_dense_tree_takes_the_sweep(self, dense_graph):
        # 10-node paths where table entries could reach Δ^9 > 2^31; the
        # guards decide at run time (tests/test_sweep_bounds.py trips them)
        engine = CountingEngine(dense_graph)
        auto = engine.count(path_query(10), trials=4, seed=0)
        assert auto.method == "ps-vec"
        assert any(auto.colorful_counts)
        db = engine.count(path_query(10), trials=4, seed=0, method="db")
        assert auto.colorful_counts == db.colorful_counts

    def test_wide_palette_and_labeled_trees_take_the_sweep(self, dense_graph):
        q = path_query(10)
        assert method_of(dense_graph, q, num_colors=q.k + 1) == "ps-vec"
        labeled = dense_graph.with_labels(np.arange(dense_graph.n) % 2)
        assert method_of(labeled, with_random_labels(q, 2, seed=0)) == "ps-vec"

    def test_small_cyclic_query_takes_the_sweep(self):
        g = erdos_renyi(20, 0.3, np.random.default_rng(2))
        assert method_of(g, cycle_query(4)) == "ps-vec"

    def test_load_tracking_takes_db(self, dense_graph):
        for q in (cycle_query(4), path_query(4), path_query(10)):
            backend = DEFAULT_REGISTRY.resolve(
                "auto", q, need_load_tracking=True, graph=dense_graph
            )
            assert backend.name == "db", q.name
        engine = CountingEngine(dense_graph)
        ctx = engine.make_context(2)
        colors = np.zeros(dense_graph.n, dtype=np.int64)
        engine.count_colorful(cycle_query(4), colors, ctx=ctx)
        assert ctx.stats.total_ops() > 0


class TestAutoCountsExactly:
    """auto == db == brute force on every library query and 5-node motif."""

    @pytest.mark.parametrize(
        "query",
        list(paper_queries().values()) + MOTIFS5,
        ids=[*paper_queries(), *(q.name for q in MOTIFS5)],
    )
    def test_auto_equals_db_and_bruteforce(self, query):
        g = erdos_renyi(14, 0.35, np.random.default_rng(query.k), name="er14")
        engine = CountingEngine(g)
        auto = engine.count(query, trials=2, seed=5)
        db = engine.count(query, trials=2, seed=5, method="db")
        oracle = [
            count_colorful_matches(g, query, colors)
            for colors in coloring_batch(g.n, query.k, 2, seed=5)
        ]
        assert auto.method != "db"
        assert auto.colorful_counts == db.colorful_counts == oracle


def flat_graphs():
    """A flat power-law graph and its double-edge-swap null model."""
    rng = np.random.default_rng(11)
    g = largest_component_subgraph(
        chung_lu_power_law(150, alpha=1.9, rng=rng, name="flat", avg_degree_target=5.0)
    )
    return [g, double_edge_swap(g, np.random.default_rng(12))]


class TestCensusDefault:
    @pytest.mark.parametrize("which", [0, 1], ids=["flat", "flat-null"])
    def test_default_census_equals_db_census(self, which):
        g = flat_graphs()[which]
        default = motif_census(g, motifs=MOTIFS5, trials=2, seed=3)
        db = motif_census(g, motifs=MOTIFS5, trials=2, seed=3, method="db")
        assert [(e.match_estimate, e.relative_std) for e in default] == [
            (e.match_estimate, e.relative_std) for e in db
        ]
        # the census's per-motif requests, colorful counts included
        engine = CountingEngine(g)
        for i, q in enumerate(MOTIFS5):
            auto = engine.count(q, trials=2, seed=3 + 7 * i)
            ref = engine.count(q, trials=2, seed=3 + 7 * i, method="db")
            assert auto.method != "db"
            assert auto.colorful_counts == ref.colorful_counts, q.name


class TestSharedPlans:
    def test_engines_on_different_graphs_share_one_plan(self, shared_plans):
        rng = np.random.default_rng(4)
        a = CountingEngine(erdos_renyi(12, 0.3, rng))
        b = CountingEngine(erdos_renyi(15, 0.3, rng))
        plan = a.plan_for(cycle_query(5, name="c5"))
        assert b.plan_for(cycle_query(5, name="other")) is plan
        # each engine still counts its own cache misses
        assert a.stats.plan_builds == b.stats.plan_builds == 1
        assert len(shared_plans) == 1
        del a, b, plan
        gc.collect()
        assert len(shared_plans) == 0

    def test_planner_runs_again_once_no_engine_holds_the_plan(
        self, shared_plans, monkeypatch
    ):
        calls = []
        original = engine_mod.heuristic_plan
        monkeypatch.setattr(
            engine_mod, "heuristic_plan", lambda q: calls.append(q) or original(q)
        )
        g = erdos_renyi(12, 0.3, np.random.default_rng(5))
        first = CountingEngine(g)
        first.plan_for(cycle_query(4))
        CountingEngine(g).plan_for(cycle_query(4))
        assert len(calls) == 1
        del first
        gc.collect()
        CountingEngine(g).plan_for(cycle_query(4))
        assert len(calls) == 2
