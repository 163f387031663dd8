"""Tests for the engine's single-coloring, estimate and context API."""

import pytest

from repro.counting import count_colorful_matches
from repro.engine import CountingEngine
from repro.graph import erdos_renyi
from repro.query import cycle_query, paper_query


class TestCountColorfulDispatch:
    def test_all_methods(self, rng):
        g = erdos_renyi(12, 0.4, rng)
        q = paper_query("glet2")
        colors = rng.integers(0, q.k, size=g.n)
        expected = count_colorful_matches(g, q, colors)
        engine = CountingEngine(g)
        for method in ("ps", "db", "ps-even"):
            assert engine.count_colorful(q, colors, method=method) == expected

    def test_unknown_method(self, triangle_graph):
        with pytest.raises(ValueError, match="unknown method"):
            CountingEngine(triangle_graph).count_colorful(
                cycle_query(3), [0, 1, 2], method="qq"
            )


class TestCountEstimate:
    def test_count_returns_result(self, rng):
        g = erdos_renyi(15, 0.3, rng, name="api")
        result = CountingEngine(g).count(paper_query("glet1"), trials=3, seed=1)
        assert result.trials == 3
        assert len(result.colorful_counts) == 3

    def test_count_exact_delegates(self, triangle_graph):
        assert CountingEngine(triangle_graph).count_exact(cycle_query(3)) == 6


class TestMakeContext:
    def test_rank_count(self, rng):
        g = erdos_renyi(20, 0.3, rng)
        ctx = CountingEngine(g).make_context(nranks=4)
        assert ctx.nranks == 4
        assert ctx.track

    def test_strategy_forwarded(self, rng):
        g = erdos_renyi(20, 0.3, rng)
        part = CountingEngine(g).partition_for(2, "cyclic")
        assert list(part.owners[:4]) == [0, 1, 0, 1]

    def test_context_used_by_engine(self, rng):
        g = erdos_renyi(20, 0.3, rng)
        q = cycle_query(3)
        engine = CountingEngine(g)
        ctx = engine.make_context(nranks=2)
        colors = rng.integers(0, 3, size=g.n)
        engine.count_colorful(q, colors, ctx=ctx)
        assert ctx.stats.total_ops() > 0
