"""Tests for coloring strategies and process-parallel trial fan-out."""

import numpy as np
import pytest

from repro.counting import (
    balanced_coloring,
    color_class_sizes,
    coloring_batch,
    uniform_coloring,
)
from repro.engine import CountingEngine
from repro.graph import erdos_renyi
from repro.query import cycle_query, paper_query


def replay(g, q, trials, seed):
    """Per-coloring reference: the engine's draws, counted one at a time."""
    engine = CountingEngine(g)
    return [engine.count_colorful(q, c) for c in coloring_batch(g.n, q.k, trials, seed)]


class TestColoringStrategies:
    def test_uniform_range(self, rng):
        c = uniform_coloring(500, 6, rng)
        assert c.min() >= 0 and c.max() < 6

    def test_balanced_class_sizes(self, rng):
        c = balanced_coloring(103, 5, rng)
        sizes = color_class_sizes(c, 5)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 103

    def test_balanced_exact_division(self, rng):
        c = balanced_coloring(100, 4, rng)
        assert (color_class_sizes(c, 4) == 25).all()

    def test_batch_deterministic(self):
        a = coloring_batch(50, 4, 3, seed=9)
        b = coloring_batch(50, 4, 3, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_batch_strategies_differ(self):
        u = coloring_batch(60, 3, 1, seed=1, strategy="uniform")[0]
        bal = coloring_batch(60, 3, 1, seed=1, strategy="balanced")[0]
        assert (color_class_sizes(bal, 3) == 20).all()
        assert not np.array_equal(u, bal)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            coloring_batch(10, 2, 1, seed=0, strategy="rainbow")

    def test_batch_matches_sequential_estimator(self, rng):
        """coloring_batch('uniform') reproduces the engine's draws."""
        g = erdos_renyi(20, 0.3, rng, name="g")
        q = cycle_query(4)
        seq = CountingEngine(g).count(q, trials=3, seed=5)
        assert replay(g, q, 3, seed=5) == seq.colorful_counts


class TestParallelEstimator:
    def test_matches_sequential(self, rng):
        g = erdos_renyi(18, 0.35, rng, name="g18")
        q = paper_query("glet1")
        par = CountingEngine(g).count(q, trials=4, seed=3, workers=2)
        assert par.colorful_counts == replay(g, q, 4, seed=3)

    def test_single_worker_fallback(self, rng):
        g = erdos_renyi(15, 0.35, rng)
        q = cycle_query(3)
        par = CountingEngine(g).count(q, trials=3, seed=1, workers=1)
        assert par.colorful_counts == replay(g, q, 3, seed=1)

    def test_balanced_strategy(self, rng):
        g = erdos_renyi(15, 0.4, rng)
        q = cycle_query(3)
        res = CountingEngine(g).count(
            q, trials=3, seed=2, workers=1, coloring_strategy="balanced"
        )
        assert len(res.colorful_counts) == 3

    def test_rejects_zero_trials(self, triangle_graph):
        with pytest.raises(ValueError):
            CountingEngine(triangle_graph).count(cycle_query(3), trials=0)
