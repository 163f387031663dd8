"""Tests for the num_colors > k variance-reduction extension."""


import numpy as np
import pytest

from repro.counting import count_colorful_matches, count_matches
from repro.counting.estimator import normalization_factor
from repro.counting.solver import solve_plan
from repro.decomposition import build_decomposition
from repro.engine import CountingEngine
from repro.graph import Graph, erdos_renyi
from repro.query import cycle_query, paper_query


class TestNormalizationFactor:
    def test_default_matches_paper(self):
        for k in range(2, 7):
            assert normalization_factor(k) == normalization_factor(k, k)

    def test_extended_values(self):
        # c=4, k=3: 4^3 / (4*3*2)
        assert normalization_factor(3, 4) == pytest.approx(64 / 24)
        # c=5, k=2: 25 / 20
        assert normalization_factor(2, 5) == pytest.approx(1.25)

    def test_monotone_in_colors(self):
        # more colors -> colorful more likely -> smaller scale factor
        factors = [normalization_factor(4, c) for c in range(4, 10)]
        assert factors == sorted(factors, reverse=True)

    def test_rejects_too_few_colors(self):
        with pytest.raises(ValueError):
            normalization_factor(4, 3)


class TestSolverWithExtraColors:
    def test_matches_bruteforce(self, rng):
        g = erdos_renyi(10, 0.45, rng)
        q = cycle_query(4)
        plan = build_decomposition(q)
        colors = rng.integers(0, 7, size=g.n)  # 7 colors, k=4
        expected = count_colorful_matches(g, q, colors)
        for method in ("ps", "db"):
            assert solve_plan(plan, g, colors, method=method, num_colors=7) == expected

    def test_rejects_insufficient_palette(self, triangle_graph):
        q = cycle_query(3)
        plan = build_decomposition(q)
        with pytest.raises(ValueError, match="colors"):
            solve_plan(plan, triangle_graph, np.array([0, 1, 2]), num_colors=2)

    def test_rejects_out_of_palette_color(self, triangle_graph):
        q = cycle_query(3)
        plan = build_decomposition(q)
        with pytest.raises(ValueError):
            solve_plan(plan, triangle_graph, np.array([0, 1, 5]), num_colors=4)


class TestExactUnbiasednessExtended:
    def test_expectation_identity_with_extra_colors(self):
        """Enumerate ALL c^n colorings with c > k: the corrected scale
        makes the estimator exactly unbiased."""
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        q = cycle_query(3)
        c = 4
        total = 0
        plan = build_decomposition(q)
        for code in range(c**3):
            colors = np.array([(code // c**i) % c for i in range(3)])
            total += solve_plan(plan, g, colors, num_colors=c)
        expectation = total / c**3
        estimate = normalization_factor(3, c) * expectation
        assert estimate == pytest.approx(count_matches(g, q), rel=1e-12)


class TestVarianceReduction:
    def test_more_colors_less_variance(self, rng):
        g = erdos_renyi(22, 0.3, rng, name="er22")
        q = paper_query("glet1")
        engine = CountingEngine(g)
        base = engine.count(q, trials=30, seed=4)
        wide = engine.count(q, trials=30, seed=4, num_colors=2 * q.k)
        # identical seeds, more colors: relative spread should shrink
        assert wide.relative_std < base.relative_std

    def test_estimates_agree(self, rng):
        g = erdos_renyi(22, 0.3, rng)
        q = cycle_query(3)
        exact = count_matches(g, q)
        wide = CountingEngine(g).count(q, trials=50, seed=5, num_colors=9)
        assert wide.estimate == pytest.approx(exact, rel=0.35)
