"""Tests for the color-coding estimator (Section 2 / Figure 15)."""

import math

import numpy as np
import pytest

from repro.counting import (
    count_colorful_matches,
    count_matches,
    normalization_factor,
    uniform_coloring,
)
from repro.counting.estimator import EstimateResult
from repro.engine import CountingEngine
from repro.graph import Graph, erdos_renyi
from repro.query import cycle_query, paper_query


class TestNormalization:
    def test_factor_values(self):
        assert normalization_factor(1) == 1.0
        assert normalization_factor(2) == 2.0
        assert normalization_factor(3) == pytest.approx(27 / 6)
        assert normalization_factor(4) == pytest.approx(256 / 24)

    def test_factor_is_inverse_colorful_probability(self):
        # P[fixed k-set colorful] = k!/k^k
        for k in range(2, 7):
            assert normalization_factor(k) == pytest.approx(
                1.0 / (math.factorial(k) / k**k)
            )


class TestExactUnbiasedness:
    """On tiny inputs, enumerate ALL k^n colorings: the scaled expectation
    must equal the exact match count — the paper's Section 2 identity."""

    @pytest.mark.parametrize(
        "edges,qlen",
        [
            ([(0, 1), (1, 2), (0, 2)], 3),             # triangle in K3
            ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),     # C4 in C4 (k=4, 4^4=256)
            ([(0, 1), (1, 2), (2, 0), (2, 3)], 3),     # triangle in tailed K3
        ],
    )
    def test_expectation_identity(self, edges, qlen):
        n = max(max(e) for e in edges) + 1
        g = Graph(n, edges)
        q = cycle_query(qlen)
        k = q.k
        total_colorful = 0
        num_colorings = k**n
        for code in range(num_colorings):
            colors = np.array(
                [(code // k**i) % k for i in range(n)], dtype=np.int64
            )
            total_colorful += count_colorful_matches(g, q, colors)
        expectation = total_colorful / num_colorings
        estimate = normalization_factor(k) * expectation
        assert estimate == pytest.approx(count_matches(g, q), rel=1e-9)


class TestEstimator:
    def test_estimate_converges(self, rng):
        g = erdos_renyi(25, 0.3, rng, name="er25")
        q = cycle_query(4)
        exact = count_matches(g, q)
        result = CountingEngine(g).count(q, trials=60, seed=3)
        assert result.estimate == pytest.approx(exact, rel=0.35)

    def test_deterministic_given_seed(self, rng):
        g = erdos_renyi(15, 0.3, rng)
        q = paper_query("glet1")
        a = CountingEngine(g).count(q, trials=4, seed=11)
        b = CountingEngine(g).count(q, trials=4, seed=11)
        assert a.colorful_counts == b.colorful_counts

    def test_methods_agree_in_distribution(self, rng):
        g = erdos_renyi(15, 0.35, rng)
        q = paper_query("glet2")
        engine = CountingEngine(g)
        ps = engine.count(q, trials=5, seed=7, method="ps")
        db = engine.count(q, trials=5, seed=7, method="db")
        # identical seeds -> identical colorings -> identical counts
        assert ps.colorful_counts == db.colorful_counts

    def test_result_statistics(self):
        r = EstimateResult("q", "g", 4, [10, 20, 10, 20], scale=2.0)
        assert r.colorful_mean == 15.0
        assert r.estimate == 30.0
        assert r.colorful_variance == pytest.approx(np.var([10, 20, 10, 20], ddof=1))
        assert r.coefficient_of_variation == pytest.approx(r.colorful_variance / 15.0)
        assert r.relative_std == pytest.approx(math.sqrt(r.colorful_variance) / 15.0)

    def test_zero_counts_cov(self):
        r = EstimateResult("q", "g", 3, [0, 0, 0], scale=2.0)
        assert r.coefficient_of_variation == 0.0
        assert r.estimate == 0.0


class TestRandomColoring:
    def test_range(self, rng):
        c = uniform_coloring(1000, 7, rng)
        assert c.min() >= 0 and c.max() < 7

    def test_roughly_uniform(self, rng):
        c = uniform_coloring(7000, 7, rng)
        counts = np.bincount(c, minlength=7)
        assert abs(counts - 1000).max() < 200
