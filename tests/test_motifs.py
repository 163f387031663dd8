"""Tests for the motif-analysis layer (census, null model, significance)."""

import numpy as np
import pytest

from repro.counting import count_matches
from repro.graph import Graph, erdos_renyi, ring_of_cliques
from repro.motifs import (
    MotifSignificance,
    all_tw2_motifs,
    double_edge_swap,
    motif_census,
    motif_significance,
    null_ensemble,
    significance_profile,
)
from repro.query import are_isomorphic, cycle_query, path_query

# this module deliberately exercises the deprecated pre-engine shim API
pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: ``all_tw2_motifs(k)`` pinned, one edge list per motif in name order
#: (nodes are always ``range(k)``): census order and the motif-census
#: benchmark's count digest depend on it
RECORDED_MOTIFS = {
    2: [
        [(0, 1)],  # motif2-0
    ],
    3: [
        [(0, 1), (0, 2)],  # motif3-0
        [(0, 1), (0, 2), (1, 2)],  # motif3-1
    ],
    4: [
        [(0, 1), (0, 2), (0, 3)],  # motif4-0
        [(0, 1), (0, 2), (0, 3), (1, 2)],  # motif4-1
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],  # motif4-2
        [(0, 1), (0, 3), (1, 2)],  # motif4-3
        [(0, 2), (0, 3), (1, 2), (1, 3)],  # motif4-4
    ],
    5: [
        [(0, 1), (0, 2), (0, 3), (0, 4)],  # motif5-0
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)],  # motif5-1
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)],  # motif5-2
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],  # motif5-3
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)],  # motif5-4
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3)],  # motif5-5
        [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3)],  # motif5-6
        [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)],  # motif5-7
        [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3)],  # motif5-8
        [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)],  # motif5-9
        [(0, 1), (0, 3), (0, 4), (1, 2)],  # motif5-10
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)],  # motif5-11
        [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)],  # motif5-12
        [(0, 2), (0, 4), (1, 2), (1, 3)],  # motif5-13
        [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)],  # motif5-14
    ],
}


class TestMotifEnumeration:
    def test_k3_motifs(self):
        motifs = all_tw2_motifs(3)
        assert len(motifs) == 2  # P3 and triangle
        assert any(are_isomorphic(m, path_query(3)) for m in motifs)
        assert any(are_isomorphic(m, cycle_query(3)) for m in motifs)

    def test_k4_motifs_exclude_k4(self):
        motifs = all_tw2_motifs(4)
        # 6 connected graphs on 4 nodes; K4 has treewidth 3
        assert len(motifs) == 5
        k4 = Graph  # placeholder to silence linters
        from repro.query import QueryGraph

        k4q = QueryGraph([(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert not any(are_isomorphic(m, k4q) for m in motifs)

    def test_k5_motif_count(self):
        # 21 connected graphs on 5 nodes; 15 have treewidth <= 2
        assert len(all_tw2_motifs(5)) == 15

    def test_all_connected_and_tw2(self):
        from repro.query import is_treewidth_at_most_2

        for k in (3, 4, 5):
            for m in all_tw2_motifs(k):
                assert m.is_connected()
                assert is_treewidth_at_most_2(m)

    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            all_tw2_motifs(6)

    def test_output_is_the_recorded_enumeration(self):
        """Names, order, edges and nodes of every motif for k = 2..5."""
        for k, edge_lists in RECORDED_MOTIFS.items():
            motifs = all_tw2_motifs(k)
            assert [m.name for m in motifs] == [f"motif{k}-{i}" for i in range(len(edge_lists))]
            assert [list(m.edges()) for m in motifs] == edge_lists, k
            assert all(list(m.nodes()) == list(range(k)) for m in motifs), k

    def test_pairwise_non_isomorphic(self):
        motifs = all_tw2_motifs(4)
        for i, a in enumerate(motifs):
            for b in motifs[i + 1 :]:
                assert not are_isomorphic(a, b)


class TestCensus:
    def test_census_entries(self, rng):
        g = erdos_renyi(25, 0.25, rng, name="er25")
        census = motif_census(g, k=3, trials=6, seed=1)
        assert len(census) == 2
        for entry in census:
            assert entry.subgraph_estimate >= 0

    def test_census_tracks_exact_counts(self, rng):
        g = erdos_renyi(20, 0.3, rng)
        census = motif_census(g, k=3, trials=40, seed=2)
        for entry in census:
            exact = count_matches(g, entry.motif)
            if exact > 50:  # only well-populated motifs concentrate
                assert entry.match_estimate == pytest.approx(exact, rel=0.5)

    def test_custom_motif_set(self, rng):
        g = erdos_renyi(15, 0.3, rng)
        census = motif_census(g, motifs=[cycle_query(4)], trials=3)
        assert len(census) == 1


class TestNullModel:
    def test_degrees_preserved(self, rng):
        g = erdos_renyi(40, 0.15, rng)
        nl = double_edge_swap(g, rng)
        assert sorted(nl.degrees) == sorted(g.degrees)
        assert nl.m == g.m

    def test_graph_actually_changes(self, rng):
        g = ring_of_cliques(5, 4)
        nl = double_edge_swap(g, rng)
        assert nl != g  # overwhelmingly likely after 4m swaps

    def test_tiny_graph_passthrough(self, rng):
        g = Graph(2, [(0, 1)])
        assert double_edge_swap(g, rng).m == 1

    def test_star_graceful(self, rng):
        # stars admit no valid swap; must terminate and keep degrees
        g = Graph(6, [(0, i) for i in range(1, 6)])
        nl = double_edge_swap(g, rng, nswaps=10)
        assert sorted(nl.degrees) == sorted(g.degrees)

    def test_ensemble_size(self, rng):
        g = erdos_renyi(20, 0.2, rng)
        assert len(null_ensemble(g, 4, rng)) == 4


class TestSignificance:
    def test_zscore_math(self):
        s = MotifSignificance("m", observed=120.0, null_mean=100.0, null_std=10.0)
        assert s.z_score == pytest.approx(2.0)
        assert s.abundance == pytest.approx(20 / 220)

    def test_zero_std_cases(self):
        assert MotifSignificance("m", 5.0, 5.0, 0.0).z_score == 0.0
        assert MotifSignificance("m", 9.0, 5.0, 0.0).z_score == float("inf")

    def test_profile_normalised(self):
        results = [
            MotifSignificance("a", 10, 5, 1),
            MotifSignificance("b", 3, 5, 1),
        ]
        profile = significance_profile(results)
        assert np.linalg.norm(profile) == pytest.approx(1.0)

    def test_triangle_enriched_in_clique_ring(self, rng):
        """Triangles in a ring of cliques are far above the degree-null."""
        g = ring_of_cliques(6, 4)
        results = motif_significance(
            g, [cycle_query(3)], null_samples=4, trials=6, seed=3
        )
        assert results[0].observed > results[0].null_mean
