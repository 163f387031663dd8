"""Parity and unit tests for the vectorized PS kernels (``ps-vec``).

The contract under test: ``ps-vec`` is **bit-identical** to the dict
kernel ``ps`` on the same plan and coloring — across the whole paper
query library, under enlarged palettes, and on random graph/query pairs.
"""

import numpy as np
import pytest

from repro.counting import count_colorful_ps, count_colorful_ps_vec, solve_plan
from repro.counting.vectorized import (
    MAX_COLORS_VEC,
    VecBinaryTable,
    _check_counts,
    _checked_total,
    _group_sum,
    _popcount,
    solve_plan_vectorized,
)
from repro.decomposition import choose_plan
from repro.engine import CountingEngine, get_backend
from repro.graph import Graph, erdos_renyi, grid_road_network
from repro.query import cycle_query, paper_queries, path_query, satellite, star_query


@pytest.fixture(scope="module")
def medium_graph():
    return erdos_renyi(40, 0.2, np.random.default_rng(7), name="parity")


# ----------------------------------------------------------------------
# parity with the reference ps kernel
# ----------------------------------------------------------------------

class TestLibraryParity:
    @pytest.mark.parametrize("name", sorted(paper_queries()))
    def test_full_query_library(self, name, medium_graph):
        q = paper_queries()[name]
        rng = np.random.default_rng(hash(name) % 2**32)
        colors = rng.integers(0, q.k, size=medium_graph.n)
        assert count_colorful_ps_vec(medium_graph, q, colors) == count_colorful_ps(
            medium_graph, q, colors
        )

    def test_satellite_fixture(self, medium_graph):
        q = satellite()
        colors = np.random.default_rng(3).integers(0, q.k, size=medium_graph.n)
        assert count_colorful_ps_vec(medium_graph, q, colors) == count_colorful_ps(
            medium_graph, q, colors
        )

    @pytest.mark.parametrize("make_q", [
        lambda: cycle_query(3),
        lambda: cycle_query(6),
        lambda: path_query(1),
        lambda: path_query(5),
        lambda: star_query(3),
    ])
    def test_basic_shapes(self, make_q, medium_graph):
        q = make_q()
        colors = np.random.default_rng(11).integers(0, max(q.k, 1), size=medium_graph.n)
        assert count_colorful_ps_vec(medium_graph, q, colors) == count_colorful_ps(
            medium_graph, q, colors
        )

    def test_enlarged_palette(self, medium_graph):
        q = paper_queries()["wiki"]
        for kc in (q.k + 1, q.k + 3):
            colors = np.random.default_rng(kc).integers(0, kc, size=medium_graph.n)
            via_solver = solve_plan(
                choose_plan(q), medium_graph, colors, method="ps", num_colors=kc
            )
            assert (
                count_colorful_ps_vec(medium_graph, q, colors, num_colors=kc)
                == via_solver
            )

    def test_solve_plan_rejects_ps_vec(self, medium_graph):
        """The sweep has its own entry (solve_plan_vectorized, the ps-vec
        backend); the dict solver does not dispatch to it by name."""
        q = paper_queries()["glet1"]
        colors = np.random.default_rng(0).integers(0, q.k, size=medium_graph.n)
        with pytest.raises(ValueError, match="method must be one of"):
            solve_plan(choose_plan(q), medium_graph, colors, method="ps-vec")

    def test_empty_and_tiny_graphs(self):
        q = cycle_query(4)
        for g in (Graph(0, []), Graph(1, []), Graph(6, [])):
            colors = np.zeros(g.n, dtype=np.int64)
            if g.n:
                colors = np.arange(g.n) % q.k
            assert count_colorful_ps_vec(g, q, colors) == count_colorful_ps(g, q, colors)

    def test_single_node_query_counts_vertices(self):
        g = erdos_renyi(9, 0.3, np.random.default_rng(1))
        q = path_query(1)
        assert count_colorful_ps_vec(g, q, np.zeros(g.n, dtype=np.int64)) == g.n


class TestValidation:
    def test_rejects_small_palette(self, medium_graph):
        q = cycle_query(4)
        colors = np.zeros(medium_graph.n, dtype=np.int64)
        with pytest.raises(ValueError, match="at least k"):
            count_colorful_ps_vec(medium_graph, q, colors, num_colors=3)

    def test_rejects_oversized_palette(self, medium_graph):
        q = cycle_query(4)
        colors = np.zeros(medium_graph.n, dtype=np.int64)
        with pytest.raises(ValueError, match="int64"):
            count_colorful_ps_vec(
                medium_graph, q, colors, num_colors=MAX_COLORS_VEC + 1
            )

    def test_rejects_wrong_coloring_length(self, medium_graph):
        with pytest.raises(ValueError, match="every data vertex"):
            count_colorful_ps_vec(medium_graph, cycle_query(3), [0, 1, 2])

    def test_rejects_out_of_range_colors(self, medium_graph):
        colors = np.full(medium_graph.n, 5)
        with pytest.raises(ValueError, match="colors must lie"):
            count_colorful_ps_vec(medium_graph, cycle_query(3), colors)


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------

class TestPrimitives:
    def test_group_sum_aggregates_and_sorts(self):
        u = np.array([2, 1, 2, 1], dtype=np.int64)
        s = np.array([3, 1, 3, 1], dtype=np.int64)
        c = np.array([10, 1, 5, 2], dtype=np.int64)
        (gu, gs), gc = _group_sum((u, s), c)
        assert gu.tolist() == [1, 2]
        assert gs.tolist() == [1, 3]
        assert gc.tolist() == [3, 15]

    def test_group_sum_empty(self):
        e = np.empty(0, dtype=np.int64)
        (gu,), gc = _group_sum((e,), e)
        assert gu.size == 0 and gc.size == 0

    def test_group_sum_refuses_wrapping_totals(self):
        big = np.array([2**61, 2**61, 2**61], dtype=np.int64)
        keys = np.zeros(3, dtype=np.int64)
        with pytest.raises(OverflowError, match="exceed int64"):
            _group_sum((keys,), big)

    def test_checked_total_refuses_wrapping_totals(self):
        assert _checked_total(np.array([3, 4], dtype=np.int64)) == 7
        with pytest.raises(OverflowError):
            _checked_total(np.array([2**61, 2**61, 2**61], dtype=np.int64))

    def test_check_counts_caps_product_inputs(self):
        _check_counts(np.array([2**30], dtype=np.int64))  # fine
        with pytest.raises(OverflowError):
            _check_counts(np.array([2**31], dtype=np.int64))

    @pytest.mark.parametrize("branch", ["bitwise_count", "swar"])
    def test_popcount_matches_python(self, branch, monkeypatch):
        if branch == "swar":
            # the NumPy < 2 fallback path: hide np.bitwise_count
            monkeypatch.delattr(np, "bitwise_count", raising=False)
        elif not hasattr(np, "bitwise_count"):
            pytest.skip("NumPy < 2 has no bitwise_count")
        vals = np.array([0, 1, 3, 0b1011, (1 << 62) - 1], dtype=np.int64)
        assert _popcount(vals).tolist() == [bin(int(v)).count("1") for v in vals]

    def test_transpose_swaps_and_sorts(self):
        t = VecBinaryTable(
            ("a", "b"),
            np.array([0, 5], dtype=np.int64),
            np.array([9, 2], dtype=np.int64),
            np.array([3, 3], dtype=np.int64),
            np.array([7, 4], dtype=np.int64),
        )
        tt = t.transpose()
        assert tt.boundary == ("b", "a")
        assert tt.u.tolist() == [2, 9]
        assert tt.v.tolist() == [5, 0]
        assert tt.cnt.tolist() == [4, 7]


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------

class TestEngineIntegration:
    def test_backend_registered(self):
        backend = get_backend("ps-vec")
        assert backend.needs_plan and not backend.tracks_load

    def test_auto_prefers_vec_on_large_cyclic(self):
        rng = np.random.default_rng(5)
        g = grid_road_network(40, 40, rng)
        result = CountingEngine(g).count(cycle_query(4), trials=1, method="auto")
        assert result.method == "ps-vec"

    def test_auto_picks_vec_on_small_cyclic(self):
        # no size threshold: the sweep wins at every input size
        g = erdos_renyi(20, 0.3, np.random.default_rng(2))
        result = CountingEngine(g).count(cycle_query(4), trials=1, method="auto")
        assert result.method == "ps-vec"

    def test_auto_picks_vec_on_trees_within_int64_bound(self):
        rng = np.random.default_rng(5)
        g = grid_road_network(40, 40, rng)
        result = CountingEngine(g).count(path_query(3), trials=1, method="auto")
        assert result.method == "ps-vec"

    def test_engine_counts_match_ps(self, medium_graph):
        engine = CountingEngine(medium_graph)
        q = paper_queries()["youtube"]
        a = engine.count(q, trials=3, seed=9, method="ps")
        b = engine.count(q, trials=3, seed=9, method="ps-vec")
        assert a.colorful_counts == b.colorful_counts

    def test_load_tracking_rejected(self, medium_graph):
        engine = CountingEngine(medium_graph)
        colors = np.zeros(medium_graph.n, dtype=np.int64)
        with pytest.raises(ValueError, match="cannot attribute load"):
            engine.count_colorful(
                cycle_query(4), colors, method="ps-vec", ctx=engine.make_context(4)
            )


# ----------------------------------------------------------------------
# property-based parity on random graphs/queries
# ----------------------------------------------------------------------

hyp = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def graph_query_coloring(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    g = Graph(n, edges)
    kind = draw(st.sampled_from(["cycle", "path", "star", "paper", "glued"]))
    if kind == "cycle":
        q = cycle_query(draw(st.integers(3, 6)))
    elif kind == "path":
        q = path_query(draw(st.integers(2, 5)))
    elif kind == "star":
        q = star_query(draw(st.integers(2, 4)))
    elif kind == "paper":
        q = paper_queries()[draw(st.sampled_from(["glet1", "glet2", "youtube", "wiki"]))]
    else:  # two cycles glued at a node
        l1, l2 = draw(st.integers(3, 4)), draw(st.integers(3, 4))
        edges_q = [(i, (i + 1) % l1) for i in range(l1)]
        ring2 = [0] + list(range(l1, l1 + l2 - 1))
        edges_q += [(ring2[i], ring2[(i + 1) % l2]) for i in range(l2)]
        from repro.query import QueryGraph

        q = QueryGraph(edges_q)
    extra = draw(st.integers(0, 2))
    kc = q.k + extra
    colors = np.array([draw(st.integers(0, kc - 1)) for _ in range(n)], dtype=np.int64)
    return g, q, colors, kc


class TestPropertyParity:
    @settings(max_examples=40, deadline=None)
    @given(inst=graph_query_coloring())
    def test_ps_vec_equals_ps(self, inst):
        g, q, colors, kc = inst
        plan = choose_plan(q)
        ref = solve_plan(plan, g, colors, method="ps", num_colors=kc)
        vec = solve_plan_vectorized(plan, g, colors, num_colors=kc)
        assert vec == ref
