"""The vectorized sweep's two bounds, and its one shard model.

Every join gathers over ranges of input rows cut where the start vertex
changes, under a row budget (``vectorized._CHUNK_ROWS``), so memory stays
bounded however large the tables grow.  A trial whose ``int64`` guard
trips reruns with Python-int counts, so counts past ``int64`` are exact.
Both must leave every count equal to the dict ``ps`` kernels', on
``ps-vec`` and on the sharded ``ps-dist``.  A ``ps-dist`` shard is a
range of start vertices (``VectorizedSolver(start_range=...)``) cut at
equal shares of the edge endpoints; the range tables concatenate, in
range order, into the unsharded table.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.counting.vectorized as vec
import repro.distributed.executor as executor_mod
from repro.counting import coloring_batch
from repro.counting.solver import solve_plan
from repro.counting.vectorized import VectorizedSolver, VecUnaryTable, solve_plan_vectorized
from repro.decomposition.blocks import SINGLETON
from repro.decomposition.planner import heuristic_plan
from repro.distributed.executor import ShardedExecutor
from repro.engine import CountingEngine
from repro.graph import Graph, erdos_renyi
from repro.query.library import all_fixture_queries, paper_queries, path_query


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(24, 0.4, np.random.default_rng(8), name="er24")


@pytest.fixture(scope="module")
def fixture_cases(graph):
    """``(query, plan, coloring, dict ps count)`` per fixture query."""
    cases = []
    for q in all_fixture_queries():
        plan = heuristic_plan(q)
        colors = coloring_batch(graph.n, q.k, 1, seed=q.k)[0]
        cases.append((q, plan, colors, ps_count(graph, plan, colors)))
    return cases


@pytest.fixture(scope="module")
def dense70():
    """G(70, 0.6): a 10-node path's counts trip the int64 guards."""
    return erdos_renyi(70, 0.6, np.random.default_rng(0), name="er70")


def hubs_first(n=40, hubs=4):
    """``hubs`` vertices adjacent to all others, numbered first, plus a
    path through the rest."""
    edges = [(h, v) for h in range(hubs) for v in range(h + 1, n)]
    edges += [(v, v + 1) for v in range(hubs, n - 1)]
    return Graph(n, edges, name="hubs-first")


def shard_cuts(g, nranks):
    return executor_mod._shard_cuts(g.to_csr().indptr, nranks)


def ps_count(g, plan, colors, num_colors=None):
    return solve_plan(plan, g, colors, method="ps", num_colors=num_colors)


def track_exact(monkeypatch):
    """Record the ``exact`` flag of every solver and ps-dist sweep."""
    flags = []
    solver_init = VectorizedSolver.__init__
    sweep = ShardedExecutor._sweep_locked

    def init(self, *args, exact=False, **kwargs):
        flags.append(exact)
        solver_init(self, *args, exact=exact, **kwargs)

    def sweep_spy(self, plan, key, exact):
        flags.append(exact)
        return sweep(self, plan, key, exact)

    monkeypatch.setattr(VectorizedSolver, "__init__", init)
    monkeypatch.setattr(ShardedExecutor, "_sweep_locked", sweep_spy)
    return flags


class TestChunkedJoins:
    @pytest.mark.parametrize("budget", [1, 7])
    def test_fixture_queries_equal_ps(self, graph, fixture_cases, budget, monkeypatch):
        monkeypatch.setattr(vec, "_CHUNK_ROWS", budget)
        # workers fork after the patch, so their sweeps chunk the same way
        with ShardedExecutor(graph, 2) as executor:
            for q, plan, colors, want in fixture_cases:
                assert solve_plan_vectorized(plan, graph, colors) == want, q.name
                assert executor.count(plan, colors).count == want, q.name

    def test_no_gather_exceeds_the_budget(self, graph, fixture_cases, monkeypatch):
        """Each ``_expand`` call gathers one range of ``_row_ranges``, and
        a range overruns the budget only when one start vertex alone does."""
        budget = 7
        monkeypatch.setattr(vec, "_CHUNK_ROWS", budget)
        pending = []  # (rows, one start vertex?) per range, in call order
        gathers = []
        row_ranges, expand = vec._row_ranges, vec._expand

        def ranges_spy(u, ends):
            out = row_ranges(u, ends)
            totals = np.concatenate([[0], ends])
            pending.extend(
                (int(totals[r.stop] - totals[r.start]), len(np.unique(u[r])) == 1) for r in out
            )
            return out

        def expand_spy(starts, lens, ends):
            rows, single = pending.pop(0)
            assert int(lens.sum()) == rows
            assert rows <= budget or single
            gathers.append((rows, single))
            return expand(starts, lens, ends)

        monkeypatch.setattr(vec, "_row_ranges", ranges_spy)
        monkeypatch.setattr(vec, "_expand", expand_spy)
        for q, plan, colors, want in fixture_cases:
            assert solve_plan_vectorized(plan, graph, colors) == want, q.name
        assert not pending
        # the budget really cut joins, and the lone-vertex exception happened
        assert sum(1 for rows, single in gathers if 0 < rows <= budget and not single)
        assert any(rows > budget for rows, _ in gathers)

    def test_under_the_budget_one_range_covers_every_row(self):
        u = np.array([0, 0, 1, 2, 2], dtype=np.int64)
        lens = np.array([1, 2, 0, 3, 1], dtype=np.int64)
        assert vec._row_ranges(u, np.cumsum(lens)) == [slice(0, 5)]

    def test_ranges_cut_only_where_the_start_vertex_changes(self, monkeypatch):
        monkeypatch.setattr(vec, "_CHUNK_ROWS", 3)
        u = np.array([0, 0, 1, 2, 2, 2, 3], dtype=np.int64)
        lens = np.array([1, 2, 1, 2, 2, 2, 0], dtype=np.int64)
        # vertex 2 alone expands to 6 rows, past the budget: its own range
        assert vec._row_ranges(u, np.cumsum(lens)) == [
            slice(0, 2), slice(2, 3), slice(3, 6), slice(6, 7),
        ]


class TestExactCounts:
    def test_dense_path_past_int64(self, dense70, monkeypatch):
        q = path_query(10)
        plan = heuristic_plan(q)
        colors = coloring_batch(dense70.n, q.k, 1, 0)[0]
        # the int64 sweep refuses this input, so a count below is a rerun
        (leaf,) = plan.root.node_ann.values()
        with pytest.raises(OverflowError):
            VectorizedSolver(dense70, colors, q.k).solve(leaf).total()
        want = ps_count(dense70, plan, colors)
        assert want == 5_447_338_891_324
        flags = track_exact(monkeypatch)
        with CountingEngine(dense70, workers=2) as engine:
            for method in ("auto", "ps-vec", "ps-dist"):
                assert engine.count_colorful(q, colors, method=method) == want, method
        assert flags.count(True) == 3

    def test_library_reruns_under_low_guard_limits(self, graph, fixture_cases, monkeypatch):
        monkeypatch.setattr(vec, "_ENTRY_LIMIT", 2)
        monkeypatch.setattr(vec, "_SUM_LIMIT", 3.0)
        flags = track_exact(monkeypatch)
        library = set(paper_queries())
        with ShardedExecutor(graph, 2) as executor:
            for q, plan, colors, want in fixture_cases:
                if q.name not in library:
                    continue
                del flags[:]
                assert solve_plan_vectorized(plan, graph, colors) == want, q.name
                assert executor.count(plan, colors).count == want, q.name
                # ps-vec: an int64 solver, then the exact one; ps-dist likewise
                assert flags == [False, True, False, True], q.name


class TestStartRanges:
    """A solve over each shard's start range, concatenated in range
    order, is the unsharded solve: the same rows, in the same order,
    with the same counts."""

    @pytest.mark.parametrize("budget", [None, 7])
    def test_range_tables_concatenate_to_the_full_table(
        self, graph, fixture_cases, budget, monkeypatch
    ):
        if budget is not None:
            monkeypatch.setattr(vec, "_CHUNK_ROWS", budget)
        for nranks in (1, 2, 3, 30):
            cuts = shard_cuts(graph, nranks)
            ranges = [(int(lo), int(hi)) for lo, hi in zip(cuts[:-1], cuts[1:])]
            if nranks > graph.n:
                assert any(lo == hi for lo, hi in ranges)
            for q, plan, colors, _ in fixture_cases:
                full = VectorizedSolver(graph, colors, q.k)
                shards = [VectorizedSolver(graph, colors, q.k, start_range=r) for r in ranges]
                for block in plan.blocks():
                    if block.kind == SINGLETON:
                        continue
                    want = full.solve(block)
                    parts = []
                    for (lo, hi), shard in zip(ranges, shards):
                        part = shard.solve(block)
                        if not isinstance(part, int):
                            assert np.all((part.u >= lo) & (part.u < hi)), q.name
                        parts.append(part)
                        # the executor's exchange: parents join full tables
                        shard.inject(block, want)
                    if isinstance(want, int):
                        assert sum(parts) == want, q.name
                        continue
                    cols = ("u", "sig", "cnt") if isinstance(want, VecUnaryTable) else (
                        "u", "v", "sig", "cnt"
                    )
                    for col in cols:
                        got = np.concatenate([getattr(p, col) for p in parts])
                        assert np.array_equal(got, getattr(want, col)), (q.name, nranks, col)


class TestShardCuts:
    """``_shard_cuts``: one contiguous start range per shard, at equal
    shares of the CSR's edge endpoints."""

    @pytest.fixture(scope="class")
    def graphs(self, graph):
        return [
            graph,
            hubs_first(),
            Graph(0, []),
            Graph(5, [], name="edgeless"),
            Graph(6, [(0, 1), (1, 2)], name="isolated-tail"),
            erdos_renyi(50, 0.1, np.random.default_rng(3), name="er50"),
        ]

    def test_cuts_tile_the_vertices(self, graphs):
        for g in graphs:
            for nranks in (1, 2, 3, 7, 30):
                cuts = shard_cuts(g, nranks)
                assert len(cuts) == nranks + 1, g.name
                assert cuts[0] == 0 and cuts[-1] == g.n, g.name
                assert np.all(np.diff(cuts) >= 0), g.name

    def test_no_shard_exceeds_its_edge_share_by_more_than_one_degree(self, graphs):
        for g in graphs:
            indptr = g.to_csr().indptr
            max_degree = int(np.max(g.degrees)) if g.n else 0
            for nranks in (1, 2, 3, 7, 30):
                endpoints = np.diff(indptr[shard_cuts(g, nranks)])
                bound = -(-2 * g.m // nranks) + max_degree
                assert int(np.max(endpoints)) <= bound, (g.name, nranks)

    def test_hubs_first_get_fewer_vertices(self):
        g = hubs_first()
        for nranks in (2, 4):
            assert shard_cuts(g, nranks)[1] < g.n / nranks
