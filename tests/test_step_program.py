"""The vectorized sweep's step programs and its packed-key aggregation.

Each block compiles once into a program of kernel steps in which equal
steps over equal inputs appear once, so paths share every equal prefix;
``VectorizedSolver`` interprets it.  Every block table must still equal
the dict ``ps`` solver's, row for row.  ``_group_sum`` packs its key
columns into one ``int64`` and sorts that; it must return what the
``lexsort`` it falls back to on wide keys returns.
"""

from __future__ import annotations

import pickle
from collections import Counter

import numpy as np
import pytest

import repro.counting.vectorized as vec
from repro.counting import coloring_batch
from repro.counting.solver import BlockSolver, solve_plan
from repro.counting.vectorized import (
    VecBinaryTable,
    VectorizedSolver,
    VecUnaryTable,
    _group_sum,
    solve_plan_vectorized,
)
from repro.decomposition.blocks import SINGLETON
from repro.decomposition.enumeration import enumerate_plans
from repro.decomposition.planner import heuristic_plan
from repro.distributed.runtime import sequential_context
from repro.graph import erdos_renyi
from repro.query.library import all_fixture_queries, cycle_query, paper_queries


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(24, 0.4, np.random.default_rng(8), name="er24")


@pytest.fixture(scope="module")
def oracle_tables(graph):
    """``(query, plan, coloring, dict ps rows per block)`` for up to 6
    enumerated plans per fixture query."""
    out = []
    for q in all_fixture_queries():
        colors = coloring_batch(graph.n, q.k, 1, seed=q.k)[0]
        for plan in enumerate_plans(q)[:6]:
            oracle = BlockSolver(graph, colors, sequential_context(graph), "ps", q.k)
            blocks = [b for b in plan.blocks() if b.kind != SINGLETON]
            out.append((q, plan, colors, [rows(oracle.solve(b)) for b in blocks]))
    return out


def rows(table):
    """``(boundary, rows)`` of a block table from either solver: the sweep's
    rows in the order it stores them, the dict table's sorted."""
    if isinstance(table, int):
        return table
    if isinstance(table, VecUnaryTable):
        cols = (table.u, table.sig, table.cnt)
    elif isinstance(table, VecBinaryTable):
        cols = (table.u, table.v, table.sig, table.cnt)
    else:
        return table.boundary, sorted((*key, cnt) for key, cnt in table.items())
    return table.boundary, list(zip(*(c.tolist() for c in cols)))


def spy_kernels(monkeypatch, names=("_init_from_graph", "_extend_with_graph")):
    """Count calls of the named ``VectorizedSolver`` kernels."""
    calls = Counter()
    for name in names:
        kernel = getattr(VectorizedSolver, name)

        def spy(self, *args, _name=name, _kernel=kernel, **kwargs):
            calls[_name] += 1
            return _kernel(self, *args, **kwargs)

        monkeypatch.setattr(VectorizedSolver, name, spy)
    return calls


class TestBlockTables:
    @pytest.mark.parametrize("mode", ["default", "chunked", "exact"])
    def test_every_block_of_every_plan_equals_dict_ps(
        self, graph, oracle_tables, mode, monkeypatch
    ):
        if mode == "chunked":
            monkeypatch.setattr(vec, "_CHUNK_ROWS", 7)
        checked = 0
        for q, plan, colors, tables in oracle_tables:
            sweep = VectorizedSolver(graph, colors, q.k, exact=mode == "exact")
            blocks = [b for b in plan.blocks() if b.kind != SINGLETON]
            for block, want in zip(blocks, tables):
                assert rows(sweep.solve(block)) == want, (q.name, block)
                checked += 1
        assert len(oracle_tables) > 60 and checked > 200


class TestSharedPrefixes:
    @pytest.mark.parametrize("name", ["glet1", "triangle"])
    def test_one_seed_and_one_extension_per_trial(self, graph, name, monkeypatch):
        """Unlabeled glet1's P+ and P- are one path; a triangle's P-
        extends P+'s seed."""
        q = paper_queries()["glet1"] if name == "glet1" else cycle_query(3)
        plan = heuristic_plan(q)
        colors = coloring_batch(graph.n, q.k, 1, seed=3)[0]
        want = solve_plan(plan, graph, colors, method="ps")
        calls = spy_kernels(monkeypatch)
        assert solve_plan_vectorized(plan, graph, colors) == want
        assert calls == {"_init_from_graph": 1, "_extend_with_graph": 1}

    def test_labeled_middle_nodes_keep_their_own_paths(self, graph, monkeypatch):
        """A 4-cycle splits into P+ and P- through its two middle nodes.
        Labeled differently, their paths share no step: the count is
        dict ps's, also after the unlabeled twin compiled the same
        (shared) blocks."""
        labeled = graph.with_labels(np.arange(graph.n) % 3)
        plan = heuristic_plan(cycle_query(4))
        a, b, c, d = plan.root.nodes
        twin = plan.with_query(plan.query.with_labels({a: 0, b: 1, c: 0, d: 2}))
        colors = coloring_batch(graph.n, 4, 1, seed=11)[0]
        assert solve_plan_vectorized(plan, labeled, colors) == solve_plan(
            plan, labeled, colors, method="ps"
        )
        want = solve_plan(twin, labeled, colors, method="ps")
        assert want > 0
        calls = spy_kernels(monkeypatch)
        assert solve_plan_vectorized(twin, labeled, colors) == want
        assert calls == {"_init_from_graph": 2, "_extend_with_graph": 2}
        assert set(plan.root.programs) == {frozenset(), frozenset(plan.root.nodes)}

    def test_programs_stay_off_the_wire(self, graph):
        """A plan ships to ps-dist workers pickled; its compiled programs
        do not travel with it."""
        q = paper_queries()["youtube"]
        plan = heuristic_plan(q)
        solve_plan_vectorized(plan, graph, coloring_batch(graph.n, q.k, 1, seed=1)[0])
        solvable = [b for b in plan.blocks() if b.kind != SINGLETON]
        assert all(b.programs for b in solvable)
        shipped = pickle.loads(pickle.dumps(plan))
        assert all(not b.programs for b in shipped.blocks())
        assert shipped.signature() == plan.signature()


def dict_group_sum(cols, cnt):
    """``_group_sum`` the slow way: a dict, then sorted keys."""
    acc = {}
    for key, c in zip(zip(*(col.tolist() for col in cols)), cnt.tolist()):
        acc[key] = acc.get(key, 0) + c
    keys = sorted(acc)
    return [list(col) for col in zip(*keys)], [acc[key] for key in keys]


class TestPackedKeys:
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_packed_and_lexsort_paths_agree(self, dtype, monkeypatch):
        rng = np.random.default_rng(0)
        n = 600
        # a narrow span far from zero: the column offset matters
        u = rng.integers(1000, 1004, n)
        v = rng.integers(0, 50, n)
        sig = (rng.integers(0, 4, n) << 20) | 3
        cnt = rng.integers(1, 100, n).astype(dtype)
        cols_p, cnt_p = _group_sum((u, v, sig), cnt)
        monkeypatch.setattr(vec, "_KEY_BITS", 0)
        cols_l, cnt_l = _group_sum((u, v, sig), cnt)
        for p, lex in zip(cols_p, cols_l):
            assert p.dtype == lex.dtype == np.int64
            assert np.array_equal(p, lex)
        assert cnt_p.dtype == cnt_l.dtype == np.dtype(dtype)
        assert cnt_p.tolist() == cnt_l.tolist()
        want_cols, want_cnt = dict_group_sum((u, v, sig), cnt)
        assert [c.tolist() for c in cols_p] == want_cols
        assert cnt_p.tolist() == want_cnt

    def test_wide_keys_fall_back_to_lexsort(self):
        """Spans past 63 bits together cannot pack; the fallback sorts
        them the same way."""
        rng = np.random.default_rng(1)
        n = 300
        u = rng.integers(0, 3, n) << 40
        sig = (rng.integers(0, 3, n) << 40) | 1
        cnt = rng.integers(1, 9, n)
        cols, total = _group_sum((u, sig), cnt)
        want_cols, want_cnt = dict_group_sum((u, sig), cnt)
        assert [c.tolist() for c in cols] == want_cols
        assert total.tolist() == want_cnt

    def test_single_key_and_constant_columns(self):
        u = np.array([7, 7, 7], dtype=np.int64)
        v = np.array([5, 2, 5], dtype=np.int64)
        cnt = np.array([1, 2, 3], dtype=np.int64)
        (gu, gv), gc = _group_sum((u, v), cnt)
        assert gu.tolist() == [7, 7] and gv.tolist() == [2, 5] and gc.tolist() == [2, 4]
