"""Tests for the simulated distributed engine and scaling metrics."""

import pytest

from repro.counting import count_colorful_matches
from repro.counting.colorings import uniform_coloring
from repro.distributed import (
    ExecutionContext,
    LoadStats,
    compare_methods,
    improvement_factor,
    make_partition,
    run_distributed,
    strong_scaling,
)
from repro.graph.degree import zipf_degree_sequence
from repro.graph.generators import chung_lu
from repro.graph.properties import largest_component_subgraph
from repro.query import cycle_query, paper_query


@pytest.fixture
def skewed_graph(rng):
    seq = zipf_degree_sequence(300, 2.0, 5.0, max_degree=60, rng=rng)
    return largest_component_subgraph(chung_lu(seq, rng, name="skewed"))


class TestLoadStats:
    def test_stage_reuse_by_name(self):
        stats = LoadStats(2)
        a = stats.new_stage("s1")
        b = stats.new_stage("s1")
        assert a is b
        assert len(stats.stages) == 1

    def test_makespan_is_sum_of_stage_maxima(self):
        stats = LoadStats(2)
        s1 = stats.new_stage("a")
        s1.ops[:] = [10, 2]
        s2 = stats.new_stage("b")
        s2.ops[:] = [1, 5]
        assert stats.makespan(kappa=0.0) == 15.0

    def test_serial_time_counts_everything(self):
        stats = LoadStats(4)
        s = stats.new_stage("x")
        s.ops[:] = [1, 2, 3, 4]
        assert stats.serial_time() == 10.0

    def test_imbalance(self):
        stats = LoadStats(2)
        s = stats.new_stage("x")
        s.ops[:] = [30, 10]
        assert stats.imbalance() == pytest.approx(30 / 20)


class TestExecutionContext:
    def test_op_attribution(self):
        ctx = ExecutionContext(make_partition(10, 2))
        ctx.begin_stage("s")
        ctx.op(0, 5)   # owner rank 0
        ctx.op(9, 3)   # owner rank 1
        assert ctx.stats.per_rank_ops()[0] == 5
        assert ctx.stats.per_rank_ops()[1] == 3

    def test_emit_counts_only_cross_owner(self):
        ctx = ExecutionContext(make_partition(10, 2))
        ctx.begin_stage("s")
        ctx.emit(0, 1)  # same owner: no message
        ctx.emit(0, 9)  # cross: message
        assert ctx.stats.total_msgs() == 1

    def test_untracked_context_is_silent(self):
        ctx = ExecutionContext(make_partition(10, 2), track=False)
        ctx.begin_stage("s")
        ctx.op(0, 100)
        assert ctx.stats.total_ops() == 0


class TestDistributedRuns:
    def test_count_independent_of_ranks(self, rng, skewed_graph):
        q = paper_query("glet1")
        colors = uniform_coloring(skewed_graph.n, q.k, rng)
        expected = count_colorful_matches(skewed_graph, q, colors)
        for nranks in (1, 2, 4, 8):
            run = run_distributed(skewed_graph, q, colors, nranks)
            assert run.count == expected

    def test_count_independent_of_strategy(self, rng, skewed_graph):
        q = cycle_query(4)
        colors = uniform_coloring(skewed_graph.n, q.k, rng)
        counts = {
            run_distributed(skewed_graph, q, colors, 4, strategy=s).count
            for s in ("block", "cyclic", "hash")
        }
        assert len(counts) == 1

    def test_ps_db_comparison_consistent(self, rng, skewed_graph):
        q = cycle_query(4)
        colors = uniform_coloring(skewed_graph.n, q.k, rng)
        cmp = compare_methods(skewed_graph, q, colors, nranks=4)
        assert cmp.ps.count == cmp.db.count
        assert cmp.improvement_factor > 0

    def test_db_reduces_max_load_on_skewed_graph(self, rng, skewed_graph):
        """The paper's Figure 11 claim: DB lowers the maximum rank load."""
        q = cycle_query(5)
        colors = uniform_coloring(skewed_graph.n, q.k, rng)
        cmp = compare_methods(skewed_graph, q, colors, nranks=8)
        assert cmp.db.serial_time < cmp.ps.serial_time  # less total work
        assert cmp.load_reduction > 1.0                 # better max load

    def test_improvement_factor_helper(self, rng, skewed_graph):
        q = cycle_query(4)
        colors = uniform_coloring(skewed_graph.n, q.k, rng)
        if_val = improvement_factor(skewed_graph, q, colors, nranks=4)
        assert if_val > 0


class TestScalingCurves:
    def test_strong_scaling_monotone_speedup(self, rng, skewed_graph):
        q = cycle_query(4)
        colors = uniform_coloring(skewed_graph.n, q.k, rng)
        curve = strong_scaling(skewed_graph, q, colors, ranks=[1, 2, 4, 8])
        speedups = curve.speedups()
        assert speedups[0] == pytest.approx(1.0)
        # modeled makespan never increases when adding ranks
        assert all(b >= a * 0.95 for a, b in zip(speedups, speedups[1:]))

    def test_speedup_bounded_by_ranks(self, rng, skewed_graph):
        q = cycle_query(4)
        colors = uniform_coloring(skewed_graph.n, q.k, rng)
        run = run_distributed(skewed_graph, q, colors, 4, kappa=0.0)
        assert run.speedup <= 4.0 + 1e-9
