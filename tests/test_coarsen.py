"""Tests for LoadStats.coarsen — the one-run scaling-curve methodology."""

import numpy as np
import pytest

from repro.counting.colorings import uniform_coloring
from repro.distributed import LoadStats, run_distributed
from repro.graph import erdos_renyi
from repro.query import cycle_query


class TestCoarsenMechanics:
    def test_ops_summed_in_groups(self):
        stats = LoadStats(4)
        s = stats.new_stage("x")
        s.ops[:] = [1, 2, 3, 4]
        coarse = stats.coarsen(2)
        assert coarse.nranks == 2
        assert list(coarse.stages[0].ops) == [3, 7]

    def test_serial_time_preserved(self):
        stats = LoadStats(8)
        s = stats.new_stage("x")
        s.ops[:] = np.arange(8)
        assert stats.coarsen(4).serial_time() == stats.serial_time()

    def test_invalid_factor(self):
        stats = LoadStats(6)
        with pytest.raises(ValueError):
            stats.coarsen(4)

    def test_identity_factor(self):
        stats = LoadStats(4)
        s = stats.new_stage("x")
        s.ops[:] = [5, 1, 2, 2]
        coarse = stats.coarsen(1)
        assert list(coarse.stages[0].ops) == [5, 1, 2, 2]

    def test_makespan_monotone_under_coarsening(self):
        stats = LoadStats(8)
        s = stats.new_stage("x")
        s.ops[:] = np.arange(8)
        # fewer ranks cannot be faster
        assert stats.coarsen(2).makespan(0.0) >= stats.makespan(0.0)


class TestCoarsenMatchesDirectRuns:
    def test_block_partition_refinement(self, rng):
        """Coarsening an 8-rank block-partition run approximates the
        2-rank run: with n divisible by 8 the refinement is exact for
        operations (messages are kept conservatively)."""
        g = erdos_renyi(80, 0.12, rng, name="er80")  # n = 80, divisible by 8
        q = cycle_query(4)
        colors = uniform_coloring(g.n, q.k, rng)
        fine = run_distributed(g, q, colors, 8, method="db")
        direct = run_distributed(g, q, colors, 2, method="db")
        coarse = fine.stats.coarsen(4)
        assert coarse.makespan(0.0) == pytest.approx(
            direct.stats.makespan(0.0), rel=1e-9
        )
        assert coarse.serial_time() == pytest.approx(direct.stats.serial_time())
