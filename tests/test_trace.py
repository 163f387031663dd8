"""Tests for the superstep trace reporting."""

import pytest

from repro.counting.colorings import uniform_coloring
from repro.distributed import (
    LoadStats,
    format_trace,
    hotspots,
    rank_profile,
    run_distributed,
    stage_report,
)
from repro.graph import erdos_renyi
from repro.query import cycle_query


@pytest.fixture
def sample_stats():
    stats = LoadStats(4)
    s1 = stats.new_stage("init")
    s1.ops[:] = [100, 10, 10, 10]
    s1.msgs[:] = [5, 0, 0, 0]
    s2 = stats.new_stage("ext1")
    s2.ops[:] = [20, 20, 20, 20]
    return stats


class TestStageReport:
    def test_sorted_by_max_ops(self, sample_stats):
        report = stage_report(sample_stats)
        assert report[0].name == "init"
        assert report[0].max_ops == 100

    def test_imbalance_computed(self, sample_stats):
        report = stage_report(sample_stats)
        init = next(s for s in report if s.name == "init")
        assert init.imbalance == pytest.approx(100 / 32.5)
        ext = next(s for s in report if s.name == "ext1")
        assert ext.imbalance == pytest.approx(1.0)

    def test_hotspots_limit(self, sample_stats):
        assert len(hotspots(sample_stats, top=1)) == 1

    def test_rank_profile_totals(self, sample_stats):
        profile = rank_profile(sample_stats)
        assert list(profile) == [120, 30, 30, 30]


class TestFormatTrace:
    def test_renders(self, sample_stats):
        text = format_trace(sample_stats)
        assert "supersteps: 2" in text
        assert "rank   0" in text
        assert "#" in text

    def test_real_run_trace(self, rng):
        g = erdos_renyi(60, 0.15, rng, name="g60")
        q = cycle_query(4)
        colors = uniform_coloring(g.n, q.k, rng)
        run = run_distributed(g, q, colors, 4)
        text = format_trace(run.stats)
        assert "merge" in text  # cycle merge stage appears
        assert len(stage_report(run.stats)) >= 3
