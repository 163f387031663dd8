"""End-to-end integration tests across subsystem boundaries.

Each test exercises a full user journey (the paths the examples and
benches take), asserting cross-module consistency rather than unit
behaviour.
"""

import numpy as np
import pytest

from repro import paper_query
from repro.bench import dataset
from repro.counting import count_colorful_matches, verify_counting
from repro.counting.colorings import coloring_batch, uniform_coloring
from repro.decomposition import build_decomposition, validate_plan
from repro.distributed import compare_methods, run_distributed, strong_scaling
from repro.engine import CountingEngine
from repro.graph import (
    chung_lu_power_law,
    erdos_renyi,
    induced_subgraph,
    largest_component_subgraph,
    write_edge_list,
    read_edge_list,
)
from repro.motifs import motif_census
from repro.query import random_tw2_query, satellite


class TestFullPipeline:
    def test_generate_plan_count_estimate(self, rng):
        """Generator -> planner -> counter -> estimator, with ground truth."""
        g = largest_component_subgraph(
            chung_lu_power_law(120, 1.8, rng, name="pipeline")
        )
        q = paper_query("glet2")
        engine = CountingEngine(g)
        validate_plan(engine.plan_for(q))
        exact = engine.count_exact(q)
        result = engine.count(q, trials=25, seed=9)
        if exact > 100:
            assert result.estimate == pytest.approx(exact, rel=0.5)

    def test_io_roundtrip_preserves_counts(self, tmp_path, rng):
        g = erdos_renyi(30, 0.2, rng, name="io")
        path = str(tmp_path / "g.txt")
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        q = paper_query("glet1")
        colors = uniform_coloring(g.n, q.k, rng)
        first = CountingEngine(g).count_colorful(q, colors)
        assert first == CountingEngine(g2).count_colorful(q, colors)

    def test_subgraph_counts_bounded_by_parent(self, rng):
        """Induced subgraph can only lose matches."""
        g = erdos_renyi(25, 0.3, rng)
        q = paper_query("glet1")
        colors = uniform_coloring(g.n, q.k, rng)
        full = CountingEngine(g).count_colorful(q, colors)
        sub, remap = induced_subgraph(g, range(15))
        sub_colors = colors[sorted(remap)]
        assert CountingEngine(sub).count_colorful(q, sub_colors) <= full


class TestDatasetJourney:
    def test_dataset_to_distributed_run(self):
        g = dataset("condmat")
        q = paper_query("youtube")
        rng = np.random.default_rng(0)
        colors = uniform_coloring(g.n, q.k, rng)
        cmp = compare_methods(g, q, colors, nranks=8)
        assert cmp.ps.count == cmp.db.count
        curve = strong_scaling(g, q, colors, ranks=[2, 4, 8])
        assert len(curve.makespans) == 3

    def test_dataset_verification(self):
        report = verify_counting(dataset("brain"), paper_query("glet1"), seed=7)
        assert report.ok, report.summary()


class TestEstimatorConsistency:
    def test_sequential_vs_parallel_vs_context(self, rng):
        g = erdos_renyi(25, 0.25, rng, name="est")
        q = paper_query("glet1")
        engine = CountingEngine(g)
        seq = engine.count(q, trials=3, seed=2)
        par = engine.count(q, trials=3, seed=2, workers=2)
        ctx = engine.make_context(nranks=4)
        tracked = [
            engine.count_colorful(q, colors, ctx=ctx)
            for colors in coloring_batch(g.n, q.k, 3, seed=2)
        ]
        assert seq.colorful_counts == par.colorful_counts == tracked
        assert ctx.stats.total_ops() > 0  # the context really accounted


class TestSatelliteEndToEnd:
    def test_figure_2_worked_example(self, rng):
        """The paper's Figure 2 query through the whole stack."""
        q = satellite()
        plan = build_decomposition(q)
        validate_plan(plan)
        g = erdos_renyi(12, 0.5, rng)
        colors = uniform_coloring(g.n, q.k, rng)
        expected = count_colorful_matches(g, q, colors)
        engine = CountingEngine(g)
        assert engine.count_colorful(q, colors, method="ps", plan=plan) == expected
        assert engine.count_colorful(q, colors, method="db", plan=plan) == expected
        run = run_distributed(g, q, colors, 4, plan=plan)
        assert run.count == expected


class TestMotifWorkflow:
    def test_census_on_dataset_sample(self, rng):
        g = dataset("roadnetca")
        sub, _ = induced_subgraph(g, range(100))
        census = motif_census(sub, k=3, trials=3, seed=4)
        assert len(census) == 2
        # a road grid has many paths, few triangles
        paths = next(e for e in census if e.motif.num_edges() == 2)
        tris = next(e for e in census if e.motif.num_edges() == 3)
        assert paths.match_estimate >= tris.match_estimate


class TestRandomQueryFuzz:
    def test_thirty_random_pipelines(self, rng):
        """Random tw2 queries through plan->validate->count->distribute."""
        for _ in range(8):
            q = random_tw2_query(rng, max_k=7)
            plan = build_decomposition(q)
            validate_plan(plan)
            g = erdos_renyi(10, 0.4, rng)
            colors = uniform_coloring(g.n, q.k, rng)
            expected = count_colorful_matches(g, q, colors)
            run = run_distributed(g, q, colors, 3, plan=plan)
            assert run.count == expected
