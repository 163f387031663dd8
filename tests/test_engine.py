"""Tests for the unified counting engine (repro.engine)."""

import weakref

import numpy as np
import pytest

import repro.decomposition.planner as planner_mod
from repro.counting import coloring_batch, count_colorful_matches, count_matches
from repro.counting.estimator import EstimateResult, normalization_factor
from repro.engine import (
    AUTO,
    BackendRegistry,
    CountingEngine,
    CountRequest,
    EngineConfig,
    RunResult,
    available_backends,
    get_backend,
)
from repro.engine.backends import SolverBackend
from repro.graph import erdos_renyi
from repro.query import cycle_query, paper_queries, paper_query, path_query, star_query


@pytest.fixture
def graph(rng):
    return erdos_renyi(20, 0.3, rng, name="er20")


@pytest.fixture
def planner_calls(monkeypatch):
    """Counter of actual planner invocations (heuristic_plan calls),
    starting from an empty table of plans shared across engines."""
    calls = []
    original = planner_mod.heuristic_plan

    def counting_heuristic_plan(query, limit=20000):
        calls.append(query.name)
        return original(query, limit=limit)

    # the engine resolves the planner through its own module reference
    import repro.engine.engine as engine_mod

    monkeypatch.setattr(engine_mod, "heuristic_plan", counting_heuristic_plan)
    monkeypatch.setattr(engine_mod, "_SHARED_PLANS", weakref.WeakValueDictionary())
    return calls


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        names = available_backends()
        for expected in ("ps", "db", "ps-even", "bruteforce"):
            assert expected in names

    def test_unknown_method_raises(self, graph):
        colors = np.zeros(graph.n, dtype=np.int64)
        with pytest.raises(ValueError, match="unknown method"):
            CountingEngine(graph).count_colorful(cycle_query(3), colors, method="qq")

    def test_duplicate_registration_rejected(self):
        reg = BackendRegistry()
        reg.register(SolverBackend("db"))
        with pytest.raises(ValueError, match="already registered"):
            reg.register(SolverBackend("db"))

    def test_auto_picks_vec_for_trees(self, rng):
        # trees stay on the sweep, also where 10-node paths could overflow
        # int64 tables (max degree >= 12)
        dense = erdos_renyi(20, 0.8, rng, name="dense20")
        assert dense.max_degree() >= 12
        engine = CountingEngine(dense)
        assert engine.count(path_query(10), trials=1, seed=0, method=AUTO).method == "ps-vec"
        tree = star_query(3, name="star3")
        cyc = paper_query("glet1")
        assert engine.count(tree, trials=1, seed=0, method=AUTO).method == "ps-vec"
        assert engine.count(cyc, trials=1, seed=0, method=AUTO).method == "ps-vec"

    def test_auto_picks_vec_for_wide_palette(self, graph):
        engine = CountingEngine(graph)
        tree = path_query(4, name="p4")
        r = engine.count(tree, trials=1, seed=0, method=AUTO, num_colors=tree.k + 2)
        assert r.method == "ps-vec"


class TestBackendParity:
    """All registered backends agree with exact counts on small graphs."""

    def test_cyclic_query_parity(self, graph, rng):
        q = paper_query("glet2")
        colors = rng.integers(0, q.k, size=graph.n)
        expected = count_colorful_matches(graph, q, colors)
        engine = CountingEngine(graph)
        for name in available_backends():
            backend = get_backend(name)
            if not backend.supports(q):
                continue
            assert engine.count_colorful(q, colors, method=name) == expected, name

    def test_tree_query_parity_all_backends(self, graph, rng):
        q = star_query(3, name="star3")
        colors = rng.integers(0, q.k, size=graph.n)
        expected = count_colorful_matches(graph, q, colors)
        engine = CountingEngine(graph)
        for name in available_backends():
            backend = get_backend(name)
            if not backend.supports(q):
                continue
            assert engine.count_colorful(q, colors, method=name) == expected, name

    def test_estimates_agree_with_count_exact(self, rng):
        # with the full palette of a dense tiny graph, averaging many
        # trials lands near the exact count for every backend
        g = erdos_renyi(10, 0.6, rng, name="dense10")
        q = cycle_query(3)
        exact = count_matches(g, q)
        engine = CountingEngine(g)
        for name in ("ps", "db", "ps-even", "bruteforce"):
            est = engine.count(q, trials=60, seed=4, method=name).estimate
            assert est == pytest.approx(exact, rel=0.5), name


class TestPlanCache:
    def test_plan_built_once_across_calls(self, graph, planner_calls):
        engine = CountingEngine(graph)
        q = paper_query("glet1")
        engine.count(q, trials=2, seed=0)
        engine.count(q, trials=3, seed=1)
        engine.count_colorful(q, np.zeros(graph.n, dtype=np.int64))
        assert planner_calls == ["glet1"]
        assert engine.stats.plan_builds == 1
        assert engine.stats.plan_cache_hits == 2

    def test_equal_structure_shares_plan(self, graph):
        engine = CountingEngine(graph)
        engine.count(cycle_query(4, name="a"), trials=1, seed=0)
        engine.count(cycle_query(4, name="b"), trials=1, seed=0)  # same structure
        assert engine.stats.plan_builds == 1

    def test_explicit_plan_bypasses_cache(self, graph, planner_calls):
        engine = CountingEngine(graph)
        q = paper_query("glet1")
        plan = engine.plan_for(q)
        engine.count_colorful(q, np.zeros(graph.n, dtype=np.int64), plan=plan)
        assert engine.stats.plan_builds == 1  # only the plan_for call
        assert engine.stats.plan_cache_hits == 0

    def test_clear_caches(self, graph):
        engine = CountingEngine(graph)
        q = paper_query("glet1")
        engine.count(q, trials=1, seed=0)
        engine.clear_caches()
        engine.count(q, trials=1, seed=0)
        assert engine.stats.plan_builds == 2

    def test_partition_cache(self, graph):
        engine = CountingEngine(graph)
        q = paper_query("glet1")
        colors = np.zeros(graph.n, dtype=np.int64)
        engine.count_colorful(q, colors, ctx=engine.make_context(4))
        engine.count_colorful(q, colors, ctx=engine.make_context(4))
        assert engine.stats.partition_builds == 1
        assert engine.stats.partition_cache_hits == 1


class TestCountMany:
    def test_fig8_library_bit_identical_to_legacy_loop(self, planner_calls):
        """Acceptance: count_many over the Figure 8 query library matches
        a per-coloring replay bit for bit, planning each query once."""
        rng = np.random.default_rng(99)
        g = erdos_renyi(24, 0.25, rng, name="fig8-host")
        queries = list(paper_queries().values())

        engine = CountingEngine(g)
        batch = engine.count_many(queries, trials=3, seed=7)

        assert planner_calls == [q.name for q in queries]  # exactly once each
        assert engine.stats.plan_builds == len(queries)

        for q, run in zip(queries, batch):
            replay = [
                engine.count_colorful(q, colors, method="db")
                for colors in coloring_batch(g.n, q.k, 3, seed=7)
            ]
            assert run.colorful_counts == replay, q.name
            assert run.scale == normalization_factor(q.k), q.name

    def test_requests_with_per_query_seeds(self, graph):
        engine = CountingEngine(graph)
        reqs = [
            CountRequest(query=cycle_query(3, name="c3"), trials=2, seed=11),
            CountRequest(query=cycle_query(4, name="c4"), trials=4, seed=12),
        ]
        r3, r4 = engine.count_many(reqs)
        assert (r3.trials, r3.seed) == (2, 11)
        assert (r4.trials, r4.seed) == (4, 12)

    def test_overrides_win(self, graph):
        engine = CountingEngine(graph, trials=9)
        (r,) = engine.count_many([cycle_query(3)], trials=2)
        assert r.trials == 2


class TestWorkersAndContexts:
    def test_workers_bit_identical(self, graph):
        """Whole trials on the pool equal the sequential run, and are
        timed one by one, for dict, vectorized and plan-free kernels."""
        with CountingEngine(graph) as engine:
            for method, q in (
                ("db", paper_query("glet1")),
                ("ps-vec", paper_query("glet1")),
                ("bruteforce", path_query(4)),
            ):
                seq = engine.count(q, trials=4, seed=3, method=method)
                par = engine.count(q, trials=4, seed=3, method=method, workers=2)
                assert par.colorful_counts == seq.colorful_counts, method
                assert par.estimate == seq.estimate, method
                assert par.workers == 2 and len(par.trial_times) == par.trials_used == 4
                assert seq.workers == 1 and len(seq.trial_times) == 4

    def test_parallel_fixed_run_reports_every_trial(self, graph):
        snapshots = []
        r = CountingEngine(graph).count(
            paper_query("glet1"), trials=4, seed=3, workers=2,
            on_progress=snapshots.append,
        )
        assert r.workers == 2
        assert [s["trials_done"] for s in snapshots] == [1, 2, 3, 4]

    def test_removed_knobs_raise(self, graph):
        """Simulated ranks and explicit plans live on count_colorful only."""
        engine = CountingEngine(graph)
        q = paper_query("glet1")
        with pytest.raises(TypeError):
            CountingEngine(graph, nranks=2)
        with pytest.raises(TypeError):
            engine.count(q, trials=1, plan=engine.plan_for(q))
        with pytest.raises(TypeError):
            engine.count(q, trials=1, ctx=engine.make_context(2))

    def test_zero_trials_rejected(self, graph):
        with pytest.raises(ValueError, match="at least one trial"):
            CountingEngine(graph).count(cycle_query(3), trials=0)

    def test_num_colors_below_k_rejected(self, graph):
        with pytest.raises(ValueError, match="colors"):
            CountingEngine(graph).count(cycle_query(4), trials=1, num_colors=2)


class TestRunResult:
    def test_is_estimate_result(self, graph):
        r = CountingEngine(graph).count(cycle_query(3), trials=2, seed=0)
        assert isinstance(r, RunResult)
        assert isinstance(r, EstimateResult)
        assert r.method == "ps-vec"  # what the default "auto" resolves to
        assert r.plan is not None
        assert r.wall_clock > 0
        assert "method=ps-vec" in r.summary()

    def test_config_and_request_immutable(self):
        cfg = EngineConfig()
        with pytest.raises(AttributeError):
            cfg.trials = 3
        req = CountRequest(query=cycle_query(3))
        with pytest.raises(AttributeError):
            req.trials = 3

    def test_request_resolution_inherits_config(self):
        cfg = EngineConfig(trials=7, seed=5, method="ps")
        req = CountRequest(query=cycle_query(3), seed=1).resolved(cfg)
        assert (req.trials, req.seed, req.method) == (7, 1, "ps")
