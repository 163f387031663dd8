"""Tests for the real sharded multiprocess executor (``ps-dist``)."""

import numpy as np
import pytest

from repro.bench import dataset
from repro.counting.colorings import coloring_batch, uniform_coloring
from repro.counting.vectorized import count_colorful_ps_vec
from repro.decomposition import heuristic_plan
from repro.distributed import ShardedExecutor, WallStats, run_distributed
from repro.engine import CountingEngine, DIST_AUTO_MIN_SIZE, get_backend
from repro.graph import Graph
from repro.query import cycle_query, paper_queries, paper_query


@pytest.fixture(scope="module")
def data_graph():
    return dataset("condmat")


@pytest.fixture(scope="module")
def executor(data_graph):
    with ShardedExecutor(data_graph, workers=2) as ex:
        yield ex


class TestShardedParity:
    def test_bit_identical_across_query_library(self, data_graph, executor):
        """ps-dist == ps-vec on every paper query (the core invariant)."""
        for name, q in paper_queries().items():
            plan = heuristic_plan(q)
            colors = uniform_coloring(data_graph.n, q.k, np.random.default_rng(q.k))
            ref = count_colorful_ps_vec(data_graph, q, colors, plan=plan)
            got = executor.count(plan, colors)
            assert got.count == ref, name

    def test_parity_across_shard_counts(self, data_graph):
        q = paper_query("wiki")
        plan = heuristic_plan(q)
        colors = uniform_coloring(data_graph.n, q.k, np.random.default_rng(3))
        ref = count_colorful_ps_vec(data_graph, q, colors, plan=plan)
        for workers in (1, 3, 4):
            with ShardedExecutor(data_graph, workers=workers) as ex:
                assert ex.count(plan, colors).count == ref, workers

    def test_more_ranks_than_vertices(self):
        g = Graph(3, [(0, 1), (1, 2)], name="tiny")
        q = paper_query("glet1")
        plan = heuristic_plan(q)
        colors = uniform_coloring(g.n, q.k, np.random.default_rng(0))
        ref = count_colorful_ps_vec(g, q, colors, plan=plan)
        with ShardedExecutor(g, workers=8) as ex:
            assert ex.count(plan, colors).count == ref

    def test_edgeless_graph(self):
        g = Graph(5, [], name="edgeless")
        q = paper_query("glet1")
        plan = heuristic_plan(q)
        colors = uniform_coloring(g.n, q.k, np.random.default_rng(1))
        ref = count_colorful_ps_vec(g, q, colors, plan=plan)
        with ShardedExecutor(g, workers=2) as ex:
            assert ex.count(plan, colors).count == ref

    def test_extended_palette(self, data_graph, executor):
        q = paper_query("youtube")
        plan = heuristic_plan(q)
        kc = q.k + 2
        colors = uniform_coloring(data_graph.n, kc, np.random.default_rng(4))
        ref = count_colorful_ps_vec(data_graph, q, colors, plan=plan, num_colors=kc)
        assert executor.count(plan, colors, num_colors=kc).count == ref

    def test_backend_rejects_foreign_executor(self, data_graph, executor):
        other = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="C4")
        q = paper_query("glet1")
        colors = uniform_coloring(other.n, q.k, np.random.default_rng(12))
        backend = get_backend("ps-dist")
        with pytest.raises(ValueError, match="different data graph"):
            backend.count_colorful(other, q, colors, executor=executor)
        with pytest.raises(ValueError, match="live executor"):
            backend.count_colorful(other, q, colors)


class TestExecutorLifecycle:
    def test_invalid_colors_raise_and_pool_survives(self, data_graph, executor):
        q = paper_query("glet1")
        plan = heuristic_plan(q)
        with pytest.raises(ValueError, match="colors must lie"):
            executor.count(plan, np.full(data_graph.n, 99))
        with pytest.raises(ValueError, match="every data vertex"):
            executor.count(plan, np.zeros(3, dtype=np.int64))
        colors = uniform_coloring(data_graph.n, q.k, np.random.default_rng(6))
        ref = count_colorful_ps_vec(data_graph, q, colors, plan=plan)
        assert executor.count(plan, colors).count == ref

    def test_palette_validation(self, data_graph, executor):
        q = paper_query("wiki")
        plan = heuristic_plan(q)
        colors = uniform_coloring(data_graph.n, q.k, np.random.default_rng(7))
        with pytest.raises(ValueError, match="at least k"):
            executor.count(plan, colors, num_colors=q.k - 1)
        with pytest.raises(ValueError, match="int64"):
            executor.count(plan, colors, num_colors=100)

    def test_closed_executor_rejects_counts(self, data_graph):
        q = paper_query("glet1")
        plan = heuristic_plan(q)
        colors = uniform_coloring(data_graph.n, q.k, np.random.default_rng(8))
        ex = ShardedExecutor(data_graph, workers=2)
        assert not ex.closed
        ex.close()
        assert ex.closed
        with pytest.raises(RuntimeError, match="closed"):
            ex.count(plan, colors)
        ex.close()  # idempotent

    def test_zero_workers_rejected(self, data_graph):
        with pytest.raises(ValueError, match="at least one worker"):
            ShardedExecutor(data_graph, workers=0)


class TestWholeTrials:
    """``run_trials``: each pooled worker counts whole colorings."""

    def test_counts_match_in_process_in_trial_order(self, data_graph, executor):
        q = paper_query("youtube")
        plan = heuristic_plan(q)
        colorings = coloring_batch(data_graph.n, q.k, 5, seed=11)
        got = executor.run_trials(get_backend("ps-vec"), q, plan, colorings)
        ref = [count_colorful_ps_vec(data_graph, q, c, plan=plan) for c in colorings]
        assert [count for count, _ in got] == ref
        assert all(seconds > 0 for _, seconds in got)

    def test_invalid_colors_raise_and_pool_survives(self, data_graph, executor):
        q = paper_query("glet1")
        plan = heuristic_plan(q)
        backend = get_backend("ps-vec")
        good = uniform_coloring(data_graph.n, q.k, np.random.default_rng(13))
        with pytest.raises(ValueError, match="colors must lie"):
            executor.run_trials(backend, q, plan, [good, np.full(data_graph.n, 99)])
        with pytest.raises(ValueError, match="every data vertex"):
            executor.run_trials(backend, q, plan, [np.zeros(3, dtype=np.int64)])
        # a trial that fails inside a worker is raised once the other
        # worker has answered, so the pipes stay in step
        with pytest.raises(ValueError, match="does not support"):
            executor.run_trials(backend, cycle_query(4), None, [good] * 3, num_colors=63)
        ref = count_colorful_ps_vec(data_graph, q, good, plan=plan)
        got = executor.run_trials(backend, q, plan, [good, good])
        assert [count for count, _ in got] == [ref, ref]

    def test_worker_crash_closes_pool_and_engine_recovers(self, data_graph):
        q = paper_query("glet1")
        with CountingEngine(data_graph, workers=2) as engine:
            ref = engine.count(q, trials=4, seed=0, method="ps-vec")
            crashed = engine.executor_for(2)
            crashed._procs[0].terminate()
            crashed._procs[0].join()
            with pytest.raises(RuntimeError, match="died"):
                engine.count(q, trials=4, seed=0, method="ps-vec")
            assert crashed.closed
            again = engine.count(q, trials=4, seed=0, method="ps-vec")
            assert engine.executor_for(2) is not crashed
            assert again.colorful_counts == ref.colorful_counts

    def test_engine_shares_one_pool_with_ps_dist(self, data_graph):
        q = paper_query("glet1")
        with CountingEngine(data_graph, workers=2) as engine:
            pool = engine.executor_for(2)
            for method in ("ps-dist", "db", "ps-vec"):
                engine.count(q, trials=4, seed=0, method=method)
            assert engine.executors() == [pool]
            assert pool.describe()["runs"] == 12  # 4 sharded + 8 whole trials


class TestMeasuredStats:
    def test_wall_stats_recorded(self, data_graph, executor):
        q = paper_query("wiki")
        plan = heuristic_plan(q)
        colors = uniform_coloring(data_graph.n, q.k, np.random.default_rng(9))
        _, stats = executor.count(plan, colors)
        assert stats.nranks == 2
        # one superstep per solved block (a singleton root is not solved)
        blocks = plan.blocks()
        solved = len(blocks) - (1 if blocks[-1].kind == "singleton" else 0)
        assert len(stats.stages) == solved
        assert stats.wall_seconds > 0
        assert stats.critical_seconds() > 0
        assert stats.total_cpu() >= 0
        assert stats.imbalance() >= 1.0
        assert stats.exchanged_rows() > 0  # leaf tables cross the boundary

    def test_wall_stats_arithmetic(self):
        stats = WallStats(2)
        s1 = stats.new_stage("a")
        s1.cpu[:] = [3.0, 1.0]
        s2 = stats.new_stage("b")
        s2.cpu[:] = [1.0, 2.0]
        s2.rows[:] = [5, 7]
        assert stats.critical_seconds() == 5.0
        assert stats.total_cpu() == 7.0
        assert stats.exchanged_rows() == 12
        assert stats.imbalance() == pytest.approx(4.0 / 3.5)
        base = WallStats(1)
        base.new_stage("a").cpu[:] = [10.0]
        assert stats.speedup_over(base) == pytest.approx(2.0)

    def test_run_sharded_predicted_and_measured(self, data_graph, executor):
        """One sharded coloring: the executor's measured WallStats beside
        the simulated PS LoadStats prediction.  The simulated side keeps
        the paper's block partition and ownership rule while shards are
        cut by edge share, so the two agree on counts, not on per-rank
        splits."""
        q = paper_query("youtube")
        plan = heuristic_plan(q)
        colors = uniform_coloring(data_graph.n, q.k, np.random.default_rng(10))
        count, measured = executor.count(plan, colors)
        predicted = run_distributed(data_graph, q, colors, 2, method="ps", plan=plan)
        assert count == predicted.count == count_colorful_ps_vec(data_graph, q, colors)
        assert measured.nranks == predicted.nranks == 2
        assert measured.critical_seconds() > 0 and measured.wall_seconds > 0
        assert measured.imbalance() >= 1.0
        assert predicted.makespan > 0
        assert predicted.imbalance >= 1.0


class TestEngineIntegration:
    def test_backend_registered(self):
        backend = get_backend("ps-dist")
        assert backend.needs_plan and not backend.tracks_load
        assert backend.distributed

    def test_engine_ps_dist_matches_ps_vec(self, data_graph):
        q = paper_query("wiki")
        with CountingEngine(data_graph, workers=2) as engine:
            dist = engine.count(q, trials=3, seed=2, method="ps-dist")
            vec = engine.count(q, trials=3, seed=2, method="ps-vec")
        assert dist.colorful_counts == vec.colorful_counts
        assert dist.estimate == vec.estimate
        assert dist.method == "ps-dist"
        assert dist.workers == 2  # shard ranks, reported as workers

    def test_engine_pools_executor_across_requests(self, data_graph):
        with CountingEngine(data_graph, workers=2) as engine:
            first = engine.executor_for(2)
            engine.count(paper_query("glet1"), trials=2, seed=0, method="ps-dist")
            assert engine.executor_for(2) is first
            assert not first.closed
        assert first.closed  # engine exit stops the pool

    def test_engine_replaces_dead_pool(self, data_graph):
        with CountingEngine(data_graph, workers=2) as engine:
            first = engine.executor_for(2)
            first.close()
            second = engine.executor_for(2)
            assert second is not first and not second.closed

    def test_worker_crash_closes_pool_and_engine_recovers(self, data_graph):
        q = paper_query("glet1")
        with CountingEngine(data_graph, workers=2) as engine:
            ref = engine.count(q, trials=1, seed=0, method="ps-dist")
            crashed = engine.executor_for(2)
            crashed._procs[0].terminate()
            crashed._procs[0].join()
            with pytest.raises(RuntimeError, match="died"):
                engine.count(q, trials=1, seed=0, method="ps-dist")
            assert crashed.closed  # send/recv failure shuts the pool down
            again = engine.count(q, trials=1, seed=0, method="ps-dist")
            assert engine.executor_for(2) is not crashed
            assert again.colorful_counts == ref.colorful_counts

    def test_ps_dist_rejects_load_tracking(self, data_graph):
        engine = CountingEngine(data_graph)
        colors = np.zeros(data_graph.n, dtype=np.int64)
        with pytest.raises(ValueError, match="simulated ranks"):
            engine.count_colorful(
                paper_query("glet1"), colors, method="ps-dist",
                ctx=engine.make_context(2),
            )

    @pytest.fixture(scope="class")
    def large_graph(self):
        from repro.graph.generators import grid_road_network

        return grid_road_network(40, 40, np.random.default_rng(5))

    def test_auto_escalates_to_ps_dist_on_huge_inputs(self, large_graph, monkeypatch):
        import repro.engine.backends as backends_mod

        monkeypatch.setattr(backends_mod, "DIST_AUTO_MIN_SIZE", 100)
        with CountingEngine(large_graph, workers=2) as engine:
            result = engine.count(cycle_query(4), trials=1, method="auto")
        assert result.method == "ps-dist"

    def test_auto_keeps_ps_vec_without_workers(self, large_graph, monkeypatch):
        import repro.engine.backends as backends_mod

        monkeypatch.setattr(backends_mod, "DIST_AUTO_MIN_SIZE", 100)
        result = CountingEngine(large_graph).count(cycle_query(4), trials=1, method="auto")
        assert result.method == "ps-vec"

    def test_auto_threshold_keeps_ps_vec_below_escalation_size(self, large_graph):
        # far below the ps-dist escalation size
        assert large_graph.n + large_graph.m < DIST_AUTO_MIN_SIZE
        result = CountingEngine(large_graph, workers=2).count(
            cycle_query(4), trials=1, method="auto"
        )
        assert result.method == "ps-vec"


class TestCLI:
    def test_count_ps_dist(self, capsys):
        from repro.cli import main

        assert main([
            "count", "--graph", "condmat", "--query", "glet1",
            "--method", "ps-dist", "--workers", "2", "--trials", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "method         : ps-dist" in out
        assert "workers=2" in out

    def test_partition_flag_is_gone(self, capsys):
        """Shards are cut at equal edge shares: no strategy to pick."""
        from repro.cli import main
        from repro.service.cli import main as serve_main

        for run, argv in (
            (main, ["count", "--graph", "condmat", "--query", "glet1",
                    "--method", "ps-dist", "--workers", "2", "--partition", "hash"]),
            (main, ["serve", "--partition", "hash"]),
            (serve_main, ["--partition", "hash"]),
        ):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2, argv
            assert "--partition" in capsys.readouterr().err
