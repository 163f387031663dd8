"""Service core: cache, registry, job queue, orchestration, concurrency.

The hammer test is the acceptance bar: N threads of mixed cached /
uncached, sync / async traffic must produce counts bit-identical to
direct engine calls, with exact cache accounting and no cross-request
state corruption.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.engine import CountingEngine, EngineConfig
from repro.graph.generators import erdos_renyi
from repro.graph.io import write_edge_list, write_json_graph
from repro.graph.graph import Graph
from repro.query.library import paper_query
from repro.service import (
    BadRequestError,
    CountingService,
    DatasetRegistry,
    Job,
    JobQueue,
    ResultCache,
    ServiceSaturated,
    UnknownDatasetError,
    UnknownJobError,
    UnknownQueryError,
)

from conftest import wait_until


def small_graph(n=50, p=0.12, seed=7, name="er50"):
    return erdos_renyi(n, p, np.random.default_rng(seed), name=name)


# ----------------------------------------------------------------------
# ResultCache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_miss_eviction_accounting(self):
        cache = ResultCache(capacity=2)
        hit, _ = cache.get("a")
        assert not hit
        cache.put("a", 1)
        cache.put("b", 2)
        hit, value = cache.get("a")  # refreshes 'a'
        assert hit and value == 1
        cache.put("c", 3)  # evicts 'b' (LRU)
        assert "b" not in cache and "a" in cache and "c" in cache
        snap = cache.snapshot()
        assert snap == {"capacity": 2, "size": 2, "hits": 1, "misses": 1, "evictions": 1}

    def test_put_refreshes_value_and_position(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no eviction
        cache.put("c", 3)  # evicts 'b'
        assert cache.get("a") == (True, 10)
        assert cache.get("b") == (False, None)

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") == (False, None)
        assert len(cache) == 0

    def test_thread_exact_counters(self):
        cache = ResultCache(capacity=64)
        cache.put("k", 42)
        threads = [
            threading.Thread(target=lambda: [cache.get("k") for _ in range(200)])
            for _ in range(8)
        ]
        [t.start() for t in threads]
        [t.join() for t in threads]
        assert cache.snapshot()["hits"] == 8 * 200


# ----------------------------------------------------------------------
# DatasetRegistry
# ----------------------------------------------------------------------
class TestDatasetRegistry:
    def test_builtin_and_custom(self):
        reg = DatasetRegistry()
        reg.load("condmat")
        reg.add("tiny", small_graph())
        assert reg.names() == ["condmat", "tiny"]
        assert reg.get("tiny").graph.n == 50
        desc = reg.describe()
        assert [d["name"] for d in desc] == ["condmat", "tiny"]
        assert desc[0]["source"] == "builtin"
        reg.close()

    def test_file_specs(self, tmp_path):
        g = small_graph(name="filegraph")
        edge_path = str(tmp_path / "g.edges")
        json_path = str(tmp_path / "g.json")
        write_edge_list(g, edge_path)
        write_json_graph(g, json_path)
        reg = DatasetRegistry()
        a = reg.load(f"alias={edge_path}")
        b = reg.load(json_path)
        assert a.name == "alias" and a.graph.n == g.n and a.graph.m == g.m
        assert b.name == "g.json" and b.graph.m == g.m
        assert sorted(a.graph.edges()) == sorted(g.edges())
        assert sorted(b.graph.edges()) == sorted(g.edges())
        reg.close()

    def test_unknown_dataset(self):
        reg = DatasetRegistry()
        with pytest.raises(UnknownDatasetError, match="nope"):
            reg.get("nope")

    @pytest.mark.parametrize(
        "config",
        [EngineConfig(method="ps-dist", workers=2), EngineConfig(workers=2)],
        ids=["ps-dist", "trial-pool"],
    )
    def test_warm_builds_dist_pool(self, config):
        reg = DatasetRegistry(config)
        reg.add("tiny", small_graph())
        reg.warm("tiny")
        engine = reg.get("tiny").engine
        assert len(engine._executor_cache) == 1
        reg.close()
        assert all(ex.closed for ex in engine._executor_cache.values())


# ----------------------------------------------------------------------
# JobQueue
# ----------------------------------------------------------------------
class TestJobQueue:
    def test_execute_success_and_failure(self):
        q = JobQueue(workers=1, depth=4)
        ok = q.submit(Job(lambda: 42, label="ok"))
        bad = q.submit(Job(lambda: 1 / 0, label="bad"))
        assert ok.wait(5.0) and bad.wait(5.0)
        assert ok.state == "done" and ok.result == 42 and ok.progress == 1.0
        assert bad.state == "failed" and "ZeroDivisionError" in bad.error
        stats = q.stats()
        assert stats["completed"] == 1 and stats["failed"] == 1
        q.close()

    def test_admission_control_saturates(self):
        release = threading.Event()
        q = JobQueue(workers=1, depth=1)
        blocker = q.submit(Job(release.wait, label="blocker"))
        assert wait_until(lambda: blocker.state == "running")  # worker picked it up
        queued = q.submit(Job(lambda: 1, label="queued"))
        with pytest.raises(ServiceSaturated):
            q.submit(Job(lambda: 2, label="shed"))
        assert q.stats()["rejected"] == 1
        release.set()
        assert blocker.wait(5.0) and queued.wait(5.0)
        q.close()

    def test_close_cancels_backlog_promptly(self):
        """A full backlog must not stall shutdown for backlog x duration."""
        release = threading.Event()
        q = JobQueue(workers=1, depth=4)
        blocker = q.submit(Job(release.wait, label="blocker"))
        assert wait_until(lambda: blocker.state == "running")
        backlog = [q.submit(Job(lambda: 1)) for _ in range(4)]
        t0 = time.monotonic()
        closer = threading.Thread(target=q.close)
        closer.start()
        # close() must cancel the backlog without waiting on the blocker
        for job in backlog:
            assert job.wait(5.0)
            assert job.state == "failed" and "cancelled" in job.error
        assert q.stats()["cancelled"] == 4
        release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert time.monotonic() - t0 < 10.0
        assert blocker.wait(5.0)

    def test_history_bound_and_unknown_job(self):
        # retention 0: the count bound applies immediately
        q = JobQueue(workers=1, depth=8, history=2, retention_seconds=0.0)
        jobs = [q.submit(Job(lambda i=i: i)) for i in range(3)]
        for j in jobs:
            assert j.wait(5.0)
        # history trim happens after event.set — poll until it lands
        def trimmed() -> bool:
            try:
                q.get(jobs[0].id)
                return False
            except UnknownJobError:
                return True
        assert wait_until(trimmed)
        with pytest.raises(UnknownJobError):
            q.get(jobs[0].id)
        assert q.get(jobs[2].id).result == 2
        q.close()
        q.close()  # idempotent

    def test_recent_jobs_survive_history_floods(self):
        """A just-finished job stays pollable despite the count bound."""
        q = JobQueue(workers=1, depth=8, history=2)  # default 30s retention
        jobs = [q.submit(Job(lambda i=i: i)) for i in range(5)]
        for j in jobs:
            assert j.wait(5.0)
        # post-completion bookkeeping settles asynchronously; the jobs
        # must then all stay pollable (younger than the retention window)
        assert wait_until(lambda: all(j.state == "done" for j in jobs))
        for j in jobs:
            assert q.get(j.id).result is not None
        q.close()


# ----------------------------------------------------------------------
# CountingService
# ----------------------------------------------------------------------
@pytest.fixture
def service():
    svc = CountingService(
        config=EngineConfig(trials=2, seed=0),
        workers=2, queue_depth=16, cache_size=64,
    )
    svc.registry.add("tiny", small_graph())
    yield svc
    svc.close()


class TestCountingService:
    def test_sync_parity_and_cache(self, service):
        q = paper_query("glet1")
        result, cached = service.count("tiny", "glet1", trials=3, seed=1)
        assert not cached
        with CountingEngine(service.registry.get("tiny").graph, service.config) as ref:
            direct = ref.count(q, trials=3, seed=1)
        assert result.colorful_counts == direct.colorful_counts
        assert result.estimate == direct.estimate
        again, cached = service.count("tiny", "glet1", trials=3, seed=1)
        assert cached and again is result  # the exact cached object
        snap = service.cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1

    def test_async_submit_poll(self, service):
        job = service.submit("tiny", "glet2", seed=4)
        assert job.wait(30.0) and job.state == "done"
        cached_job = service.submit("tiny", "glet2", seed=4)
        assert cached_job.state == "done"
        assert cached_job.result is job.result
        assert service.job(cached_job.id) is cached_job  # pollable like any job

    def test_custom_query_dict(self, service):
        result, _ = service.count("tiny", {"edges": [[0, 1], [1, 2], [2, 0]], "name": "tri"})
        g = service.registry.get("tiny").graph
        from repro.query.library import cycle_query
        with CountingEngine(g, service.config) as ref:
            direct = ref.count(cycle_query(3))
        assert result.colorful_counts == direct.colorful_counts

    def test_error_taxonomy(self, service):
        with pytest.raises(UnknownDatasetError):
            service.count("nope", "glet1")
        with pytest.raises(UnknownQueryError):
            service.count("tiny", "nope")
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", trials=0)
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", method="warp-drive")
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", num_colors=2)
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", frobnicate=1)
        with pytest.raises(BadRequestError):
            service.count("tiny", {"edges": []})
        # JSON value types: garbage rejected eagerly, spellings coerced
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", trials="abc")
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", trials=2.5)
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", trials=float("inf"))
        # untrusted knobs are bounded above: no OOM/fork-bomb requests
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", trials=100_000_000)
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", workers=10_000)
        with pytest.raises(BadRequestError):
            service.count("tiny", "glet1", num_colors=1_000)
        a, _ = service.count("tiny", "glet1", trials="2", seed=8)
        b, cached = service.count("tiny", "glet1", trials=2.0, seed=8)
        assert cached and b is a  # "2" and 2.0 coerce to the same key

    def test_out_of_range_timeout_rejected_before_queueing(self, service):
        for timeout in (float("inf"), 1e20, float("nan"), 0, -1):
            with pytest.raises(BadRequestError, match="timeout"):
                service.count("tiny", "glet1", timeout=timeout)
        assert service.queue.stats()["submitted"] == 0

    def test_single_flight_dedup(self, service):
        """Concurrent identical misses compute once and share the result."""
        barrier = threading.Barrier(6)
        results = []

        def worker():
            barrier.wait()
            results.append(service.count("tiny", "wiki", seed=9)[0])

        threads = [threading.Thread(target=worker) for _ in range(6)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        assert len(results) == 6
        assert all(r is results[0] for r in results)
        assert service.stats()["requests"]["computed"] == 1

    def test_close_is_idempotent(self, service):
        service.close()
        service.close()
        with pytest.raises(RuntimeError):
            service.count("tiny", "glet1")


# ----------------------------------------------------------------------
# the hammer: mixed concurrent traffic, bit-identical counts, exact stats
# ----------------------------------------------------------------------
class TestConcurrencyHammer:
    N_THREADS = 8
    OPS_PER_THREAD = 12

    def test_hammer(self):
        config = EngineConfig(trials=2, seed=0)
        service = CountingService(config=config, workers=3, queue_depth=64, cache_size=256)
        graphs = {
            "era": small_graph(seed=1, name="era"),
            "erb": small_graph(n=40, p=0.15, seed=2, name="erb"),
        }
        for name, g in graphs.items():
            service.registry.add(name, g)

        # the request mix: 2 datasets x 2 queries x 3 seeds = 12 unique keys
        keys = [
            (ds, qn, seed)
            for ds in ("era", "erb")
            for qn in ("glet1", "glet2")
            for seed in (0, 1, 2)
        ]
        reference = {}
        for ds, qn, seed in keys:
            with CountingEngine(graphs[ds], config) as ref:
                reference[(ds, qn, seed)] = ref.count(paper_query(qn), seed=seed)

        results: dict = {}
        errors: list = []
        barrier = threading.Barrier(self.N_THREADS)

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(self.OPS_PER_THREAD):
                    key = keys[(tid * 5 + i * 7) % len(keys)]
                    ds, qn, seed = key
                    if (tid + i) % 2:
                        job = service.submit(ds, qn, seed=seed)
                        assert job.wait(60.0), "job never finished"
                        assert job.state == "done", job.error
                        run = job.result
                    else:
                        run, _cached = service.count(ds, qn, seed=seed, timeout=60.0)
                    results.setdefault(key, []).append(run)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(self.N_THREADS)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        assert not errors, errors

        total = self.N_THREADS * self.OPS_PER_THREAD
        # every response bit-identical to the direct engine call
        assert sum(len(v) for v in results.values()) == total
        for key, runs in results.items():
            want = reference[key].colorful_counts
            for run in runs:
                assert run.colorful_counts == want, f"corrupted result for {key}"
                assert run.estimate == reference[key].estimate

        stats = service.stats()
        req = stats["requests"]
        cache = stats["cache"]
        # exact accounting: each unique key computed exactly once (single
        # flight), every admission did exactly one cache lookup
        assert req["computed"] == len(keys)
        assert cache["misses"] == req["computed"] + req["inflight_joins"]
        assert cache["hits"] + cache["misses"] == total
        assert cache["evictions"] == 0
        assert stats["queue"]["completed"] == req["computed"]
        assert stats["queue"]["failed"] == 0 and stats["queue"]["rejected"] == 0
        service.close()


class TestEngineThreadSafety:
    def test_shared_engine_plans_once_and_counts_exactly(self):
        """The service shares one engine per dataset across worker
        threads; plan builds and stats counters must stay exact."""
        engine = CountingEngine(small_graph(), EngineConfig(trials=1))
        q = paper_query("glet1")
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            barrier.wait()
            for i in range(4):
                engine.count(q, seed=seed * 10 + i)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        snap = engine.stats.snapshot()
        assert snap["plan_builds"] == 1
        assert snap["plan_cache_hits"] == 8 * 4 - 1
        assert snap["requests"] == 8 * 4
        assert snap["trials"] == 8 * 4
        engine.close()


class TestRegistryGraphSharing:
    def test_graph_object_is_shared_not_copied(self):
        g = small_graph()
        reg = DatasetRegistry()
        entry = reg.add("tiny", g)
        assert entry.graph is g
        assert entry.engine.graph is g
        reg.close()

    def test_reregister_closes_old_engine(self):
        reg = DatasetRegistry(EngineConfig(method="ps-dist", workers=2))
        reg.add("tiny", small_graph())
        reg.warm("tiny")
        old = reg.get("tiny").engine
        pool = next(iter(old._executor_cache.values()))
        entry = reg.add("tiny", small_graph(seed=3))
        assert pool.closed
        assert entry.generation == 1
        reg.close()

    def test_reregister_invalidates_cached_results(self):
        """Replacing a dataset must never serve the old graph's counts."""
        service = CountingService(config=EngineConfig(trials=2, seed=0),
                                  workers=1, queue_depth=8, cache_size=32)
        try:
            service.registry.add("g", small_graph(seed=1))
            before, cached = service.count("g", "glet1")
            assert not cached
            service.registry.add("g", small_graph(n=70, p=0.2, seed=9))
            after, cached = service.count("g", "glet1")
            assert not cached, "stale cache hit across dataset replacement"
            assert after.colorful_counts != before.colorful_counts
        finally:
            service.close()


def test_graph_json_round_trip(tmp_path):
    from repro.graph.io import read_json_graph

    g = Graph(5, [(0, 1), (1, 2), (3, 4)], name="j5")
    path = str(tmp_path / "g.json")
    write_json_graph(g, path)
    back = read_json_graph(path)
    assert back.n == 5 and back.name == "j5"
    assert sorted(back.edges()) == sorted(g.edges())
