"""The observability layer: metrics exactness, tracing, exposition, CLI.

Covers the acceptance-critical properties of :mod:`repro.obs`:
histogram bucket counts stay exact under a multi-thread hammer, the
kill-switch leaves counting results bit-identical with zero registry
growth, ps-dist worker spans land in the master's trace under one trace
ID across the fork boundary, and ``repro-count count --trace`` writes
one valid Chrome trace-event document end to end.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.engine import CountingEngine
from repro.graph.generators import erdos_renyi
from repro.obs.metrics import MetricsRegistry
from repro.obs.view import main as view_main
from repro.query import paper_query


# ----------------------------------------------------------------------
# metrics: counters, gauges, histograms
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_basics_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "total requests", labels=("method",))
        c.inc(method="GET")
        c.inc(2.0, method="GET")
        c.inc(method="POST")
        assert c.value(method="GET") == 3.0
        assert c.value(method="POST") == 1.0
        assert c.samples() == [(("GET",), 3.0), (("POST",), 1.0)]

    def test_counter_rejects_negative_and_bad_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total", labels=("x",))
        with pytest.raises(obs.MetricError):
            c.inc(-1.0, x="a")
        with pytest.raises(obs.MetricError):
            c.inc()  # missing label
        with pytest.raises(obs.MetricError):
            c.inc(x="a", y="b")  # extra label

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4.0

    def test_histogram_bucket_edges_are_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(1.0, 2.0, 3.0))
        for v in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 99.0):
            h.observe(v)
        cumulative, total, count = h.sample()
        # le="1.0" holds 0.5 and 1.0; le="2.0" adds 1.5 and 2.0; ...
        assert cumulative == [2, 4, 6, 7]
        assert count == 7
        assert total == pytest.approx(0.5 + 1.0 + 1.5 + 2.0 + 2.5 + 3.0 + 99.0)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(obs.MetricError):
            reg.histogram("empty_seconds", buckets=())
        with pytest.raises(obs.MetricError):
            reg.histogram("dup_seconds", buckets=(1.0, 1.0))

    def test_registry_get_or_create_and_clashes(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", labels=("k",))
        assert reg.counter("x_total", labels=("k",)) is a
        with pytest.raises(obs.MetricError):
            reg.gauge("x_total")  # type clash
        with pytest.raises(obs.MetricError):
            reg.counter("x_total", labels=("other",))  # label-set clash
        assert reg.names() == ["x_total"] and len(reg) == 1

    def test_bucket_counts_exact_under_thread_hammer(self):
        """8 threads, interleaved observations: every count lands exactly."""
        reg = MetricsRegistry()
        h = reg.histogram("hammer_seconds", labels=("who",), buckets=(1.0, 2.0))
        c = reg.counter("hammer_total")
        per_thread, nthreads = 2_000, 8
        barrier = threading.Barrier(nthreads)

        def work(tid: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                h.observe(float(i % 3), who=str(tid % 2))
                c.inc()

        threads = [threading.Thread(target=work, args=(t,)) for t in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert c.value() == per_thread * nthreads
        # per i%3 cycle: 0 and 1 land in le=1.0 (inclusive), 2 in le=2.0;
        # 4 threads share each `who` label value
        per_label = per_thread * (nthreads // 2)
        per_cycle = per_thread // 3 + (1 if per_thread % 3 else 0)
        for who in ("0", "1"):
            cumulative, total, count = h.sample(who=who)
            assert count == per_label
            expect_le1 = sum(1 for i in range(per_thread) if i % 3 <= 1) * 4
            assert cumulative[0] == expect_le1
            assert cumulative[-1] == per_label
            assert total == pytest.approx(sum(i % 3 for i in range(per_thread)) * 4)
        assert per_cycle  # silence unused-var lint on the helper arithmetic


# ----------------------------------------------------------------------
# exposition: render + strict parse round trip
# ----------------------------------------------------------------------

class TestExposition:
    def test_render_parse_round_trip_exact(self):
        reg = MetricsRegistry()
        c = reg.counter("rt_requests_total", "reqs", labels=("method",))
        c.inc(3, method="GET")
        c.inc(method='PO"ST\\')  # exercises label escaping
        g = reg.gauge("rt_depth", "queue depth")
        g.set(2)
        h = reg.histogram("rt_seconds", "latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)

        text = obs.render_prometheus(reg)
        assert "# TYPE rt_requests_total counter" in text
        assert "# TYPE rt_seconds histogram" in text
        parsed = obs.parse_prometheus_text(text)
        assert parsed["rt_requests_total"][(("method", "GET"),)] == 3.0
        assert parsed["rt_requests_total"][(("method", 'PO"ST\\'),)] == 1.0
        assert parsed["rt_depth"][()] == 2.0
        buckets = parsed["rt_seconds_bucket"]
        assert buckets[(("le", "0.1"),)] == 1.0
        assert buckets[(("le", "1"),)] == 2.0  # integral edges render bare
        assert buckets[(("le", "+Inf"),)] == 3.0
        assert parsed["rt_seconds_count"][()] == 3.0
        assert parsed["rt_seconds_sum"][()] == pytest.approx(5.55)

    def test_parser_rejects_garbage_and_duplicates(self):
        with pytest.raises(ValueError):
            obs.parse_prometheus_text("this is not exposition\n")
        with pytest.raises(ValueError):
            obs.parse_prometheus_text("x_total 1\nx_total 2\n")

    def test_default_registry_serves_exposition(self):
        obs.registry().counter(
            "repro_test_default_total", "test counter"
        ).inc()
        text = obs.render_prometheus()
        assert "repro_test_default_total" in text


# ----------------------------------------------------------------------
# kill-switch semantics
# ----------------------------------------------------------------------

class TestDisable:
    def test_disabled_observations_noop_and_registry_stays_frozen(self):
        reg = MetricsRegistry()
        c = reg.counter("frozen_total")
        c.inc()
        obs.disable()
        try:
            assert not obs.is_enabled()
            c.inc(100)
            # a *new* name hands back an unregistered shell: zero growth
            shell = reg.counter("never_registered_total")
            shell.inc(7)
            assert len(reg) == 1 and reg.names() == ["frozen_total"]
            assert reg.get("never_registered_total") is None
        finally:
            obs.enable()
        assert c.value() == 1.0

    def test_disabled_span_is_shared_noop_even_while_collecting(self):
        obs.disable()
        try:
            trace = obs.start_trace()
            try:
                with obs.span("never.recorded"):
                    pass
            finally:
                obs.finish_trace()
            assert len(trace) == 0
        finally:
            obs.enable()

    def test_disable_leaves_counts_bit_identical_zero_registry_growth(self):
        """The differential guarantee: obs off changes nothing but timing."""
        g = erdos_renyi(50, 0.12, np.random.default_rng(11), name="er50")
        q = paper_query("glet1")
        with CountingEngine(g) as engine:
            baseline = engine.count(q, trials=3, seed=5, method="ps-vec")
        snap_before = obs.registry().snapshot()
        names_before = obs.registry().names()
        obs.disable()
        try:
            with CountingEngine(g) as engine:
                off = engine.count(q, trials=3, seed=5, method="ps-vec")
        finally:
            obs.enable()
        assert off.colorful_counts == baseline.colorful_counts
        assert off.estimate == baseline.estimate
        assert obs.registry().names() == names_before
        assert obs.registry().snapshot() == snap_before


# ----------------------------------------------------------------------
# tracing: spans, collect, fork boundary, chrome export
# ----------------------------------------------------------------------

class TestTracing:
    def test_span_records_nesting_and_attributes(self):
        with obs.collect() as trace:
            with obs.span("outer", phase="a") as sp:
                with obs.span("inner"):
                    pass
                sp.add(found=3)
        events = trace.events()
        # inner exits (and records) before outer
        assert [e["name"] for e in events] == ["inner", "outer"]
        outer = events[1]
        assert outer["args"] == {"phase": "a", "found": 3}
        assert outer["trace_id"] == trace.trace_id
        assert outer["dur"] >= events[0]["dur"]

    def test_span_is_noop_without_a_collector(self):
        assert obs.active_trace() is None
        assert isinstance(obs.span("idle"), obs.NoopSpan)

    def test_nested_collect_is_rejected(self):
        with obs.collect():
            with pytest.raises(RuntimeError):
                obs.start_trace()

    def test_collect_binds_and_restores_trace_id(self):
        assert obs.current_trace_id() is None
        with obs.collect(trace_id="cafe0123cafe0123") as trace:
            assert obs.current_trace_id() == "cafe0123cafe0123"
            assert trace.trace_id == "cafe0123cafe0123"
        assert obs.current_trace_id() is None

    def test_engine_run_collects_spans_and_stamps_result(self):
        g = erdos_renyi(50, 0.12, np.random.default_rng(3), name="er50")
        q = paper_query("glet1")
        with obs.collect() as trace:
            with CountingEngine(g) as engine:
                result = engine.count(q, trials=2, seed=0, method="ps-vec")
        names = {e["name"] for e in trace.events()}
        assert "engine.count" in names and "engine.trial" in names
        assert any(n.startswith("sweep.") for n in names)
        assert result.trace_id == trace.trace_id
        assert all(e["trace_id"] == trace.trace_id for e in trace.events())

    def test_result_trace_id_survives_the_wire(self):
        g = erdos_renyi(40, 0.15, np.random.default_rng(9), name="er40")
        q = paper_query("glet1")
        with obs.collect():
            with CountingEngine(g) as engine:
                result = engine.count(q, trials=2, seed=1)
        from repro.engine.result import RunResult

        doc = result.to_dict()
        assert doc["trace_id"] == result.trace_id
        assert RunResult.from_dict(doc).trace_id == result.trace_id

    def test_ps_dist_worker_spans_join_the_master_trace(self):
        """Fork boundary: shard-worker spans carry the parent trace ID."""
        import os

        g = erdos_renyi(60, 0.12, np.random.default_rng(21), name="er60")
        q = paper_query("glet1")
        with obs.collect() as trace:
            with CountingEngine(g) as engine:
                result = engine.count(
                    q, trials=2, seed=0, method="ps-dist", workers=2
                )
        events = trace.events()
        names = {e["name"] for e in events}
        assert {"engine.count", "dist.superstep", "dist.solve"} <= names
        pids = {e["pid"] for e in events}
        assert os.getpid() in pids and len(pids) >= 3  # master + 2 workers
        assert {e["trace_id"] for e in events} == {trace.trace_id}
        assert result.trace_id == trace.trace_id
        # superstep spans fold the measured WallStats row in
        superstep = next(e for e in events if e["name"] == "dist.superstep")
        assert {"stage", "workers", "rows", "max_wall", "max_cpu"} <= set(
            superstep["args"]
        )

    def test_pooled_trial_spans_join_the_master_trace(self):
        """``workers=2`` trials run in two pool workers and ship their
        ``engine.trial`` spans back under the request's trace ID."""
        import os

        g = erdos_renyi(60, 0.12, np.random.default_rng(21), name="er60")
        q = paper_query("glet1")
        with obs.collect() as trace:
            with CountingEngine(g) as engine:
                result = engine.count(q, trials=4, seed=0, method="ps-vec", workers=2)
        trials = [e for e in trace.events() if e["name"] == "engine.trial"]
        pids = {e["pid"] for e in trials}
        assert len(pids) == 2 and os.getpid() not in pids
        assert sorted(e["args"]["index"] for e in trials) == [0, 1, 2, 3]
        assert {e["trace_id"] for e in trace.events()} == {trace.trace_id}
        assert result.trace_id == trace.trace_id

    def test_chrome_document_schema(self, tmp_path):
        with obs.collect() as trace:
            with obs.span("unit", detail=np.int64(3)):  # numpy coerced
                pass
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, trace)
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["trace_id"] == trace.trace_id
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] > 0 and event["dur"] >= 0  # microseconds
        assert event["args"]["trace_id"] == trace.trace_id
        assert event["args"]["detail"] == "3"  # JSON-safe coercion
        json.dumps(doc)  # the whole document must be serialisable


# ----------------------------------------------------------------------
# CLI: repro-count count --trace and the viewer
# ----------------------------------------------------------------------

class TestCli:
    def test_count_trace_flag_writes_chrome_json(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "run.json"
        rc = cli_main([
            "count", "--graph", "condmat", "--query", "glet1",
            "--method", "ps-vec", "--trials", "2", "--trace", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "engine.count" in names
        ids = {e["args"]["trace_id"] for e in doc["traceEvents"]}
        assert len(ids) == 1
        assert "trace          :" in capsys.readouterr().out

    def test_view_renders_chrome_trace(self, tmp_path, capsys):
        with obs.collect() as trace:
            with obs.span("viewer.span"):
                pass
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, trace)
        assert view_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "viewer.span" in out and trace.trace_id in out

    def test_view_renders_load_stats_dump(self, tmp_path, capsys):
        from repro.distributed.runtime import LoadStats

        stats = LoadStats(2)
        rec = stats.new_stage("join-e1")
        rec.ops += np.array([30.0, 10.0])
        rec.msgs += np.array([4.0, 0.0])
        path = tmp_path / "loadstats.json"
        path.write_text(json.dumps(stats.to_dict()))
        assert view_main(["--load-stats", str(path)]) == 0
        assert "join-e1" in capsys.readouterr().out
