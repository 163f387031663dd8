"""HTTP surface end to end: every endpoint, error mapping, 429, parity.

Boots a real :class:`ServiceHTTPServer` on an ephemeral port and drives
it with the stdlib :class:`ServiceClient` — the acceptance path: a
booted service must answer ``POST /count`` bit-identically to
:meth:`CountingEngine.count` for the whole Figure 8 query library, serve
repeats from the cache (visible in ``GET /stats``), and shed load with
429 when saturated.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from conftest import wait_until

from repro.engine import CountingEngine, EngineConfig
from repro.graph.generators import erdos_renyi
from repro.query.library import paper_queries
from repro.service import CountingService, Job
from repro.service.client import SaturatedError, ServiceAPIError, ServiceClient, self_test
from repro.service.httpd import make_server, serve_forever

CONFIG = EngineConfig(method="ps-vec", trials=2, seed=0)


@pytest.fixture(scope="module")
def stack():
    """(service, server, client) booted once for the module."""
    service = CountingService(config=CONFIG, workers=2, queue_depth=16, cache_size=128)
    g = erdos_renyi(60, 0.12, np.random.default_rng(42), name="er60")
    service.registry.add("er60", g)
    service.registry.add(
        "er60l",
        g.with_labels(np.random.default_rng(43).integers(0, 2, g.n)),
    )
    server = make_server(service, port=0)
    thread = serve_forever(server)
    client = ServiceClient(server.url)
    yield service, server, client
    client.close()
    server.shutdown()
    thread.join(timeout=5.0)
    server.server_close()
    service.close()


class TestEndpoints:
    def test_healthz_and_datasets(self, stack):
        _, _, client = stack
        health = client.healthz()
        assert health["ok"] and health["datasets"] == 2
        by_name = {ds["name"]: ds for ds in client.datasets()}
        assert set(by_name) == {"er60", "er60l"}
        assert by_name["er60"]["n"] == 60

    def test_count_cold_then_cached(self, stack):
        service, _, client = stack
        result, cached = client.count("er60", "glet1", trials=3, seed=2)
        assert not cached and result["method"] == "ps-vec"
        hits_before = service.cache.snapshot()["hits"]
        again, cached = client.count("er60", "glet1", trials=3, seed=2)
        assert cached
        assert again["colorful_counts"] == result["colorful_counts"]
        assert service.cache.snapshot()["hits"] == hits_before + 1

    def test_jobs_lifecycle(self, stack):
        _, _, client = stack
        job = client.submit("er60", "glet2", seed=6)
        assert job["state"] in ("queued", "running", "done")
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "done" and done["progress"] == 1.0
        assert done["result"]["trials"] == CONFIG.trials
        assert any(j["id"] == job["id"] for j in client.jobs())

    def test_stats_shape(self, stack):
        _, _, client = stack
        stats = client.stats()
        for section in ("uptime_seconds", "requests", "cache", "queue", "datasets"):
            assert section in stats
        assert stats["queue"]["workers"] == 2

    def test_error_mapping(self, stack, monkeypatch):
        _, _, client = stack
        # a tiny sum limit makes the sweep's int64 guard trip on any count
        import repro.counting.vectorized as vec

        monkeypatch.setattr(vec, "_SUM_LIMIT", 1.0)
        for kwargs, status in (
            (dict(dataset="nope", query="glet1"), 404),
            (dict(dataset="er60", query="nope"), 404),
            (dict(dataset="er60", query="glet1", trials=0), 400),
            (dict(dataset="er60", query="glet1", method="warp"), 400),
            (dict(dataset="er60", query="glet1", coloring_strategy="nope"), 400),
            (dict(dataset="er60", query="glet1", seed=-1), 400),
            (dict(dataset="er60", query="glet1", trials=float("inf")), 400),
            # precision values the top-level fields already reject
            (dict(dataset="er60", query="glet1", precision={"rel_error": "nan"}), 400),
            (dict(dataset="er60", query="glet1", precision={"min_trials": 2.5}), 400),
            # JSON true is not the integer 1
            (dict(dataset="er60", query="glet1", trials=True), 400),
            (dict(dataset="er60", query="glet1", seed=True), 400),
            (dict(dataset="er60", query="glet1",
                  precision={"min_trials": True, "max_trials": True}), 400),
            # sync deadlines outside (0, threading.TIMEOUT_MAX]
            (dict(dataset="er60", query="glet1", timeout="inf"), 400),
            (dict(dataset="er60", query="glet1", timeout=1e20), 400),
            (dict(dataset="er60", query="glet1", timeout="nan"), 400),
            (dict(dataset="er60", query="glet1", timeout=-1), 400),
            # retired array namespaces (device specs and "auto")
            (dict(dataset="er60", query="glet1", namespace="auto"), 400),
            (dict(dataset="er60", query="glet1", namespace="CuPy"), 400),
        ):
            with pytest.raises(ServiceAPIError) as err:
                client.count(**kwargs)
            assert err.value.status == status
        # a count past the int64 guard is no error: the sweep reruns with
        # Python ints and answers 200 with the dict ps count
        swept, _ = client.count("er60", "glet1", method="ps-vec", seed=4242)
        exact, _ = client.count("er60", "glet1", method="ps", seed=4242)
        assert swept["colorful_counts"] == exact["colorful_counts"]
        with pytest.raises(ServiceAPIError) as err:
            client.job("doesnotexist")
        assert err.value.status == 404

    def test_unknown_endpoint_404(self, stack):
        _, _, client = stack
        with pytest.raises(ServiceAPIError) as err:
            client._request("GET", "/teapot")
        assert err.value.status == 404
        with pytest.raises(ServiceAPIError) as err:
            client._request("POST", "/count", None)  # no body
        assert err.value.status == 400

    def test_client_self_test_passes(self, stack):
        _, server, _ = stack
        assert self_test(server.url, dataset="er60", query="glet1") == 0


class TestWholeQueryLibraryParity:
    def test_counts_bit_identical_for_every_paper_query(self, stack):
        """Acceptance: POST /count == CountingEngine.count, all 10 queries."""
        service, _, client = stack
        graph = service.registry.get("er60").graph
        with CountingEngine(graph, CONFIG) as engine:
            for name, query in paper_queries().items():
                result, _cached = client.count("er60", name, trials=2, seed=3)
                direct = engine.count(query, trials=2, seed=3)
                assert result["colorful_counts"] == direct.colorful_counts, name
                assert result["estimate"] == pytest.approx(direct.estimate), name
                assert result["method"] == direct.method == "ps-vec"


class TestLabeledWireFormat:
    def test_count_with_labels_parity_and_cache_key(self, stack):
        """POST /count with a label spec == engine.count on the labeled query,
        and the dict / list label spellings share one cache entry."""
        service, _, client = stack
        graph = service.registry.get("er60l").graph
        base = paper_queries()["glet1"]
        labels = {str(v): v % 2 for v in base.nodes()}
        result, cached = client.count("er60l", "glet1", seed=4, labels=labels)
        assert not cached
        with CountingEngine(graph, CONFIG) as engine:
            direct = engine.count(
                base.with_labels({v: v % 2 for v in base.nodes()}), seed=4
            )
        assert result["colorful_counts"] == direct.colorful_counts
        # list spelling, same fingerprint -> served from cache
        as_list = [labels[str(v)] for v in base.nodes()]
        again, cached = client.count("er60l", "glet1", seed=4, labels=as_list)
        assert cached and again["colorful_counts"] == result["colorful_counts"]

    def test_labeled_library_name_over_the_wire(self, stack):
        _, _, client = stack
        result, _ = client.count("er60l", "tri-001", seed=1)
        assert result["trials"] == CONFIG.trials

    def test_labeled_error_mapping(self, stack):
        _, _, client = stack
        for kwargs, status, fragment in (
            # labeled query, unlabeled dataset
            (dict(dataset="er60", query="tri-001"), 400, "no vertex labels"),
            # partial label map
            (dict(dataset="er60l", query="glet1", labels={"0": 1}), 400, "cover every"),
            # wrong list arity
            (dict(dataset="er60l", query="glet1", labels=[0, 1]), 400, "one label per"),
            # non-integer label
            (dict(dataset="er60l", query="glet1",
                  labels={"0": "x", "1": 0, "2": 0, "3": 0}), 400, "need int"),
            (dict(dataset="er60l", query="glet1",
                  labels=[0, 1, 0, float("inf")]), 400, "need int"),
            # out-of-range label
            (dict(dataset="er60l", query="glet1",
                  labels=[0, 1, 0, 2**40]), 400, "must be in"),
        ):
            with pytest.raises(ServiceAPIError) as err:
                client.count(**kwargs)
            assert err.value.status == status, kwargs
            assert fragment in str(err.value), kwargs

    def test_unsupported_method_combinations_answer_400(self, stack):
        """Requests no backend could ever run are shed eagerly with the
        backend's own reason, not queued into a 500."""
        _, _, client = stack
        # palette over ps-vec's 62-color cap (but under MAX_NUM_COLORS)
        with pytest.raises(ServiceAPIError) as err:
            client.count("er60", "glet1", method="ps-vec", num_colors=63)
        assert err.value.status == 400 and "ps-vec" in str(err.value)

    def test_labeled_async_job(self, stack):
        _, _, client = stack
        job = client.submit("er60l", "square-0101", seed=8)
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "done"

    def test_labels_nested_in_custom_query_spec(self, stack):
        """An ad-hoc query dict may carry its own labels; unknown spec
        fields are rejected instead of silently dropped."""
        service, _, client = stack
        spec = {"edges": [[0, 1], [1, 2], [2, 0]], "labels": [0, 0, 1], "name": "tri"}
        result, _ = client.count("er60l", spec, seed=2)
        graph = service.registry.get("er60l").graph
        from repro.query.query import QueryGraph

        labeled = QueryGraph(
            [(0, 1), (1, 2), (2, 0)], name="tri", labels={0: 0, 1: 0, 2: 1}
        )
        with CountingEngine(graph, CONFIG) as engine:
            direct = engine.count(labeled, seed=2)
        assert result["colorful_counts"] == direct.colorful_counts
        with pytest.raises(ServiceAPIError) as err:
            client.count("er60l", {"edges": [[0, 1]], "lables": [0, 0]})
        assert err.value.status == 400 and "unknown query spec fields" in str(err.value)


class TestServeCLI:
    def test_run_serve_boots_and_stops(self, tmp_path):
        """`repro-serve` wiring end to end: parse, boot, answer, shut down."""
        import socket

        from repro.graph.io import write_json_graph
        from repro.service.cli import main as serve_main, run_serve

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        path = str(tmp_path / "tiny.json")
        write_json_graph(
            erdos_renyi(25, 0.2, np.random.default_rng(5), name="tiny"), path
        )

        import argparse

        parser = argparse.ArgumentParser()
        from repro.cli import add_serve_arguments

        add_serve_arguments(parser)
        args = parser.parse_args([
            "--port", str(port), "--dataset", f"tiny={path}",
            "--trials", "2", "--workers", "1", "--queue-depth", "4",
        ])
        stop = threading.Event()
        rc: list = []
        thread = threading.Thread(target=lambda: rc.append(run_serve(args, stop=stop)))
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")

            def server_up() -> bool:
                try:
                    return bool(client.healthz()["ok"])
                except OSError:
                    return False

            assert wait_until(server_up, timeout=10.0), "server never came up"
            result, _ = client.count("tiny", "glet1")
            assert result["trials"] == 2
            client.close()
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert rc == [0]
        # bad dataset spec fails fast with exit code 2
        assert serve_main(["--dataset", "/nonexistent/file.edges", "--port", "0"]) == 2


class TestSaturation:
    def test_429_when_queue_full(self):
        """Block the only worker, fill the backlog, expect 429 + Retry-After."""
        service = CountingService(config=CONFIG, workers=1, queue_depth=1, cache_size=8)
        service.registry.add(
            "er30", erdos_renyi(30, 0.15, np.random.default_rng(3), name="er30")
        )
        server = make_server(service, port=0)
        thread = serve_forever(server)
        release = threading.Event()
        try:
            blocker = service.queue.submit(Job(release.wait, label="blocker"))
            assert wait_until(lambda: blocker.state == "running")
            filler = service.queue.submit(Job(lambda: None, label="filler"))
            with ServiceClient(server.url) as client:
                with pytest.raises(SaturatedError) as err:
                    client.count("er30", "glet1")
                assert err.value.status == 429
                release.set()
                assert blocker.wait(5.0) and filler.wait(5.0)
                result, _ = client.count("er30", "glet1", timeout=60.0)
                assert result["trials"] == CONFIG.trials
            assert service.queue.stats()["rejected"] == 1
        finally:
            release.set()
            server.shutdown()
            thread.join(timeout=5.0)
            server.server_close()
            service.close()


class TestObservability:
    """The /metrics surface, trace-ID headers, and the access log."""

    def test_metrics_endpoint_reconciles_with_client_traffic(self, stack):
        from repro.obs import parse_prometheus_text

        _, _, client = stack
        before = parse_prometheus_text(client.metrics_text())

        def sample(doc, name, **labels):
            return float(doc.get(name, {}).get(tuple(sorted(labels.items())), 0.0))

        # one cold count (unique seed for this test) and one warm repeat
        client.count("er60", "glet1", trials=2, seed=987_001)
        _, cached = client.count("er60", "glet1", trials=2, seed=987_001)
        assert cached
        after = parse_prometheus_text(client.metrics_text())

        def delta(name, **labels):
            return sample(after, name, **labels) - sample(before, name, **labels)

        assert delta("repro_service_cache_total", result="miss") == 1.0
        assert delta("repro_service_cache_total", result="hit") == 1.0
        assert delta("repro_http_requests_total",
                     endpoint="/count", method="POST", status="200") == 2.0
        assert delta("repro_http_request_seconds_count", endpoint="/count") == 2.0

    def test_trace_id_header_and_result_stamp(self, stack):
        import http.client

        _, server, client = stack
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            body = json.dumps({
                "dataset": "er60", "query": "glet1", "trials": 2, "seed": 987_002,
            })
            conn.request("POST", "/count", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            header_id = response.getheader("X-Repro-Trace-Id")
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert header_id and len(header_id) == 16
        # the request-scoped trace id threads through to the engine result
        assert doc["result"]["trace_id"] == header_id

    def test_access_log_emits_structured_json_lines(self, capsys):
        service = CountingService(config=CONFIG, workers=1, queue_depth=4, cache_size=8)
        service.registry.add(
            "er20", erdos_renyi(20, 0.2, np.random.default_rng(5), name="er20")
        )
        server = make_server(service, port=0, access_log=True)
        thread = serve_forever(server)
        try:
            with ServiceClient(server.url) as client:
                client.healthz()
                with pytest.raises(ServiceAPIError):
                    client.job("missing")
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
            server.server_close()
            service.close()
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()
                 if line.startswith("{")]
        assert len(lines) == 2
        for doc in lines:
            assert set(doc) == {"ts", "method", "path", "status",
                                "duration_ms", "trace_id"}
        assert lines[0]["path"] == "/healthz" and lines[0]["status"] == 200
        assert lines[1]["path"] == "/jobs/missing" and lines[1]["status"] == 404

    def test_stats_carries_obs_snapshot(self, stack):
        _, _, client = stack
        stats = client.stats()
        assert "obs" in stats
        assert "repro_http_requests_total" in stats["obs"]
