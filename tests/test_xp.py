"""The array-namespace seam: resolution, strictness, parity.

Three layers of guarantees:

* ``resolve_namespace`` maps the known spec strings to handles and
  rejects everything else loudly;
* ``StrictNamespace`` admits exactly the audited primitive set and
  rejects everything else (the enforcement half of the seam contract);
* the vectorized solver produces bit-identical counts under NumPy and
  StrictNamespace (hypothesis-fuzzed), and the namespace knob threads
  through engine, fingerprint, wire format, service and CLI.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting.xp import (
    AUDITED_PRIMITIVES,
    KNOWN_NAMESPACES,
    NAMESPACE_ENV_VAR,
    NumpyNamespace,
    StrictNamespace,
    as_namespace,
    default_namespace,
    resolve_namespace,
)
from repro.counting.vectorized import solve_plan_vectorized
from repro.decomposition.planner import heuristic_plan
from repro.engine import CountingEngine, CountRequest, EngineConfig, RunResult
from repro.engine.fingerprint import request_fingerprint
from repro.graph.generators import erdos_renyi
from repro.query.library import paper_query
from repro.query.query import QueryGraph

#: spellings the seam no longer accepts (device namespaces and "auto"),
#: in mixed case because resolution folds case before matching
RETIRED_SPECS = ("CuPy", "Torch", "auto")


@pytest.fixture
def no_env(monkeypatch):
    """Run with the process default namespace (no env override)."""
    monkeypatch.delenv(NAMESPACE_ENV_VAR, raising=False)


class TestResolution:
    def test_numpy_and_strict_always_resolve(self, no_env):
        assert resolve_namespace("numpy").name == "numpy"
        assert resolve_namespace("strict").name == "strict"
        # singletons: repeated resolution shares usage tallies / caches
        assert resolve_namespace("strict") is resolve_namespace("strict")

    def test_explicit_gpu_spec_fails_loudly(self, no_env):
        # no device namespace exists: the retired specs are unknown,
        # never a silent NumPy run
        for spec in RETIRED_SPECS:
            with pytest.raises(ValueError, match="unknown array namespace"):
                resolve_namespace(spec)

    def test_unknown_spec_raises_value_error(self, no_env):
        with pytest.raises(ValueError, match="unknown array namespace"):
            resolve_namespace("numpyy")

    def test_spec_is_case_insensitive(self, no_env):
        assert resolve_namespace("NumPy").name == "numpy"

    def test_default_namespace_reads_env(self, no_env, monkeypatch):
        assert default_namespace().name == "numpy"
        monkeypatch.setenv(NAMESPACE_ENV_VAR, "strict")
        assert default_namespace().name == "strict"
        # a typo'd env var raises instead of silently counting on NumPy
        monkeypatch.setenv(NAMESPACE_ENV_VAR, "cuda!!")
        with pytest.raises(ValueError, match="unknown array namespace"):
            default_namespace()

    def test_as_namespace_duck_types(self, no_env):
        assert as_namespace(None).name == "numpy"
        assert as_namespace("strict").name == "strict"
        handle = NumpyNamespace()
        assert as_namespace(handle) is handle


class TestStrictNamespace:
    def test_rejects_unaudited_attributes(self):
        strict = StrictNamespace()
        # np.median is a perfectly good NumPy call — just not audited
        with pytest.raises(AttributeError, match="audited primitive set"):
            strict.median
        with pytest.raises(AttributeError, match="median"):
            strict.median

    def test_audited_primitives_all_work(self):
        strict = StrictNamespace()
        for name in AUDITED_PRIMITIVES:
            assert callable(getattr(strict, name)), name

    def test_usage_tally(self):
        strict = StrictNamespace()
        strict.reset_usage()
        a = strict.asarray([3, 1, 2], dtype=strict.int64)
        strict.cumsum(a)
        strict.cumsum(a)
        assert strict.usage["asarray"] == 1
        assert strict.usage["cumsum"] == 2
        strict.reset_usage()
        assert strict.usage == {}

    def test_known_namespaces_cover_cli_choices(self):
        assert KNOWN_NAMESPACES == ("numpy", "strict")


class TestSolverParity:
    """ps-vec under NumPy and StrictNamespace: bit-identical counts."""

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_numpy_strict_parity_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi(40, 0.15, rng, name="fuzz40")
        q = paper_query("glet1")
        colors = rng.integers(0, q.k, size=g.n)
        plan = heuristic_plan(q)
        a = solve_plan_vectorized(plan, g, colors, xp="numpy")
        b = solve_plan_vectorized(plan, g, colors, xp="strict")
        assert a == b

    def test_strict_tally_stays_inside_audit(self):
        rng = np.random.default_rng(7)
        g = erdos_renyi(120, 0.05, rng, name="audit120")
        q = paper_query("youtube")
        colors = rng.integers(0, q.k, size=g.n)
        strict = StrictNamespace()
        strict.reset_usage()
        solve_plan_vectorized(heuristic_plan(q), g, colors, xp=strict)
        assert strict.usage, "the sweep should exercise the seam"
        assert set(strict.usage) <= set(AUDITED_PRIMITIVES)


class TestEngineThreading:
    """The namespace knob rides request → engine → provenance → wire."""

    @pytest.fixture
    def graph(self):
        return erdos_renyi(60, 0.1, np.random.default_rng(11), name="thread60")

    def test_run_result_records_resolved_namespace(self, no_env, graph):
        engine = CountingEngine(graph)
        q = paper_query("glet1")
        r = engine.count(q, trials=2, method="ps-vec", namespace="strict")
        assert r.namespace == "strict"
        default = engine.count(q, trials=2, method="ps-vec")
        assert default.namespace == "numpy"
        # non-seam backends record no namespace
        assert engine.count(q, trials=1, method="ps").namespace is None

    def test_counts_identical_across_namespaces(self, no_env, graph):
        engine = CountingEngine(graph)
        q = paper_query("glet2")
        a = engine.count(q, trials=3, seed=5, method="ps-vec", namespace="numpy")
        b = engine.count(q, trials=3, seed=5, method="ps-vec", namespace="strict")
        assert a.colorful_counts == b.colorful_counts

    def test_engine_config_inheritance(self, no_env, graph):
        engine = CountingEngine(graph, EngineConfig(method="ps-vec", namespace="strict"))
        r = engine.count(paper_query("glet1"), trials=1)
        assert r.namespace == "strict"

    def test_parallel_trials_thread_namespace(self, no_env, graph):
        engine = CountingEngine(graph)
        q = paper_query("glet1")
        seq = engine.count(q, trials=4, seed=2, method="ps-vec", namespace="strict")
        par = engine.count(
            q, trials=4, seed=2, method="ps-vec", namespace="strict", workers=2
        )
        assert par.colorful_counts == seq.colorful_counts
        assert par.namespace == "strict"

    def test_fingerprint_depends_on_namespace(self, no_env):
        q = QueryGraph([(0, 1), (1, 2), (2, 0)], name="tri")
        base = CountRequest(query=q, method="ps-vec")
        fp_default = request_fingerprint("d", base)
        fp_strict = request_fingerprint("d", base.replace(namespace="strict"))
        assert fp_default != fp_strict
        # stating the config default is the same as inheriting it
        cfg = EngineConfig(namespace="strict")
        assert request_fingerprint("d", base, cfg) == request_fingerprint(
            "d", base.replace(namespace="strict"), cfg
        )

    def test_run_result_wire_roundtrip(self):
        r = RunResult(
            query_name="q", graph_name="g", trials=1, colorful_counts=[4],
            scale=1.0, method="ps-vec", namespace="strict",
        )
        doc = r.to_dict()
        assert doc["namespace"] == "strict"
        back = RunResult.from_dict(doc)
        assert back.namespace == "strict"
        assert back.to_dict() == doc
        # absent/None namespace survives the round trip too
        r2 = RunResult(
            query_name="q", graph_name="g", trials=1, colorful_counts=[4],
            scale=1.0, method="ps",
        )
        assert RunResult.from_dict(r2.to_dict()).namespace is None


class TestServiceAndCli:
    def test_service_accepts_and_validates_namespace(self, no_env):
        from repro.service.service import BadRequestError, CountingService

        rng = np.random.default_rng(1)
        service = CountingService()
        service.registry.add("tiny", erdos_renyi(40, 0.1, rng, name="tiny"))
        try:
            q = service.resolve_query("glet1")
            req = service.build_request(
                q, {"method": "ps-vec", "namespace": "strict", "trials": 2}
            )
            assert req.namespace == "strict"
            with pytest.raises(BadRequestError, match="unknown array namespace"):
                service.build_request(q, {"namespace": "nope"})
            # retired specs: an eager 400, not a queued job that can only
            # die with a 500
            for spec in RETIRED_SPECS:
                with pytest.raises(BadRequestError, match="unknown array namespace"):
                    service.build_request(q, {"namespace": spec})
        finally:
            service.close()

    def test_cli_namespace_flag(self, no_env, tmp_path):
        from repro.cli import main

        rng = np.random.default_rng(0)
        g = erdos_renyi(50, 0.1, rng, name="cli50")
        path = tmp_path / "g.txt"
        path.write_text("\n".join(f"{u} {v}" for u, v in g.edges()) + "\n")
        rc = main([
            "count", "--graph", str(path), "--query", "glet1",
            "--method", "ps-vec", "--namespace", "strict", "--trials", "1",
        ])
        assert rc == 0

    @pytest.mark.parametrize("spec", RETIRED_SPECS)
    def test_cli_rejects_retired_namespace(self, no_env, spec, capsys):
        from repro.cli import main

        # argparse choices are case-sensitive: pass the lower-case
        # spelling the flag used to accept
        with pytest.raises(SystemExit) as exc:
            main([
                "count", "--graph", "condmat", "--query", "glet1",
                "--namespace", spec.lower(),
            ])
        assert exc.value.code == 2
        assert "--namespace: invalid choice" in capsys.readouterr().err

    def test_audit_cli_emits_json(self, no_env):
        # the backend-matrix CI lane uploads exactly this output
        proc = subprocess.run(
            [sys.executable, "-m", "repro.counting.xp"],
            capture_output=True, text=True, check=True,
        )
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "repro-xp-audit/1"
        assert doc["namespaces"] == list(KNOWN_NAMESPACES)
        demo = doc["strict_demo"]
        assert demo["matches_numpy"] is True
        assert set(demo["primitive_calls"]) <= set(AUDITED_PRIMITIVES)
