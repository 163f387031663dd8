"""RunResult/LoadStats/WallStats serialization and request fingerprints."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.counting import coloring_batch
from repro.engine import (
    CountingEngine,
    CountRequest,
    EngineConfig,
    RunResult,
    canonical_query,
    canonical_request,
    plan_summary,
    request_fingerprint,
)
from repro.distributed.runtime import LoadStats, WallStats
from repro.graph.generators import erdos_renyi
from repro.query.library import paper_query
from repro.query.query import QueryGraph


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 0.15, np.random.default_rng(9), name="er40")


class TestRunResultSerialization:
    def test_round_trip_preserves_payload(self, graph):
        with CountingEngine(graph) as engine:
            result = engine.count(paper_query("glet1"), trials=3, seed=1)
        doc = result.to_dict()
        json.dumps(doc)  # JSON-safe by construction
        back = RunResult.from_dict(doc)
        assert back.colorful_counts == result.colorful_counts
        assert back.estimate == result.estimate
        assert back.relative_std == result.relative_std
        assert back.method == result.method
        assert back.seed == result.seed
        assert back.trial_times == result.trial_times

    def test_round_trip_is_stable(self, graph):
        with CountingEngine(graph) as engine:
            result = engine.count(paper_query("glet2"), trials=2, seed=5)
        doc = result.to_dict()
        assert RunResult.from_dict(doc).to_dict() == doc

    def test_plan_flattens_to_digest(self, graph):
        with CountingEngine(graph) as engine:
            q = paper_query("glet1")
            result = engine.count(q, trials=1, seed=0)
            doc = result.to_dict()
            assert doc["plan"] == plan_summary(engine.plan_for(q))
        back = RunResult.from_dict(doc)
        assert back.plan is None
        assert back.plan_digest == doc["plan"]

    def test_load_stats_survive_the_wire(self, graph):
        """The per-rank load of one simulated coloring round-trips JSON."""
        q = paper_query("glet1")
        with CountingEngine(graph) as engine:
            ctx = engine.make_context(4)
            engine.count_colorful(
                q, coloring_batch(graph.n, q.k, 1, seed=0)[0], method="db", ctx=ctx
            )
        back = LoadStats.from_dict(json.loads(json.dumps(ctx.stats.to_dict())))
        assert back.nranks == 4
        assert back.to_dict() == ctx.stats.to_dict()
        assert back.makespan() == pytest.approx(ctx.stats.makespan())
        assert back.speedup() == pytest.approx(ctx.stats.speedup())

    def test_retired_load_and_kappa_keys_are_ignored(self, graph):
        """Documents from builds that still wrote ``load``/``kappa`` load."""
        with CountingEngine(graph) as engine:
            result = engine.count(paper_query("glet1"), trials=2, seed=0)
        doc = result.to_dict()
        assert "load" not in doc and "kappa" not in doc
        older = dict(doc, load=LoadStats(4).to_dict(), kappa=0.5)
        assert RunResult.from_dict(older).to_dict() == doc


class TestStatsDicts:
    def test_load_stats_round_trip(self):
        stats = LoadStats(3)
        rec = stats.new_stage("join")
        rec.ops += np.array([1.0, 2.0, 3.0])
        rec.msgs += np.array([0.0, 1.0, 0.5])
        back = LoadStats.from_dict(stats.to_dict())
        assert back.nranks == 3
        assert back.makespan(0.5) == stats.makespan(0.5)
        assert back.imbalance() == stats.imbalance()
        json.dumps(stats.to_dict())

    def test_wall_stats_round_trip(self):
        stats = WallStats(2)
        stats.wall_seconds = 1.25
        rec = stats.new_stage("b0:cycle")
        rec.cpu += np.array([0.5, 0.75])
        rec.wall += np.array([0.6, 0.9])
        rec.rows += np.array([10, 20])
        back = WallStats.from_dict(stats.to_dict())
        assert back.wall_seconds == 1.25
        assert back.critical_seconds() == stats.critical_seconds()
        assert back.exchanged_rows() == 30
        json.dumps(stats.to_dict())


class TestFingerprints:
    def test_stable_and_sensitive(self):
        q = paper_query("glet1")
        a = request_fingerprint("condmat", CountRequest(query=q, trials=3, seed=1))
        b = request_fingerprint("condmat", CountRequest(query=q, trials=3, seed=1))
        assert a == b
        assert a != request_fingerprint("condmat", CountRequest(query=q, trials=3, seed=2))
        assert a != request_fingerprint("enron", CountRequest(query=q, trials=3, seed=1))
        assert a != request_fingerprint(
            "condmat", CountRequest(query=paper_query("glet2"), trials=3, seed=1)
        )

    def test_inherited_defaults_match_explicit(self):
        q = paper_query("wiki")
        cfg = EngineConfig(trials=7, seed=3)
        implicit = request_fingerprint("condmat", CountRequest(query=q), cfg)
        explicit = request_fingerprint(
            "condmat", CountRequest(query=q, trials=7, seed=3), cfg
        )
        assert implicit == explicit

    def test_query_name_is_part_of_the_key(self):
        # the cached RunResult carries query_name, so requests differing
        # only in name must not share a cache entry (mislabeled payloads)
        edges = [(0, 1), (1, 2), (2, 0)]
        a = QueryGraph(edges, name="tri-a")
        b = QueryGraph(edges, name="tri-b")
        fa = request_fingerprint("g", CountRequest(query=a, trials=1))
        fb = request_fingerprint("g", CountRequest(query=b, trials=1))
        assert fa != fb
        assert canonical_query(a)["name"] == "tri-a"
        # label-spelling of the *nodes* is not structure: relabeling to
        # ints canonicalises identically
        c = QueryGraph([("x", "y"), ("y", "z"), ("z", "x")], name="tri-a")
        fc = request_fingerprint("g", CountRequest(query=c, trials=1))
        assert fc == fa

    def test_canonical_request_is_json_and_resolved(self):
        q = paper_query("glet1")
        doc = canonical_request("condmat", CountRequest(query=q), EngineConfig(seed=11))
        json.dumps(doc)
        assert doc["seed"] == 11
        assert doc["dataset"] == "condmat"
        assert doc["query"]["k"] == q.k
