"""Adaptive-precision API: PrecisionSpec, the streaming accumulator,
the stopping rule, fingerprint canonicalisation, wire v2, and the
service/CLI precision surfaces.

The load-bearing invariant throughout: with ``rel_error=None`` the
precision path is *inert* — a bare ``trials=N`` request, the
``PrecisionSpec.fixed(N)`` desugaring, and a pre-precision caller all
produce bit-identical colorful counts and identical cache keys.  The
cross-backend half of that invariant lives in
``test_differential_matrix.py``; here we pin the single-backend pieces
(prefix determinism, fingerprint collapse, accumulator parity).
"""

from __future__ import annotations

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _parse_precision
from repro.counting.colorings import coloring_batch, coloring_stream
from repro.counting.estimator import EstimateResult, StreamingEstimate
from repro.engine import CountingEngine, EngineConfig, PrecisionSpec
from repro.engine.config import CountRequest
from repro.engine.fingerprint import canonical_request, request_fingerprint
from repro.engine.result import RunResult
from repro.graph.generators import erdos_renyi
from repro.query.library import paper_query
from repro.service import BadRequestError, CountingService
from repro.theory.bounds import (
    chebyshev_halfwidth,
    estimator_relative_variance_bound,
    normal_quantile,
    required_trials,
    student_t_quantile,
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.12, np.random.default_rng(7), name="er60")


# ---------------------------------------------------------------------------
# PrecisionSpec: validation and the coerce grammar
# ---------------------------------------------------------------------------
class TestPrecisionSpec:
    def test_defaults_are_fixed_mode(self):
        spec = PrecisionSpec()
        assert spec.rel_error is None
        assert not spec.is_adaptive

    def test_fixed_runs_exactly_n(self):
        spec = PrecisionSpec.fixed(7)
        assert spec.min_trials == spec.max_trials == 7
        assert spec.rel_error is None and not spec.is_adaptive

    @pytest.mark.parametrize("bad", [
        dict(min_trials=0),
        dict(max_trials=0),
        dict(min_trials=5, max_trials=3),
        dict(rel_error=0.0),
        dict(rel_error=-0.1),
        dict(rel_error=0.05, confidence=0.0),
        dict(rel_error=0.05, confidence=1.0),
        dict(rel_error=float("nan")),
    ])
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            PrecisionSpec(**bad)

    def test_coerce_int_is_fixed_sugar(self):
        assert PrecisionSpec.coerce(7) == PrecisionSpec.fixed(7)

    def test_coerce_spec_is_identity(self):
        spec = PrecisionSpec(rel_error=0.05)
        assert PrecisionSpec.coerce(spec) is spec

    def test_coerce_rejects_bool(self):
        # bool is an int subclass: `precision=True` is always a bug
        with pytest.raises(ValueError, match="PrecisionSpec, int, or mapping"):
            PrecisionSpec.coerce(True)

    def test_coerce_rejects_garbage_types(self):
        with pytest.raises(ValueError, match="got str"):
            PrecisionSpec.coerce("0.05")

    def test_coerce_mapping_full(self):
        spec = PrecisionSpec.coerce(
            {"rel_error": 0.1, "confidence": 0.9, "min_trials": 5, "max_trials": 50}
        )
        assert spec == PrecisionSpec(0.1, 0.9, 5, 50)
        assert spec.is_adaptive

    def test_coerce_mapping_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown precision field\(s\): \['bogus'\]"):
            PrecisionSpec.coerce({"rel_error": 0.05, "bogus": 1})

    def test_coerce_mapping_min_only_is_fixed(self):
        # fixed-mode mapping naming only min_trials runs exactly that many
        spec = PrecisionSpec.coerce({"min_trials": 4})
        assert spec == PrecisionSpec.fixed(4)

    def test_coerce_rejects_fractional_trial_bounds(self):
        # the rule top-level integer fields follow: 2.0 is 2, 2.5 an error
        assert PrecisionSpec.coerce({"min_trials": 2.0}) == PrecisionSpec.fixed(2)
        for name in ("min_trials", "max_trials"):
            with pytest.raises(ValueError, match="whole number"):
                PrecisionSpec.coerce({"rel_error": 0.1, name: 2.5})
        # JSON true is not the integer 1
        with pytest.raises(ValueError, match="whole number"):
            PrecisionSpec.coerce({"min_trials": True})

    def test_coerce_mapping_rel_only_keeps_defaults(self):
        spec = PrecisionSpec.coerce({"rel_error": 0.05})
        assert spec.confidence == 0.95
        assert spec.is_adaptive

    def test_adaptivity_needs_headroom(self):
        # rel_error set but min == max: the rule can never change anything
        spec = PrecisionSpec(rel_error=0.05, min_trials=8, max_trials=8)
        assert not spec.is_adaptive

    def test_to_dict_coerce_round_trip(self):
        spec = PrecisionSpec(rel_error=0.02, confidence=0.99, min_trials=4, max_trials=64)
        assert PrecisionSpec.coerce(spec.to_dict()) == spec

    def test_request_effective_precision(self):
        q = paper_query("glet1")
        assert CountRequest(q, trials=6).effective_precision() == PrecisionSpec.fixed(6)
        spec = PrecisionSpec(rel_error=0.05)
        # explicit precision wins over the bare trials knob
        assert CountRequest(q, trials=6, precision=spec).effective_precision() is spec


# ---------------------------------------------------------------------------
# StreamingEstimate vs the batch EstimateResult: fuzzed parity
# ---------------------------------------------------------------------------
class TestStreamingAccumulator:
    @given(counts=st.lists(st.integers(min_value=0, max_value=10**6),
                           min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_batch_statistics(self, counts):
        scale = 3.375  # k=3 normalization: 27/8
        stream = StreamingEstimate(scale)
        for c in counts:
            stream.push(c)
        batch = EstimateResult("q", "g", len(counts), list(counts), scale)
        assert stream.trials == batch.trials
        assert stream.colorful_mean == pytest.approx(batch.colorful_mean, rel=1e-12)
        assert stream.colorful_variance == pytest.approx(
            batch.colorful_variance, rel=1e-9, abs=1e-9
        )
        assert stream.estimate == pytest.approx(batch.estimate, rel=1e-12)

    @given(counts=st.lists(st.integers(min_value=1, max_value=10**4),
                           min_size=2, max_size=40).filter(lambda c: len(set(c)) > 1))
    @settings(max_examples=100, deadline=None)
    def test_t_interval_brackets_estimate(self, counts):
        stream = StreamingEstimate(2.0)
        for c in counts:
            stream.push(c)
        hw = stream.relative_halfwidth(0.95)
        assert 0.0 < hw < math.inf
        lo, hi = stream.interval(0.95)
        assert lo <= stream.estimate <= hi
        assert hi - lo == pytest.approx(
            min(2 * hw * stream.estimate, hi - lo), rel=1e-12
        )  # clamping below zero can only shrink the printed interval

    def test_degenerate_without_bound_is_infinite(self):
        stream = StreamingEstimate(1.0)
        stream.push(5)
        assert math.isinf(stream.relative_halfwidth())
        assert stream.interval() == (0.0, math.inf)

    def test_degenerate_with_bound_uses_chebyshev(self):
        bound = estimator_relative_variance_bound(3, 3)
        stream = StreamingEstimate(1.0, rel_variance_bound=bound)
        for _ in range(4):
            stream.push(7)  # all-equal prefix: empirical variance is zero
        assert stream.relative_halfwidth(0.95) == pytest.approx(
            chebyshev_halfwidth(bound, 4, 0.95)
        )

    def test_precision_met_validates(self):
        stream = StreamingEstimate(1.0)
        with pytest.raises(ValueError, match="rel_error must be positive"):
            stream.precision_met(0.0)
        with pytest.raises(ValueError, match="confidence"):
            stream.relative_halfwidth(1.5)

    def test_theory_helpers_sane(self):
        # the normal quantile inverts the CDF at well-known points
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
        # Student-t approaches the normal as dof grows, exceeds it at small dof
        assert student_t_quantile(0.975, 10**6) == pytest.approx(1.959964, abs=1e-3)
        assert student_t_quantile(0.975, 3) > normal_quantile(0.975)
        # a tighter target can only demand more trials
        assert required_trials(1.0, 0.1, 0.95) >= required_trials(1.0, 0.2, 0.95)


# ---------------------------------------------------------------------------
# Prefix determinism: the stream is the batch
# ---------------------------------------------------------------------------
class TestColoringPrefix:
    def test_stream_prefix_equals_batch(self):
        n, k, seed = 37, 4, 11
        stream = coloring_stream(n, k, seed)
        drawn = [next(stream) for _ in range(9)]
        for t in (1, 4, 9):
            batch = coloring_batch(n, k, t, seed)
            for a, b in zip(drawn[:t], batch):
                assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# The adaptive scheduler in the engine
# ---------------------------------------------------------------------------
class TestAdaptiveScheduling:
    def test_early_stop_under_loose_target(self, graph):
        spec = PrecisionSpec(rel_error=0.5, min_trials=3, max_trials=100)
        with CountingEngine(graph, EngineConfig(seed=0)) as engine:
            result = engine.count(paper_query("glet1"), method="ps", precision=spec)
        assert result.stopped_early
        assert spec.min_trials <= result.trials_used < spec.max_trials
        assert result.trials == result.trials_used == len(result.colorful_counts)
        assert result.ci_low is not None and result.ci_high is not None
        assert result.ci_low <= result.estimate <= result.ci_high
        hw = (result.ci_high - result.ci_low) / (2 * result.estimate)
        assert hw <= 0.5 * (1 + 1e-9)

    def test_in_process_adaptive_run_times_every_trial(self, graph):
        spec = PrecisionSpec(rel_error=0.5, min_trials=3, max_trials=100)
        with CountingEngine(graph, EngineConfig(seed=0)) as engine:
            result = engine.count(paper_query("glet1"), method="ps", precision=spec)
        assert result.stopped_early
        assert result.trial_times is not None
        assert len(result.trial_times) == result.trials_used

    def test_cap_binds_under_impossible_target(self, graph):
        spec = PrecisionSpec(rel_error=1e-9, min_trials=3, max_trials=6)
        with CountingEngine(graph, EngineConfig(seed=0)) as engine:
            result = engine.count(paper_query("glet1"), method="ps", precision=spec)
        assert not result.stopped_early
        assert result.trials_used == 6

    def test_min_trials_floor_holds(self, graph):
        # a target so loose one trial would satisfy it still runs the floor
        spec = PrecisionSpec(rel_error=50.0, min_trials=5, max_trials=100)
        with CountingEngine(graph, EngineConfig(seed=0)) as engine:
            result = engine.count(paper_query("glet1"), method="ps", precision=spec)
        assert result.trials_used >= 5

    def test_adaptive_prefix_bit_identical_to_fixed(self, graph):
        """The first N adaptive trials ARE the fixed-N trials."""
        spec = PrecisionSpec(rel_error=0.5, min_trials=3, max_trials=100)
        with CountingEngine(graph, EngineConfig(seed=0)) as engine:
            adaptive = engine.count(paper_query("glet1"), method="ps", precision=spec)
            fixed = engine.count(
                paper_query("glet1"), method="ps", trials=adaptive.trials_used
            )
        assert adaptive.colorful_counts == fixed.colorful_counts
        assert adaptive.estimate == fixed.estimate

    def test_fixed_precision_matches_bare_trials(self, graph):
        with CountingEngine(graph, EngineConfig(seed=0)) as engine:
            bare = engine.count(paper_query("glet2"), method="ps-vec", trials=4)
            sugar = engine.count(
                paper_query("glet2"), method="ps-vec", precision=PrecisionSpec.fixed(4)
            )
            as_int = engine.count(paper_query("glet2"), method="ps-vec", precision=4)
        assert bare.colorful_counts == sugar.colorful_counts == as_int.colorful_counts
        assert not bare.stopped_early and not sugar.stopped_early

    def test_progress_callback_sees_monotone_refinement(self, graph):
        snapshots = []
        spec = PrecisionSpec(rel_error=0.3, min_trials=3, max_trials=60)
        with CountingEngine(graph, EngineConfig(seed=0)) as engine:
            engine.count(
                paper_query("glet1"), method="ps", precision=spec,
                on_progress=snapshots.append,
            )
        assert snapshots, "adaptive runs must report progress"
        done = [int(s["trials_done"]) for s in snapshots]
        assert done == sorted(done) and done[0] >= 1
        last = snapshots[-1]
        assert last["target_rel_error"] == 0.3
        assert last["max_trials"] == 60
        assert {"estimate", "ci_low", "ci_high", "rel_halfwidth"} <= set(last)


# ---------------------------------------------------------------------------
# Fingerprint canonicalisation: fixed collapses, adaptive separates
# ---------------------------------------------------------------------------
class TestFingerprintCanonicalisation:
    def test_fixed_spellings_share_a_key(self):
        q = paper_query("glet1")
        bare = request_fingerprint("d", CountRequest(q, trials=7))
        sugar = request_fingerprint("d", CountRequest(q, precision=PrecisionSpec.fixed(7)))
        as_int = request_fingerprint("d", CountRequest(q, precision=7))
        assert bare == sugar == as_int

    def test_fixed_doc_has_no_precision_key(self):
        # pre-precision cache keys must be byte-identical: no new key
        q = paper_query("glet1")
        doc = canonical_request("d", CountRequest(q, precision=PrecisionSpec.fixed(7)))
        assert doc["trials"] == 7
        assert "precision" not in doc

    def test_adaptive_never_aliases_fixed(self):
        q = paper_query("glet1")
        spec = PrecisionSpec(rel_error=0.05, max_trials=7)
        adaptive = request_fingerprint("d", CountRequest(q, precision=spec))
        fixed = request_fingerprint("d", CountRequest(q, trials=7))
        assert adaptive != fixed
        doc = canonical_request("d", CountRequest(q, precision=spec))
        assert doc["precision"] == spec.to_dict()
        assert doc["trials"] == spec.max_trials  # bare knob pinned to the cap

    def test_bare_trials_knob_cannot_split_adaptive_keys(self):
        q = paper_query("glet1")
        spec = PrecisionSpec(rel_error=0.05, max_trials=50)
        a = request_fingerprint("d", CountRequest(q, trials=3, precision=spec))
        b = request_fingerprint("d", CountRequest(q, trials=9, precision=spec))
        assert a == b

    def test_distinct_targets_distinct_keys(self):
        q = paper_query("glet1")
        a = request_fingerprint("d", CountRequest(q, precision=PrecisionSpec(rel_error=0.05)))
        b = request_fingerprint("d", CountRequest(q, precision=PrecisionSpec(rel_error=0.1)))
        assert a != b


# ---------------------------------------------------------------------------
# RunResult wire v2 (and v1 acceptance)
# ---------------------------------------------------------------------------
class TestWireVersion2:
    def _result(self) -> RunResult:
        return RunResult(
            query_name="q", graph_name="g", trials=5,
            colorful_counts=[3, 4, 5, 4, 3], scale=3.375,
            method="ps", seed=1, num_colors=3,
            trials_used=5, stopped_early=True,
            ci_low=10.0, ci_high=20.0,
        )

    def test_v2_round_trip_preserves_adaptive_fields(self):
        doc = self._result().to_dict()
        assert doc["wire_version"] == 2
        back = RunResult.from_dict(doc)
        assert back.trials_used == 5 and back.stopped_early
        assert back.ci_low == 10.0 and back.ci_high == 20.0
        assert back.to_dict() == doc  # serialize-again fixpoint

    def test_v1_documents_still_load(self):
        doc = self._result().to_dict()
        for key in ("wire_version", "trials_used", "stopped_early",
                    "ci_low", "ci_high"):
            del doc[key]
        back = RunResult.from_dict(doc)
        # v1 reading: a fixed run that spent exactly its trial budget
        assert back.trials_used == back.trials == 5
        assert not back.stopped_early
        assert back.ci_low is None and back.ci_high is None

    def test_future_versions_rejected(self):
        doc = self._result().to_dict()
        doc["wire_version"] = 3
        with pytest.raises(ValueError, match="unsupported RunResult wire_version 3"):
            RunResult.from_dict(doc)


# ---------------------------------------------------------------------------
# Service surface: coercion, eager 400s, progress, cache identity
# ---------------------------------------------------------------------------
@pytest.fixture()
def service(graph):
    svc = CountingService(
        config=EngineConfig(trials=2, seed=0),
        workers=2, queue_depth=16, cache_size=64,
    )
    svc.registry.add("tiny", graph)
    yield svc
    svc.close()


class TestServicePrecision:
    def test_adaptive_request_round_trips(self, service):
        result, cached = service.count(
            "tiny", "glet1",
            precision={"rel_error": 0.5, "min_trials": 3, "max_trials": 50},
        )
        assert not cached
        assert result.stopped_early and result.trials_used < 50
        assert result.ci_low is not None
        again, cached = service.count(
            "tiny", "glet1",
            precision={"rel_error": 0.5, "min_trials": 3, "max_trials": 50},
        )
        assert cached and again is result

    def test_precision_int_and_bare_trials_share_cache(self, service):
        a, _ = service.count("tiny", "glet2", precision=3, seed=5)
        b, cached = service.count("tiny", "glet2", trials=3, seed=5)
        assert cached and b is a

    @pytest.mark.parametrize("bad", [
        {"rel_error": -0.05},
        {"rel_error": 0.05, "confidence": 2.0},
        {"rel_error": 0.05, "bogus": 1},
        {"min_trials": 10, "max_trials": 2},
        "five percent",
        True,
    ])
    def test_malformed_precision_is_eager_400(self, bad, service):
        with pytest.raises(BadRequestError, match="precision"):
            service.count("tiny", "glet1", precision=bad)

    def test_unbounded_cap_is_eager_400(self, service):
        # the adaptive cap is bounded like the legacy trials knob
        with pytest.raises(BadRequestError, match="max_trials"):
            service.count(
                "tiny", "glet1",
                precision={"rel_error": 0.05, "max_trials": 100_000_000},
            )

    def test_async_job_exposes_progress_detail(self, service):
        job = service.submit(
            "tiny", "glet1",
            precision={"rel_error": 0.5, "min_trials": 3, "max_trials": 50},
        )
        assert job.wait(30.0) and job.state == "done"
        doc = job.to_dict()
        detail = doc.get("progress_detail")
        assert detail is not None
        assert detail["trials_done"] >= 1
        assert {"estimate", "ci_low", "ci_high", "rel_halfwidth",
                "target_rel_error"} <= set(detail)
        assert job.progress == 1.0


# ---------------------------------------------------------------------------
# CLI flag parsing
# ---------------------------------------------------------------------------
def _ns(rel_error=None, confidence=0.95, min_trials=None, max_trials=None):
    return argparse.Namespace(
        rel_error=rel_error, confidence=confidence,
        min_trials=min_trials, max_trials=max_trials,
    )


class TestCliPrecisionFlags:
    def test_no_flags_means_no_spec(self):
        assert _parse_precision(_ns()) is None

    def test_rel_error_builds_adaptive_spec(self):
        spec = _parse_precision(_ns(rel_error=0.05, confidence=0.9))
        assert spec == PrecisionSpec(rel_error=0.05, confidence=0.9)
        assert spec.is_adaptive

    def test_trial_bounds_without_target_stay_fixed(self):
        spec = _parse_precision(_ns(min_trials=4))
        assert spec == PrecisionSpec.fixed(4)

    def test_full_flag_set(self):
        spec = _parse_precision(
            _ns(rel_error=0.1, confidence=0.99, min_trials=5, max_trials=80)
        )
        assert spec == PrecisionSpec(0.1, 0.99, 5, 80)

    def test_bad_combination_raises_value_error(self):
        with pytest.raises(ValueError):
            _parse_precision(_ns(min_trials=10, max_trials=2))

    def test_count_command_end_to_end(self, capsys):
        from repro.cli import main
        rc = main([
            "count", "--graph", "roadnetca", "--query", "glet1",
            "--method", "ps-vec", "--rel-error", "0.5", "--max-trials", "50",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "early stop, cap 50" in out
        assert "95% CI" in out

    def test_count_command_rejects_bad_bounds(self, capsys):
        from repro.cli import main
        rc = main([
            "count", "--graph", "roadnetca", "--query", "glet1",
            "--min-trials", "10", "--max-trials", "2",
        ])
        assert rc == 2
        assert "max_trials" in capsys.readouterr().err
