"""Tests for the benchmark harness utilities."""

import json
import math

import pytest

from repro.bench import (
    DEFAULT_TOLERANCE,
    PERF_SMOKE_GRID,
    Timer,
    bench_record,
    bench_scale,
    calibration_seconds,
    compare_to_baseline,
    format_table,
    geometric_mean,
    grid_graph_names,
    grid_query_names,
    load_bench_json,
    write_bench_json,
)
from repro.bench import harness
from repro.bench.harness import main as harness_main


@pytest.fixture
def no_overhead_gates(monkeypatch):
    """Disable the one-sample obs overhead-ratio gate: it measures timing
    noise on small shared hosts, not what the emit/baseline tests check."""
    monkeypatch.setattr(harness, "OBS_OVERHEAD_LIMIT", math.inf)


class TestFormatTable:
    def test_basic_render(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "b" in lines[1]
        assert "22" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_float_formatting(self):
        text = format_table([{"x": 0.123456}], floatfmt=".2f")
        assert "0.12" in text

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_missing_cells_blank(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in text


class TestScaleKnob:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "lots")
        assert bench_scale() == 1.0

    def test_light_grids(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        assert len(grid_graph_names()) < 10
        assert len(grid_query_names()) < 10

    def test_full_grids(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")
        assert len(grid_graph_names()) == 10
        assert len(grid_query_names()) == 10


class TestTimerAndStats:
    def test_timer_measures(self):
        t = Timer()
        with t.measure():
            sum(range(10000))
        assert t.elapsed > 0

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0, 2]) == pytest.approx(2.0)  # zeros skipped


class TestBenchRecords:
    def test_record_key_and_fields(self):
        rec = bench_record("fig9", "enron", "wiki", "ps-vec", 0.25, count=7, note="x")
        assert rec["key"] == "fig9/enron/wiki/ps-vec"
        assert rec["seconds"] == 0.25
        assert rec["count"] == 7
        assert rec["note"] == "x"

    def test_json_round_trip(self, tmp_path):
        records = [bench_record("b", "g", "q", "m", 1.5)]
        path = write_bench_json(str(tmp_path / "BENCH_t.json"), records, extra=3)
        doc = load_bench_json(path)
        assert doc["schema"] == "repro-bench/1"
        assert doc["extra"] == 3
        assert doc["records"] == records

    def test_json_is_valid_json_on_disk(self, tmp_path):
        path = write_bench_json(str(tmp_path / "BENCH_t.json"), [])
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["records"] == []


class TestBaselineGate:
    def _baseline(self, seconds):
        return {"records": [bench_record("b", "g", "q", "m", seconds)]}

    def test_no_regression_within_tolerance(self):
        current = [bench_record("b", "g", "q", "m", 1.9)]
        assert compare_to_baseline(current, self._baseline(1.0)) == []

    def test_regression_flagged_beyond_tolerance(self):
        current = [bench_record("b", "g", "q", "m", 2.5)]
        (reg,) = compare_to_baseline(current, self._baseline(1.0))
        assert reg["key"] == "b/g/q/m"
        assert reg["ratio"] == pytest.approx(2.5)

    def test_custom_tolerance(self):
        current = [bench_record("b", "g", "q", "m", 1.5)]
        assert compare_to_baseline(current, self._baseline(1.0), tolerance=1.2)

    def test_untracked_keys_never_fail(self):
        current = [bench_record("new", "g", "q", "m", 100.0)]
        assert compare_to_baseline(current, self._baseline(0.001)) == []

    def test_default_tolerance_is_2x(self):
        assert DEFAULT_TOLERANCE == 2.0

    def test_calibrated_metric_preferred_over_seconds(self):
        # raw seconds regressed 10x (slower machine) but the calibrated
        # figure is unchanged — the gate must not flag it
        base = {"records": [bench_record("b", "g", "q", "m", 0.1, calibrated=5.0)]}
        current = [bench_record("b", "g", "q", "m", 1.0, calibrated=5.0)]
        assert compare_to_baseline(current, base) == []
        # and a genuine calibrated regression is still caught
        worse = [bench_record("b", "g", "q", "m", 1.0, calibrated=15.0)]
        (reg,) = compare_to_baseline(worse, base)
        assert reg["metric"] == "calibrated"
        assert reg["ratio"] == pytest.approx(3.0)

    def test_calibration_probe_is_positive_and_fast(self):
        cal = calibration_seconds(repeats=1)
        assert 0 < cal < 5.0


class TestObsOverheadTiming:
    """The obs-on/obs-off timing both overhead gates share."""

    def test_sides_alternate_on_every_repetition(self):
        from repro import obs

        seen = []

        def fn():
            seen.append(obs.is_enabled())
            return 7

        on, off, ratio, count = harness.time_obs_overhead(fn, 3)
        # one untimed warm-up, then on/off pairs
        assert seen == [True] + [True, False] * 3
        assert count == 7 and on > 0 and off > 0 and ratio > 0
        assert obs.is_enabled()

    @staticmethod
    def timed(monkeypatch, on, off):
        """Run the timing over a fake clock: the ``i``-th obs-on call takes
        ``on[i]`` seconds (``on[0]`` is the warm-up), the obs-off calls
        ``off[i]``."""
        from repro import obs

        clock = [0.0]
        durations = {True: iter(on), False: iter(off)}

        def fn():
            clock[0] += next(durations[obs.is_enabled()])
            return 1

        monkeypatch.setattr(harness.time, "perf_counter", lambda: clock[0])
        return harness.time_obs_overhead(fn, len(off))

    def test_median_ignores_one_outlier_on_either_side(self, monkeypatch):
        # a slow obs-on run, then a fast obs-off run that alone would fail
        # a comparison of best-of minima (1.0 / 0.8 = 1.25)
        slow_on = [1.0] * 8 + [5.0] + [1.0] * 7
        _, _, ratio, _ = self.timed(monkeypatch, slow_on, [1.0] * 15)
        assert ratio == pytest.approx(1.0)
        fast_off = [1.0] * 7 + [0.8] + [1.0] * 7
        on, off, ratio, _ = self.timed(monkeypatch, [1.0] * 16, fast_off)
        assert on / off == pytest.approx(1.25)
        assert ratio == pytest.approx(1.0)

    def test_uniform_slowdown_on_the_obs_side_fails_the_limit(self, monkeypatch):
        _, _, ratio, _ = self.timed(monkeypatch, [1.1] * 16, [1.0] * 15)
        assert ratio == pytest.approx(1.1)
        assert ratio > harness.OBS_OVERHEAD_LIMIT

    def test_exception_leaves_obs_enabled(self):
        from repro import obs

        calls = []

        def fn():
            calls.append(obs.is_enabled())
            if len(calls) == 3:  # the first obs-off repetition
                raise KeyError("boom")
            return 1

        with pytest.raises(KeyError):
            harness.time_obs_overhead(fn, 3)
        assert calls[-1] is False
        assert obs.is_enabled()

    def test_count_mismatch_raises(self):
        from repro import obs

        def fn():
            return 1 if obs.is_enabled() else 2

        with pytest.raises(RuntimeError, match="changed the count"):
            harness.time_obs_overhead(fn, 2)
        assert obs.is_enabled()


class TestPerfSmokeCLI:
    """End-to-end runs of ``python -m repro.bench`` (in-process)."""

    def test_smoke_grid_pairs_ps_with_vec(self):
        # every ps cell has a ps-vec twin so regressions compare kernels
        pairs = {(g, q) for g, q, m in PERF_SMOKE_GRID if m == "ps"}
        vec = {(g, q) for g, q, m in PERF_SMOKE_GRID if m == "ps-vec"}
        assert pairs <= vec

    def test_emit_and_gate_round_trip(self, tmp_path, capsys, no_overhead_gates):
        out = tmp_path / "BENCH_perf_smoke.json"
        base = tmp_path / "baseline.json"
        rc = harness_main(
            ["--repeats", "1", "--emit-json", str(out),
             "--baseline", str(base), "--update-baseline"]
        )
        assert rc == 0
        assert out.exists() and base.exists()
        doc = load_bench_json(str(out))
        keys = {r["key"] for r in doc["records"]}
        assert "perf_smoke/condmat/glet1/ps-vec" in keys
        # identical counts for ps and ps-vec inside the smoke grid
        by_key = {r["key"]: r for r in doc["records"]}
        assert (
            by_key["perf_smoke/condmat/glet1/ps"]["count"]
            == by_key["perf_smoke/condmat/glet1/ps-vec"]["count"]
        )
        # gate passes against the baseline we just wrote (huge tolerance
        # so machine noise can never flake this test)
        rc = harness_main(["--repeats", "1", "--baseline", str(base),
                           "--tolerance", "1e9"])
        assert rc == 0

    def test_update_baseline_requires_baseline_path(self, capsys):
        with pytest.raises(SystemExit):
            harness_main(["--update-baseline"])
        assert "requires --baseline" in capsys.readouterr().err

    def test_gate_fails_on_regression(self, tmp_path, capsys, no_overhead_gates):
        base = tmp_path / "baseline.json"
        # a baseline claiming every tracked benchmark once took ~0 seconds
        write_bench_json(
            str(base),
            [bench_record("perf_smoke", g, q, m, 1e-12) for g, q, m in PERF_SMOKE_GRID],
        )
        rc = harness_main(["--repeats", "1", "--baseline", str(base)])
        assert rc == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_failed_overhead_gates_still_emit_and_compare(
        self, tmp_path, capsys, monkeypatch
    ):
        # a ratio limit no run can meet: the overhead gate fails, yet the
        # record is still written and the baseline still compared
        monkeypatch.setattr(harness, "OBS_OVERHEAD_LIMIT", 0.0)
        out = tmp_path / "BENCH_perf_smoke.json"
        base = tmp_path / "baseline.json"
        write_bench_json(
            str(base),
            [bench_record("perf_smoke", g, q, m, 1e-12) for g, q, m in PERF_SMOKE_GRID],
        )
        rc = harness_main(
            ["--repeats", "1", "--emit-json", str(out), "--baseline", str(base)]
        )
        assert rc == 1
        assert out.exists()
        text = capsys.readouterr().out
        assert "FAIL: obs instrumentation" in text
        assert "REGRESSIONS" in text


class TestScalingBench:
    """The ps-dist strong-scaling bench and its CLI entry point."""

    def test_run_scaling_bench_structure_and_parity(self):
        from repro.bench import SCALING_GRID, run_scaling_bench
        from repro.engine import EngineConfig

        doc = run_scaling_bench(workers=(1, 2), repeats=1,
                                config=EngineConfig(seed=0))
        assert doc["workers"] == [1, 2]
        assert doc["seed"] == 0
        assert len(doc["speedups"]) == len(SCALING_GRID)
        assert len(doc["records"]) == 2 * len(SCALING_GRID)
        for rec in doc["records"]:
            assert rec["critical_seconds"] > 0
            assert rec["calibrated"] > 0
            assert rec["count"] >= 0
        # counts are identical at every worker count (asserted inside the
        # bench; re-check through the records)
        by_cell = {}
        for rec in doc["records"]:
            by_cell.setdefault((rec["graph"], rec["query"]), set()).add(rec["count"])
        assert all(len(counts) == 1 for counts in by_cell.values())
        assert doc["speedup_at_max"] > 0

    def test_scaling_bench_is_deterministic_in_counts(self):
        from repro.bench import run_scaling_bench
        from repro.engine import EngineConfig

        a = run_scaling_bench(workers=(1,), repeats=1, config=EngineConfig(seed=3))
        b = run_scaling_bench(workers=(1,), repeats=1, config=EngineConfig(seed=3))
        assert [r["count"] for r in a["records"]] == [r["count"] for r in b["records"]]

    def test_scaling_cli_emits_json_and_gates(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scaling.json"
        rc = harness_main([
            "--scaling", "--workers", "1,2", "--repeats", "1",
            "--emit-json", str(out), "--assert-speedup", "0.01",
        ])
        assert rc == 0
        doc = load_bench_json(str(out))
        assert doc["workers"] == [1, 2]
        assert "speedup_at_max" in doc and "speedups" in doc
        assert {r["workers"] for r in doc["records"]} == {1, 2}
        out_text = capsys.readouterr().out
        assert "strong scaling" in out_text

    def test_scaling_cli_gate_fails_on_impossible_speedup(self, capsys):
        rc = harness_main([
            "--scaling", "--workers", "1,2", "--repeats", "1",
            "--assert-speedup", "1e9",
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_invalid_worker_counts_rejected(self):
        from repro.bench import run_scaling_bench

        with pytest.raises(ValueError, match="worker counts"):
            run_scaling_bench(workers=(0, 2), repeats=1)


class TestServeBench:
    """The counting-service throughput bench and its CLI entry point."""

    def test_run_serve_smoke_structure_and_parity(self):
        from repro.bench import SERVE_GRID, run_serve_smoke
        from repro.engine import EngineConfig

        doc = run_serve_smoke(duration=0.1, config=EngineConfig(seed=0))
        assert doc["cached_qps"] > 0
        assert doc["cache"]["misses"] == len(SERVE_GRID)
        assert doc["cache"]["evictions"] == 0
        # three records per grid cell: cold, cached-http, cached-local
        assert len(doc["records"]) == 3 * len(SERVE_GRID)
        by_cell = {}
        for rec in doc["records"]:
            by_cell.setdefault((rec["graph"], rec["query"]), set()).add(rec["count"])
        # cold/cached paths agree on the counts (parity asserted inside too)
        assert all(len(counts) == 1 for counts in by_cell.values())
        for rec in doc["records"]:
            if rec["method"] != "cold-http":
                assert rec["qps"] > 0 and rec["requests"] >= 1

    def test_serve_cli_emits_json_and_gates(self, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        rc = harness_main([
            "--serve-smoke", "--duration", "0.1",
            "--emit-json", str(out), "--assert-qps", "0.01",
        ])
        assert rc == 0
        doc = load_bench_json(str(out))
        assert doc["cached_qps"] > 0
        assert any(r["method"] == "cached-http" for r in doc["records"])
        # an impossible throughput floor fails the gate
        rc = harness_main(["--serve-smoke", "--duration", "0.05",
                           "--assert-qps", "1e12"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
