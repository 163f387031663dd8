"""Experiment harness: table formatting, grids, perf records, CI gate.

Every benchmark prints its results as an aligned text table (one per
paper table/figure), with paper-reported reference values alongside where
applicable.  ``REPRO_BENCH_SCALE`` (environment variable, default 1.0)
scales workload sizes for quick smoke runs vs fuller sweeps.

Besides the tables, benchmarks can emit machine-comparable timing records
as ``BENCH_<name>.json`` files (:func:`bench_record` /
:func:`write_bench_json`), and ``python -m repro.bench.harness`` runs the
fixed **perf-smoke** grid, emits its JSON, and — with ``--baseline`` —
fails (exit 1) when any tracked benchmark regresses more than the
tolerance (default 2x) against the committed baseline.  CI runs exactly
that; refresh the baseline with ``--update-baseline`` after intentional
performance changes.

``--scaling`` switches to the **strong-scaling** bench: the real
``ps-dist`` executor over the scaling grid at ``--workers`` shard counts
(default 1,2,4), emitting ``BENCH_scaling.json`` and — with
``--assert-speedup X`` — failing unless the geomean measured speedup at
the largest worker count reaches ``X``.  ``--serve-smoke`` switches to
the **service** bench (:mod:`repro.bench.serve`): boot the counting
service in-process, measure cold vs cached request latency, emit
``BENCH_serve.json`` and — with ``--assert-qps X`` — fail below a
cached-path throughput floor.  Every bench coloring is seeded from
``EngineConfig.seed`` (override with ``--seed``), so runs are
deterministic under CI.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine import CountingEngine, CountRequest, EngineConfig, PrecisionSpec, RunResult
from ..graph.graph import Graph

__all__ = [
    "bench_scale",
    "format_table",
    "print_table",
    "Timer",
    "geometric_mean",
    "grid_graph_names",
    "grid_query_names",
    "engine_for",
    "run_query_grid",
    "SIM_RANKS_LOW",
    "SIM_RANKS_HIGH",
    "bench_record",
    "calibration_seconds",
    "write_bench_json",
    "load_bench_json",
    "compare_to_baseline",
    "run_perf_smoke",
    "run_scaling_bench",
    "run_precision_smoke",
    "PERF_SMOKE_GRID",
    "PRECISION_GRID",
    "PRECISION_REL_ERROR",
    "PRECISION_CONFIDENCE",
    "PRECISION_MAX_TRIALS",
    "OBS_OVERHEAD_CELL",
    "OBS_OVERHEAD_LIMIT",
    "OBS_OVERHEAD_REPEATS",
    "time_obs_overhead",
    "SCALING_GRID",
    "SCALING_WORKERS",
    "DEFAULT_TOLERANCE",
    "main",
]

#: Simulated rank counts standing in for the paper's 32 and 512 MPI ranks
#: (scaled with the ~100x graph downscale; the *ratio* 16x is preserved).
SIM_RANKS_LOW = 2
SIM_RANKS_HIGH = 32


def bench_scale() -> float:
    """Workload scale multiplier from the environment (default 1.0)."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:
        return 1.0


def grid_graph_names(light: bool = False) -> List[str]:
    """Datasets used for graph-x-query grids; light mode trims the list."""
    full = [
        "condmat",
        "astroph",
        "enron",
        "brightkite",
        "hepph",
        "slashdot",
        "epinions",
        "orkut",
        "roadnetca",
        "brain",
    ]
    if light or bench_scale() < 1.0:
        return ["condmat", "enron", "epinions", "roadnetca"]
    return full


def grid_query_names(light: bool = False) -> List[str]:
    """Queries used for graph-x-query grids; light mode trims the list."""
    full = [
        "glet1",
        "glet2",
        "youtube",
        "wiki",
        "dros",
        "ecoli1",
        "ecoli2",
        "brain1",
        "brain2",
        "brain3",
    ]
    if light or bench_scale() < 1.0:
        return ["glet1", "youtube", "wiki", "dros"]
    return full


def engine_for(
    g: Graph, config: Optional[EngineConfig] = None, **config_overrides
) -> CountingEngine:
    """A fresh :class:`CountingEngine` for one benchmark's graph.

    Benchmarks that sweep queries over one graph should create the
    engine once and batch through :func:`run_query_grid` so each query
    is planned exactly once for the whole sweep.  Every bench coloring
    RNG is derived from the engine's ``config.seed`` so CI runs are
    reproducible end to end.
    """
    return CountingEngine(g, config, **config_overrides)


def run_query_grid(
    g: Graph,
    queries: Sequence,
    trials: int,
    seed: int,
    method: str = "db",
    num_colors: Optional[int] = None,
    engine: Optional[CountingEngine] = None,
) -> List[RunResult]:
    """One batched engine pass over ``queries`` (the Fig 8-10/15 shape).

    Every query's decomposition plan is built once and shared by all its
    trials; results are bit-identical to per-query
    :meth:`CountingEngine.count` calls with the same ``trials``/``seed``.
    """
    engine = engine if engine is not None else engine_for(g)
    requests = [
        CountRequest(
            query=q, trials=trials, seed=seed, method=method, num_colors=num_colors
        )
        for q in queries
    ]
    return engine.count_many(requests)


class Timer:
    """Wall-clock stopwatch."""

    def __init__(self) -> None:
        self.elapsed = 0.0

    @contextmanager
    def measure(self):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.elapsed = time.perf_counter() - start


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean over the positive entries (0.0 when none)."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def format_table(
    rows: Iterable[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
    floatfmt: str = ".3g",
) -> str:
    """Render dict rows as an aligned monospace table."""
    rows = list(rows)
    if not rows:
        return f"== {title} ==\n(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())

    def cell(row: Dict[str, object], c: str) -> str:
        v = row.get(c, "")
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    rendered = [[cell(r, c) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in rendered)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(f"== {title} ==")
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(
    rows: Iterable[Dict[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
    floatfmt: str = ".3g",
) -> None:
    """Print an aligned table built by :func:`format_table`."""
    print()
    print(format_table(rows, columns=columns, title=title, floatfmt=floatfmt))


# ----------------------------------------------------------------------
# machine-comparable perf records + the CI regression gate
# ----------------------------------------------------------------------

#: default regression tolerance: a tracked benchmark fails CI when it is
#: more than this factor slower than the committed baseline (override per
#: run with --tolerance or the REPRO_BENCH_TOLERANCE environment variable)
DEFAULT_TOLERANCE = 2.0

#: the fixed perf-smoke grid: small enough for CI, big enough that each
#: timing is tens of milliseconds (noise-robust under best-of-N)
PERF_SMOKE_GRID = (
    ("condmat", "glet1", "ps"),
    ("condmat", "glet1", "ps-vec"),
    ("condmat", "wiki", "ps"),
    ("condmat", "wiki", "ps-vec"),
    ("enron", "youtube", "ps"),
    ("enron", "youtube", "ps-vec"),
    ("enron", "wiki", "ps-vec"),
    ("enron", "youtube", "db"),
)

#: observability-overhead datapoint, riding the perf-smoke run on this
#: cell: ps-vec with :mod:`repro.obs` enabled (the default — spans/counters
#: present but nobody collecting) must stay within this factor of the
#: same run with the kill-switch thrown.  A dormant span costs two
#: module-attribute reads per call site, so instrumentation must be
#: within noise of free
OBS_OVERHEAD_CELL = ("condmat", "wiki")
OBS_OVERHEAD_LIMIT = 1.05
#: on/off pairs per overhead ratio.  The gates compare the median of the
#: per-pair ratios: over six runs on a shared 2-vCPU host it read
#: 0.986–1.009, where the ratio of two best-of-15 minima read 0.997–1.088
OBS_OVERHEAD_REPEATS = 15


def time_obs_overhead(
    fn: Callable[[], int], repeats: int = OBS_OVERHEAD_REPEATS
) -> Tuple[float, float, float, int]:
    """Time ``fn`` in ``repeats`` pairs with :mod:`repro.obs` on, then off.

    The two sides alternate on every repetition (on, off, on, off, ...)
    after one untimed warm-up, so drift in the host's speed lands on both
    sides alike instead of in their ratio.  ``fn`` returns a count, which
    the kill-switch must not change (``RuntimeError`` otherwise).
    Returns ``(on_seconds, off_seconds, ratio, count)``: each side's
    best time, and the median of the per-pair on/off ratios, which the
    overhead gates compare with :data:`OBS_OVERHEAD_LIMIT` (one fast or
    slow run moves a best-of ratio but not that median).  Observability
    is left enabled, also when ``fn`` raises.
    """
    from .. import obs

    times: Dict[bool, List[float]] = {True: [], False: []}
    try:
        obs.enable()
        count = fn()
        for _ in range(max(1, repeats)):
            for on in (True, False):
                if on:
                    obs.enable()
                else:
                    obs.disable()
                t0 = time.perf_counter()
                got = fn()
                times[on].append(time.perf_counter() - t0)
                if got != count:
                    raise RuntimeError(
                        f"obs kill-switch changed the count: {got} != {count}"
                    )
    finally:
        obs.enable()
    ratio = statistics.median(a / b for a, b in zip(times[True], times[False]))
    return min(times[True]), min(times[False]), ratio, count


def calibration_seconds(repeats: int = 3) -> float:
    """Machine-speed probe: a fixed lexsort + segment-sum workload.

    The instruction mix mirrors the vectorized kernels (sort, gather,
    ``reduceat``), so dividing a benchmark's wall-clock by this number
    yields a machine-relative figure: the perf gate can then compare a
    CI runner against a baseline recorded on any other machine without
    the absolute hardware speed polluting the ratio.
    """
    import numpy as np

    n = 400_000
    keys = (np.arange(n, dtype=np.int64) * 2654435761) % 1000003
    vals = np.ones(n, dtype=np.int64)
    best = math.inf
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        order = np.argsort(keys, kind="stable")
        s = keys[order]
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        total = int(np.add.reduceat(vals[order], starts).sum())
        best = min(best, time.perf_counter() - t0)
        assert total == n
    return best


def bench_record(
    bench: str,
    graph: str,
    query: str,
    method: str,
    seconds: float,
    count: Optional[int] = None,
    **extra: object,
) -> Dict[str, object]:
    """One comparable timing record; ``key`` identifies it across runs."""
    rec: Dict[str, object] = {
        "key": f"{bench}/{graph}/{query}/{method}",
        "bench": bench,
        "graph": graph,
        "query": query,
        "method": method,
        "seconds": float(seconds),
    }
    if count is not None:
        rec["count"] = int(count)
    rec.update(extra)
    return rec


def write_bench_json(path: str, records: Sequence[Dict[str, object]], **meta: object) -> str:
    """Write records (plus meta) to ``path`` as a ``BENCH_*.json`` document."""
    doc = {
        "schema": "repro-bench/1",
        "scale": bench_scale(),
        **meta,
        "records": list(records),
    }
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def load_bench_json(path: str) -> Dict[str, object]:
    """Load a ``BENCH_*.json`` / ``baseline.json`` document."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare_to_baseline(
    records: Sequence[Dict[str, object]],
    baseline: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict[str, object]]:
    """Regressions of ``records`` against a baseline document.

    Only keys present in both are compared (new benchmarks never fail the
    gate; they start being tracked once the baseline is refreshed).
    When both sides carry a ``calibrated`` figure (seconds divided by the
    run's :func:`calibration_seconds`), the ratio compares those —
    machine-relative, so a slower CI runner does not read as a code
    regression; otherwise raw seconds are compared.  Returns one dict per
    offending record with the slowdown ratio and the metric used.
    """
    base = {r["key"]: r for r in baseline.get("records", []) if "key" in r}
    regressions = []
    for rec in records:
        ref = base.get(rec.get("key"))
        if ref is None:
            continue
        if "calibrated" in rec and "calibrated" in ref:
            metric = "calibrated"
        elif "seconds" in rec and "seconds" in ref:
            metric = "seconds"
        else:
            continue
        prev = float(ref[metric])
        if prev <= 0:
            continue
        ratio = float(rec[metric]) / prev
        if ratio > tolerance:
            regressions.append(
                {
                    "key": rec["key"],
                    "current": float(rec[metric]),
                    "baseline": prev,
                    "ratio": ratio,
                    "metric": metric,
                }
            )
    return regressions


def _bench_coloring(engine: CountingEngine, k: int, salt: int = 2016):
    """One deterministic coloring, seeded from the engine's config seed.

    All bench-path randomness roots in ``EngineConfig.seed`` (plus fixed
    structural salts) — never a bare ``np.random``/``random`` call — so
    every CI run of the perf and scaling benches sees identical
    colorings and therefore identical workloads.
    """
    from ..counting.colorings import uniform_coloring
    import numpy as np

    rng = np.random.default_rng(engine.config.seed + salt + k)
    return uniform_coloring(engine.graph.n, k, rng)


def run_perf_smoke(
    repeats: int = 3, config: Optional[EngineConfig] = None
) -> List[Dict[str, object]]:
    """Run the fixed perf-smoke grid; each cell is best-of-``repeats``.

    The grid pins one deterministic coloring per (graph, query) pair —
    derived from ``config.seed`` (default :class:`EngineConfig` seed),
    identical across methods and runs — so records compare kernels, not
    color luck.  Every record carries both raw ``seconds`` and a
    machine-relative ``calibrated`` figure (seconds over this run's
    :func:`calibration_seconds`), which is what the gate compares.
    """
    from .datasets import dataset
    from ..query.library import paper_query

    cal = calibration_seconds()
    records = []
    engines: Dict[str, CountingEngine] = {}
    for gname, qname, method in PERF_SMOKE_GRID:
        engine = engines.setdefault(gname, engine_for(dataset(gname), config))
        q = paper_query(qname)
        colors = _bench_coloring(engine, q.k)
        plan = engine.plan_for(q)  # planning cost excluded: the gate tracks kernels
        best, count = math.inf, None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            count = engine.count_colorful(q, colors, method=method, plan=plan)
            best = min(best, time.perf_counter() - t0)
        records.append(
            bench_record(
                "perf_smoke", gname, qname, method, best,
                count=count, calibrated=best / cal,
            )
        )

    # obs-overhead datapoint: the same ps-vec cell with the observability
    # layer kill-switched off; main() gates the median enabled/disabled
    # pair ratio at OBS_OVERHEAD_LIMIT, over at least OBS_OVERHEAD_REPEATS
    # pairs — the grid's record above may be a single cold sample under
    # --repeats 1, and a ratio of two cold singles is all noise.
    from ..engine.backends import DEFAULT_REGISTRY

    gname, qname = OBS_OVERHEAD_CELL
    engine = engines.setdefault(gname, engine_for(dataset(gname), config))
    q = paper_query(qname)
    colors = _bench_coloring(engine, q.k)
    plan = engine.plan_for(q)
    vec = DEFAULT_REGISTRY.get("ps-vec")
    _, off_best, ratio, off_count = time_obs_overhead(
        lambda: vec.count_colorful(engine.graph, q, colors, plan=plan),
        max(OBS_OVERHEAD_REPEATS, repeats),
    )
    records.append(
        bench_record(
            "perf_smoke", gname, qname, "ps-vec@obs-off", off_best,
            count=off_count, calibrated=off_best / cal,
            overhead_obs_enabled=ratio,
        )
    )
    return records


# ----------------------------------------------------------------------
# adaptive-precision bench (trials saved vs a fixed worst-case schedule)
# ----------------------------------------------------------------------

#: the precision grid: per-trial variance differs widely across these
#: cells, which is exactly what a fixed trial schedule cannot exploit —
#: it must provision for the worst cell while the adaptive scheduler
#: stops each cell at its own convergence point
PRECISION_GRID = (
    ("condmat", "glet1"),
    ("condmat", "youtube"),
    ("enron", "glet1"),
    ("enron", "glet2"),
    ("epinions", "glet1"),
    ("roadnetca", "glet1"),
    ("roadnetca", "wiki"),
)

#: the smoke target: 5% relative error at 95% confidence
PRECISION_REL_ERROR = 0.05
PRECISION_CONFIDENCE = 0.95
#: the adaptive cap — also the ceiling a fixed schedule may not exceed
PRECISION_MAX_TRIALS = 400


def run_precision_smoke(
    rel_error: float = PRECISION_REL_ERROR,
    confidence: float = PRECISION_CONFIDENCE,
    max_trials: int = PRECISION_MAX_TRIALS,
    config: Optional[EngineConfig] = None,
) -> Dict[str, object]:
    """Adaptive-precision sweep: trials saved vs a fixed worst-case schedule.

    Every grid cell runs adaptively to the same ``(rel_error,
    confidence)`` target under one shared cap.  The fixed-schedule
    baseline is the *worst-case* realised trial count over the grid —
    what a bare ``trials=N`` caller must provision to hit the target on
    every cell without knowing per-cell variance in advance.  Per-cell
    savings is ``worst_case / trials_used``; the document's
    ``geomean_trials_saved`` is the figure the CI gate asserts.

    Two invariants are checked here (not just gated downstream): each
    cell's realised trial count never exceeds the fixed baseline, and
    each cell actually reached the requested precision (its final CI
    half-width is within the target), so the savings can never be
    bought by under-delivering on error.
    """
    from .datasets import dataset
    from ..query.library import paper_query

    cfg = config if config is not None else EngineConfig()
    spec = PrecisionSpec(
        rel_error=rel_error, confidence=confidence, max_trials=max_trials
    )
    cells: List[Dict[str, object]] = []
    for gname, qname in PRECISION_GRID:
        engine = engine_for(dataset(gname), cfg)
        q = paper_query(qname)
        t0 = time.perf_counter()
        # ps-vec: every precision cell is an unlabeled paper query under
        # the exact-k palette, and the vectorized kernel keeps the many-
        # trial sweep cheap enough for a CI smoke lane
        res = engine.count(q, method="ps-vec", precision=spec)
        seconds = time.perf_counter() - t0
        if res.ci_low is None or res.ci_high is None or res.estimate <= 0:
            raise AssertionError(
                f"precision cell {gname}/{qname} produced no interval "
                f"(estimate={res.estimate}); cannot certify the target"
            )
        halfwidth = (res.ci_high - res.ci_low) / (2.0 * res.estimate)
        if halfwidth > rel_error * (1.0 + 1e-9):
            raise AssertionError(
                f"precision cell {gname}/{qname} missed the target: "
                f"rel halfwidth {halfwidth:.4f} > {rel_error:g} "
                f"after {res.trials_used} trials (cap {max_trials})"
            )
        cells.append(
            bench_record(
                "precision", gname, qname, "ps-vec-adaptive", seconds,
                trials_used=res.trials_used,
                stopped_early=res.stopped_early,
                rel_halfwidth=halfwidth,
                estimate=res.estimate,
            )
        )
    worst_case = max(int(c["trials_used"]) for c in cells)
    for c in cells:
        used = int(c["trials_used"])
        if used > worst_case:  # pragma: no cover - max() invariant
            raise AssertionError(
                f"{c['key']}: adaptive used {used} > fixed baseline {worst_case}"
            )
        c["trials_saved"] = worst_case / used
    geomean = geometric_mean([float(c["trials_saved"]) for c in cells])
    return {
        "rel_error": rel_error,
        "confidence": confidence,
        "max_trials": max_trials,
        "seed": cfg.seed,
        "trials_fixed_worst_case": worst_case,
        "geomean_trials_saved": geomean,
        "records": cells,
    }


# ----------------------------------------------------------------------
# strong-scaling bench (real sharded execution, paper Figure 13 shape)
# ----------------------------------------------------------------------

#: shard counts the strong-scaling bench sweeps (paper: 32..512 ranks)
SCALING_WORKERS = (1, 2, 4)

#: the scaling grid: skewed stand-ins plus the roadNetCA grid stand-in,
#: sized so per-trial shard compute dominates executor orchestration
SCALING_GRID = (
    ("slashdot", "wiki"),
    ("epinions", "wiki"),
    ("roadnetca", "wiki"),
    ("enron", "dros"),
)


def run_scaling_bench(
    workers: Sequence[int] = SCALING_WORKERS,
    repeats: int = 3,
    config: Optional[EngineConfig] = None,
) -> Dict[str, object]:
    """Strong-scaling sweep of the real ``ps-dist`` executor.

    For every grid cell, runs one fixed coloring (seeded from
    ``config.seed``) through a :class:`ShardedExecutor` at each worker
    count and records best-of-``repeats`` timings.  The scaling metric is
    the measured **critical path** — per-superstep slowest-rank CPU
    seconds, the measured analogue of the simulated makespan — which
    tracks shard compute even when CI workers time-slice fewer physical
    cores than ranks; end-to-end ``wall`` seconds (including the boundary
    exchange) are reported alongside.  Counts are asserted bit-identical
    across all worker counts and against ``ps-vec``.

    Returns a JSON-ready document: per-run ``records``, per-cell
    ``speedups``, and the geomean ``speedup_at_max`` over the grid at the
    largest worker count (the figure the CI gate asserts).
    """
    from .datasets import dataset
    from ..distributed.executor import ShardedExecutor
    from ..query.library import paper_query

    workers = sorted(set(int(w) for w in workers))
    if not workers or workers[0] < 1:
        raise ValueError(f"invalid worker counts {workers!r}")
    cfg = config if config is not None else EngineConfig()
    cal = calibration_seconds()
    records: List[Dict[str, object]] = []
    speedups: List[Dict[str, object]] = []
    for gname, qname in SCALING_GRID:
        engine = engine_for(dataset(gname), cfg)
        q = paper_query(qname)
        colors = _bench_coloring(engine, q.k)
        plan = engine.plan_for(q)
        ref = engine.count_colorful(q, colors, method="ps-vec", plan=plan)
        crit_by_w: Dict[int, float] = {}
        row: Dict[str, object] = {"key": f"scaling/{gname}/{qname}", "count": ref}
        for w in workers:
            with ShardedExecutor(engine.graph, workers=w) as executor:
                best_crit, best_wall, imbalance = math.inf, math.inf, 1.0
                rows_exchanged = 0
                for _ in range(max(1, repeats)):
                    count, stats = executor.count(plan, colors)
                    if count != ref:  # pragma: no cover - parity invariant
                        raise AssertionError(
                            f"ps-dist({w}) diverged from ps-vec on {gname}/{qname}: "
                            f"{count} != {ref}"
                        )
                    crit = stats.critical_seconds()
                    if crit < best_crit:
                        best_crit, imbalance = crit, stats.imbalance()
                        rows_exchanged = stats.exchanged_rows()
                    best_wall = min(best_wall, stats.wall_seconds)
            crit_by_w[w] = best_crit
            records.append(
                bench_record(
                    "scaling", gname, qname, f"ps-dist-w{w}", best_wall,
                    count=ref, workers=w,
                    critical_seconds=best_crit,
                    calibrated=best_crit / cal,
                    imbalance=imbalance,
                    exchanged_rows=rows_exchanged,
                )
            )
        base = crit_by_w[workers[0]]
        for w in workers[1:]:
            row[f"speedup@{w}"] = base / crit_by_w[w] if crit_by_w[w] > 0 else 1.0
        speedups.append(row)
    wmax = workers[-1]
    geomean = geometric_mean(
        [float(row.get(f"speedup@{wmax}", 1.0)) for row in speedups]
    ) if len(workers) > 1 else 1.0
    return {
        "workers": workers,
        "cores": os.cpu_count(),
        "seed": cfg.seed,
        "metric": "critical_seconds (per-superstep max per-rank CPU)",
        "speedup_at_max": geomean,
        "records": records,
        "speedups": speedups,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.bench.harness`` — perf/scaling runner and CI gates."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.bench.harness",
        description="Run the perf-smoke grid (default) or the ps-dist "
        "strong-scaling bench (--scaling); emit/check BENCH JSON records.",
    )
    parser.add_argument(
        "--emit-json", metavar="PATH", default=None,
        help="write the run's records to PATH as a BENCH_*.json document",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="compare against this baseline.json; exit 1 on any >tolerance regression",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline with this run's records instead of checking",
    )
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", DEFAULT_TOLERANCE)),
        help="slowdown factor that fails the gate (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per grid cell, best-of (default: 3)",
    )
    parser.add_argument(
        "--seed", type=int, default=EngineConfig().seed,
        help="root seed for every bench coloring RNG (default: %(default)s)",
    )
    parser.add_argument(
        "--scaling", action="store_true",
        help="run the ps-dist strong-scaling bench instead of perf-smoke",
    )
    parser.add_argument(
        "--workers", default=",".join(str(w) for w in SCALING_WORKERS),
        help="comma-separated shard counts for --scaling (default: %(default)s)",
    )
    parser.add_argument(
        "--assert-speedup", type=float, default=None, metavar="X",
        help="with --scaling: exit 1 unless the geomean measured speedup at "
        "the largest worker count is >= X (critical-path metric)",
    )
    parser.add_argument(
        "--serve-smoke", action="store_true",
        help="run the counting-service throughput bench instead of perf-smoke",
    )
    parser.add_argument(
        "--precision-smoke", action="store_true",
        help="run the adaptive-precision bench (trials saved vs a fixed "
        "worst-case schedule) instead of perf-smoke",
    )
    parser.add_argument(
        "--rel-error", type=float, default=PRECISION_REL_ERROR, metavar="EPS",
        help="with --precision-smoke: target relative error (default: %(default)s)",
    )
    parser.add_argument(
        "--confidence", type=float, default=PRECISION_CONFIDENCE, metavar="C",
        help="with --precision-smoke: confidence level (default: %(default)s)",
    )
    parser.add_argument(
        "--assert-savings", type=float, default=None, metavar="X",
        help="with --precision-smoke: exit 1 unless the geomean trials-saved "
        "factor vs the fixed worst-case schedule is >= X",
    )
    parser.add_argument(
        "--duration", type=float, default=1.0,
        help="with --serve-smoke: seconds per cached-path timing loop "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--assert-qps", type=float, default=None, metavar="X",
        help="with --serve-smoke: exit 1 unless the geomean cached-path "
        "HTTP throughput is >= X requests/second",
    )
    args = parser.parse_args(argv)
    if args.update_baseline and not args.baseline:
        parser.error("--update-baseline requires --baseline PATH")
    config = EngineConfig(seed=args.seed)

    if args.serve_smoke:
        from .serve import run_serve_smoke

        doc = run_serve_smoke(duration=args.duration, config=config)
        print_table(
            doc["records"],
            columns=["key", "seconds", "qps", "requests", "count"],
            title="service smoke (cold / cached-http / cached-local)",
        )
        print(f"[cache: {doc['cache']}]")
        print(f"[geomean cached-path throughput: {doc['cached_qps']:.0f} req/s]")
        if args.emit_json:
            meta = {k: v for k, v in doc.items() if k != "records"}
            path = write_bench_json(args.emit_json, doc["records"], **meta)
            print(f"[bench json written to {path}]")
        if args.assert_qps is not None and doc["cached_qps"] < args.assert_qps:
            print(f"FAIL: cached-path throughput {doc['cached_qps']:.0f} req/s "
                  f"< required {args.assert_qps:g} req/s")
            return 1
        return 0

    if args.precision_smoke:
        doc = run_precision_smoke(
            rel_error=args.rel_error, confidence=args.confidence, config=config
        )
        print_table(
            doc["records"],
            columns=["key", "trials_used", "stopped_early", "trials_saved",
                     "rel_halfwidth", "seconds"],
            title=(f"adaptive precision ({doc['rel_error']:g} rel error @ "
                   f"{doc['confidence']:g} confidence)"),
        )
        print(f"[fixed worst-case schedule: {doc['trials_fixed_worst_case']} trials]")
        print(f"[geomean trials saved: {doc['geomean_trials_saved']:.2f}x]")
        if args.emit_json:
            meta = {k: v for k, v in doc.items() if k != "records"}
            path = write_bench_json(args.emit_json, doc["records"], **meta)
            print(f"[bench json written to {path}]")
        if (args.assert_savings is not None
                and doc["geomean_trials_saved"] < args.assert_savings):
            print(f"FAIL: geomean trials saved {doc['geomean_trials_saved']:.2f}x "
                  f"< required {args.assert_savings:g}x")
            return 1
        return 0

    if args.scaling:
        workers = [int(w) for w in str(args.workers).split(",") if w.strip()]
        doc = run_scaling_bench(workers=workers, repeats=args.repeats, config=config)
        print_table(
            doc["records"],
            columns=["key", "workers", "seconds", "critical_seconds",
                     "calibrated", "imbalance", "count"],
            title=f"ps-dist strong scaling ({doc['cores']} cores)",
        )
        print_table(
            doc["speedups"], title="measured speedup (critical path vs 1 worker)",
            floatfmt=".2f",
        )
        print(f"[geomean speedup at {doc['workers'][-1]} workers: "
              f"{doc['speedup_at_max']:.2f}x]")
        if args.emit_json:
            meta = {k: v for k, v in doc.items() if k != "records"}
            path = write_bench_json(args.emit_json, doc["records"], **meta)
            print(f"[bench json written to {path}]")
        if args.assert_speedup is not None and doc["speedup_at_max"] < args.assert_speedup:
            print(f"FAIL: geomean speedup {doc['speedup_at_max']:.2f}x "
                  f"< required {args.assert_speedup:g}x")
            return 1
        return 0

    records = run_perf_smoke(repeats=args.repeats, config=config)
    print_table(
        records, columns=["key", "seconds", "calibrated", "count"], title="perf-smoke"
    )

    # every gate is evaluated and every output written before the combined
    # status is returned: one noisy ratio must not hide the regression
    # table or skip the --emit-json record
    status = 0
    obs_rec = next(
        (r for r in records if str(r["key"]).endswith("ps-vec@obs-off")), None
    )
    if obs_rec is not None:
        obs_overhead = float(obs_rec["overhead_obs_enabled"])
        print(f"[obs instrumentation overhead (median enabled/disabled pair ratio): "
              f"{obs_overhead:.2f}x]")
        if obs_overhead > OBS_OVERHEAD_LIMIT:
            print(
                f"FAIL: obs instrumentation overhead {obs_overhead:.2f}x > "
                f"allowed {OBS_OVERHEAD_LIMIT:g}x on "
                f"{'/'.join(OBS_OVERHEAD_CELL)}"
            )
            status = 1

    if args.emit_json:
        path = write_bench_json(args.emit_json, records)
        print(f"[bench json written to {path}]")

    if args.baseline and args.update_baseline:
        path = write_bench_json(args.baseline, records)
        print(f"[baseline updated at {path}]")
        return status
    if args.baseline:
        baseline = load_bench_json(args.baseline)
        regressions = compare_to_baseline(records, baseline, tolerance=args.tolerance)
        if regressions:
            print_table(
                regressions,
                columns=["key", "current", "baseline", "ratio", "metric"],
                title=f"REGRESSIONS (> {args.tolerance:g}x baseline)",
            )
            return 1
        print(f"[perf gate OK: no benchmark slower than {args.tolerance:g}x baseline]")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    import sys

    sys.exit(main())
