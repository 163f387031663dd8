"""Figure 9 — average execution time per graph and per query (DB).

The paper runs the DB algorithm over all 100 graph-query pairs at 512
ranks and reports per-graph averages (across queries) and per-query
averages (across graphs), observing: skewed graphs are expensive,
roadNetCA is an order of magnitude cheaper than epinions despite being
larger, and longer-cycle queries dominate.

Here: wall-clock DB runs on the stand-in grid.  The *orderings* are the
reproduction target, not absolute seconds.  A second test compares the
dict-kernel PS baseline against the vectorized ``ps-vec`` backend on a
small fixed config and records the per-pair speedups as a committed
``BENCH_fig9_runtime.json`` (the perf-CI evidence that the vectorized
sweep pays off).
"""

import time

import numpy as np

from repro.bench import (
    OBS_OVERHEAD_LIMIT, bench_record, dataset, geometric_mean, time_obs_overhead,
)
from repro.engine import CountingEngine
from repro.query import paper_query

from bench_common import BENCH_SEED, bench_plan, coloring_for, emit_bench_json, emit_table


def count_colorful(g, q, colors, method="db", plan=None):
    """Bench-local adapter: one colorful count through an ephemeral engine."""
    return CountingEngine(g).count_colorful(q, colors, method=method, plan=plan)

GRAPHS = ["condmat", "astroph", "enron", "brightkite", "roadnetca", "brain", "epinions"]
QUERIES = ["glet1", "glet2", "youtube", "wiki", "dros"]
# epinions x dros explodes under PS in other benches; keep it here (DB only)
SKIP = set()

#: the small fixed config for the PS vs ps-vec comparison (kept cheap so
#: the JSON record can be refreshed on any machine in a few seconds)
VEC_GRAPHS = ["condmat", "enron", "roadnetca"]
VEC_QUERIES = ["glet1", "youtube", "wiki"]

#: the labeled-workload datapoint: one (graph, labeled query) pair run
#: through ps and ps-vec with label masks active, recorded in the same
#: BENCH_fig9_runtime.json — the perf evidence that the vectorized path
#: keeps its edge on the new workload class
LABELED_GRAPH = "enron"
LABELED_QUERY = "wiki"
LABELED_CLASSES = 2


def _run_grid():
    times = {}
    counts = {}
    for gname in GRAPHS:
        g = dataset(gname)
        for qname in QUERIES:
            if (gname, qname) in SKIP:
                continue
            q = paper_query(qname)
            plan = bench_plan(qname)
            colors = coloring_for(gname, qname)
            t0 = time.perf_counter()
            counts[(gname, qname)] = count_colorful(g, q, colors, method="db", plan=plan)
            times[(gname, qname)] = time.perf_counter() - t0
    return times, counts


def test_fig9_average_runtime(benchmark):
    times, counts = _run_grid()

    per_graph = []
    for gname in GRAPHS:
        vals = [times[(gname, q)] for q in QUERIES if (gname, q) in times]
        per_graph.append(
            {
                "graph": gname,
                "avg_time_s": float(np.mean(vals)),
                "max_time_s": float(np.max(vals)),
                "skew": round(dataset(gname).degree_skew(), 1),
            }
        )
    emit_table(
        "fig9_per_graph", per_graph, title="Figure 9a: avg DB time per graph (s)"
    )

    per_query = []
    for qname in QUERIES:
        vals = [times[(g, qname)] for g in GRAPHS if (g, qname) in times]
        per_query.append(
            {
                "query": qname,
                "k": paper_query(qname).k,
                "avg_time_s": float(np.mean(vals)),
                "max_time_s": float(np.max(vals)),
                "longest_cycle": bench_plan(qname).longest_cycle(),
            }
        )
    emit_table(
        "fig9_per_query", per_query, title="Figure 9b: avg DB time per query (s)"
    )

    # Paper shape 1: the flat road network is cheaper than skewed epinions.
    t_road = next(r["avg_time_s"] for r in per_graph if r["graph"] == "roadnetca")
    t_epin = next(r["avg_time_s"] for r in per_graph if r["graph"] == "epinions")
    assert t_road < t_epin

    # Paper shape 2: the longest-cycle query is the most expensive.
    t_dros = next(r["avg_time_s"] for r in per_query if r["query"] == "dros")
    t_glet1 = next(r["avg_time_s"] for r in per_query if r["query"] == "glet1")
    assert t_dros > t_glet1

    # pytest-benchmark number: one representative combo (enron x wiki)
    g = dataset("enron")
    q = paper_query("wiki")
    plan = bench_plan("wiki")
    colors = coloring_for("enron", "wiki")
    benchmark(lambda: count_colorful(g, q, colors, method="db", plan=plan))


def _timed_pair(g, q, plan, colors, repeats=3):
    """Best-of-N ps and ps-vec timings plus their (identical) counts."""
    timings, counts = {}, {}
    for method in ("ps", "ps-vec"):
        best = np.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            counts[method] = count_colorful(g, q, colors, method=method, plan=plan)
            best = min(best, time.perf_counter() - t0)
        timings[method] = best
    assert counts["ps"] == counts["ps-vec"], (g.name, q.name)
    return timings, counts


def _labeled_workload():
    """The deterministic labeled (graph, query, plan, coloring) datapoint."""
    from repro.decomposition import choose_plan
    from repro.query.library import with_random_labels

    g = dataset(LABELED_GRAPH)
    rng = np.random.default_rng(BENCH_SEED)
    g = g.with_labels(rng.integers(0, LABELED_CLASSES, size=g.n))
    q = with_random_labels(paper_query(LABELED_QUERY), LABELED_CLASSES, seed=BENCH_SEED)
    q.name = f"{LABELED_QUERY}-labeled"
    return g, q, choose_plan(q), coloring_for(LABELED_GRAPH, LABELED_QUERY)


def test_fig9_vectorized_speedup(benchmark):
    """PS vs ps-vec: identical counts, >=3x faster — unlabeled and labeled.

    Writes ``BENCH_fig9_runtime.json`` with one record per (pair, method),
    the per-pair speedups, and one vertex-labeled datapoint (label masks
    active in both kernels) — the committed perf evidence that the
    vectorized DP sweep pays off on both workload classes.
    """
    rows, records, speedups = [], [], []
    for gname in VEC_GRAPHS:
        g = dataset(gname)
        for qname in VEC_QUERIES:
            q = paper_query(qname)
            plan = bench_plan(qname)
            colors = coloring_for(gname, qname)
            timings, counts = _timed_pair(g, q, plan, colors)
            for method in ("ps", "ps-vec"):
                records.append(
                    bench_record("fig9_runtime", gname, qname, method,
                                 timings[method], count=counts[method])
                )
            speedup = timings["ps"] / timings["ps-vec"]
            speedups.append(speedup)
            rows.append(
                {
                    "graph": gname,
                    "query": qname,
                    "ps_s": timings["ps"],
                    "ps_vec_s": timings["ps-vec"],
                    "speedup": speedup,
                }
            )

    # labeled datapoint: same acceptance bar with label masks active.
    # A single (graph, query) sample is noisier than the 9-pair geomean,
    # so take best-of-5 — measured headroom is ~2x over the 3x bar.
    lg, lq, lplan, lcolors = _labeled_workload()
    ltimings, lcounts = _timed_pair(lg, lq, lplan, lcolors, repeats=5)
    for method in ("ps", "ps-vec"):
        records.append(
            bench_record("fig9_runtime", LABELED_GRAPH, lq.name, method,
                         ltimings[method], count=lcounts[method], labeled=True)
        )
    labeled_speedup = ltimings["ps"] / ltimings["ps-vec"]
    rows.append(
        {
            "graph": LABELED_GRAPH,
            "query": lq.name,
            "ps_s": ltimings["ps"],
            "ps_vec_s": ltimings["ps-vec"],
            "speedup": labeled_speedup,
        }
    )

    # obs-overhead datapoint: the representative ps-vec cell re-timed with
    # the observability kill-switch thrown, as the median of paired
    # on/off ratios.  The committed record is the evidence that dormant
    # instrumentation (spans present, nobody collecting) costs nothing
    # measurable on the hot path.
    og = dataset("enron")
    oq = paper_query("wiki")
    oplan = bench_plan("wiki")
    ocolors = coloring_for("enron", "wiki")

    _, off_best, obs_overhead, off_count = time_obs_overhead(
        lambda: count_colorful(og, oq, ocolors, method="ps-vec", plan=oplan)
    )
    records.append(
        bench_record("fig9_runtime", "enron", "wiki", "ps-vec@obs-off",
                     off_best, count=off_count,
                     overhead_obs_enabled=obs_overhead)
    )

    emit_table(
        "fig9_vectorized", rows,
        title="Figure 9 addendum: PS dict kernels vs ps-vec (same counts)",
    )
    emit_bench_json(
        "fig9_runtime", records,
        geomean_speedup=geometric_mean(speedups),
        labeled_speedup=labeled_speedup,
        obs_overhead=obs_overhead,
    )

    # The acceptance bar: the vectorized path is >=3x faster on this
    # config, for the unlabeled grid and for the labeled datapoint alike;
    # instrumented ps-vec stays within noise of the kill-switched run.
    assert geometric_mean(speedups) >= 3.0
    assert labeled_speedup >= 3.0
    assert obs_overhead <= OBS_OVERHEAD_LIMIT, (
        f"obs overhead {obs_overhead:.3f}x > {OBS_OVERHEAD_LIMIT}x"
    )

    benchmark(
        lambda: count_colorful(
            dataset("enron"), paper_query("wiki"),
            coloring_for("enron", "wiki"), method="ps-vec", plan=bench_plan("wiki"),
        )
    )
