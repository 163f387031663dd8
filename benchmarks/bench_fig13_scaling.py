"""Figure 13 — strong scaling (enron) and weak scaling (R-MAT) of DB.

Paper strong scaling: speedup vs ranks 32..512 on enron, avg 8.2x / max
9.9x at 512 (ideal 16x).  Paper weak scaling: R-MAT with Graph500
parameters, 1K vertices per rank, execution time stays near-flat from 32
to 512 ranks.

Here: modeled makespans; ranks 2..32 (same 16x span), R-MAT with 128
vertices per simulated rank.
"""

import numpy as np

from repro.bench import SIM_RANKS_HIGH, SIM_RANKS_LOW, dataset
from repro.counting.colorings import uniform_coloring
from repro.distributed import DEFAULT_KAPPA, run_distributed
from repro.graph.generators import rmat
from repro.graph.properties import largest_component_subgraph
from repro.query import paper_query

from bench_common import bench_plan, coloring_for, emit_table

RANKS = [2, 4, 8, 16, 32]
STRONG_GRAPH = "enron"
STRONG_QUERIES = ["glet1", "glet2", "youtube", "wiki", "dros"]
WEAK_QUERIES = ["glet1", "youtube"]
VERTICES_PER_RANK = 128


def test_fig13_strong_scaling(benchmark):
    g = dataset(STRONG_GRAPH)
    rows = []
    for qname in STRONG_QUERIES:
        q = paper_query(qname)
        plan = bench_plan(qname)
        colors = coloring_for(STRONG_GRAPH, qname)
        run = run_distributed(g, q, colors, SIM_RANKS_HIGH, method="db", plan=plan)
        base = None
        row = {"query": qname}
        for r in RANKS:
            stats = run.stats.coarsen(SIM_RANKS_HIGH // r)
            t = stats.makespan(DEFAULT_KAPPA)
            if base is None:
                base = t
            row[f"speedup@{r}"] = base / t if t > 0 else 1.0
        rows.append(row)
    emit_table(
        "fig13_strong",
        rows,
        title=f"Figure 13a: strong scaling of DB on {STRONG_GRAPH} "
        f"(speedup vs {SIM_RANKS_LOW} ranks; paper: avg 8.2x at 16x more ranks)",
        floatfmt=".2f",
    )
    for row in rows:
        # speedups are monotone and real but sub-ideal
        sps = [row[f"speedup@{r}"] for r in RANKS]
        assert all(b >= a * 0.95 for a, b in zip(sps, sps[1:])), row["query"]
        assert 1.0 < sps[-1] <= 16.0 + 1e-9

    q = paper_query("glet1")
    plan = bench_plan("glet1")
    colors = coloring_for(STRONG_GRAPH, "glet1")
    benchmark(
        lambda: run_distributed(g, q, colors, SIM_RANKS_HIGH, method="db", plan=plan).makespan
    )


def test_fig13_weak_scaling(benchmark):
    rows = []
    rng = np.random.default_rng(77)
    for qname in WEAK_QUERIES:
        q = paper_query(qname)
        plan = bench_plan(qname)
        row = {"query": qname}
        for r in RANKS:
            n_target = VERTICES_PER_RANK * r
            scale = int(np.ceil(np.log2(n_target)))
            g = largest_component_subgraph(
                rmat(scale, 8, np.random.default_rng(1000 + scale), name=f"rmat{scale}")
            )
            colors = uniform_coloring(g.n, q.k, rng)
            run = run_distributed(g, q, colors, r, method="db", plan=plan)
            # normalised time per unit of work-per-rank
            row[f"time@{r}"] = run.makespan
        rows.append(row)
    emit_table(
        "fig13_weak",
        rows,
        title="Figure 13b: weak scaling of DB on R-MAT "
        f"({VERTICES_PER_RANK} vertices/rank; paper: near-flat 32..512 ranks)",
        floatfmt=".3g",
    )
    # Weak scaling shape: time grows far slower than the 16x work growth
    # (R-MAT supralinearity makes perfectly flat unrealistic even on BG/Q).
    for row in rows:
        t_first = row[f"time@{RANKS[0]}"]
        t_last = row[f"time@{RANKS[-1]}"]
        assert t_last < t_first * len(RANKS) * 4

    benchmark(lambda: rmat(9, 8, np.random.default_rng(5)).m)
