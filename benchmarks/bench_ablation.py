"""Ablations called out in the paper's prose.

1. **Decomposition-tree spread** (Section 6): across all plans of one
   query on one graph the paper saw up to a 13x time difference — we
   measure the max/min modeled-time ratio over plans.
2. **Even-split PS** (Section 5.1): the paper implemented a PS variant
   that splits paths evenly and found performance "does not differ
   significantly" — we compare total operations of ``ps`` vs ``ps-even``.
3. **Partition strategies** (Section 7): the paper uses 1-D block
   distribution; we compare block/cyclic/hash partitions' load imbalance
   for the DB algorithm.
"""

import numpy as np

from repro.bench import SIM_RANKS_HIGH, dataset
from repro.decomposition import enumerate_plans, rank_plans
from repro.distributed import run_distributed
from repro.query import paper_query

from bench_common import bench_plan, coloring_for, emit_table


def test_ablation_plan_spread(benchmark):
    rows = []
    for gname, qname in [("enron", "wiki"), ("condmat", "ecoli1"), ("enron", "brain1")]:
        g = dataset(gname)
        q = paper_query(qname)
        plans = rank_plans(enumerate_plans(q))[:10]
        colors = coloring_for(gname, qname)
        times = [
            run_distributed(g, q, colors, SIM_RANKS_HIGH, method="db", plan=p).makespan
            for p in plans
        ]
        rows.append(
            {
                "graph": gname,
                "query": qname,
                "plans": len(plans),
                "best_time": min(times),
                "worst_time": max(times),
                "spread_x": max(times) / min(times),
            }
        )
    emit_table(
        "ablation_plans",
        rows,
        title="Ablation: time spread across decomposition trees "
        "(paper: up to 13x between plans)",
    )
    assert max(r["spread_x"] for r in rows) > 1.2  # plan choice matters

    benchmark(lambda: len(enumerate_plans(paper_query("wiki"))))


def _uneven_query():
    """C7 with pendant leaves on *adjacent* cycle nodes.

    This is the paper's Section 5.1 discussion case: splitting at the
    boundary nodes gives maximally uneven paths (1 edge vs 6 edges), so
    plain PS and even-split PS genuinely differ.  (On most Figure 8
    queries the boundary nodes happen to sit diagonally, making the two
    variants coincide — itself a finding worth recording.)
    """
    from repro.query import QueryGraph

    edges = [(i, (i + 1) % 7) for i in range(7)] + [(0, 7), (1, 8)]
    return QueryGraph(edges, name="c7-uneven")


def test_ablation_even_split_ps(benchmark):
    from repro.decomposition import choose_plan
    from repro.counting.colorings import uniform_coloring
    import numpy as np

    rows = []
    uneven = _uneven_query()
    cases = [
        ("enron", paper_query("glet1"), bench_plan("glet1")),
        ("enron", uneven, choose_plan(uneven)),
        ("condmat", uneven, choose_plan(uneven)),
    ]
    for gname, q, plan in cases:
        g = dataset(gname)
        qname = q.name
        rng = np.random.default_rng(17)
        colors = uniform_coloring(g.n, q.k, rng)
        ps = run_distributed(g, q, colors, SIM_RANKS_HIGH, method="ps", plan=plan)
        pe = run_distributed(g, q, colors, SIM_RANKS_HIGH, method="ps-even", plan=plan)
        db = run_distributed(g, q, colors, SIM_RANKS_HIGH, method="db", plan=plan)
        assert ps.count == pe.count == db.count
        rows.append(
            {
                "graph": gname,
                "query": qname,
                "ops_ps": ps.serial_time,
                "ops_ps_even": pe.serial_time,
                "ops_db": db.serial_time,
                "even_vs_ps": pe.serial_time / ps.serial_time,
                "db_vs_ps": db.serial_time / ps.serial_time,
            }
        )
    emit_table(
        "ablation_ps_even",
        rows,
        title="Ablation: even-split PS vs PS vs DB total operations "
        "(paper: even split alone does not close the gap — pruning does)",
    )
    # On Figure 8 queries the boundary nodes sit (near-)diagonally, so the
    # two PS variants coincide (ratio 1) — consistent with the paper's
    # "does not differ significantly".  On the adversarial uneven query
    # the even split avoids the exploding long path, yet DB still wins:
    # the pruning, not the split, is the durable improvement.
    for r in rows:
        assert r["even_vs_ps"] <= 1.05  # even split never loses
        assert r["ops_db"] <= r["ops_ps_even"] * 1.05  # DB at least matches it

    g = dataset("condmat")
    q = paper_query("glet1")
    plan = bench_plan("glet1")
    colors = coloring_for("condmat", "glet1")
    benchmark(
        lambda: run_distributed(g, q, colors, 4, method="ps-even", plan=plan).count
    )


def test_ablation_partition_strategy(benchmark):
    rows = []
    g = dataset("enron")
    q = paper_query("wiki")
    plan = bench_plan("wiki")
    colors = coloring_for("enron", "wiki")
    for strategy in ("block", "cyclic", "hash"):
        run = run_distributed(
            g, q, colors, SIM_RANKS_HIGH, method="db", plan=plan, strategy=strategy
        )
        rows.append(
            {
                "strategy": strategy,
                "makespan": run.makespan,
                "imbalance": run.imbalance,
                "msgs": run.stats.total_msgs(),
            }
        )
    emit_table(
        "ablation_partition",
        rows,
        title="Ablation: vertex partition strategy (paper uses 1-D block)",
    )
    counts = {r["strategy"]: r for r in rows}
    assert len(counts) == 3

    benchmark(
        lambda: run_distributed(g, q, colors, 4, method="db", plan=plan, strategy="hash").makespan
    )
