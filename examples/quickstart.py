#!/usr/bin/env python
"""Quickstart: the `CountingEngine` in three moves.

Walks the full pipeline of the paper on a small synthetic social network
through the unified engine API:

1. build a data graph and bind a `CountingEngine` to it,
2. single query  — `engine.count(q)` returns a `RunResult` with the
   estimate, the chosen decomposition plan and per-trial timings,
3. batched      — `engine.count_many(queries)` shares the plan cache, so
   each query is planned exactly once for the whole batch,
4. parallel     — `engine.count(q, workers=4)` runs the independent
   color-coding trials on a pool of 4 worker processes that the engine
   keeps for later requests, bit-identical to the sequential run for
   the same seed,
5. sanity-check the estimate against brute force.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CountingEngine, paper_query
from repro.graph import chung_lu_power_law
from repro.graph.properties import graph_summary, largest_component_subgraph
from repro.query import automorphism_count


def main() -> None:
    rng = np.random.default_rng(7)

    # 1. A ~300-node power-law data graph (small enough to brute force),
    #    and an engine session bound to it.
    g = largest_component_subgraph(
        chung_lu_power_law(300, alpha=1.7, rng=rng, name="demo-social")
    )
    print("data graph:", graph_summary(g))
    engine = CountingEngine(g)  # defaults: method="auto" (the ps-vec sweep), 10 trials

    # 2. Single query: the 4-cycle graphlet (Figure 8's glet1).
    q = paper_query("glet1")
    result = engine.count(q, trials=10, seed=42)
    print(f"\nquery: {q.name} with k={q.k} nodes, {q.num_edges()} edges")
    print("decomposition tree (planned once, cached by the engine):")
    print(result.plan.describe())
    print(f"colorful counts per trial: {result.colorful_counts}")
    print(f"estimated matches       : {result.estimate:,.0f}")
    print(f"estimated subgraphs     : {result.estimated_subgraphs(q):,.0f}")
    print(f"relative std            : {result.relative_std:.3f}")
    print(f"wall clock              : {result.wall_clock:.3f}s "
          f"({result.time_per_trial * 1e3:.1f} ms/trial)")

    # 3. Batched: several queries through one call; the engine plans each
    #    exactly once however many trials/batches reuse it.
    batch = engine.count_many(
        [paper_query(name) for name in ("glet1", "glet2", "youtube")],
        trials=5, seed=42,
    )
    print("\nbatched census:")
    for r in batch:
        print(f"  {r.query_name:8s} estimate={r.estimate:12,.0f} "
              f"rel_std={r.relative_std:.3f} plan_cached={r.plan_cached}")
    print(f"engine stats: {engine.stats.snapshot()}")

    # 4. Trials on 4 pooled worker processes: same seed, bit-identical
    #    estimate, one time per trial measured in the worker.
    fast = engine.count(q, trials=10, seed=42, workers=4)
    assert fast.colorful_counts == result.colorful_counts
    assert len(fast.trial_times) == fast.trials_used
    print(f"\nparallel rerun (workers=4): estimate={fast.estimate:,.0f} "
          f"wall={fast.wall_clock:.3f}s (bit-identical to sequential)")

    # 5. Ground truth (exponential brute force — fine at this scale).
    exact = engine.count_exact(q)
    err = abs(result.estimate - exact) / exact if exact else 0.0
    print(f"exact matches           : {exact:,}")
    print(f"estimation error        : {100 * err:.1f}%")
    print(f"exact subgraphs         : {exact // automorphism_count(q):,}")
    engine.close()  # stops the worker pool step 4 started


if __name__ == "__main__":
    main()
