"""Self-verification harness.

Production counters need a way to check themselves on inputs too large
for exhaustive validation.  This module provides randomized consistency
checks that hold with certainty (not statistically):

* **method agreement** — PS, DB, ps-even and the vectorized sweep
  (``ps-vec``, and its Python-int rerun forced on) must produce identical
  counts on the same (graph, coloring); any divergence is a bug in
  exactly the kind of join bookkeeping this paper's algorithms live on;
* **plan agreement** — all decomposition trees of the query must count
  identically, on DB and on the sweep (each plan compiles its own step
  programs);
* **subsample ground truth** — on a random induced BFS ball small enough
  to brute force, the fast counters must match the exhaustive count;
* **rank invariance** — the distributed runs must return the same count
  at every rank count / partition strategy.

`verify_counting` bundles them; the test suite and the CLI's `verify`
subcommand both call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..decomposition.enumeration import enumerate_plans
from ..decomposition.planner import heuristic_plan
from ..decomposition.validate import validate_plan
from ..distributed.partition import make_partition
from ..distributed.runtime import ExecutionContext
from ..graph.graph import Graph
from ..graph.sampling import random_induced_sample
from ..query.query import QueryGraph
from .bruteforce import count_colorful_matches
from .colorings import uniform_coloring
from .solver import METHODS, VEC_METHOD, solve_plan
from .vectorized import solve_plan_vectorized, sweep_plan

__all__ = ["VerificationReport", "verify_counting"]


@dataclass
class VerificationReport:
    """Outcome of a verification run; ``ok`` iff every check passed."""

    graph_name: str
    query_name: str
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(name)
        if not passed:
            self.failures.append(f"{name}: {detail}")

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"verify {self.graph_name} x {self.query_name}: {status} "
            f"({len(self.checks)} checks)"
        ]
        lines.extend(f"  FAIL {f}" for f in self.failures)
        return "\n".join(lines)


def verify_counting(
    g: Graph,
    query: QueryGraph,
    seed: int = 0,
    subsample_vertices: int = 12,
    max_plans: int = 4,
    rank_counts: tuple = (2, 4),
) -> VerificationReport:
    """Run the full consistency battery on one (graph, query) pair."""
    rng = np.random.default_rng(seed)
    report = VerificationReport(g.name or "?", query.name or "?")

    plan = heuristic_plan(query)
    try:
        validate_plan(plan)
        report.record("plan-valid", True)
    except AssertionError as exc:
        report.record("plan-valid", False, str(exc))
        return report

    colors = uniform_coloring(g.n, query.k, rng)

    # 1. method agreement on the full graph
    counts = {m: solve_plan(plan, g, colors, method=m) for m in METHODS}
    counts[VEC_METHOD] = solve_plan_vectorized(plan, g, colors)
    counts[f"{VEC_METHOD} exact"] = sweep_plan(plan, g, colors, exact=True)
    report.record(
        "method-agreement",
        len(set(counts.values())) == 1,
        f"counts {counts!r}",
    )
    reference = counts["db"]

    # 2. plan agreement (bounded enumeration)
    try:
        plans = enumerate_plans(query, limit=5000)[:max_plans]
    except RuntimeError:
        plans = [plan]
    plan_counts = {solve_plan(p, g, colors, method="db") for p in plans}
    plan_counts |= {solve_plan_vectorized(p, g, colors) for p in plans}
    report.record(
        "plan-agreement",
        plan_counts == {reference},
        f"plan counts {plan_counts!r} vs {reference}",
    )

    # 3. subsample ground truth
    sample, remap = random_induced_sample(g, subsample_vertices, rng)
    sub_colors = np.empty(sample.n, dtype=np.int64)
    for old, new in remap.items():
        sub_colors[new] = colors[old]
    brute = count_colorful_matches(sample, query, sub_colors)
    fast = solve_plan(plan, sample, sub_colors, method="db")
    report.record(
        "subsample-ground-truth",
        brute == fast,
        f"brute {brute} vs db {fast} on {sample.n}-vertex sample",
    )

    # 4. rank / partition invariance — the tracked solve over a real
    # partition, built from the substrate layer directly (the layering
    # contract keeps counting below repro.distributed.engine)
    for r in rank_counts:
        for strategy in ("block", "hash"):
            ctx = ExecutionContext(make_partition(g.n, r, strategy), track=True)
            count = solve_plan(plan, g, colors, ctx=ctx, method="db")
            report.record(
                f"rank-invariance[{r},{strategy}]",
                count == reference,
                f"{count} != {reference}",
            )
    return report
