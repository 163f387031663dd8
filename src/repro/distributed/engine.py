"""Simulated distributed counting: one coloring over ``nranks`` ranks.

:func:`run_distributed` ties together the partition, the execution
context and the plan solver, returning both the (exact, rank-count
independent) colorful count and the per-rank load statistics from which
the scaling figures are derived.  The same :class:`LoadStats` is the
*predicted* cost model for the real sharded executor
(:mod:`repro.distributed.executor`), whose measured per-rank
:class:`WallStats` it can be compared against: the counts agree, the
per-rank splits do not (simulated ranks own vertices by ``strategy``,
``block`` by default; shards take start-vertex ranges cut at equal edge
shares).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..counting.solver import solve_plan
from ..decomposition.planner import heuristic_plan
from ..decomposition.tree import Plan
from ..graph.graph import Graph
from ..query.query import QueryGraph
from .partition import make_partition
from .runtime import ExecutionContext, LoadStats

__all__ = ["DistributedRun", "run_distributed"]

#: relative cost of shipping one table entry vs one local table operation
DEFAULT_KAPPA = 0.5


@dataclass
class DistributedRun:
    """Result of one simulated distributed counting run."""

    count: int
    nranks: int
    method: str
    stats: LoadStats
    kappa: float = DEFAULT_KAPPA

    @property
    def makespan(self) -> float:
        return self.stats.makespan(self.kappa)

    @property
    def serial_time(self) -> float:
        return self.stats.serial_time()

    @property
    def speedup(self) -> float:
        """Modeled speedup over a single rank."""
        ms = self.makespan
        return self.serial_time / ms if ms > 0 else 1.0

    @property
    def max_load(self) -> float:
        return self.stats.max_load()

    @property
    def avg_load(self) -> float:
        return self.stats.avg_load()

    @property
    def imbalance(self) -> float:
        return self.stats.imbalance()


def run_distributed(
    g: Graph,
    query: QueryGraph,
    colors: Sequence[int],
    nranks: int,
    method: str = "db",
    plan: Optional[Plan] = None,
    strategy: str = "block",
    kappa: float = DEFAULT_KAPPA,
) -> DistributedRun:
    """Count colorful matches while attributing work to ``nranks`` ranks.

    The returned count is exact and independent of ``nranks``; the load
    statistics depend on the partition, mirroring the paper's Section 7
    ownership rule.
    """
    plan = plan or heuristic_plan(query)
    ctx = ExecutionContext(make_partition(g.n, nranks, strategy), track=True)
    count = solve_plan(plan, g, np.asarray(colors), ctx=ctx, method=method)
    return DistributedRun(count=count, nranks=nranks, method=method, stats=ctx.stats, kappa=kappa)
