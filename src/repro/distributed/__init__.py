"""Distributed engine: real sharded execution plus the simulated predictor.

The pooled executor (:mod:`repro.distributed.executor`) runs the
vectorized PS dynamic program across real worker processes over
shared-memory CSR shards (``ps-dist``), and runs whole trials for the
engine's ``workers > 1``; the historical simulation (``runtime`` /
``metrics``) stays as its prediction and planning layer.
"""

from .engine import DEFAULT_KAPPA, DistributedRun, run_distributed
from .executor import ShardedExecutor, ShardResult
from .metrics import (
    MethodComparison,
    ScalingCurve,
    compare_methods,
    improvement_factor,
    strong_scaling,
)
from .partition import (
    Partition,
    block_partition,
    cyclic_partition,
    hash_partition,
    make_partition,
)
from .runtime import (
    ExecutionContext,
    LoadStats,
    StageRecord,
    WallStageRecord,
    WallStats,
    sequential_context,
)
from .trace import format_trace, hotspots, rank_profile, stage_report

__all__ = [
    "ShardedExecutor",
    "ShardResult",
    "WallStageRecord",
    "WallStats",
    "Partition",
    "block_partition",
    "cyclic_partition",
    "hash_partition",
    "make_partition",
    "ExecutionContext",
    "LoadStats",
    "StageRecord",
    "sequential_context",
    "DistributedRun",
    "run_distributed",
    "DEFAULT_KAPPA",
    "MethodComparison",
    "ScalingCurve",
    "compare_methods",
    "improvement_factor",
    "strong_scaling",
    "stage_report",
    "rank_profile",
    "hotspots",
    "format_trace",
]
