"""Shared helpers for the per-figure benchmark files.

Every bench prints its result table to stdout AND appends it to
``benchmarks/results/<bench>.txt`` so the tables survive pytest's output
capturing.  Workload sizes honour ``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Dict, List

import numpy as np

from repro.bench import dataset, format_table, write_bench_json
from repro.counting.colorings import uniform_coloring
from repro.decomposition import choose_plan
from repro.engine import EngineConfig
from repro.query import paper_query

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: deterministic seed for every bench coloring — rooted in the engine's
#: default config seed (plus a fixed salt) so the per-figure benches,
#: perf-smoke and the scaling bench all derive their randomness from
#: ``EngineConfig.seed`` and CI runs are reproducible end to end
BENCH_SEED = EngineConfig().seed + 2016


def emit_table(name: str, rows: List[Dict], columns=None, title: str = "", floatfmt=".3g") -> str:
    """Print a table and persist it under benchmarks/results/."""
    text = format_table(rows, columns=columns, title=title, floatfmt=floatfmt)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    print(f"[saved to {path}]")
    return text


def emit_bench_json(name: str, records: List[Dict], **meta) -> str:
    """Persist machine-comparable records as benchmarks/results/BENCH_<name>.json."""
    path = write_bench_json(
        os.path.join(RESULTS_DIR, f"BENCH_{name}.json"), records, **meta
    )
    print(f"[bench json saved to {path}]")
    return path


@lru_cache(maxsize=None)
def bench_plan(query_name: str):
    return choose_plan(paper_query(query_name))


@lru_cache(maxsize=None)
def bench_coloring(graph_name: str, k: int, trial: int = 0) -> np.ndarray:
    g = dataset(graph_name)
    rng = np.random.default_rng(BENCH_SEED + 1000 * trial + k)
    return uniform_coloring(g.n, k, rng)


def coloring_for(graph_name: str, query_name: str, trial: int = 0) -> np.ndarray:
    return bench_coloring(graph_name, paper_query(query_name).k, trial)
