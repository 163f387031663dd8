"""repro — Color Coding Beyond Trees.

A reproduction of *"Subgraph Counting: Color Coding Beyond Trees"*
(Chakaravarthy, Kapralov, Murali, Petrini, Que, Sabharwal, Schieber;
IPDPS 2016): distributed color-coding for counting occurrences of
treewidth-2 query graphs in large data graphs.

Public surface (see subpackages for the full API):

* :mod:`repro.graph` — CSR data graphs and generators;
* :mod:`repro.query` — query graphs, treewidth, the Figure 8 library;
* :mod:`repro.decomposition` — decomposition trees and the plan heuristic;
* :mod:`repro.counting` — the PS baseline, the DB algorithm, the exact
  vectorized PS sweep (joins in bounded-memory chunks), brute-force
  references and the color-coding estimator;
* :mod:`repro.engine` — the unified counting engine (pluggable backends,
  plan/partition caches, batch + process-parallel execution);
* :mod:`repro.distributed` — the simulated distributed engine;
* :mod:`repro.theory` — the Section 9 analysis toolkit;
* :mod:`repro.bench` — dataset stand-ins and the experiment harness.
"""

from . import counting, decomposition, distributed, engine, graph, motifs, query, tables

__version__ = "1.1.0"

# Convenience re-exports for the quickstart path.
from .decomposition import build_decomposition, choose_plan, enumerate_plans
from .engine import CountingEngine, CountRequest, EngineConfig, PrecisionSpec, RunResult
from .graph import Graph
from .query import QueryGraph, paper_queries, paper_query

__all__ = [
    "Graph",
    "QueryGraph",
    "paper_query",
    "paper_queries",
    "CountingEngine",
    "CountRequest",
    "EngineConfig",
    "PrecisionSpec",
    "RunResult",
    "build_decomposition",
    "choose_plan",
    "enumerate_plans",
    "counting",
    "decomposition",
    "distributed",
    "engine",
    "graph",
    "motifs",
    "query",
    "tables",
    "__version__",
]
