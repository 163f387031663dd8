"""Unified counting engine: pluggable backends, plan reuse, batching.

This package is the public entry point for counting workloads.  Where
the legacy surface scattered the pipeline over free functions with
divergent signatures, the engine binds a session to one data graph and
funnels every query through one coherent API::

    from repro.engine import CountingEngine

    engine = CountingEngine(g)                       # method="auto"
    result = engine.count(q, trials=5, seed=1)       # RunResult
    batch  = engine.count_many(queries, trials=5)    # shared plan cache
    fast   = engine.count(q, workers=4)              # trials on 4 pooled processes

Pieces:

* :class:`CountingEngine` — the session object (plan/partition caches,
  batch execution, worker dispatch, simulated-rank contexts);
* :class:`EngineConfig` / :class:`CountRequest` — immutable parameter
  objects replacing long positional signatures;
* :class:`RunResult` — estimate + provenance (backend, plan, timings,
  optional :class:`LoadStats`);
* :class:`BackendRegistry` — the kernels behind one protocol (``ps``,
  ``db``, ``ps-even``, ``ps-vec``, ``ps-dist``, ``bruteforce``;
  ``method="auto"``, the default, picks per request).
"""

from .backends import (
    AUTO,
    BackendRegistry,
    CountingBackend,
    DEFAULT_REGISTRY,
    DIST_AUTO_MIN_SIZE,
    DIST_METHOD,
    available_backends,
    get_backend,
)
from .config import CountRequest, EngineConfig, PrecisionSpec
from .engine import CountingEngine, EngineStats
from .fingerprint import canonical_query, canonical_request, request_fingerprint
from .result import RunResult, plan_summary

__all__ = [
    "CountingEngine",
    "EngineStats",
    "EngineConfig",
    "CountRequest",
    "PrecisionSpec",
    "RunResult",
    "plan_summary",
    "canonical_query",
    "canonical_request",
    "request_fingerprint",
    "CountingBackend",
    "BackendRegistry",
    "get_backend",
    "available_backends",
    "DEFAULT_REGISTRY",
    "AUTO",
    "DIST_AUTO_MIN_SIZE",
    "DIST_METHOD",
]
