"""Named dataset registry: pre-converted graphs + warm counting engines.

Loading a graph, converting it to CSR and (for ``workers > 1`` or
``ps-dist``) spinning up a worker pool are the expensive one-time costs
the service amortizes.  The registry does all of it **once per dataset**:

* builtin Table 1 stand-ins load by name (``"condmat"``);
* files load from edge-list or JSON paths, optionally aliased
  (``"web=/data/web.edges"``);
* every dataset gets one long-lived :class:`CountingEngine` sharing the
  service's :class:`EngineConfig` — its plan cache, partition cache and
  pooled executors persist across requests;
* ``warm()`` pre-touches the CSR form and, when the config's requests
  will run on a worker pool, starts it before traffic arrives.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bench.datasets import dataset as builtin_dataset, dataset_names
from ..engine import CountingEngine, EngineConfig
from ..engine.backends import DIST_METHOD
from ..graph.graph import Graph
from ..graph.io import load_graph_file

__all__ = ["DatasetEntry", "DatasetRegistry", "UnknownDatasetError"]


class UnknownDatasetError(KeyError):
    """Raised for a dataset name the registry does not hold (HTTP 404)."""

    def __init__(self, name: str, known: List[str]) -> None:
        super().__init__(name)
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return f"unknown dataset {self.name!r}; registered: {self.known}"


@dataclass
class DatasetEntry:
    """One registered dataset: the shared graph plus its warm engine."""

    name: str
    graph: Graph
    engine: CountingEngine
    source: str = "builtin"
    #: bumped every time this name is (re)registered — the service keys
    #: its result cache on ``name@generation`` so replacing a dataset can
    #: never serve the old graph's counts as cache hits
    generation: int = 0
    #: exact request counter (service-level, guarded by the registry lock)
    requests: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary (the ``GET /datasets`` row)."""
        return {
            "name": self.name,
            "n": self.graph.n,
            "m": self.graph.m,
            "source": self.source,
            "requests": self.requests,
            "engine": self.engine.stats.snapshot(),
        }


class DatasetRegistry:
    """Thread-safe collection of :class:`DatasetEntry` objects.

    One registry per service; engines share ``config`` so a request that
    omits a field inherits the service-wide default.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config if config is not None else EngineConfig()
        self._entries: Dict[str, DatasetEntry] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def add(self, name: str, graph: Graph, source: str = "custom") -> DatasetEntry:
        """Register ``graph`` under ``name`` with a fresh warm engine.

        Re-registering an existing name replaces it: the old engine is
        closed and the entry's ``generation`` is bumped, which retires
        every cached result keyed against the previous graph.
        """
        if not name:
            raise ValueError("dataset name must be non-empty")
        entry = DatasetEntry(
            name=name,
            graph=graph,
            engine=CountingEngine(graph, self.config),
            source=source,
        )
        with self._lock:
            old = self._entries.get(name)
            entry.generation = old.generation + 1 if old is not None else 0
            self._entries[name] = entry
        if old is not None:
            old.engine.close()
        return entry

    def load(self, spec: str) -> DatasetEntry:
        """Register a dataset from a CLI-style spec string.

        ``"condmat"`` loads the builtin Table 1 stand-in of that name;
        ``"alias=/path/to/file"`` loads an edge-list (or ``.json``) file
        under ``alias``; a bare path loads the file under its basename.
        """
        if "=" in spec:
            name, path = spec.split("=", 1)
            return self.add(name, load_graph_file(path, name=name), source=path)
        if spec in dataset_names():
            return self.add(spec, builtin_dataset(spec), source="builtin")
        name = os.path.basename(spec) or spec
        return self.add(name, load_graph_file(spec, name=name), source=spec)

    def warm(self, name: str) -> None:
        """Pre-build the expensive per-dataset artifacts before traffic.

        Touches the CSR conversion cache and — when requests will run on
        the worker pool (``workers > 1``, or ``method="ps-dist"``, whose
        shards use it even at one worker) — starts that pool so the
        first request pays none of the startup.
        """
        entry = self.get(name)
        entry.graph.to_csr()
        workers = self.config.workers
        if workers > 1 or (workers == 1 and self.config.method == DIST_METHOD):
            entry.engine.executor_for(workers)

    # ------------------------------------------------------------------
    def get(self, name: str) -> DatasetEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownDatasetError(name, self.names())
        return entry

    def count_request(self, name: str) -> DatasetEntry:
        """Like :meth:`get` but bumps the entry's request counter."""
        entry = self.get(name)
        with entry._lock:
            entry.requests += 1
        return entry

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def describe(self) -> List[Dict[str, object]]:
        """Per-dataset summaries (``GET /datasets``)."""
        return [self.get(name).describe() for name in self.names()]

    def close(self) -> None:
        """Close every dataset engine (stops pooled shard workers)."""
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            entry.engine.close()
