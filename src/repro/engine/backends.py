"""Pluggable counting backends behind one protocol.

Every kernel in the repo — the PS baseline, the DB contribution, the
``ps-even`` ablation, the vectorized ``ps-vec`` kernels, the sharded
multiprocess ``ps-dist`` executor and the brute-force reference — is
wrapped as a :class:`CountingBackend`: one
object with a uniform ``count_colorful(g, query, colors, ...)`` surface
plus the capability flags the engine needs for dispatch (does it consume
a decomposition plan? can it attribute work to simulated ranks? does
``workers`` mean shard processes? which queries/palettes does it
support?).

Backends live in a :class:`BackendRegistry`; a new kernel subclasses
:class:`CountingBackend` and is added with
:meth:`BackendRegistry.register`.  ``method="auto"`` (the engine's
default) asks the registry to pick per request: the vectorized sweep for
every query whose palette fits it (trees included; its counts are exact
and its joins run in bounded-memory chunks), and DB for simulated-rank
runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..decomposition.planner import heuristic_plan
from ..decomposition.tree import Plan
from ..distributed.executor import ShardedExecutor
from ..distributed.runtime import ExecutionContext
from ..graph.graph import Graph
from ..query.query import QueryGraph
from ..counting.bruteforce import count_colorful_matches
from ..counting.solver import METHODS, VEC_METHOD, solve_plan
from ..counting.vectorized import MAX_COLORS_VEC, solve_plan_vectorized

__all__ = [
    "CountingBackend",
    "BackendRegistry",
    "get_backend",
    "available_backends",
    "DEFAULT_REGISTRY",
    "AUTO",
    "DIST_AUTO_MIN_SIZE",
    "DIST_METHOD",
]

#: sentinel method name resolved per query by the registry
AUTO = "auto"

#: ``method="auto"`` escalates from ``ps-vec`` to the sharded multiprocess
#: executor on very large inputs (``n + m`` at least this size) when the
#: caller asked for ``workers > 1`` — below it, process orchestration
#: overhead eats the parallel gain
DIST_AUTO_MIN_SIZE = 150_000

#: registry name of the sharded multiprocess backend
DIST_METHOD = "ps-dist"


class CountingBackend:
    """One counting kernel behind the engine's uniform interface.

    Subclasses implement :meth:`count_colorful` and advertise capabilities
    through ``needs_plan`` (consumes a decomposition plan) and
    ``tracks_load`` (threads an :class:`ExecutionContext` for
    simulated-rank accounting).
    """

    #: registry key; also reported in RunResult provenance
    name: str = ""
    #: whether the kernel consumes a decomposition plan
    needs_plan: bool = False
    #: whether the kernel attributes operations to a simulated context
    tracks_load: bool = False
    #: whether ``workers`` means shard processes (engine passes its pooled
    #: executor and runs trials sequentially) rather than whole trials
    #: spread over that pool
    distributed: bool = False

    def supports(self, query: QueryGraph, num_colors: Optional[int] = None) -> bool:
        """Whether this backend can count ``query`` under the palette."""
        return True

    def check(self, query: QueryGraph, num_colors: Optional[int] = None) -> None:
        """Raise ``ValueError`` when :meth:`supports` is False."""
        if not self.supports(query, num_colors):
            raise ValueError(
                f"backend {self.name!r} does not support query "
                f"{query.name!r} (k={query.k}, num_colors={num_colors})"
            )

    def count_colorful(
        self,
        g: Graph,
        query: QueryGraph,
        colors: Sequence[int],
        plan: Optional[Plan] = None,
        ctx: Optional[ExecutionContext] = None,
        num_colors: Optional[int] = None,
    ) -> int:
        """Colorful matches of ``query`` in ``g`` under ``colors``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class SolverBackend(CountingBackend):
    """Plan-solver kernels (``ps``, ``db``, ``ps-even``) from Section 7."""

    needs_plan = True
    tracks_load = True

    def __init__(self, method: str) -> None:
        if method not in METHODS:
            raise ValueError(f"solver method must be one of {METHODS}")
        self.name = method

    def count_colorful(
        self,
        g: Graph,
        query: QueryGraph,
        colors: Sequence[int],
        plan: Optional[Plan] = None,
        ctx: Optional[ExecutionContext] = None,
        num_colors: Optional[int] = None,
    ) -> int:
        """Solve the plan bottom-up with this backend's join method."""
        plan = plan if plan is not None else heuristic_plan(query)
        return solve_plan(
            plan,
            g,
            np.asarray(colors),
            ctx=ctx,
            method=self.name,
            num_colors=num_colors,
        )


class VectorizedBackend(CountingBackend):
    """``ps-vec`` — PS re-expressed as batched numpy table operations.

    Bit-identical to ``ps`` on the same plan/coloring, typically an order
    of magnitude faster on the stand-in graphs; cannot attribute work to
    simulated ranks (``tracks_load=False``) and packs signatures in one
    ``int64`` word, so the palette is capped at ``MAX_COLORS_VEC``.
    """

    name = VEC_METHOD
    needs_plan = True
    tracks_load = False

    def supports(self, query: QueryGraph, num_colors: Optional[int] = None) -> bool:
        """Any query, as long as the palette fits one signature word."""
        kc = num_colors if num_colors is not None else query.k
        return kc <= MAX_COLORS_VEC

    def count_colorful(
        self,
        g: Graph,
        query: QueryGraph,
        colors: Sequence[int],
        plan: Optional[Plan] = None,
        ctx: Optional[ExecutionContext] = None,
        num_colors: Optional[int] = None,
    ) -> int:
        """Solve the plan with the vectorized PS kernels (ctx is ignored)."""
        self.check(query, num_colors)
        plan = plan if plan is not None else heuristic_plan(query)
        return solve_plan_vectorized(plan, g, np.asarray(colors), num_colors=num_colors)


class DistributedBackend(CountingBackend):
    """``ps-dist`` — the vectorized PS DP sharded across worker processes.

    Cuts the data graph's start vertices into one range per real OS
    process (shared-memory CSR, boundary table exchange between
    supersteps) and joins per-shard results into a count bit-identical
    to ``ps``/``ps-vec``.  The ``distributed`` flag tells the engine to
    interpret ``workers`` as the shard count and to pass its pooled
    :class:`~repro.distributed.executor.ShardedExecutor` in.
    """

    name = DIST_METHOD
    needs_plan = True
    tracks_load = False
    #: engine dispatch hint: ``workers`` means shard ranks, not trial workers
    distributed = True

    def supports(self, query: QueryGraph, num_colors: Optional[int] = None) -> bool:
        """Same envelope as ``ps-vec``: palette must fit one int64 word."""
        kc = num_colors if num_colors is not None else query.k
        return kc <= MAX_COLORS_VEC

    def count_colorful(
        self,
        g: Graph,
        query: QueryGraph,
        colors: Sequence[int],
        plan: Optional[Plan] = None,
        ctx: Optional[ExecutionContext] = None,
        num_colors: Optional[int] = None,
        executor: Optional[ShardedExecutor] = None,
    ) -> int:
        """Run one sharded trial on ``executor``, a live pool over ``g``
        (``CountingEngine.executor_for``; ctx is ignored, see
        ``tracks_load``)."""
        self.check(query, num_colors)
        if executor is None:
            raise ValueError("ps-dist needs a live executor (CountingEngine.executor_for)")
        if executor.graph is not g:
            raise ValueError("executor is bound to a different data graph")
        plan = plan if plan is not None else heuristic_plan(query)
        return executor.count(plan, colors, num_colors=num_colors).count


class BruteforceBackend(CountingBackend):
    """Exhaustive backtracking reference — exponential, validation only."""

    name = "bruteforce"

    def count_colorful(
        self,
        g: Graph,
        query: QueryGraph,
        colors: Sequence[int],
        plan: Optional[Plan] = None,
        ctx: Optional[ExecutionContext] = None,
        num_colors: Optional[int] = None,
    ) -> int:
        """Enumerate colorful matches directly (plan and ctx are ignored)."""
        return count_colorful_matches(g, query, colors)


class BackendRegistry:
    """Named collection of :class:`CountingBackend` objects.

    The engine resolves ``method`` strings in :data:`DEFAULT_REGISTRY`;
    ``"auto"`` picks per query.
    """

    def __init__(self) -> None:
        self._backends: Dict[str, CountingBackend] = {}

    # ------------------------------------------------------------------
    def register(self, backend: CountingBackend, replace: bool = False) -> CountingBackend:
        """Add ``backend`` under its ``name``; duplicate names must opt in."""
        if not backend.name:
            raise ValueError("backend must have a non-empty name")
        if backend.name == AUTO:
            raise ValueError(f"{AUTO!r} is reserved for per-query dispatch")
        if backend.name in self._backends and not replace:
            raise ValueError(f"backend {backend.name!r} already registered")
        self._backends[backend.name] = backend
        return backend

    # ------------------------------------------------------------------
    def get(self, name: str) -> CountingBackend:
        """Backend by name; raises the legacy 'unknown method' error."""
        try:
            return self._backends[name]
        except KeyError:
            raise ValueError(
                f"unknown method {name!r}; use one of {self.names()} or {AUTO!r}"
            ) from None

    def names(self) -> List[str]:
        """Registered backend names in registration order."""
        return list(self._backends)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def resolve(
        self,
        method: str,
        query: QueryGraph,
        num_colors: Optional[int] = None,
        need_load_tracking: bool = False,
        graph: Optional[Graph] = None,
        workers: int = 1,
    ) -> CountingBackend:
        """Pick the backend for ``method`` (handling ``"auto"``) and
        verify it supports the query/palette/tracking combination.

        ``auto`` takes the first that applies:

        * a ``ctx`` asking for simulated-rank load → DB;
        * ``workers > 1`` on an input with ``n + m`` at least
          :data:`DIST_AUTO_MIN_SIZE` → the sharded ``ps-dist``;
        * a palette that fits one signature word → ``ps-vec``;
        * otherwise DB.
        """
        if method == AUTO:
            backend = self._auto(query, num_colors, need_load_tracking, graph, workers)
        else:
            backend = self.get(method)
        backend.check(query, num_colors)
        if need_load_tracking and not backend.tracks_load:
            raise ValueError(
                f"backend {backend.name!r} cannot attribute load to "
                "simulated ranks; use 'ps', 'db' or 'ps-even' with a ctx"
            )
        return backend

    def _auto(
        self,
        query: QueryGraph,
        num_colors: Optional[int],
        need_load_tracking: bool,
        graph: Optional[Graph],
        workers: int,
    ) -> CountingBackend:
        if need_load_tracking:
            return self.get("db")
        dist = self._backends.get(DIST_METHOD)
        if (
            workers > 1
            and dist is not None
            and dist.supports(query, num_colors)
            and graph is not None
            and graph.n + graph.m >= DIST_AUTO_MIN_SIZE
        ):
            return dist
        vec = self._backends.get(VEC_METHOD)
        if vec is not None and vec.supports(query, num_colors):
            return vec
        return self.get("db")


def _make_default_registry() -> BackendRegistry:
    reg = BackendRegistry()
    for method in METHODS:  # ps, db, ps-even
        reg.register(SolverBackend(method))
    reg.register(VectorizedBackend())
    reg.register(DistributedBackend())
    reg.register(BruteforceBackend())
    return reg


#: process-global registry shared by every engine
DEFAULT_REGISTRY = _make_default_registry()


def get_backend(name: str) -> CountingBackend:
    """Backend by name from the default registry."""
    return DEFAULT_REGISTRY.get(name)


def available_backends() -> List[str]:
    """Names registered in the default registry."""
    return DEFAULT_REGISTRY.names()
