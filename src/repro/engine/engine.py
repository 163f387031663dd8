"""`CountingEngine` — session-oriented facade over the counting stack.

An engine is bound to one data graph and owns the cross-query state the
legacy free functions recomputed on every call:

* a **plan cache** — the Section 6 planner runs exactly once per
  distinct query structure, however many trials/requests reuse it, and
  live engines share one plan object per query;
* a **partition cache** — simulated-rank partitions are built once per
  ``(nranks, strategy)`` pair;
* dispatch through the shared **backend registry** — every kernel (PS,
  DB, ps-even, the vectorized sweep, brute force) behind one protocol,
  so ``method="auto"`` can pick per query.

Single queries run through :meth:`CountingEngine.count`, batches through
:meth:`CountingEngine.count_many`; both accept :class:`CountRequest`
objects or raw queries plus keyword overrides.  ``workers=N`` runs on a
pool of N worker processes that the engine keeps alive across
trials/requests (a fourth cache — close it with
:meth:`CountingEngine.close` or an engine ``with`` block).  For most
backends each worker counts whole trials, bit-identical to the
sequential path for the same seed (every trial draws from the same
deterministic coloring stream); with the *distributed* backend
(``method="ps-dist"``) each trial is instead sharded across all N.
"""

from __future__ import annotations

import atexit
import itertools
import math
import threading
import time
import weakref
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..distributed.executor import ShardedExecutor

from .. import obs
from ..obs import catalogue as obs_catalogue
from ..counting.colorings import coloring_stream
from ..counting.bruteforce import count_matches
from ..counting.estimator import StreamingEstimate, normalization_factor
from ..decomposition.planner import heuristic_plan
from ..decomposition.tree import Plan
from ..distributed.partition import Partition, make_partition
from ..distributed.runtime import ExecutionContext
from ..graph.graph import Graph
from ..query.query import QueryGraph
from ..theory.bounds import estimator_relative_variance_bound
from .backends import DEFAULT_REGISTRY, CountingBackend
from .config import CountRequest, EngineConfig, PrecisionSpec
from .result import RunResult

__all__ = ["CountingEngine", "EngineStats", "ProgressCallback"]

if TYPE_CHECKING:
    from typing import Callable

    #: signature of the optional per-trial progress hook: receives the
    #: JSON-safe snapshot built by :func:`_progress_snapshot`
    ProgressCallback = Callable[[Dict[str, object]], None]
else:  # pragma: no cover - runtime alias only
    ProgressCallback = object


def _progress_snapshot(
    acc: StreamingEstimate, spec: PrecisionSpec
) -> Dict[str, object]:
    """JSON-safe refining-CI snapshot handed to progress callbacks.

    This is what the service's job endpoints surface while a run is in
    flight: the trials spent so far against the policy's bounds, the
    current estimate, and the confidence interval as it tightens.
    """
    hw = acc.relative_halfwidth(spec.confidence)
    low, high = acc.interval(spec.confidence)
    finite = math.isfinite(hw)
    return {
        "trials_done": acc.trials,
        "min_trials": spec.min_trials,
        "max_trials": spec.max_trials,
        "target_rel_error": spec.rel_error,
        "confidence": spec.confidence,
        "estimate": acc.estimate,
        "rel_halfwidth": hw if finite else None,
        "ci_low": low if finite else None,
        "ci_high": high if finite else None,
    }


@dataclass
class EngineStats:
    """Cache/work counters for one engine (observability + tests).

    ``plan_builds`` counts this engine's plan-cache misses; the
    batch-vs-loop parity tests assert it stays at one per distinct
    query.  A miss runs the planner only when no live engine holds a
    plan for an equal query (see :func:`_shared_plan`).
    """

    plan_builds: int = 0
    plan_cache_hits: int = 0
    partition_builds: int = 0
    partition_cache_hits: int = 0
    requests: int = 0
    trials: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy (stable keys, safe to log/serialise)."""
        return {
            "plan_builds": self.plan_builds,
            "plan_cache_hits": self.plan_cache_hits,
            "partition_builds": self.partition_builds,
            "partition_cache_hits": self.partition_cache_hits,
            "requests": self.requests,
            "trials": self.trials,
        }


# ----------------------------------------------------------------------
# plans shared across engines: every live engine gets the same Plan
# object for equal queries, so a process that keeps many engines (one
# per graph) holds one copy of each plan.  Values are weak, so an entry
# dies with the last engine or result holding its plan: no size bound.
# ----------------------------------------------------------------------
_SHARED_PLANS: "weakref.WeakValueDictionary[QueryGraph, Plan]" = (
    weakref.WeakValueDictionary()
)
_SHARED_PLANS_LOCK = threading.Lock()


def _shared_plan(query: QueryGraph) -> Plan:
    """The plan a live engine holds for an equal query, else a new one.

    The planner runs outside the lock, so a slow planner run never
    stalls other queries; on a lost race the winner's plan is used.
    """
    with _SHARED_PLANS_LOCK:
        plan = _SHARED_PLANS.get(query)
    if plan is not None:
        return plan
    built = heuristic_plan(query)
    with _SHARED_PLANS_LOCK:
        return _SHARED_PLANS.setdefault(query, built)


# ----------------------------------------------------------------------
# engine lifecycle: every live engine is closed at interpreter exit, so
# pooled shard workers (and their shared-memory segments) never outlive a
# clean shutdown — long-lived holders like repro.service rely on this as
# the safety net behind their explicit close()/signal handling
# ----------------------------------------------------------------------
_LIVE_ENGINES: "weakref.WeakSet[CountingEngine]" = weakref.WeakSet()


@atexit.register
def _close_live_engines() -> None:  # pragma: no cover - interpreter teardown
    for engine in list(_LIVE_ENGINES):
        try:
            engine.close()
        except Exception:
            pass


class CountingEngine:
    """Counting session bound to one data graph.

    Typical use::

        engine = CountingEngine(g)                      # defaults: auto, 10 trials
        result = engine.count(q, trials=5, seed=1)      # one query
        results = engine.count_many(queries, trials=5)  # plan cache shared
        fast = engine.count(q, workers=4)               # trials on 4 pooled processes

    Construction is cheap; all caches fill lazily.  ``config`` may be an
    :class:`EngineConfig` or keyword overrides (``CountingEngine(g,
    method="auto", workers=4)``).
    """

    def __init__(
        self,
        graph: Graph,
        config: Optional[EngineConfig] = None,
        **overrides: object,
    ) -> None:
        self.graph = graph
        base = config if config is not None else EngineConfig()
        self.config = base.replace(**overrides) if overrides else base
        self.stats = EngineStats()
        self._plan_cache: Dict[QueryGraph, Plan] = {}
        self._partition_cache: Dict[Tuple[int, str], Partition] = {}
        # caller-supplied plans re-rooted on a labeled query, keyed by
        # (id(original), labels); the original is kept in the value so
        # its id can never be recycled while the key is live.  Without
        # this, every labeled call reusing one plan would mint a new
        # Plan object — which a pooled ShardedExecutor would pin and
        # re-broadcast to its workers on every call.
        self._reroot_cache: Dict[Tuple[int, object], Tuple[Plan, Plan]] = {}
        self._executor_cache: Dict[int, "ShardedExecutor"] = {}
        # engines are shared across threads (the service's job workers):
        # _cache_lock guards the plan/partition caches and the stats
        # counters (so "planned exactly once per engine" and the exact
        # counter invariants hold under concurrency), _executor_lock the
        # executor pool map; counting itself is reentrant, and each
        # ShardedExecutor serializes its own runs
        self._cache_lock = threading.Lock()
        self._executor_lock = threading.Lock()
        _LIVE_ENGINES.add(self)

    # ------------------------------------------------------------------
    # caches
    # ------------------------------------------------------------------
    def plan_for(self, query: QueryGraph) -> Plan:
        """The cached decomposition plan for ``query`` (planning once)."""
        plan, _ = self._plan_for(query)
        return plan

    def _plan_for(self, query: QueryGraph) -> Tuple[Plan, bool]:
        with self._cache_lock:
            plan = self._plan_cache.get(query)
            if plan is not None:
                self.stats.plan_cache_hits += 1
        if plan is not None:
            obs_catalogue.engine_plan_cache().inc(result="hit")
            return plan, True
        # fetch outside the lock so a slow planner run never stalls
        # other queries' cache hits; on a lost race the winner's plan is
        # used and only the insert counts as a build (exact counters)
        built = _shared_plan(query)
        with self._cache_lock:
            plan = self._plan_cache.get(query)
            if plan is not None:
                self.stats.plan_cache_hits += 1
            else:
                self.stats.plan_builds += 1
                self._plan_cache[query] = built
        if plan is not None:
            obs_catalogue.engine_plan_cache().inc(result="hit")
            return plan, True
        obs_catalogue.engine_plan_cache().inc(result="miss")
        return built, False

    def _effective_plan(self, plan: Plan, query: QueryGraph) -> Plan:
        """``plan`` re-rooted on ``query`` when their labels differ.

        The solvers read label masks off ``plan.query``, so a
        caller-built plan for the unlabeled twin must be re-rooted or
        request-level labels would be silently ignored.  Re-rooted plans
        are cached per ``(plan, labels)`` so repeated requests reuse one
        object (stable ``id()`` for the executor's plan registry).
        """
        if plan.query.labels == query.labels:
            return plan
        label_key = (
            tuple(sorted(query.labels.items(), key=lambda kv: repr(kv[0])))
            if query.labels is not None
            else None
        )
        key = (id(plan), label_key)
        with self._cache_lock:
            hit = self._reroot_cache.get(key)
            if hit is not None and hit[0] is plan:
                return hit[1]
        rerooted = plan.with_query(query)
        with self._cache_lock:
            hit = self._reroot_cache.setdefault(key, (plan, rerooted))
        return hit[1]

    def partition_for(self, nranks: int, strategy: str = "block") -> Partition:
        """The cached simulated-rank vertex partition for ``(nranks, strategy)``
        (``block`` is the paper's)."""
        key = (nranks, strategy)
        with self._cache_lock:
            part = self._partition_cache.get(key)
            if part is not None:
                self.stats.partition_cache_hits += 1
                return part
            part = make_partition(self.graph.n, nranks, strategy)
            self.stats.partition_builds += 1
            self._partition_cache[key] = part
            return part

    def make_context(self, nranks: int, track: bool = True) -> ExecutionContext:
        """Fresh ``nranks``-rank context over the cached partition, for
        :meth:`count_colorful`'s per-rank accounting (``ctx.stats``)."""
        return ExecutionContext(self.partition_for(nranks), track=track)

    def executor_for(self, workers: int) -> "ShardedExecutor":
        """The cached live :class:`ShardedExecutor` with ``workers`` processes.

        Worker pools are expensive to start, so the engine keeps them
        alive across requests and trials; :meth:`close` (or leaving an
        engine ``with`` block) stops them.  A pool that died (worker
        crash) is transparently replaced.
        """
        from ..distributed.executor import ShardedExecutor

        with self._executor_lock:
            executor = self._executor_cache.get(workers)
            if executor is None or executor.closed:
                executor = ShardedExecutor(self.graph, workers=workers)
                self._executor_cache[workers] = executor
            return executor

    def executors(self) -> List["ShardedExecutor"]:
        """Snapshot of the live pooled executors (thread-safe)."""
        with self._executor_lock:
            return list(self._executor_cache.values())

    def close(self) -> None:
        """Stop any live worker pools.

        Idempotent and safe to call from teardown paths (``with`` exit,
        ``atexit``, signal handlers): repeated calls are no-ops, a
        failing pool never blocks the rest from closing, and the engine
        stays usable — the next request with ``workers > 1`` (or
        ``ps-dist``) simply starts a fresh pool.
        """
        with self._executor_lock:
            executors = list(self._executor_cache.values())
            self._executor_cache.clear()
        for executor in executors:
            try:
                executor.close()
            except Exception:  # pragma: no cover - teardown must not raise
                pass

    def __enter__(self) -> "CountingEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def clear_caches(self) -> None:
        """Drop cached plans/partitions and stop pooled executors
        (counters are kept)."""
        with self._cache_lock:
            self._plan_cache.clear()
            self._partition_cache.clear()
            self._reroot_cache.clear()
        self.close()

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def count_exact(self, query: QueryGraph) -> int:
        """Exact match count by brute force (small inputs only)."""
        return count_matches(self.graph, query)

    def count_colorful(
        self,
        query: QueryGraph,
        colors: Sequence[int],
        method: Optional[str] = None,
        plan: Optional[Plan] = None,
        ctx: Optional[ExecutionContext] = None,
        num_colors: Optional[int] = None,
    ) -> int:
        """Colorful matches under one fixed coloring (no estimation)."""
        method = method if method is not None else self.config.method
        backend = DEFAULT_REGISTRY.resolve(
            method, query, num_colors,
            need_load_tracking=ctx is not None, graph=self.graph,
            workers=self.config.workers,
        )
        if backend.needs_plan and plan is None:
            plan, _ = self._plan_for(query)
        if plan is not None:
            plan = self._effective_plan(plan, query)
        return backend.count_colorful(
            self.graph, query, colors, plan=plan, ctx=ctx, num_colors=num_colors,
            **self._distributed_extra(backend, self.config.workers),
        )

    def _distributed_extra(self, backend: CountingBackend, workers: int) -> Dict[str, object]:
        """The engine's pooled executor for a distributed backend (no
        extra kwargs otherwise)."""
        return {"executor": self.executor_for(workers)} if backend.distributed else {}

    def count(
        self,
        request: Union[CountRequest, QueryGraph],
        on_progress: Optional["ProgressCallback"] = None,
        **overrides: object,
    ) -> RunResult:
        """Estimate the match count of one query.

        ``request`` is a :class:`CountRequest` or a raw query; keyword
        overrides win over both the request and the engine config.
        Returns a :class:`RunResult` carrying the estimate plus
        provenance (backend, plan, timings, optional load stats).

        The trial policy comes from the request's ``precision``
        (:class:`~repro.engine.config.PrecisionSpec`) or, when unset,
        the bare ``trials`` knob — a fixed policy that runs exactly that
        many colorings, bit-identical to the pre-precision engine.  With
        ``rel_error`` set the scheduler stops as soon as the empirical
        confidence interval meets the target (never under ``min_trials``
        nor over ``max_trials``); ``on_progress``, if given, receives a
        JSON-safe refining-CI snapshot after every trial.

        ``workers > 1`` runs the trials on :meth:`executor_for`'s pool
        (``RunResult.workers`` reports how many could run at once: never
        more than the trial cap, and 1 for a single-trial run, which
        stays in-process).
        """
        if isinstance(request, QueryGraph):
            request = CountRequest(query=request)
        if overrides:
            request = request.replace(**overrides)
        return self._execute(request.resolved(self.config), on_progress=on_progress)

    def count_many(
        self,
        requests: Iterable[Union[CountRequest, QueryGraph]],
        **overrides: object,
    ) -> List[RunResult]:
        """Run a batch of queries/requests against the shared caches.

        Each query's plan is built exactly once per engine regardless of
        how many requests (or trials) reuse it; results are bit-identical
        to calling :meth:`count` per query with the same parameters.
        """
        return [self.count(req, **overrides) for req in requests]

    # ------------------------------------------------------------------
    def _execute(
        self,
        r: CountRequest,
        on_progress: Optional["ProgressCallback"] = None,
    ) -> RunResult:
        # observability shell: mint (or inherit) the request's trace ID,
        # wrap the run in the engine-level span, and account the request
        # into the metrics registry.  The trace ID deliberately does NOT
        # enter CountRequest — it would shear request fingerprints — and
        # rides the obs contextvar plus explicit worker handoffs instead.
        trace_id = obs.current_trace_id()
        token = None
        if trace_id is None:
            trace_id = obs.new_trace_id()
            token = obs.set_trace_id(trace_id)
        try:
            with obs.span(
                "engine.count",
                graph=self.graph.name or "graph",
                query=r.query.name or "query",
                method=r.method,
            ) as sp:
                result = self._execute_traced(r, trace_id, on_progress=on_progress)
                sp.add(
                    backend=result.method,
                    trials=result.trials_used,
                    stopped_early=result.stopped_early,
                )
        finally:
            if token is not None:
                obs.reset_trace_id(token)
        obs_catalogue.engine_requests().inc(method=result.method)
        obs_catalogue.engine_request_seconds().observe(
            result.wall_clock or 0.0, method=result.method
        )
        obs_catalogue.engine_trials().inc(result.trials_used)
        if result.stopped_early:
            obs_catalogue.engine_stopped_early().inc()
        return result

    def _execute_traced(
        self,
        r: CountRequest,
        trace_id: str,
        on_progress: Optional["ProgressCallback"] = None,
    ) -> RunResult:
        # request-level labels specialise the query before planning, so
        # the plan cache keys labeled and unlabeled variants separately
        q = r.effective_query()
        # the trial policy: an explicit PrecisionSpec, or bare trials
        # desugared to the equivalent fixed spec (validates trials >= 1)
        spec = r.effective_precision()
        cap = spec.max_trials
        k = q.k
        kc = r.num_colors if r.num_colors is not None else k
        if kc < k:
            raise ValueError(f"need at least k={k} colors, got num_colors={kc}")
        scale = normalization_factor(k, kc)

        backend = DEFAULT_REGISTRY.resolve(
            r.method, q, r.num_colors, graph=self.graph, workers=r.workers,
        )
        # for a distributed backend ``workers`` is the shard count: trials
        # run sequentially, each sharded across the pooled worker processes
        distributed = backend.distributed

        plan: Optional[Plan] = None
        plan_cached = False
        if backend.needs_plan:
            plan, plan_cached = self._plan_for(q)

        workers = r.workers if distributed else min(r.workers, cap)
        # any other backend with room for 2+ trials runs whole trials on
        # the same pool, one coloring per worker at a time
        pool = self.executor_for(r.workers) if not distributed and workers > 1 else None
        extra = self._distributed_extra(backend, workers)
        # the streaming accumulator doubles as the CI provenance for
        # fixed runs and as the stopping rule for adaptive ones; the
        # Chebyshev fallback bound kicks in on degenerate variance
        acc = StreamingEstimate(
            scale, rel_variance_bound=estimator_relative_variance_bound(k, kc)
        )
        counts: List[int] = []
        trial_times: List[float] = []

        def in_process(batch: List[Sequence[int]]) -> Iterator[Tuple[int, float]]:
            for colors in batch:
                t1 = time.perf_counter()
                with obs.span("engine.trial", index=len(counts)):
                    count = backend.count_colorful(
                        self.graph, q, colors, plan=plan,
                        num_colors=r.num_colors, **extra,
                    )
                yield count, time.perf_counter() - t1

        stopped_early = False
        t0 = time.perf_counter()
        # one loop for every policy: the first batch is min_trials
        # colorings (all of them, cap, for a fixed spec), later ones keep
        # the pool busy or run one trial at a time; every coloring comes
        # from one seeded stream, so the first t trials of any run are
        # bit-identical to a fixed t-trial run (the parity invariant)
        stream = coloring_stream(self.graph.n, kc, r.seed)
        step = workers if pool is not None else 1
        while len(counts) < cap:
            want = min(spec.min_trials if not counts else step, cap - len(counts))
            batch = list(itertools.islice(stream, want))
            with obs.span("engine.batch", start=len(counts), size=want):
                results = (
                    pool.run_trials(backend, q, plan, batch, r.num_colors, start=len(counts))
                    if pool is not None else in_process(batch)
                )
                for c, seconds in results:
                    acc.push(int(c))
                    counts.append(int(c))
                    trial_times.append(seconds)
                    if on_progress is not None:
                        on_progress(_progress_snapshot(acc, spec))
            # the stopping rule runs at batch ends only: that is what
            # keeps trials_used independent of how results stream in
            if spec.is_adaptive and acc.precision_met(spec.rel_error, spec.confidence):
                stopped_early = len(counts) < cap
                break
        wall = time.perf_counter() - t0

        hw = acc.relative_halfwidth(spec.confidence)
        ci_low: Optional[float] = None
        ci_high: Optional[float] = None
        if math.isfinite(hw):
            ci_low, ci_high = acc.interval(spec.confidence)

        trials_used = len(counts)
        with self._cache_lock:
            self.stats.requests += 1
            self.stats.trials += trials_used
        return RunResult(
            query_name=q.name,
            graph_name=self.graph.name,
            trials=trials_used,
            colorful_counts=[int(c) for c in counts],
            scale=scale,
            method=backend.name,
            seed=r.seed,
            num_colors=kc,
            workers=workers,
            plan=plan,
            plan_cached=plan_cached,
            trial_times=trial_times,
            wall_clock=wall,
            trials_used=trials_used,
            stopped_early=stopped_early,
            ci_low=ci_low,
            ci_high=ci_high,
            trace_id=trace_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._cache_lock:
            plans_cached = len(self._plan_cache)
        return (
            f"CountingEngine({self.graph.name or 'graph'!s}, n={self.graph.n}, "
            f"m={self.graph.m}, method={self.config.method!r}, "
            f"plans_cached={plans_cached})"
        )
