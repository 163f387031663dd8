"""`CountingService` — the long-lived orchestrator behind the HTTP API.

One service owns the three amortizing layers and threads every request
through them in order:

1. :class:`~repro.service.cache.ResultCache` — keyed on the engine's
   stable request fingerprint; a hit is served without touching the
   counting stack;
2. **in-flight dedup** (single flight) — concurrent identical requests
   attach to the one job already computing that fingerprint instead of
   recomputing it, so the cache-miss cost is paid exactly once per key;
3. :class:`~repro.service.jobs.JobQueue` — bounded admission + worker
   threads; sync requests submit-and-wait, async requests submit-and-poll.

Datasets (graphs + warm engines + shard pools) live in the
:class:`~repro.service.registry.DatasetRegistry`; results are
bit-identical to a direct :meth:`CountingEngine.count` with the same
parameters, which the concurrency hammer test asserts.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..counting.colorings import COLORING_STRATEGIES
from ..engine import CountingEngine, CountRequest, EngineConfig, PrecisionSpec, RunResult
from ..engine.backends import DEFAULT_REGISTRY
from ..engine.fingerprint import request_fingerprint
from ..query.library import (
    MAX_NODE_LABEL, coerce_node_labels, resolve_query_name, whole_number,
)
from ..query.query import QueryGraph
from .cache import ResultCache
from .jobs import Job, JobQueue, ServiceSaturated, UnknownJobError
from .registry import DatasetEntry, DatasetRegistry, UnknownDatasetError

__all__ = [
    "CountingService",
    "BadRequestError",
    "ServiceTimeout",
    "ServiceSaturated",
    "UnknownDatasetError",
    "UnknownJobError",
    "UnknownQueryError",
]

#: request fields a client may override per call (everything else is
#: fixed by the service's EngineConfig)
REQUEST_FIELDS = (
    "method", "trials", "seed", "num_colors", "workers", "coloring_strategy",
    "labels", "precision",
)

#: upper bounds on the untrusted per-request knobs — one HTTP client
#: must not be able to materialize gigabytes of colorings, fork
#: thousands of processes, or cache unbounded shard pools
MAX_TRIALS = 1_000
MAX_WORKERS = 32
MAX_NUM_COLORS = 64
#: wire label values share the CLI's cap (well below int64 so label
#: arithmetic can never overflow and typos fail loudly)
MAX_LABEL = MAX_NODE_LABEL


class BadRequestError(ValueError):
    """Malformed or unsupported request parameters (HTTP 400)."""


class UnknownQueryError(KeyError):
    """Query name not in the paper library (HTTP 404)."""


class ServiceTimeout(RuntimeError):
    """A synchronous request ran past its deadline (HTTP 504)."""


class CountingService:
    """Async counting service: dataset registry + job queue + result cache.

    ``workers``/``queue_depth`` size the execution layer, ``cache_size``
    the result cache; ``config`` is the engine-wide default every request
    inherits from (method, trials, seed, palette, shard workers, ...).
    """

    def __init__(
        self,
        registry: Optional[DatasetRegistry] = None,
        config: Optional[EngineConfig] = None,
        workers: int = 2,
        queue_depth: int = 32,
        cache_size: int = 256,
        history: int = 256,
    ) -> None:
        if registry is not None and config is not None and registry.config is not config:
            raise ValueError("pass the EngineConfig either via registry or config, not both")
        self.registry = registry if registry is not None else DatasetRegistry(config)
        self.config = self.registry.config
        self.cache = ResultCache(cache_size)
        self.queue = JobQueue(workers=workers, depth=queue_depth, history=history)
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._inflight: Dict[str, Job] = {}
        self._closed = False
        self._count_requests = 0
        self._job_requests = 0
        self._computed = 0
        self._inflight_joins = 0

    # ------------------------------------------------------------------
    # request construction
    # ------------------------------------------------------------------
    def resolve_query(self, spec: Union[str, dict, QueryGraph]) -> QueryGraph:
        """Turn a wire query spec into a :class:`QueryGraph`.

        A string names one of the ten Figure 8 paper queries or a
        labeled library template; a dict carries explicit structure
        (``{"edges": [[u, v], ...], "name": ...}``) for ad-hoc queries.
        """
        if isinstance(spec, QueryGraph):
            return spec
        if isinstance(spec, str):
            try:
                return resolve_query_name(spec)
            except KeyError as exc:
                raise UnknownQueryError(str(exc)) from None
        if isinstance(spec, dict):
            unknown = sorted(set(spec) - {"edges", "name", "labels"})
            if unknown:
                # reject rather than drop: a typo'd 'labels' key silently
                # producing unlabeled counts would be the worst failure mode
                raise BadRequestError(
                    f"unknown query spec fields {unknown}; "
                    "allowed: ['edges', 'labels', 'name']"
                )
            edges = spec.get("edges")
            if not edges:
                raise BadRequestError("custom query needs a non-empty 'edges' list")
            try:
                pairs = [(int(u), int(v)) for u, v in edges]
                query = QueryGraph(pairs, name=str(spec.get("name", "custom")))
            except (TypeError, ValueError) as exc:
                raise BadRequestError(f"bad query edges: {exc}") from None
            if spec.get("labels") is not None:
                # labels nested in an ad-hoc query spec; a top-level
                # request 'labels' field still wins (effective_query)
                query = query.with_labels(self.coerce_label_spec(query, spec["labels"]))
            return query
        raise BadRequestError(f"query spec must be a name or edge dict, got {type(spec).__name__}")

    def coerce_label_spec(self, query: QueryGraph, value: object) -> Dict[object, int]:
        """Wire label spec → ``{query node: int}`` covering every node.

        Two spellings are accepted: a JSON object keyed by node name
        (``{"0": 1, "1": 0, ...}`` — JSON object keys are strings, so
        they are matched against ``str(node)``), or a list with one label
        per node in the query's deterministic node order.  The grammar
        (and its coercion/bounds discipline) is shared with the CLI via
        :func:`repro.query.library.coerce_node_labels`.
        """
        try:
            return coerce_node_labels(query, value, max_label=MAX_LABEL)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from None

    def build_request(self, query: QueryGraph, params: Dict[str, object]) -> CountRequest:
        """Validate wire params and build the resolved :class:`CountRequest`.

        Coerces JSON value types (``"2"``/``2.0`` → ``2``, so equivalent
        spellings share a fingerprint; ``true`` is not an integer, see
        :func:`~repro.query.library.whole_number`) and rejects unknown fields,
        unknown methods and coloring strategies, ``seed < 0``,
        ``trials < 1``, ``num_colors < k``, malformed ``precision``
        documents and malformed label specs eagerly, so a queued job can
        only fail for genuinely exceptional reasons.

        ``precision`` accepts everything
        :meth:`~repro.engine.config.PrecisionSpec.coerce` does on the
        wire: a bare trial count (sugar for a fixed run) or a mapping
        with any of ``rel_error`` / ``confidence`` / ``min_trials`` /
        ``max_trials``.
        """
        unknown = sorted(set(params) - set(REQUEST_FIELDS))
        if unknown:
            raise BadRequestError(
                f"unknown request fields {unknown}; allowed: {sorted(REQUEST_FIELDS)}"
            )
        kwargs: Dict[str, object] = {}
        labels = params.get("labels")
        if labels is not None:
            kwargs["labels"] = self.coerce_label_spec(query, labels)
        precision = params.get("precision")
        if precision is not None:
            try:
                kwargs["precision"] = PrecisionSpec.coerce(precision)
            except (TypeError, ValueError) as exc:
                raise BadRequestError(f"bad value for 'precision': {exc}") from None
        for field in REQUEST_FIELDS:
            if field in ("labels", "precision"):
                continue
            value = params.get(field)
            if value is None:
                continue
            if field in ("method", "coloring_strategy"):
                kwargs[field] = str(value)
                continue
            try:
                kwargs[field] = whole_number(value, f"bad value for {field!r}")
            except ValueError as exc:
                raise BadRequestError(str(exc)) from None
        try:
            request = CountRequest(query=query, **kwargs).resolved(self.config)
        except TypeError as exc:
            raise BadRequestError(str(exc)) from None
        if request.method != "auto" and request.method not in DEFAULT_REGISTRY:
            raise BadRequestError(
                f"unknown method {request.method!r}; use one of "
                f"{DEFAULT_REGISTRY.names()} or 'auto'"
            )
        if request.coloring_strategy not in COLORING_STRATEGIES:
            raise BadRequestError(
                f"unknown coloring_strategy {request.coloring_strategy!r}; "
                f"use one of {sorted(COLORING_STRATEGIES)}"
            )
        if int(request.seed) < 0:
            raise BadRequestError("seed must be a non-negative integer")
        if not 1 <= int(request.trials) <= MAX_TRIALS:
            raise BadRequestError(f"trials must be in [1, {MAX_TRIALS}]")
        if request.effective_precision().max_trials > MAX_TRIALS:
            raise BadRequestError(
                f"precision.max_trials must be in [1, {MAX_TRIALS}]"
            )
        if not 1 <= int(request.workers) <= MAX_WORKERS:
            raise BadRequestError(f"workers must be in [1, {MAX_WORKERS}]")
        if request.num_colors is not None and not (
            query.k <= int(request.num_colors) <= MAX_NUM_COLORS
        ):
            raise BadRequestError(
                f"num_colors must be in [k={query.k}, {MAX_NUM_COLORS}]"
            )
        return request

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        entry: DatasetEntry,
        request: CountRequest,
        fp: str,
        trace_id: Optional[str] = None,
    ) -> RunResult:
        """Run one admitted request on the dataset's engine, fill the cache.

        The in-flight job for this fingerprint (still registered — it is
        only popped in the ``finally`` below) receives the engine's
        refining-CI snapshots, so ``GET /jobs/<id>`` shows live trial
        progress while an adaptive run converges.  ``trace_id`` is the
        admitting HTTP request's trace ID, re-bound here because this
        runs on a job-worker thread, not the handler's.
        """
        with self._lock:
            job = self._inflight.get(fp)
        on_progress = job.update_progress if job is not None else None
        token = obs.set_trace_id(trace_id) if trace_id is not None else None
        try:
            result = entry.engine.count(request, on_progress=on_progress)
            self.cache.put(fp, result)
            with self._lock:
                self._computed += 1
            return result
        finally:
            if token is not None:
                obs.reset_trace_id(token)
            with self._lock:
                self._inflight.pop(fp, None)

    def _admit(
        self,
        dataset: str,
        query_spec: Union[str, dict, QueryGraph],
        params: Dict[str, object],
    ) -> Tuple[Optional[RunResult], Optional[Job], str]:
        """Cache lookup → in-flight join → queue submit, in that order.

        Returns ``(result, job, fingerprint)`` where exactly one of
        ``result`` (cache hit) and ``job`` (to wait on / poll) is set.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
        entry = self.registry.count_request(dataset)
        query = self.resolve_query(query_spec)
        request = self.build_request(query, params)
        effective = request.effective_query()
        if effective.labels is not None and entry.graph.labels is None:
            # fail labeled requests eagerly with a 400, not a queued job
            # that can only die with a 500
            raise BadRequestError(
                f"dataset {dataset!r} carries no vertex labels; labeled "
                "queries need a labeled dataset"
            )
        if request.method != "auto":
            # surface unsupported query/palette/label combinations as an
            # eager 400 with the backend's own (accurate) reason — e.g.
            # ps-vec rejects palettes over 62
            backend = DEFAULT_REGISTRY.get(request.method)
            try:
                backend.check(effective, request.num_colors)
            except ValueError as exc:
                raise BadRequestError(str(exc)) from None
        # the generation suffix retires cache entries when a dataset is
        # re-registered under the same name with different contents
        fp = request_fingerprint(
            f"{dataset}@g{entry.generation}", request, self.config
        )
        # cache lookup and in-flight check are one atomic step: a worker
        # fills the cache *before* it drops its in-flight entry (which
        # needs this same lock), so a miss here always finds the job —
        # each fingerprint is computed exactly once
        with self._lock:
            hit, value = self.cache.get(fp)
            if hit:
                return value, None, fp  # type: ignore[return-value]
            job = self._inflight.get(fp)
            if job is not None:
                self._inflight_joins += 1
                return None, job, fp
            label = f"{dataset}/{query.name or 'custom'}"
            # capture the admitting request's trace ID into the closure:
            # the job runs on a worker thread where the handler's
            # contextvar binding is not visible
            trace_id = obs.current_trace_id()
            job = Job(
                lambda: self._execute(entry, request, fp, trace_id),
                label=label,
                fingerprint=fp,
            )
            self._inflight[fp] = job
            # visible to GET /jobs/<id> from the instant a joiner can see
            # it, even before (or without) a successful queue submission
            self.queue.expose(job)
        try:
            self.queue.submit(job)
        except ServiceSaturated as exc:
            with self._lock:
                self._inflight.pop(fp, None)
            # a concurrent identical request may have joined this job in
            # the window before the pop; fail it loudly so no waiter
            # sleeps to its timeout on a job that will never run
            job.error = f"rejected: {exc}"
            job.state = "failed"
            job.finished_at = time.time()
            job.event.set()
            self.queue.adopt(job)  # pollable + history-trimmed like any job
            raise
        return None, job, fp

    def count(
        self,
        dataset: str,
        query: Union[str, dict, QueryGraph],
        timeout: Optional[float] = 300.0,
        **params: object,
    ) -> Tuple[RunResult, bool]:
        """Synchronous counting: ``(RunResult, served_from_cache)``.

        Bit-identical to ``CountingEngine.count`` with the same resolved
        parameters.  ``timeout`` (seconds; ``None`` waits forever) must
        lie in ``(0, threading.TIMEOUT_MAX]``, checked before anything is
        queued.  Raises :class:`ServiceSaturated` when the queue is full
        and :class:`ServiceTimeout` when the deadline passes.
        """
        with self._lock:
            self._count_requests += 1
        if timeout is not None and not 0.0 < timeout <= threading.TIMEOUT_MAX:
            raise BadRequestError(
                f"timeout must be in (0, {threading.TIMEOUT_MAX:g}] seconds, "
                f"got {timeout!r}"
            )
        result, job, _fp = self._admit(dataset, query, params)
        if result is not None:
            return result, True
        assert job is not None
        if not job.wait(timeout):
            raise ServiceTimeout(f"request still {job.state} after {timeout:g}s")
        if job.state != "done":
            error = job.error or "job failed"
            if error.startswith("rejected:"):
                # joined a job whose submission was shed by admission
                # control — this request was effectively rejected too
                raise ServiceSaturated(error)
            raise RuntimeError(error)
        return job.result, False  # type: ignore[return-value]

    def submit(
        self, dataset: str, query: Union[str, dict, QueryGraph], **params: object
    ) -> Job:
        """Asynchronous counting: admit and return the job to poll.

        A cache hit still returns a job — already ``done``, carrying the
        cached result — so clients poll one uniform shape.
        """
        with self._lock:
            self._job_requests += 1
        result, job, fp = self._admit(dataset, query, params)
        if job is not None:
            return job
        done = Job(lambda: result, label="cached", fingerprint=fp)
        done.state = "done"
        done.result = result
        done.started_at = done.finished_at = time.time()
        done.event.set()
        return self.queue.adopt(done)

    def job(self, job_id: str) -> Job:
        """Look up a submitted job by id (raises :class:`UnknownJobError`)."""
        return self.queue.get(job_id)

    # ------------------------------------------------------------------
    # observability + lifecycle
    # ------------------------------------------------------------------
    def datasets(self) -> List[Dict[str, object]]:
        return self.registry.describe()

    def stats(self) -> Dict[str, object]:
        """One JSON-safe snapshot of every layer (``GET /stats``)."""
        with self._lock:
            requests = {
                "count": self._count_requests,
                "jobs": self._job_requests,
                "computed": self._computed,
                "inflight_joins": self._inflight_joins,
                "inflight": len(self._inflight),
            }
        executors: Dict[str, List[Dict[str, object]]] = {}
        for name in self.registry.names():
            engine: CountingEngine = self.registry.get(name).engine
            pools = [ex.describe() for ex in engine.executors()]
            if pools:
                executors[name] = pools
        return {
            "uptime_seconds": time.time() - self.started_at,
            "requests": requests,
            "cache": self.cache.snapshot(),
            "queue": self.queue.stats(),
            "datasets": self.datasets(),
            "executors": executors,
            # the nested metrics snapshot mirrors GET /metrics (additive
            # key: existing /stats consumers are unaffected)
            "obs": obs.registry().snapshot(),
        }

    def close(self) -> None:
        """Drain the queue, stop workers, release every engine pool.

        Idempotent; the ``repro-serve`` signal handlers and the engine
        ``atexit`` hook both funnel through here, so a SIGTERM'd service
        leaves no worker processes or shared-memory segments behind.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.queue.close()
        self.registry.close()

    def __enter__(self) -> "CountingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            closed = self._closed
        return (
            f"CountingService(datasets={len(self.registry)}, "
            f"cache={self.cache.snapshot()['size']}, closed={closed})"
        )
