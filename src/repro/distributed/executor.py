"""Real sharded multiprocess executor for the vectorized PS dynamic program.

This is the ``ps-dist`` backend: the data graph's start vertices are
cut into one contiguous range per worker *process*, at equal shares of
the CSR's edge endpoints (:func:`_shard_cuts`), each worker runs the
vectorized PS sweep over the rows whose path-start vertex lies in its
range, and between supersteps the per-shard boundary tables are
exchanged through the master and concatenated into the full projection
tables every rank needs for its next join.  The result is the sequential
``ps``/``ps-vec`` count **bit for bit**: path extensions never change a
row's start vertex, so every table row lies in exactly one shard, and
every table keeps that vertex as its leading key, so shards in range
order concatenate into the full sorted table.  Inside a worker the sweep
chunks its joins by start vertex exactly as ``ps-vec`` does — a shard is
a run of ``ps-vec``'s chunks on a pooled worker — and a trial whose
``int64`` guard trips anywhere reruns on every worker with Python-int
counts.

The same pool also runs whole trials (:meth:`ShardedExecutor.run_trials`):
that is how the engine runs ``workers > 1`` for every other backend.

Data placement
--------------
* the CSR adjacency (``indptr``/``indices``) and the per-trial coloring
  live in :mod:`multiprocessing.shared_memory` segments — workers map
  them zero-copy and read-only (:meth:`Graph.wrap_csr` over the mapped
  arrays, never a copy of the graph);
* decomposition plans are shipped once per executor (workers re-derive
  the same bottom-up block order from ``Plan.blocks()``);
* boundary table slices travel over per-worker pipes: worker → master
  (shard), master → workers (combined), one round per superstep.

Measured vs predicted
---------------------
Each worker reports per-stage CPU and wall seconds, collected into a
:class:`repro.distributed.runtime.WallStats` — the *measured* side of the
runtime.  The simulated :class:`LoadStats` accounting stays as the
*predicted* cost model: :func:`repro.distributed.engine.run_distributed`
(``method="ps"``) predicts the same coloring on the paper's vertex-block
partition and ownership rule.  The two agree on counts, not on per-rank
splits: shards are cut by edge share, simulated ranks by vertex count.
"""


from __future__ import annotations

import multiprocessing as mp
import threading
import time
import weakref
from multiprocessing import shared_memory
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple, cast

import numpy as np

from .. import obs
from ..obs import catalogue as obs_catalogue
from ..counting.labels import label_masks_from_arrays
from ..counting.vectorized import (
    VecBinaryTable,
    VecUnaryTable,
    VectorizedSolver,
    trial_input,
)
from ..decomposition.blocks import LEAF, SINGLETON
from ..decomposition.tree import Plan
from ..graph.graph import Graph
from ..query.query import QueryGraph
from .runtime import WallStats

if TYPE_CHECKING:  # pragma: no cover - the engine layer sits above this one
    from ..engine.backends import CountingBackend

__all__ = ["ShardedExecutor", "ShardResult"]


class ShardResult(NamedTuple):
    """One distributed counting run: the exact count plus measured stats."""

    count: int
    stats: WallStats


# ----------------------------------------------------------------------
# table payloads (pipe exchange format: plain tuples of arrays)
# ----------------------------------------------------------------------

def _pack(result: object) -> tuple:
    """Flatten a solved block result for pipe transport."""
    if isinstance(result, (int, np.integer)):
        return ("count", int(result))
    if isinstance(result, VecUnaryTable):
        return ("unary", result.boundary, result.u, result.sig, result.cnt)
    if isinstance(result, VecBinaryTable):
        return ("binary", result.boundary, result.u, result.v, result.sig, result.cnt)
    raise TypeError(f"unexpected block result {type(result).__name__}")


def _unpack(payload: tuple) -> object:
    """Rebuild a table object from its pipe payload."""
    kind = payload[0]
    if kind == "count":
        return payload[1]
    if kind == "unary":
        return VecUnaryTable(payload[1], payload[2], payload[3], payload[4])
    return VecBinaryTable(payload[1], payload[2], payload[3], payload[4], payload[5])


def _payload_rows(payload: tuple) -> int:
    """Number of table rows a payload ships (0 for scalar counts)."""
    return 0 if payload[0] == "count" else len(payload[-1])


def _combine_shards(payloads: Sequence[tuple]) -> object:
    """Join per-rank shards, in rank order, into the full table (or count).

    Rank ``r``'s shard holds exactly the rows of the full table whose
    start vertex ``u`` lies in its range ``[cuts[r], cuts[r+1])``: leaves
    key on ``(u, sig)`` and cycles on ``(u, sig)`` or ``(u, v, sig)``.
    Each shard is sorted and unique and the ranges tile ``[0, n)`` in
    rank order, so the concatenation is the sorted, unique table the
    unsharded solver builds.  It adds no counts, so it needs no overflow
    guard.  Scalar shard counts are Python ints, summed exactly.
    """
    kind = payloads[0][0]
    if any(p[0] != kind for p in payloads):  # pragma: no cover - protocol bug guard
        raise RuntimeError("mixed shard payload kinds")
    if kind == "count":
        return sum(p[1] for p in payloads)
    cols = [np.concatenate(col) for col in zip(*(p[2:] for p in payloads))]
    return _unpack((kind, payloads[0][1], *cols))


def _shard_cuts(indptr: np.ndarray, nranks: int) -> np.ndarray:
    """Start-vertex cuts ``[0, ..., n]``: shard ``r`` owns ``[cuts[r], cuts[r+1])``.

    Cut ``r`` is the first vertex whose CSR row starts at or past the
    ``r/R`` share of the edge endpoints, so each shard holds at most
    ``ceil(2m/R)`` endpoints plus one vertex's degree, wherever the hubs
    sit in the vertex order.  Zero-degree vertices after the last edge
    fall past every share, so the last cut is pinned to ``n``.
    """
    share = np.arange(nranks + 1, dtype=np.int64) * int(indptr[-1]) // nranks
    cuts = np.searchsorted(indptr, share)
    cuts[-1] = len(indptr) - 1
    return cuts


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------

def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment created by the master.

    Workers are multiprocessing children: on POSIX the master's
    resource-tracker fd is handed to them for every start method (fork
    inherits it, spawn/forkserver ship it in the preparation data), so
    the register performed by attaching is an idempotent duplicate of the
    master's create-time registration and cleanup stays solely with the
    master's unlink.  Do NOT unregister here — that would strip the
    shared tracker's entry and make the master's unlink double-remove
    (observed as KeyError spam from the tracker).  On Windows named
    shared memory has no tracker/unlink semantics at all.
    """
    return shared_memory.SharedMemory(name=name)


def _join_trace(trace_id: Optional[str]) -> None:
    """Re-establish the master's trace across the process boundary: a
    local collector whose spans ship back with each reply (none when
    ``trace_id`` is ``None``, i.e. nothing is being collected)."""
    obs.install_trace(obs.Trace(trace_id) if trace_id is not None else None)
    if trace_id is not None:
        obs.set_trace_id(trace_id)


def _drain_events() -> List[Dict[str, object]]:
    trace = obs.active_trace()
    return trace.drain() if trace is not None else []


def _worker_main(
    conn: Connection,
    rank: int,
    start_range: Tuple[int, int],
    shm_names: Sequence[str],
    n: int,
    nnz: int,
    has_labels: bool,
) -> None:  # pragma: no cover - exercised in subprocesses
    """Worker loop: solve blocks over the start vertices in ``start_range``.

    Protocol (master → worker): ``("plan", key, plan)`` registers a plan,
    ``("trial", key, k, qlabels, trace_id, exact)`` starts a trial (fresh
    solver over the current shared coloring; ``qlabels`` is the labeled
    query's node → label map, or ``None``; ``trace_id`` is the master's obs
    trace ID when a trace is being collected, else ``None``; ``exact``
    selects Python-int counts), ``("block", idx)``
    solves one block's shard, ``("table", idx, payload)`` installs a
    combined child table, ``("stop",)`` exits.  Worker → master:
    ``("shard", idx, payload, cpu_seconds, wall_seconds, events)`` —
    ``events`` is the list of obs span events recorded in this worker
    since the last reply (empty when no trace is active) — or
    ``("error", exception)``.  Whole trials: ``("run", index, key,
    backend, query, colors, num_colors, trace_id)`` (``key`` is ``None``
    for plan-free backends) answers ``("counted", index, count, seconds,
    events)``.
    """
    shms = [_attach_shm(nm) for nm in shm_names]
    indptr = np.ndarray((n + 1,), dtype=np.int64, buffer=shms[0].buf)
    indices = np.ndarray((nnz,), dtype=np.int64, buffer=shms[1].buf)
    colors = np.ndarray((n,), dtype=np.int64, buffer=shms[2].buf)
    labels = (
        np.ndarray((n,), dtype=np.int64, buffer=shms[3].buf) if has_labels else None
    )
    g = Graph.wrap_csr(indptr, indices, labels)
    plans: Dict[int, Plan] = {}
    blocks: Optional[List] = None
    solver: Optional[VectorizedSolver] = None
    # the master only ever recv()s one reply per "block"/"run" request, so a
    # failure in any other op is held here and reported on the next
    # "block" — sending it eagerly would desync the request/reply pairing
    pending_error: Optional[BaseException] = None
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            op = msg[0]
            if op == "stop":
                break
            try:
                if op == "plan":
                    plans[msg[1]] = msg[2]
                elif op == "trial":
                    blocks = plans[msg[1]].blocks()
                    solver = VectorizedSolver(
                        g,
                        colors,
                        msg[2],
                        start_range=start_range,
                        vertex_ok=label_masks_from_arrays(labels, msg[3]),
                        exact=msg[5],
                    )
                    _join_trace(msg[4])
                    pending_error = None  # stale failures die with their trial
                elif op == "block":
                    if pending_error is not None:
                        conn.send(("error", pending_error))
                        pending_error = None
                        continue
                    idx = msg[1]
                    wall0 = time.perf_counter()
                    cpu0 = time.process_time()
                    with obs.span("dist.solve", rank=rank, block=idx):
                        result = solver.solve(blocks[idx])
                    cpu = time.process_time() - cpu0
                    wall = time.perf_counter() - wall0
                    conn.send(("shard", idx, _pack(result), cpu, wall, _drain_events()))
                elif op == "table":
                    solver.inject(blocks[msg[1]], _unpack(msg[2]))
                elif op == "run":
                    _, index, key, backend, query, trial_colors, num_colors, trace_id = msg
                    _join_trace(trace_id)
                    t0 = time.perf_counter()
                    with obs.span("engine.trial", index=index):
                        count = backend.count_colorful(
                            g, query, trial_colors,
                            plan=plans[key] if key is not None else None,
                            num_colors=num_colors,
                        )
                    seconds = time.perf_counter() - t0
                    conn.send(("counted", index, int(count), seconds, _drain_events()))
            except Exception as exc:  # noqa: BLE001 - forwarded to the master
                if op in ("block", "run"):
                    conn.send(("error", exc))
                else:
                    pending_error = exc
    finally:
        conn.close()
        for shm in shms:
            try:
                shm.close()
            except Exception:
                pass


# ----------------------------------------------------------------------
# master
# ----------------------------------------------------------------------

def _shipped_trace_id() -> Optional[str]:
    """The trace ID to hand to workers: only while a trace is actually
    being collected — otherwise workers skip span recording entirely."""
    return obs.current_trace_id() if obs.active_trace() is not None else None


def _release(
    procs: Sequence[mp.Process],
    conns: Sequence[Connection],
    shms: Sequence[shared_memory.SharedMemory],
) -> None:
    """Tear down workers and shared memory (finalizer-safe, idempotent)."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for shm in shms:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


def _share_array(arr: np.ndarray) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Copy ``arr`` into a fresh shared-memory segment, return (shm, view)."""
    arr = np.ascontiguousarray(arr, dtype=np.int64)
    shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 8))
    view = np.ndarray(arr.shape, dtype=np.int64, buffer=shm.buf)
    view[:] = arr
    return shm, view


class ShardedExecutor:
    """Persistent pool of shard workers bound to one data graph.

    Construction maps the graph into shared memory and spawns ``workers``
    processes; :meth:`count` then runs one coloring trial through the
    sharded DP, and :meth:`run_trials` hands whole colorings to them.
    Reuse the executor across trials and plans — per-call cost is one
    small message round per decomposition block (or per trial).  Close with
    :meth:`close` or a ``with`` block; a dropped executor is reclaimed by
    a finalizer (workers are daemons, segments are unlinked).

    Worker ``r`` shards :meth:`count` over the start vertices
    ``[cuts[r], cuts[r+1])`` (:func:`_shard_cuts`, equal edge shares).
    """

    def __init__(self, graph: Graph, workers: int) -> None:
        nranks = int(workers)
        if nranks < 1:
            raise ValueError("need at least one worker")
        self.graph = graph
        self.nranks = nranks
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")

        indptr, indices = graph.to_csr()
        cuts = _shard_cuts(indptr, nranks)
        has_labels = graph.labels is not None
        shm_ip, _ = _share_array(indptr)
        shm_ix, _ = _share_array(indices)
        shm_co, colors_view = _share_array(np.zeros(graph.n, dtype=np.int64))
        self._shms = [shm_ip, shm_ix, shm_co]
        self._colors_view = colors_view
        if has_labels:
            # the per-vertex label segment rides alongside the coloring:
            # written once here, read-only in every worker
            shm_lb, _ = _share_array(graph.labels)
            self._shms.append(shm_lb)

        names = [s.name for s in self._shms]
        self._conns = []
        self._procs = []
        try:
            for rank in range(nranks):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        child, rank, (int(cuts[rank]), int(cuts[rank + 1])), names,
                        graph.n, len(indices), has_labels,
                    ),
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
        except Exception:
            _release(self._procs, self._conns, self._shms)
            raise
        self._plan_keys: Dict[int, int] = {}
        self._plans: List[Plan] = []
        # one run owns the pipes end-to-end; concurrent count() calls
        # (service job workers sharing a pooled executor) take turns
        # rather than interleaving the superstep message rounds.  close()
        # takes it too, so teardown waits for the run in flight; reentrant
        # because a mid-run worker failure closes from inside the run
        self._run_lock = threading.RLock()
        self._runs = 0
        self._finalizer = weakref.finalize(
            self, _release, self._procs, self._conns, self._shms
        )

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Stop the workers and unlink the shared-memory segments.

        Waits for any run in flight on another thread — pipes and shared
        memory are never torn down under a live superstep.
        """
        with self._run_lock:
            self._finalizer()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _send(self, conn: Connection, msg: tuple) -> None:
        try:
            conn.send(msg)
        except OSError:
            # a worker died while the pool was idle (e.g. OOM-killed):
            # close so engine-level caches replace this executor
            self.close()
            raise RuntimeError("pool worker died; executor closed") from None

    def _recv(self, conn: Connection) -> tuple:
        try:
            return conn.recv()
        except (EOFError, OSError):
            self.close()
            rank = self._conns.index(conn)
            raise RuntimeError(f"pool worker {rank} died mid-run") from None

    def _broadcast(self, msg: tuple) -> None:
        for conn in self._conns:
            self._send(conn, msg)

    def _register_plan_locked(self, plan: Plan) -> int:
        key = self._plan_keys.get(id(plan))
        if key is None:
            key = len(self._plans)
            self._plan_keys[id(plan)] = key
            self._plans.append(plan)  # pin: id() keys must not be recycled
            self._broadcast(("plan", key, plan))
        return key

    def _gather(self, stats: WallStats, stage: str) -> List[tuple]:
        rec = stats.new_stage(stage)
        shards: List[tuple] = [None] * self.nranks  # type: ignore[list-item]
        error: Optional[BaseException] = None
        for rank, conn in enumerate(self._conns):
            msg = self._recv(conn)
            if msg[0] == "error":
                error = error or msg[1]
                continue
            _, _, payload, cpu, wall, events = msg
            rec.cpu[rank] = cpu
            rec.wall[rank] = wall
            rec.rows[rank] = _payload_rows(payload)
            shards[rank] = payload
            # merge shard-worker spans into the active trace (no-op when
            # nothing is being collected — workers ship an empty list then)
            obs.add_events(events)
        if error is not None:
            # workers are already idle again (they answer one message at a
            # time); the next count() starts a fresh trial
            raise error
        return shards

    # ------------------------------------------------------------------
    def count(
        self,
        plan: Plan,
        colors: Sequence[int],
        num_colors: Optional[int] = None,
    ) -> ShardResult:
        """Count colorful matches of ``plan.query`` under one coloring.

        Bit-identical to :func:`solve_plan_vectorized` on the same plan
        and coloring, including its rerun with Python-int counts when an
        ``int64`` guard trips; also returns the measured per-rank
        :class:`WallStats` for the run (the rerun's, if one ran).
        """
        if self.closed:
            raise RuntimeError("executor is closed")
        colors, _, single = trial_input(self.graph, plan.query, colors, num_colors)

        with self._run_lock:
            t0 = time.perf_counter()
            if plan.root.kind == LEAF:  # pragma: no cover - planner never roots a leaf
                raise ValueError("plan root must be a cycle or singleton block")
            if single is not None:
                count, stats = single, WallStats(self.nranks)
            else:
                key = self._register_plan_locked(plan)
                self._colors_view[:] = colors
                try:
                    count, stats = self._sweep_locked(plan, key, exact=False)
                except OverflowError:
                    # an int64 guard tripped in a worker or a combine; every
                    # worker has answered, so redo the trial exactly
                    count, stats = self._sweep_locked(plan, key, exact=True)
            stats.wall_seconds = time.perf_counter() - t0
            self._runs += 1
            return ShardResult(count, stats)

    def _sweep_locked(self, plan: Plan, key: int, exact: bool) -> Tuple[int, WallStats]:
        """One trial's supersteps over the current shared coloring."""
        stats = WallStats(self.nranks)
        root = plan.root
        self._broadcast(
            ("trial", key, plan.query.k, plan.query.labels, _shipped_trace_id(), exact)
        )
        blocks = plan.blocks()
        stages = blocks[:-1] if root.kind == SINGLETON else blocks
        last_combined: object = None
        for idx, block in enumerate(stages):
            stage_name = f"b{idx}:{block.kind}"
            with obs.span(
                "dist.superstep", stage=stage_name, workers=self.nranks
            ) as sp:
                self._broadcast(("block", idx))
                shards = self._gather(stats, stage_name)
                last_combined = _combine_shards(shards)
                if idx < len(stages) - 1:
                    # publish the combined child table for the parents'
                    # joins; the final stage's result is consumed only
                    # by the master
                    self._broadcast(("table", idx, _pack(last_combined)))
                # fold the measured WallStats row into the trace span
                rec = stats.stages[-1]
                sp.add(
                    rows=int(rec.rows.sum()),
                    max_wall=float(rec.wall.max()),
                    max_cpu=float(rec.cpu.max()),
                )
        if root.kind == SINGLETON:
            # bottom-up block order puts the root's only child last
            (child,) = root.node_ann.values()
            assert stages[-1] is child, "plan block order violated"
            count = last_combined.total()
        else:
            count = last_combined  # 0-boundary root cycle: scalar partials
        obs_catalogue.dist_supersteps().inc(len(stages))
        obs_catalogue.dist_exchanged_rows().inc(stats.exchanged_rows())
        return int(count), stats

    def run_trials(
        self,
        backend: "CountingBackend",
        query: QueryGraph,
        plan: Optional[Plan],
        colorings: Sequence[Sequence[int]],
        num_colors: Optional[int] = None,
        start: int = 0,
    ) -> List[Tuple[int, float]]:
        """Count whole colorings on the pooled workers, one trial each.

        A worker runs ``backend.count_colorful`` over the shared graph for
        one coloring at a time, and whichever worker answers next takes
        the next coloring.  Returns ``(count, seconds)`` per coloring, in
        input order — the same counts an in-process loop gives.  ``start``
        is the trial index of ``colorings[0]``, stamped on the workers'
        ``engine.trial`` spans.  A failed trial raises its error once the
        other workers are idle again, so the pool stays usable.
        """
        if self.closed:
            raise RuntimeError("executor is closed")
        # whole trials may run a backend without the sweep's palette cap
        trials = [
            trial_input(self.graph, query, c, num_colors, cap=False)[0] for c in colorings
        ]
        results: List[Tuple[int, float]] = [(0, 0.0)] * len(trials)
        error: Optional[BaseException] = None
        with self._run_lock:
            key = self._register_plan_locked(plan) if plan is not None else None
            trace_id = _shipped_trace_id()
            todo = iter(range(len(trials)))
            busy: Dict[Connection, int] = {}  # worker pipe -> its trial

            def feed(conn: Connection) -> None:
                i = next(todo, None)
                if i is not None:
                    busy[conn] = i
                    self._send(conn, (
                        "run", start + i, key, backend, query, trials[i],
                        num_colors, trace_id,
                    ))

            for conn in self._conns:
                feed(conn)
            while busy:
                for conn in cast(List[Connection], wait(list(busy))):
                    i = busy.pop(conn)
                    msg = self._recv(conn)
                    if msg[0] == "error":
                        # stop feeding; the other workers finish their trial
                        error = error or msg[1]
                        continue
                    _, _, count, seconds, events = msg
                    results[i] = (count, seconds)
                    obs.add_events(events)
                    self._runs += 1
                    if error is None:
                        feed(conn)
        if error is not None:
            raise error
        return results

    def describe(self) -> Dict[str, object]:
        """JSON-safe snapshot of this pool (surfaced by the service's
        ``/stats`` endpoint)."""
        # lock-free snapshot on purpose: _run_lock is held across whole
        # multi-second counting runs, and the service's /stats endpoint
        # must answer immediately; a stale integer is acceptable here.
        return {
            "workers": self.nranks,
            "closed": self.closed,
            "plans_registered": len(self._plans),  # repro: allow[RP003]
            "runs": self._runs,  # repro: allow[RP003]
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return f"ShardedExecutor(n={self.graph.n}, workers={self.nranks}, {state})"
