"""The benchmark's workloads: inputs from the seed, set-up, requests, checks.

Every workload builds its inputs from ``--seed`` alone and reaches the
program only through public entry points: the graph generators and null
model, the ``CountingEngine``, ``motif_census``, the ``python -m
repro.service`` server and its ``ServiceClient`` — and, in traced runs,
``coloring_batch``, ``VectorizedSolver`` and the ``ShardedExecutor`` for
the per-layer replays.

Graphs are drawn in two steps.  A fixed *base* graph — the largest
component of a Chung–Lu sample over a deterministic power-law weight
sequence — fixes the degree sequence, the property the DP cost depends
on most.  The seed then rewires it with degree-preserving double edge
swaps.  Every seed therefore sees the same degree sequence and a
different wiring, which keeps the cost of a request nearly independent
of the seed while the inputs, and all counts, still change with it.

Sizes are chosen for a 2-core, 7 GB machine, so that a run of 15 seconds
completes several rounds of each workload and stays far below the
memory that ps-vec tables reach on larger skewed graphs.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.counting.colorings import coloring_batch
from repro.counting.vectorized import VecBinaryTable, VectorizedSolver, VecUnaryTable
from repro.decomposition.blocks import CYCLE, LEAF
from repro.engine import (
    CountingEngine,
    CountRequest,
    EngineConfig,
    PrecisionSpec,
    RunResult,
    request_fingerprint,
)
from repro.graph.generators import chung_lu
from repro.graph.graph import Graph
from repro.graph.io import write_json_graph
from repro.graph.properties import largest_component_subgraph
from repro.motifs.census import all_tw2_motifs, motif_census
from repro.motifs.nullmodel import double_edge_swap
from repro.obs.exposition import parse_prometheus_text
from repro.query.library import cycle_query, paper_query
from repro.query.query import QueryGraph
from repro.service.client import ServiceClient

from measure import self_times

#: cyclic queries of the paper's Figure 8 (``auto`` sends them to ps-vec
#: once a graph passes its size threshold)
FOUR_QUERIES = ("glet1", "glet2", "youtube", "wiki")

#: a client stops after this many failed requests in a row; the run then
#: reports them instead of spinning until the deadline
MAX_FAILURE_STREAK = 20


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def power_law_base(
    n: int, gamma: float, avg_degree: float, hub_cap: float, base_seed: int, name: str
) -> Graph:
    """Largest component of a Chung–Lu graph over fixed power-law weights.

    The weights ``w_i ∝ i^(-1/(γ-1))`` are deterministic; they are
    rescaled to ``avg_degree`` and capped at ``hub_cap`` until both hold.
    """
    w = (np.arange(n, dtype=np.float64) + 1.0) ** (-1.0 / (gamma - 1.0))
    for _ in range(100):
        w = np.minimum(w * (avg_degree * n / w.sum()), hub_cap)
    g = chung_lu(w, np.random.default_rng(base_seed), name=name)
    return largest_component_subgraph(g)


def rewired(g: Graph, seed: int) -> Graph:
    """A degree-preserving randomisation of ``g`` drawn from ``seed``."""
    return double_edge_swap(g, np.random.default_rng(seed))


def pin(g: Graph) -> Dict[str, object]:
    """What identifies a generated graph: size, top degree, edge hash."""
    edges = np.ascontiguousarray(g.edge_array(), dtype=np.int64)
    return {
        "n": int(g.n),
        "m": int(g.m),
        "max_degree": int(g.max_degree()),
        "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()[:16],
    }


# ----------------------------------------------------------------------
# requests and windows
# ----------------------------------------------------------------------

class Outcome:
    """What one request returned, reduced to what the checks need."""

    __slots__ = (
        "template", "seed", "ok", "error", "counts", "estimate",
        "trials", "stopped_early", "payload",
    )

    def __init__(
        self,
        template: str,
        seed: int,
        counts: Optional[List[int]] = None,
        estimate: float = 0.0,
        trials: int = 0,
        stopped_early: bool = False,
        error: Optional[str] = None,
        payload: object = None,
    ) -> None:
        self.template = template
        self.seed = seed
        self.counts = counts
        self.estimate = estimate
        self.trials = trials
        self.stopped_early = stopped_early
        self.error = error
        self.ok = error is None
        self.payload = payload

    def key(self) -> List[object]:
        """The deterministic part of the outcome, for digests."""
        return [self.template, self.seed, self.counts, repr(self.estimate)]


#: one completed request: (index in its client's stream, start, end, outcome)
Record = Tuple[int, float, float, Outcome]


class Window:
    """The records of one timed window, one list per client."""

    def __init__(self, per_client: List[List[Record]], start: float, end: float) -> None:
        self.per_client = per_client
        self.start = start
        self.end = end

    @property
    def wall(self) -> float:
        return self.end - self.start

    def outcomes(self) -> List[Outcome]:
        return [rec[3] for recs in self.per_client for rec in recs]

    def first_round(self, size: int) -> List[Outcome]:
        return [rec[3] for recs in self.per_client for rec in recs if rec[0] < size]

    def rounds(self, size: int) -> List[List[List[Record]]]:
        """Each client's complete rounds: ``size`` consecutive requests,
        one pass over the workload's request mix."""
        return [
            [recs[r * size:(r + 1) * size] for r in range(len(recs) // size)]
            for recs in self.per_client
        ]

    def latencies(self, size: int) -> List[float]:
        """Latencies of the successful requests of complete rounds, so every
        request template weighs the same in the percentiles."""
        return [
            t1 - t0
            for rounds in self.rounds(size) for chunk in rounds
            for _, t0, t1, out in chunk if out.ok
        ]

    def round_rate(self, size: int) -> Tuple[float, int]:
        """Requests per second and the number of complete rounds.

        A client's rate is ``size`` over its median round duration, which
        a short stall on a shared machine moves far less than a plain
        mean; the clients' rates add up.
        """
        total = 0.0
        count = 0
        for rounds in self.rounds(size):
            if rounds:
                durations = [chunk[-1][2] - chunk[0][1] for chunk in rounds]
                total += size / statistics.median(durations)
                count += len(rounds)
        return total, count


def run_window(w: "Workload", seconds: float, window: int) -> Window:
    """Closed loop: each client sends its next request when the last returns.

    Clients start requests until ``seconds`` have passed, and always
    complete at least one round so the correctness gate has its sample.
    """
    w.open_window(window)
    size = w.round_size
    per_client: List[List[Record]] = [[] for _ in range(w.clients)]
    start = perf_counter()
    deadline = start + seconds

    def loop(client: int) -> None:
        i = 0
        streak = 0
        while i < size or perf_counter() < deadline:
            t0 = perf_counter()
            with obs.span("suite.request", workload=w.name, client=client, index=i):
                try:
                    out = w.issue(client, i)
                except Exception as exc:  # counted as a failed request, run goes on
                    traceback.print_exc(file=sys.stderr)
                    out = Outcome("error", -1, error=f"{type(exc).__name__}: {exc}")
            per_client[client].append((i, t0, perf_counter(), out))
            streak = 0 if out.ok else streak + 1
            if streak >= MAX_FAILURE_STREAK:
                break
            i += 1

    if w.clients == 1:
        loop(0)
    else:
        threads = [threading.Thread(target=loop, args=(c,)) for c in range(w.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return Window(per_client, start, perf_counter())


# ----------------------------------------------------------------------
# per-layer replays (traced runs only, outside the timed window)
# ----------------------------------------------------------------------

def first_coloring(g: Graph, q: QueryGraph, seed: int) -> np.ndarray:
    """The coloring of a request's first trial (the engine draws the same)."""
    return coloring_batch(g.n, q.k, 1, seed)[0]


def draw_ms(draws: Sequence[Tuple[Graph, int, Outcome]]) -> float:
    """Mean time to draw a request's colorings, as the engine draws them.

    ``draws`` holds ``(graph, number of colors, outcome)`` per request;
    the outcome supplies the seed and the number of trials it ran.
    """
    total = 0.0
    for g, k, out in draws:
        t = perf_counter()
        with obs.span("colorings.draw", trials=out.trials):
            coloring_batch(g.n, k, out.trials, out.seed)
        total += perf_counter() - t
    return 1e3 * total / max(len(draws), 1)


def vectorized_replay(
    g: Graph, items: Sequence[Tuple[QueryGraph, object, np.ndarray]]
) -> Dict[str, float]:
    """Block-by-block ps-vec sweep of one coloring per distinct query.

    Blocks are solved bottom-up, so each ``solve`` call finds its
    children done and its duration is the block's self time.  Bytes are
    computed from the output tables' shapes (8-byte columns), not
    measured.
    """
    leaf = cycle = 0.0
    rows = nbytes = 0
    for q, plan, colors in items:
        solver = VectorizedSolver(g, colors, q.k)
        for block in plan.blocks():
            if block.kind not in (LEAF, CYCLE):
                continue
            t = perf_counter()
            with obs.span("vectorized.block", kind=block.kind, query=q.name):
                table = solver.solve(block)
            dt = perf_counter() - t
            if block.kind == LEAF:
                leaf += dt
            else:
                cycle += dt
            if isinstance(table, (VecUnaryTable, VecBinaryTable)):
                cols = 4 if isinstance(table, VecBinaryTable) else 3
                rows += len(table)
                nbytes += len(table) * cols * 8
    n = max(len(items), 1)
    return {
        "vectorized.leaf_ms": 1e3 * leaf / n,
        "vectorized.cycle_ms": 1e3 * cycle / n,
        "vectorized.rows": rows / n,
        "vectorized.bytes": nbytes / n,
    }


def db_replay(
    items: Sequence[Tuple[CountingEngine, QueryGraph, np.ndarray]]
) -> Dict[str, float]:
    """One DB trial per ``(engine, query, coloring)``: its time, then its
    exact LoadStats over 8 simulated ranks (a separate run, since tracking
    costs time)."""
    secs = ops = msgs = imbalance = 0.0
    for engine, q, colors in items:
        t = perf_counter()
        with obs.span("kernels.db_trial", query=q.name):
            engine.count_colorful(q, colors, method="db")
        secs += perf_counter() - t
        ctx = engine.make_context(8)
        engine.count_colorful(q, colors, method="db", ctx=ctx)
        ops += ctx.stats.total_ops()
        msgs += ctx.stats.total_msgs()
        imbalance += ctx.stats.imbalance()
    n = max(len(items), 1)
    return {
        "kernels.db_trial_ms": 1e3 * secs / n,
        "kernels.db_ops": ops / n,
        "kernels.db_messages": msgs / n,
        "kernels.db_imbalance": imbalance / n,
    }


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """One set of inputs and its closed-loop request stream."""

    name = ""
    #: concurrent closed-loop clients
    clients = 1
    #: the tail percentile reported as ``request_tail_ms``
    tail_pct = 75.0

    def __init__(self, seed: int, scale: float, trace: bool) -> None:
        self.seed = seed
        self.scale = scale
        self.trace = trace
        #: generated inputs by name; ``base-*`` ones do not depend on the seed
        self.inputs: Dict[str, Dict[str, object]] = {}
        self.window = 0
        #: engines created for the current window (their plan counters)
        self.engines: List[CountingEngine] = []

    @property
    def round_size(self) -> int:
        raise NotImplementedError

    def size(self, n: int) -> int:
        return max(40, int(round(n * self.scale)))

    def graph(self, label: str, build: Callable[[], Graph]) -> Graph:
        with obs.span("graph.build", graph=label):
            g = build()
        self.inputs[label] = pin(g)
        return g

    def setup(self) -> None:
        raise NotImplementedError

    def open_window(self, window: int) -> None:
        """Fresh per-window state, built before the clock starts."""
        self.window = window
        self.engines = []

    def new_engine(self, g: Graph, **config: object) -> CountingEngine:
        engine = CountingEngine(g, **config)
        self.engines.append(engine)
        return engine

    def engine_layers(self, win: Window, events: List[Dict[str, object]]) -> Dict[str, float]:
        """Layer numbers of an in-process engine workload's traced window:
        self times inside the suite's request spans, trial counts, and
        the window's plan builds."""
        req_wall = req_self = engine_self = plan = sweep = 0.0
        for ev, own in self_times(events):
            name = str(ev["name"])
            if name == "suite.request":
                req_wall += ev["dur"]
                req_self += own
            elif name == "engine.count":
                engine_self += own
            elif name == "decomposition.plan":
                plan += ev["dur"]
            elif name.startswith("sweep."):
                sweep += own
        outcomes = win.outcomes()
        n = max(len(outcomes), 1)
        trials = sum(o.trials for o in outcomes)
        builds = sum(e.stats.plan_builds for e in self.engines)
        return {
            "decomposition.plan_ms": 1e3 * plan / n,
            "decomposition.plans_per_request": builds / n,
            "engine.overhead_ms": 1e3 * engine_self / n,
            "engine.span_coverage": 1.0 - (engine_self + req_self) / req_wall if req_wall else 0.0,
            "engine.trials_per_request": trials / n,
            "engine.colorings_per_s": trials / win.wall,
            "engine.stopped_early_frac": sum(o.stopped_early for o in outcomes) / n,
            "vectorized.share": sweep / req_wall if req_wall else 0.0,
        }

    def issue(self, client: int, i: int) -> Outcome:
        raise NotImplementedError

    def gate(self, win: Window) -> Tuple[List[str], List[Outcome]]:
        """Cross-checks outside the timed window: ``(mismatches, digested)``."""
        raise NotImplementedError

    def layers(self, win: Window, events: List[Dict[str, object]]) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SkewPrecision(Workload):
    """One caller asks for estimates at a stated accuracy on a heavy-tailed
    graph — the paper's hard case.  ``auto`` routes these queries to the
    vectorized sweep, so it does nearly all the work.

    The spec asks for ±15% at 95% and never fewer than 16 trials.  On
    this graph the interval is met by the 16th trial almost always, so
    the trial count, which otherwise swings by half from seed to seed,
    stays fixed and the stopping rule still certifies every answer.

    The mix adds the triangle to the four Figure 8 queries: five, an odd
    number, so that the median and the 75th percentile of a round fall
    inside one query's latency cluster rather than on the gap between two.
    """

    name = "skew-precision"
    SPEC = PrecisionSpec(rel_error=0.15, confidence=0.95, min_trials=16, max_trials=96)

    @property
    def round_size(self) -> int:
        return len(self.queries)

    def setup(self) -> None:
        n = self.size(600)
        base = self.graph("base-skew", lambda: power_law_base(n, 2.0, 6.0, n / 8, 101, "skew"))
        self.g = self.graph("skew", lambda: rewired(base, self.seed))
        self.queries = [cycle_query(3, name="triangle")] + [paper_query(q) for q in FOUR_QUERIES]
        self.by_name = {q.name: q for q in self.queries}

    def open_window(self, window: int) -> None:
        super().open_window(window)
        self.engine = self.new_engine(self.g, method="auto")

    def issue(self, client: int, i: int) -> Outcome:
        q = self.queries[i % len(self.queries)]
        seed = self.seed * 100_000 + i
        if self.trace:
            with obs.span("decomposition.plan", query=q.name):
                self.engine.plan_for(q)
        r = self.engine.count(q, precision=self.SPEC, seed=seed)
        return result_outcome(q.name, r, certified=certified(r, self.SPEC))

    def gate(self, win: Window) -> Tuple[List[str], List[Outcome]]:
        sample = win.first_round(self.round_size)
        bad = []
        for out in sample:
            q = self.by_name[out.template]
            db = self.engine.count_colorful(q, first_coloring(self.g, q, out.seed), method="db")
            if not out.counts or db != out.counts[0]:
                bad.append(f"{out.template} seed {out.seed}: {out.counts[:1]} != db {db}")
        return bad, sample

    def layers(self, win: Window, events: List[Dict[str, object]]) -> Dict[str, float]:
        sample = win.first_round(self.round_size)
        items = []
        for out in sample:
            q = self.by_name[out.template]
            items.append((q, self.engine.plan_for(q), first_coloring(self.g, q, out.seed)))
        out = self.engine_layers(win, events)
        out.update(vectorized_replay(self.g, items))
        out["colorings.draw_ms"] = draw_ms([(self.g, q.k, o) for (q, _, _), o in zip(items, sample)])
        return out


class MotifCensus(Workload):
    """The motif-significance pattern: a census of all 15 treewidth-2
    5-node motifs on a near-regular graph, then on its degree-preserving
    null model, each with a fresh engine.  It runs the paper's DB
    algorithm (the census default) on the dict kernels, and every plan is
    a cache miss.  With low skew, hub-specific changes have nothing to act
    on here."""

    name = "motif-census"
    TRIALS = 3

    @property
    def round_size(self) -> int:
        return len(self.motifs)

    def setup(self) -> None:
        n = self.size(480)
        base = self.graph("base-flat", lambda: power_law_base(n, 3.0, 5.0, 20, 202, "flat"))
        self.g = self.graph("flat", lambda: rewired(base, self.seed))
        self.null = self.graph("flat-null", lambda: rewired(self.g, self.seed + 1))
        self.motifs = all_tw2_motifs(5)

    def issue(self, client: int, i: int) -> Outcome:
        census, j = divmod(i, len(self.motifs))
        g = self.g if census % 2 == 0 else self.null
        if j == 0:
            self.engine = self.new_engine(g)
        m = self.motifs[j]
        seed = (self.seed * 1000 + census) * 100 + 7 * j
        if self.trace:
            with obs.span("decomposition.plan", query=m.name):
                self.engine.plan_for(m)
        (entry,) = motif_census(g, motifs=[m], trials=self.TRIALS, seed=seed, engine=self.engine)
        return Outcome(m.name, seed, estimate=entry.match_estimate, trials=self.TRIALS)

    def gate(self, win: Window) -> Tuple[List[str], List[Outcome]]:
        # the first round is the census of the graph itself; recount every
        # motif with the vectorized PS backend and compare the estimates
        sample = win.first_round(self.round_size)
        check = CountingEngine(self.g, method="ps-vec")
        bad = []
        for out, m in zip(sample, self.motifs):
            r = check.count(m, trials=self.TRIALS, seed=out.seed)
            out.counts = r.colorful_counts
            if r.estimate != out.estimate:
                bad.append(f"{m.name} seed {out.seed}: db {out.estimate} != ps-vec {r.estimate}")
        return bad, sample

    def layers(self, win: Window, events: List[Dict[str, object]]) -> Dict[str, float]:
        sample = win.first_round(self.round_size)
        out = self.engine_layers(win, events)
        engine = CountingEngine(self.g)
        out.update(db_replay([
            (engine, m, first_coloring(self.g, m, o.seed)) for m, o in zip(self.motifs, sample)
        ]))
        out["colorings.draw_ms"] = draw_ms([(self.g, m.k, o) for m, o in zip(self.motifs, sample)])
        return out


class Parallel2Core(Workload):
    """A user with 2 cores counts the 6-node ``wiki`` query at a fixed 16
    trials on a skewed graph, three ways: ``ps-dist`` with 2 workers (the
    pooled 2-shard executor: superstep exchange and partition imbalance),
    ``ps-vec`` with 2 workers (a fork pool started per request) — the
    repo's two process-parallel mechanisms at equal core count — and
    sequential ``ps-vec``, the single-core baseline.  Three templates
    keep the median off the gap between two latency clusters."""

    name = "parallel-2core"
    TRIALS = 16
    QUERY = "wiki"
    #: (method, workers) per request of a round
    MIX = (("ps-dist", 2), ("ps-vec", 2), ("ps-vec", 1))

    @property
    def round_size(self) -> int:
        return len(self.MIX)

    def setup(self) -> None:
        n = self.size(600)
        base = self.graph("base-skew", lambda: power_law_base(n, 2.0, 6.0, n / 8, 101, "skew"))
        self.g = self.graph("skew", lambda: rewired(base, self.seed + 7))
        self.engine = self._engine()

    def _engine(self) -> CountingEngine:
        engine = CountingEngine(self.g)
        engine.executor_for(2)  # the shard pool starts during set-up
        return engine

    def open_window(self, window: int) -> None:
        super().open_window(window)
        if window > 0:
            self.engine.close()
            self.engine = self._engine()
        self.engines.append(self.engine)

    def issue(self, client: int, i: int) -> Outcome:
        method, workers = self.MIX[i % len(self.MIX)]
        q = paper_query(self.QUERY)
        seed = self.seed * 100_000 + i
        if self.trace:
            with obs.span("decomposition.plan", query=q.name):
                self.engine.plan_for(q)
        r = self.engine.count(q, trials=self.TRIALS, seed=seed, method=method, workers=workers)
        return result_outcome(f"{q.name}/{method}/w{workers}", r)

    def gate(self, win: Window) -> Tuple[List[str], List[Outcome]]:
        sample = win.first_round(self.round_size)
        bad = []
        for out in sample:
            q = paper_query(self.QUERY)
            seq = self.engine.count_colorful(
                q, first_coloring(self.g, q, out.seed), method="ps-vec"
            )
            if not out.counts or seq != out.counts[0]:
                bad.append(
                    f"{out.template} seed {out.seed}: {out.counts[:1]} != sequential ps-vec {seq}"
                )
        return bad, sample

    def layers(self, win: Window, events: List[Dict[str, object]]) -> Dict[str, float]:
        sample = win.first_round(self.round_size)
        out = self.engine_layers(win, events)
        q = paper_query(self.QUERY)
        plan, colors = self.engine.plan_for(q), first_coloring(self.g, q, sample[0].seed)
        out.update(vectorized_replay(self.g, [(q, plan, colors)]))
        # one sharded trial of the same coloring, for its measured WallStats
        with obs.span("executor.count", query=q.name):
            st = self.engine.executor_for(2).count(plan, colors).stats
        rank_wall = sum(float(s.wall.max()) for s in st.stages)
        out.update({
            "executor.supersteps": len(st.stages),
            "executor.exchanged_rows": st.exchanged_rows(),
            "executor.critical_cpu_ms": 1e3 * st.critical_seconds(),
            "executor.rank_wall_max_ms": 1e3 * rank_wall,
            "executor.master_ms": 1e3 * (st.wall_seconds - rank_wall),
            "executor.imbalance": st.imbalance(),
        })
        out["colorings.draw_ms"] = draw_ms([(self.g, q.k, o) for o in sample])
        return out

    def close(self) -> None:
        self.engine.close()


class Server:
    """``python -m repro.service`` in its own process, on an ephemeral port."""

    def __init__(self, datasets: Dict[str, str], src: Path) -> None:
        cmd = [sys.executable, "-m", "repro.service", "--port", "0", "--workers", "2"]
        for name, path in datasets.items():
            cmd += ["--dataset", f"{name}={path}"]
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env
        )
        lines: "queue.Queue[Optional[str]]" = queue.Queue()

        def drain() -> None:
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                lines.put(line)
            lines.put(None)

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        self.url = ""
        while not self.url:
            try:
                line = lines.get(timeout=60)
            except queue.Empty:
                line = None
            if line is None:
                self.close()
                raise RuntimeError("the counting service did not start")
            if "listening on " in line:
                self.url = line.split("listening on ", 1)[1].split()[0]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


class ServeWorkload(Workload):
    """Shared set-up of the two service workloads: a skewed and a flat
    dataset, written as JSON files and served by ``python -m
    repro.service --workers 2`` with its default method and cache, and
    two closed-loop clients, each on its own keep-alive connection."""

    clients = 2
    TRIALS = 2
    #: the work directory lives inside the benchmark's own tree
    WORK = Path(__file__).resolve().parent / "out"

    def __init__(self, seed: int, scale: float, trace: bool) -> None:
        super().__init__(seed, scale, trace)
        #: in-process engines for the direct-count checks, by (dataset, method)
        self._direct: Dict[Tuple[str, str], CountingEngine] = {}

    def setup(self) -> None:
        ns, nf = self.size(350), self.size(490)
        base_s = self.graph("base-skew", lambda: power_law_base(ns, 2.0, 6.0, ns / 8, 303, "skew"))
        base_f = self.graph("base-flat", lambda: power_law_base(nf, 3.0, 5.0, 20, 404, "flat"))
        self.graphs = {
            "skew": self.graph("skew", lambda: rewired(base_s, self.seed)),
            "flat": self.graph("flat", lambda: rewired(base_f, self.seed + 1)),
        }
        self.WORK.mkdir(parents=True, exist_ok=True)
        self.files = {}
        for name, g in self.graphs.items():
            path = self.WORK / f"{self.name}-{os.getpid()}-{name}.json"
            write_json_graph(g, str(path))
            self.files[name] = str(path)
        src = Path(__file__).resolve().parents[2] / "src"
        self.server = Server(self.files, src)
        self.conns = [ServiceClient(self.server.url) for _ in range(self.clients)]
        self.admin = ServiceClient(self.server.url)

    def scrape(self) -> Tuple[Dict[str, Dict[tuple, float]], dict]:
        return parse_prometheus_text(self.admin.metrics_text()), self.admin.stats()

    def open_window(self, window: int) -> None:
        super().open_window(window)
        self.before = self.scrape()

    def direct(self, dataset: str, query: str, seed: int, method: str) -> RunResult:
        """The same request counted in-process, without the service."""
        engine = self._direct.get((dataset, method))
        if engine is None:
            engine = self._direct[dataset, method] = CountingEngine(
                self.graphs[dataset], method=method
            )
        return engine.count(paper_query(query), trials=self.TRIALS, seed=seed)

    def service_layers(self, win: Window) -> Dict[str, float]:
        """Server-side layer numbers: ``/metrics`` and ``/stats`` deltas
        over the window (the server process itself is not traced)."""
        (m0, s0), (m1, s1) = self.before, self.scrape()

        def delta(name: str, **labels: str) -> float:
            key = tuple(sorted(labels.items()))
            return m1.get(name, {}).get(key, 0.0) - m0.get(name, {}).get(key, 0.0)

        def total(name: str) -> float:
            return sum(m1.get(name, {}).values()) - sum(m0.get(name, {}).values())

        def mean_ms(name: str, **labels: str) -> float:
            count = delta(f"{name}_count", **labels)
            return 1e3 * delta(f"{name}_sum", **labels) / count if count else 0.0

        outcomes = win.outcomes()
        n = max(len(outcomes), 1)
        hits = delta("repro_service_cache_total", result="hit")
        misses = delta("repro_service_cache_total", result="miss")
        lat = win.latencies(self.round_size)
        return {
            "service.job_wait_ms": mean_ms("repro_service_job_wait_seconds"),
            "service.job_run_ms": mean_ms("repro_service_job_run_seconds"),
            "service.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "service.inflight_joins": float(
                s1["requests"]["inflight_joins"] - s0["requests"]["inflight_joins"]
            ),
            "service.http_server_ms": mean_ms("repro_http_request_seconds", endpoint="/count"),
            "service.http_client_ms": 1e3 * sum(lat) / len(lat) if lat else 0.0,
            "engine.trials_per_request": total("repro_engine_trials_total") / n,
            "engine.colorings_per_s": total("repro_engine_trials_total") / win.wall,
            "engine.stopped_early_frac": total("repro_engine_stopped_early_total") / n,
            "decomposition.plans_per_request": (
                delta("repro_engine_plan_cache_total", result="miss") / n
            ),
        }

    def wire_layers(self, sample: Sequence[Outcome], results: Sequence[RunResult]) -> Dict[str, float]:
        """Response size, result serialisation and fingerprint cost."""
        wire = [len(json.dumps(o.payload).encode("utf-8")) for o in sample if o.payload]
        t = perf_counter()
        for _ in range(20):
            for r in results:
                json.dumps(r.to_dict())
        serialize = (perf_counter() - t) / (20 * max(len(results), 1))
        config = EngineConfig()
        requests = []
        for o in sample:
            ds, q = o.template.split("/")
            request = CountRequest(query=paper_query(q), trials=self.TRIALS, seed=o.seed)
            requests.append((ds, request.resolved(config)))
        t = perf_counter()
        for _ in range(20):
            for ds, r in requests:
                request_fingerprint(ds, r, config)
        fingerprint = (perf_counter() - t) / (20 * max(len(requests), 1))
        return {
            "result.wire_bytes": sum(wire) / max(len(wire), 1),
            "result.serialize_us": 1e6 * serialize,
            "fingerprint.us": 1e6 * fingerprint,
        }

    def close(self) -> None:
        for c in [*getattr(self, "conns", []), getattr(self, "admin", None)]:
            if c is not None:
                c.close()
        if getattr(self, "server", None) is not None:
            self.server.close()
        for path in getattr(self, "files", {}).values():
            if os.path.exists(path):
                os.remove(path)


class ServeCold(ServeWorkload):
    """Every request is a distinct key (the dataset × query mix below, new
    seeds each round), so each is a cache miss that goes through the job
    queue to the default DB engine: queue wait plus compute, as a client
    sees it.  Diamonds (glet2) are nearly absent from the flat graph, so
    that pair is left out, which also makes the mix odd-sized and keeps
    the median off the gap between two latency clusters."""

    name = "serve-cold"
    MIX = tuple(
        (ds, q) for ds in ("skew", "flat") for q in FOUR_QUERIES
        if (ds, q) != ("flat", "glet2")
    )

    @property
    def round_size(self) -> int:
        return len(self.MIX)

    def issue(self, client: int, i: int) -> Outcome:
        ds, q = self.MIX[i % len(self.MIX)]
        seed = ((self.seed * 10 + self.window) * 100_000 + i) * self.clients + client
        doc, cached = self.conns[client].count(ds, q, trials=self.TRIALS, seed=seed)
        return Outcome(
            f"{ds}/{q}", seed, counts=doc["colorful_counts"], estimate=doc["estimate"],
            trials=doc["trials_used"], error="unexpected cache hit" if cached else None,
            payload={"cached": cached, "result": doc},
        )

    def gate(self, win: Window) -> Tuple[List[str], List[Outcome]]:
        # every response must equal a direct engine count of the same
        # request; the direct side runs ps-vec, bit-identical to DB
        bad = []
        for out in win.outcomes():
            if not out.ok:
                continue
            ds, q = out.template.split("/")
            r = self.direct(ds, q, out.seed, "ps-vec")
            if r.colorful_counts != out.counts:
                bad.append(f"{out.template} seed {out.seed}: served {out.counts} != {r.colorful_counts}")
        return bad, win.first_round(self.round_size)

    def layers(self, win: Window, events: List[Dict[str, object]]) -> Dict[str, float]:
        out = self.service_layers(win)
        sample = win.first_round(self.round_size)
        results = [self.direct(*o.template.split("/"), o.seed, "ps-vec") for o in sample]
        out.update(self.wire_layers(sample, results))
        engines = {ds: CountingEngine(g) for ds, g in self.graphs.items()}
        items = []
        for o in sample[: self.round_size]:
            ds, q = o.template.split("/")
            query = paper_query(q)
            items.append((engines[ds], query, first_coloring(self.graphs[ds], query, o.seed)))
        out.update(db_replay(items))
        out["colorings.draw_ms"] = draw_ms([
            (self.graphs[o.template.split("/")[0]], paper_query(o.template.split("/")[1]).k, o)
            for o in sample
        ])
        return out


class ServeWarm(ServeWorkload):
    """Zipf(1.1) traffic over 40 keys that all sit in the service's
    256-entry result cache: HTTP, fingerprinting, the cache and JSON do
    all the work, and no request reaches an engine.  The keys are filled
    before the clock starts."""

    name = "serve-warm"
    tail_pct = 99.0
    SEEDS = 5
    ZIPF = 1.1
    #: requests per round; many, because each one takes about a millisecond
    ROUND = 250
    #: the fill uses the vectorized backend: it is fast, and the payload
    #: and cache path do not depend on which backend made the entry
    METHOD = "ps-vec"

    def __init__(self, seed: int, scale: float, trace: bool) -> None:
        super().__init__(seed, scale, trace)
        #: the first response for each key, filled before the clock starts
        self.filled: Dict[int, Outcome] = {}

    @property
    def round_size(self) -> int:
        return self.ROUND

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng([self.seed, 5])
        keys = [(ds, q, s) for ds in ("skew", "flat") for q in FOUR_QUERIES for s in range(self.SEEDS)]
        # the seed decides which keys are hot
        self.keys = [keys[j] for j in rng.permutation(len(keys))]
        weights = 1.0 / np.arange(1, len(keys) + 1, dtype=np.float64) ** self.ZIPF
        self.p = weights / weights.sum()

    def _request(self, client: int, key: int) -> Tuple[dict, bool]:
        ds, q, s = self.keys[key]
        seed = self.seed * 100 + s
        return self.conns[client].count(ds, q, method=self.METHOD, trials=self.TRIALS, seed=seed)

    def open_window(self, window: int) -> None:
        if not self.filled:
            for key, (ds, q, s) in enumerate(self.keys):
                doc, _ = self._request(0, key)
                self.filled[key] = Outcome(
                    f"{ds}/{q}", self.seed * 100 + s, counts=doc["colorful_counts"],
                    estimate=doc["estimate"], trials=doc["trials_used"],
                    payload={"cached": True, "result": doc},
                )
        rng = np.random.default_rng([self.seed, window])
        self.draws = [rng.choice(len(self.keys), size=200_000, p=self.p) for _ in range(self.clients)]
        super().open_window(window)

    def issue(self, client: int, i: int) -> Outcome:
        key = int(self.draws[client][i % len(self.draws[client])])
        doc, cached = self._request(client, key)
        want = self.filled[key]
        error = None
        if not cached:
            error = "cache miss on a filled key"
        elif doc["colorful_counts"] != want.counts:
            error = "cached result differs from the first response"
        return Outcome(want.template, want.seed, error=error)

    def gate(self, win: Window) -> Tuple[List[str], List[Outcome]]:
        bad = []
        for out in self.filled.values():
            ds, q = out.template.split("/")
            r = self.direct(ds, q, out.seed, self.METHOD)
            if r.colorful_counts != out.counts or r.estimate != out.estimate:
                bad.append(f"{out.template} seed {out.seed}: served {out.counts} != {r.colorful_counts}")
        return bad, list(self.filled.values())

    def layers(self, win: Window, events: List[Dict[str, object]]) -> Dict[str, float]:
        out = self.service_layers(win)
        sample = list(self.filled.values())
        results = [self.direct(*o.template.split("/"), o.seed, self.METHOD) for o in sample]
        out.update(self.wire_layers(sample, results))
        return out


def certified(r: RunResult, spec: PrecisionSpec) -> bool:
    """Whether an adaptive result met its stated accuracy."""
    if r.stopped_early:
        return True
    if r.ci_low is None or r.ci_high is None or r.estimate == 0:
        return False
    return (r.ci_high - r.ci_low) / 2 <= spec.rel_error * abs(r.estimate) * (1 + 1e-9)


def result_outcome(template: str, r: RunResult, certified: bool = True) -> Outcome:
    return Outcome(
        template, r.seed, counts=[int(c) for c in r.colorful_counts], estimate=r.estimate,
        trials=r.trials_used, stopped_early=r.stopped_early,
        error=None if certified else "precision not certified",
    )


WORKLOADS = {
    w.name: w for w in (SkewPrecision, MotifCensus, Parallel2Core, ServeCold, ServeWarm)
}
