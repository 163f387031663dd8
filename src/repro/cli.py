"""Command-line interface: ``repro-count`` / ``python -m repro.cli``.

Subcommands
-----------
``count``      approximate match counting on a dataset or edge-list file;
``compare``    PS vs DB on one input (improvement factor, load balance);
``plan``       show the decomposition tree the planner picks for a query;
``verify``     run the self-verification battery on one input;
``trace``      superstep trace of a simulated distributed run;
``report``     aggregate saved benchmark tables into one document;
``datasets``   list the Table 1 stand-in graphs with their statistics;
``queries``    list the Figure 8 query library;
``serve``      boot the JSON/HTTP counting service (also ``repro-serve``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .bench.datasets import dataset, dataset_names
from .decomposition.enumeration import enumerate_plans
from .decomposition.planner import choose_plan
from .graph.io import read_edge_list
from .graph.properties import graph_summary
from .engine import CountingEngine, PrecisionSpec, available_backends
from .query.automorphisms import automorphism_count
from .query.library import (
    PAPER_QUERY_SIZES,
    coerce_node_labels,
    labeled_queries,
    paper_queries,
    resolve_query_name,
)
from .query.treewidth import treewidth


def _load_graph(arg: str):
    if arg in dataset_names():
        return dataset(arg)
    return read_edge_list(arg)


def _cli_error(exc: BaseException) -> int:
    """Print a clean ``error: ...`` line and return exit code 2.

    ``KeyError`` carries its message in ``args[0]`` (``str()`` would
    repr-quote it); bare-path ``OSError``\\ s get a what-failed prefix.
    """
    if isinstance(exc, KeyError) and exc.args:
        msg = exc.args[0]
    elif isinstance(exc, OSError):
        msg = f"cannot read input: {exc}"
    else:
        msg = str(exc)
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _parse_query_labels(q, spec: str):
    """``--labels`` spec → ``{query node: int}``.

    Two spellings: ``node=label`` pairs (``a=0,b=1``) or a bare
    comma-separated list with one label per node in the query's
    deterministic node order (``0,1,1,0``).  Validation (coverage,
    bounds, int coercion) is the service wire format's, via the shared
    :func:`repro.query.library.coerce_node_labels`.
    """
    spec = spec.strip()
    if "=" in spec:
        parsed: object = {}
        for item in spec.split(","):
            key, _, value = item.partition("=")
            parsed[key.strip()] = value.strip()
    else:
        parsed = [x.strip() for x in spec.split(",")]
    return coerce_node_labels(q, parsed)


def _apply_graph_labels(g, spec: str):
    """``--graph-labels`` spec → labeled copy of ``g``.

    ``random:<L>[:<seed>]`` draws one of ``L`` labels per vertex from a
    deterministic generator; anything else is a path to a whitespace- or
    newline-separated file with one integer per vertex.
    """
    if spec.startswith("random:"):
        parts = spec.split(":")
        num_labels = int(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 0
        rng = np.random.default_rng(seed)
        return g.with_labels(rng.integers(0, num_labels, size=g.n))
    with open(spec, "r", encoding="utf-8") as fh:
        values = [int(x) for x in fh.read().split()]
    return g.with_labels(values)


def _parse_precision(args: argparse.Namespace) -> Optional[PrecisionSpec]:
    """``--rel-error``/``--confidence``/``--min-trials``/``--max-trials``
    → a :class:`PrecisionSpec`, or ``None`` to fall back on ``--trials``.

    The spec is built through the same :meth:`PrecisionSpec.coerce`
    grammar the service wire format uses, so CLI and JSON spellings
    validate identically.
    """
    if args.rel_error is None and args.min_trials is None and args.max_trials is None:
        return None
    doc: dict = {}
    if args.rel_error is not None:
        doc["rel_error"] = args.rel_error
        doc["confidence"] = args.confidence
    if args.min_trials is not None:
        doc["min_trials"] = args.min_trials
    if args.max_trials is not None:
        doc["max_trials"] = args.max_trials
    return PrecisionSpec.coerce(doc)


def _cmd_count(args: argparse.Namespace) -> int:
    try:
        g = _load_graph(args.graph)
        q = resolve_query_name(args.query)
        if args.graph_labels:
            g = _apply_graph_labels(g, args.graph_labels)
        if args.labels:
            q = q.with_labels(_parse_query_labels(q, args.labels))
        precision = _parse_precision(args)
        trace: Optional[object] = None
        with CountingEngine(g) as engine:
            if args.trace:
                # collect the measured trace around the whole run and dump
                # it as one Chrome trace-event JSON (chrome://tracing,
                # Perfetto, or `python -m repro.obs.view`)
                from . import obs

                with obs.collect() as trace:
                    result = engine.count(
                        q,
                        trials=args.trials,
                        precision=precision,
                        seed=args.seed,
                        method=args.method,
                        num_colors=args.num_colors,
                        workers=args.workers,
                    )
                obs.write_chrome_trace(args.trace, trace)
            else:
                result = engine.count(
                    q,
                    trials=args.trials,
                    precision=precision,
                    seed=args.seed,
                    method=args.method,
                    num_colors=args.num_colors,
                    workers=args.workers,
                )
    except (KeyError, OSError, ValueError) as exc:
        return _cli_error(exc)
    palette = f", num_colors={result.num_colors}" if result.num_colors != q.k else ""
    workers = f", workers={result.workers}" if result.workers > 1 else ""
    labeled = " labeled" if q.labels is not None else ""
    trials_bit = f"trials={result.trials_used}"
    if result.stopped_early:
        trials_bit += f" (early stop, cap {precision.max_trials})" if precision else " (early stop)"
    print(f"graph          : {g.name} (n={g.n}, m={g.m}"
          + (f", labels={g.num_labels()}" if g.labels is not None else "") + ")")
    print(f"query          : {q.name} (k={q.k}{labeled})")
    print(f"method         : {result.method}, {trials_bit}{palette}{workers}")
    print(f"colorful counts: {result.colorful_counts}")
    print(f"match estimate : {result.estimate:.6g}")
    print(f"subgraph est.  : {result.estimate / automorphism_count(q):.6g}")
    if result.ci_low is not None and result.ci_high is not None:
        conf = precision.confidence if precision is not None else 0.95
        print(f"{conf:.0%} CI         : [{result.ci_low:.6g}, {result.ci_high:.6g}]")
    print(f"rel. std       : {result.relative_std:.4f}")
    print(f"elapsed        : {result.wall_clock:.2f}s")
    if args.trace and trace is not None:
        print(f"trace          : {args.trace} ({len(trace)} spans, "
              f"id={result.trace_id})")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    try:
        q = resolve_query_name(args.query)
    except KeyError as exc:
        return _cli_error(exc)
    plans = enumerate_plans(q)
    best = choose_plan(q)
    print(f"query {q.name}: k={q.k}, treewidth={treewidth(q)}, plans={len(plans)}")
    print(f"heuristic key (longest cycle, boundary, annotations): {best.heuristic_key()}")
    print(best.describe())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .counting.colorings import uniform_coloring
    from .distributed.metrics import compare_methods

    try:
        g = _load_graph(args.graph)
        q = resolve_query_name(args.query)
        rng = np.random.default_rng(args.seed)
        colors = uniform_coloring(g.n, q.k, rng)
        cmp = compare_methods(g, q, colors, nranks=args.ranks)
    except (KeyError, OSError, ValueError) as exc:
        return _cli_error(exc)
    print(f"graph {g.name} (n={g.n}, m={g.m}, skew={g.degree_skew():.1f}) x "
          f"query {q.name} (k={q.k}) @ {args.ranks} simulated ranks")
    print(f"colorful count      : {cmp.db.count}")
    print(f"PS  makespan / imb  : {cmp.ps.makespan:.0f} / {cmp.ps.imbalance:.2f}")
    print(f"DB  makespan / imb  : {cmp.db.makespan:.0f} / {cmp.db.imbalance:.2f}")
    print(f"improvement factor  : {cmp.improvement_factor:.2f}x")
    print(f"max-load reduction  : {cmp.load_reduction:.2f}x")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .counting.verify import verify_counting

    try:
        g = _load_graph(args.graph)
        q = resolve_query_name(args.query)
        report = verify_counting(g, q, seed=args.seed)
    except (KeyError, OSError, ValueError) as exc:
        return _cli_error(exc)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .counting.colorings import uniform_coloring
    from .distributed.engine import run_distributed
    from .distributed.trace import format_trace

    try:
        g = _load_graph(args.graph)
        q = resolve_query_name(args.query)
        rng = np.random.default_rng(args.seed)
        colors = uniform_coloring(g.n, q.k, rng)
        run = run_distributed(g, q, colors, args.ranks, method=args.method)
    except (KeyError, OSError, ValueError) as exc:
        return _cli_error(exc)
    print(f"count={run.count} makespan={run.makespan:.0f} speedup={run.speedup:.2f}")
    print(format_trace(run.stats, top=args.top))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from .bench.report import render_report

    results_dir = args.results_dir or os.path.join(
        os.getcwd(), "benchmarks", "results"
    )
    print(render_report(results_dir))
    return 0


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro-serve`` flag set (shared by the standalone
    entry point and the ``serve`` subcommand; pure argparse so building
    the parser never imports the service/HTTP stack)."""
    parser.add_argument(
        "--dataset", action="append", default=None, metavar="SPEC", dest="datasets",
        help="dataset to register: builtin name, file path, or alias=path "
        "(repeatable; default: condmat)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8321,
                        help="bind port; 0 picks an ephemeral one (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=2,
                        help="job-queue worker threads (default: %(default)s)")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="admission bound: queued jobs before 429 (default: %(default)s)")
    parser.add_argument("--cache-size", type=int, default=256,
                        help="result-cache entries, 0 disables (default: %(default)s)")
    parser.add_argument(
        "--method", choices=tuple(available_backends()) + ("auto",), default="db",
        help="default counting backend for requests that omit one; db, "
        "not the engine's auto: on serve-cold, auto served 86-94 req/s "
        "against 3.4-3.8 on db, but the server's own peak rose 13-14%% "
        "(49.0-49.7 -> 55.6-56.4 MB) (default: %(default)s)",
    )
    parser.add_argument("--trials", type=int, default=10,
                        help="default trials per request (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="default root seed (default: %(default)s)")
    parser.add_argument(
        "--engine-workers", type=int, default=1, metavar="N",
        help="EngineConfig.workers: pooled processes that run whole trials, "
        "or shards with --method ps-dist (default: %(default)s)",
    )
    parser.add_argument("--verbose", action="store_true", help="log every HTTP request")
    parser.add_argument(
        "--access-log", action="store_true",
        help="one structured JSON line per request on stderr (method, "
        "path, status, duration_ms, trace_id); off by default",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.cli import run_serve

    return run_serve(args)


def _cmd_datasets(_args: argparse.Namespace) -> int:
    for name in dataset_names():
        print(graph_summary(dataset(name)))
    return 0


def _cmd_queries(_args: argparse.Namespace) -> int:
    for name, q in paper_queries().items():
        print(
            f"{name:8s} k={q.k:2d} (paper: {PAPER_QUERY_SIZES[name]:2d}) "
            f"edges={q.num_edges():2d} tw={treewidth(q)}"
        )
    print("labeled templates (use with --graph-labels / labeled datasets):")
    for name, q in labeled_queries().items():
        labs = ",".join(str(q.labels[v]) for v in q.nodes())
        print(f"{name:14s} k={q.k:2d} edges={q.num_edges():2d} labels={labs}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-count",
        description="Color coding beyond trees: treewidth-2 subgraph counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="approximate match counting")
    p_count.add_argument("--graph", required=True, help="dataset name or edge-list path")
    p_count.add_argument("--query", required=True, help="paper query name (see `queries`)")
    p_count.add_argument(
        "--method",
        choices=tuple(available_backends()) + ("auto",),
        default="auto",
        help="counting backend; 'auto' runs the vectorized ps-vec sweep "
        "(exact counts, joins in bounded-memory chunks), or ps-dist when "
        "--workers > 1 meets a huge input (default: %(default)s)",
    )
    p_count.add_argument("--trials", type=int, default=5,
                         help="fixed trial count (ignored when --rel-error / "
                         "--min-trials / --max-trials request a precision run)")
    p_count.add_argument(
        "--rel-error", type=float, default=None, metavar="EPS",
        help="adaptive precision: stop once the estimate's relative CI "
        "half-width is below EPS (e.g. 0.05) at --confidence",
    )
    p_count.add_argument(
        "--confidence", type=float, default=0.95, metavar="C",
        help="confidence level for the --rel-error stopping rule and the "
        "reported interval (default: %(default)s)",
    )
    p_count.add_argument(
        "--min-trials", type=int, default=None, metavar="N",
        help="floor before adaptive stopping may trigger (default: 3)",
    )
    p_count.add_argument(
        "--max-trials", type=int, default=None, metavar="N",
        help="hard cap on adaptive trials (default: 200)",
    )
    p_count.add_argument("--seed", type=int, default=0)
    p_count.add_argument(
        "--num-colors", type=int, default=None,
        help="palette size >= k (variance-reduction extension; default: k)",
    )
    p_count.add_argument(
        "--workers", type=int, default=1,
        help="worker processes that run whole trials; with --method ps-dist, "
        "the number of shards (default: 1, sequential)",
    )
    p_count.add_argument(
        "--labels", default=None, metavar="SPEC",
        help="vertex-labeled counting: query labels as node=label pairs "
        "('a=0,b=1') or a per-node list ('0,1,1,0') in node order",
    )
    p_count.add_argument(
        "--graph-labels", default=None, metavar="SPEC",
        help="data-graph labels: a file with one integer per vertex, or "
        "'random:<L>[:<seed>]' for deterministic random labels",
    )
    p_count.add_argument(
        "--trace", default=None, metavar="OUT.json",
        help="write a Chrome trace-event JSON of the run (engine, solver "
        "stages, and — with ps-dist — per-rank worker spans); view with "
        "chrome://tracing or `python -m repro.obs.view`",
    )
    p_count.set_defaults(func=_cmd_count)

    p_plan = sub.add_parser("plan", help="show the chosen decomposition tree")
    p_plan.add_argument("--query", required=True)
    p_plan.set_defaults(func=_cmd_plan)

    p_cmp = sub.add_parser("compare", help="PS vs DB on one input")
    p_cmp.add_argument("--graph", required=True)
    p_cmp.add_argument("--query", required=True)
    p_cmp.add_argument("--ranks", type=int, default=16)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify", help="run the self-verification battery")
    p_ver.add_argument("--graph", required=True)
    p_ver.add_argument("--query", required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    p_tr = sub.add_parser("trace", help="superstep trace of a simulated run")
    p_tr.add_argument("--graph", required=True)
    p_tr.add_argument("--query", required=True)
    p_tr.add_argument("--ranks", type=int, default=8)
    p_tr.add_argument("--method", choices=("ps", "db", "ps-even"), default="db")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--top", type=int, default=8)
    p_tr.set_defaults(func=_cmd_trace)

    p_rep = sub.add_parser("report", help="aggregate saved benchmark tables")
    p_rep.add_argument("--results-dir", default=None)
    p_rep.set_defaults(func=_cmd_report)

    p_srv = sub.add_parser("serve", help="boot the JSON/HTTP counting service")
    add_serve_arguments(p_srv)
    p_srv.set_defaults(func=_cmd_serve)

    p_ds = sub.add_parser("datasets", help="list dataset stand-ins")
    p_ds.set_defaults(func=_cmd_datasets)

    p_q = sub.add_parser("queries", help="list the Figure 8 query library")
    p_q.set_defaults(func=_cmd_queries)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
