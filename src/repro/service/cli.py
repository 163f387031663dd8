"""``repro-serve`` — boot the counting service over HTTP.

Examples::

    repro-serve --dataset condmat --dataset enron --port 8321
    repro-serve --dataset web=/data/web.edges --method ps-vec --workers 4
    python -m repro.service --dataset condmat --port 0   # ephemeral port

``--workers``/``--queue-depth``/``--cache-size`` size the service
(execution threads, admission bound, LRU entries); ``--method``,
``--trials``, ``--seed`` and ``--engine-workers`` set the
:class:`EngineConfig` defaults every request inherits.  SIGINT and
SIGTERM shut down cleanly: the HTTP server stops accepting, the job
queue drains, and every engine's shard-worker pool (and its
shared-memory segments) is released before exit.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import List, Optional

__all__ = ["run_serve", "main"]


def run_serve(
    args: argparse.Namespace, stop: Optional[threading.Event] = None
) -> int:
    """Build the service from parsed args and serve until SIGINT/SIGTERM.

    ``stop`` injects an external shutdown trigger (tests embed the server
    in a thread and set it); signal handlers are only installed when
    running on the main thread, where Python allows them.
    """
    # imported here so `repro-count <other subcommand>` never pays for
    # (or depends on) the service/HTTP stack
    from ..engine import EngineConfig
    from .httpd import make_server, serve_forever
    from .registry import DatasetRegistry
    from .service import CountingService

    config = EngineConfig(
        method=args.method,
        trials=args.trials,
        seed=args.seed,
        workers=args.engine_workers,
    )
    registry = DatasetRegistry(config)
    for spec in args.datasets or ["condmat"]:
        try:
            entry = registry.load(spec)
        except (OSError, ValueError) as exc:
            print(f"error loading dataset {spec!r}: {exc}", file=sys.stderr)
            registry.close()
            return 2
        registry.warm(entry.name)
        print(f"[repro-serve] dataset {entry.name}: n={entry.graph.n} m={entry.graph.m} "
              f"({entry.source})")

    service = CountingService(
        registry=registry,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_size=args.cache_size,
    )
    try:
        server = make_server(service, host=args.host, port=args.port,
                             verbose=args.verbose, access_log=args.access_log)
    except OSError as exc:
        # bind failure (port taken, bad host): release the worker threads
        # and any warm shard pools instead of leaking them to atexit
        print(f"error binding {args.host}:{args.port}: {exc}", file=sys.stderr)
        service.close()
        return 2
    stop = stop if stop is not None else threading.Event()

    def _shutdown(signum: int, _frame: object) -> None:  # pragma: no cover - signal path
        print(f"[repro-serve] signal {signum}: shutting down", flush=True)
        stop.set()

    previous = {}
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, _shutdown)
    thread = serve_forever(server)
    print(f"[repro-serve] listening on {server.url} "
          f"(workers={args.workers}, queue={args.queue_depth}, "
          f"cache={args.cache_size}, method={args.method})", flush=True)
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
        service.close()
        print("[repro-serve] stopped; pools released", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    # the flag set lives in repro.cli (pure argparse, shared with the
    # `repro-count serve` subcommand)
    from ..cli import add_serve_arguments

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve color-coding subgraph counts over JSON/HTTP "
        "(job queue, result cache, warm dataset engines)",
    )
    add_serve_arguments(parser)
    return run_serve(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    sys.exit(main())
