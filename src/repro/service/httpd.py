"""Thin JSON-over-HTTP surface for :class:`CountingService` (stdlib only).

Endpoints
---------
``POST /count``      synchronous counting; body ``{"dataset", "query", ...}``
``POST /jobs``       asynchronous counting; returns the job to poll (202)
``GET  /jobs/<id>``  job status/progress (+ result when done)
``GET  /jobs``       recent jobs, newest first
``GET  /datasets``   registered datasets with engine cache stats
``GET  /healthz``    liveness probe
``GET  /stats``      cache/queue/request counters, executor pools, metrics
``GET  /metrics``    Prometheus text exposition of the obs registry

Status mapping: unknown dataset/query/job → 404, malformed request →
400, saturated queue → 429 (with ``Retry-After``), sync deadline → 504.
Built on :class:`http.server.ThreadingHTTPServer`: one thread per
connection, which is exactly what the service's admission control is
sized against.

Every request is instrumented: a trace ID is minted per request (echoed
in the ``X-Repro-Trace-Id`` response header and threaded through the
engine), the per-endpoint counter/latency histogram from
:mod:`repro.obs.catalogue` is updated, and — with ``--access-log`` —
one structured JSON line per request goes to stderr.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Tuple

from .. import obs
from ..obs import catalogue as obs_catalogue
from .jobs import ServiceSaturated, UnknownJobError
from .registry import UnknownDatasetError
from .service import (
    BadRequestError,
    CountingService,
    ServiceTimeout,
    UnknownQueryError,
)

__all__ = ["ServiceHTTPServer", "make_server", "serve_forever"]

#: request body size guard (queries are tiny; anything bigger is abuse)
MAX_BODY_BYTES = 1 << 20

#: fixed endpoints; anything else maps to "other" so one misbehaving
#: client scanning paths cannot explode the metric label cardinality
_ENDPOINTS = frozenset(
    {"/", "/healthz", "/stats", "/datasets", "/jobs", "/count", "/metrics"}
)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the server's :class:`CountingService`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # headers and body go out as two small writes on a keep-alive socket;
    # without this, Nagle + delayed ACK pins every response at ~40ms
    disable_nagle_algorithm = True

    #: last status sent on this connection (set by the send helpers; read
    #: by the instrumentation wrapper — handler instances are per-thread)
    _status: int = 0
    _trace_id: str = ""

    # ------------------------------------------------------------------
    @property
    def service(self) -> CountingService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: object) -> None:  # noqa: A003
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    def _send_json(self, status: int, doc: dict, retry_after: Optional[int] = None) -> None:
        body = json.dumps(doc).encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            self.send_header("X-Repro-Trace-Id", self._trace_id)
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self._trace_id:
            self.send_header("X-Repro-Trace-Id", self._trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _error(self, status: int, message: str, retry_after: Optional[int] = None) -> None:
        # error paths may leave an unread request body on the socket; on a
        # keep-alive connection the next request would be parsed starting
        # inside those stale bytes, so close instead of resyncing
        self.close_connection = True
        self._send_json(status, {"error": message}, retry_after=retry_after)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise BadRequestError("request body must be a JSON object")
        if length > MAX_BODY_BYTES:
            raise BadRequestError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"bad JSON body: {exc}") from None
        if not isinstance(doc, dict):
            raise BadRequestError("request body must be a JSON object")
        return doc

    def _count_args(self) -> Tuple[str, object, dict]:
        doc = self._read_body()
        dataset = doc.pop("dataset", None)
        query = doc.pop("query", None)
        if not isinstance(dataset, str) or not dataset:
            raise BadRequestError("missing 'dataset' (string)")
        if query is None:
            raise BadRequestError("missing 'query' (name or edge dict)")
        return dataset, query, doc

    # ------------------------------------------------------------------
    # request instrumentation
    # ------------------------------------------------------------------
    def _endpoint_label(self) -> str:
        """Bounded-cardinality endpoint label for the request metrics."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path in _ENDPOINTS:
            return path
        if path.startswith("/jobs/"):
            return "/jobs/{id}"
        return "other"

    def _instrumented(self, method: str, handler: Callable[[], None]) -> None:
        """Wrap one request: trace ID, latency histogram, access log."""
        self._status = 0
        self._trace_id = obs.new_trace_id()
        token = obs.set_trace_id(self._trace_id)
        t0 = time.perf_counter()
        try:
            handler()
        finally:
            obs.reset_trace_id(token)
            duration = time.perf_counter() - t0
            endpoint = self._endpoint_label()
            obs_catalogue.http_requests().inc(
                endpoint=endpoint, method=method, status=str(self._status or 0)
            )
            obs_catalogue.http_request_seconds().observe(duration, endpoint=endpoint)
            if self.server.access_log:  # type: ignore[attr-defined]
                line = json.dumps(
                    {
                        "ts": round(time.time(), 3),
                        "method": method,
                        "path": self.path,
                        "status": self._status or 0,
                        "duration_ms": round(duration * 1000, 3),
                        "trace_id": self._trace_id,
                    },
                    sort_keys=True,
                )
                print(line, file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._instrumented("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._instrumented("POST", self._handle_post)

    def _handle_get(self) -> None:
        try:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                # liveness probes poll in tight loops: answer from two
                # plain reads, never the full /stats walk
                self._send_json(200, {
                    "ok": True,
                    "uptime_seconds": time.time() - self.service.started_at,
                    "datasets": len(self.service.registry),
                })
            elif path == "/stats":
                self._send_json(200, self.service.stats())
            elif path == "/metrics":
                self._send_text(200, obs.render_prometheus(), obs.CONTENT_TYPE)
            elif path == "/datasets":
                self._send_json(200, {"datasets": self.service.datasets()})
            elif path == "/jobs":
                jobs = [j.to_dict(include_result=False) for j in self.service.queue.jobs()]
                self._send_json(200, {"jobs": jobs})
            elif path.startswith("/jobs/"):
                job = self.service.job(path[len("/jobs/"):])
                self._send_json(200, {"job": job.to_dict()})
            else:
                self._error(404, f"no such endpoint {path!r}")
        except UnknownJobError as exc:
            self._error(404, f"unknown job {exc.args[0]!r}")
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _handle_post(self) -> None:
        try:
            path = self.path.split("?", 1)[0].rstrip("/")
            if path == "/count":
                dataset, query, params = self._count_args()
                timeout = params.pop("timeout", None)
                try:
                    timeout = float(timeout) if timeout is not None else 300.0
                except (TypeError, ValueError):
                    raise BadRequestError(f"bad timeout {timeout!r}") from None
                result, cached = self.service.count(
                    dataset, query, timeout=timeout, **params,
                )
                self._send_json(200, {"cached": cached, "result": result.to_dict()})
            elif path == "/jobs":
                dataset, query, params = self._count_args()
                job = self.service.submit(dataset, query, **params)
                # a cache-hit submission is already done: ship the result
                # in the 202 so well-behaved clients never need to poll
                self._send_json(202, {"job": job.to_dict(include_result=job.done)})
            else:
                self._error(404, f"no such endpoint {path!r}")
        except (UnknownDatasetError, UnknownQueryError) as exc:
            self._error(404, str(exc))
        except BadRequestError as exc:
            self._error(400, str(exc))
        except ServiceSaturated as exc:
            self._error(429, str(exc), retry_after=1)
        except ServiceTimeout as exc:
            self._error(504, str(exc))
        except Exception as exc:  # noqa: BLE001 - boundary: report, don't die
            self._error(500, f"{type(exc).__name__}: {exc}")


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`CountingService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: CountingService,
                 verbose: bool = False, access_log: bool = False) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        #: structured JSON request log to stderr (off by default so tests
        #: and embedded servers stay quiet)
        self.access_log = access_log

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    service: CountingService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    access_log: bool = False,
) -> ServiceHTTPServer:
    """Bind (``port=0`` picks an ephemeral port) without starting to serve."""
    return ServiceHTTPServer((host, port), service, verbose=verbose,
                             access_log=access_log)


def serve_forever(server: ServiceHTTPServer) -> threading.Thread:
    """Serve on a daemon thread; returns the thread (stop via ``server.shutdown()``)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    thread.start()
    return thread
