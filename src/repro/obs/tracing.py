"""Structured tracing: spans, trace IDs, and Chrome trace-event export.

The API is built for a hot path that is *usually off*:

* ``obs.span(name, **args)`` returns a shared no-op context manager
  unless observability is enabled **and** a trace is actively being
  collected in this process.  The common case costs two module-global
  reads — cheap enough to leave in the vectorized DP sweep.
* Trace **IDs** ride a :mod:`contextvars` variable so they survive
  thread hops inside a process; crossing into the pooled executor's
  worker processes they are re-established explicitly from pipe
  messages.
* Timestamps are ``time.perf_counter()`` (RP001-clean).  On Linux
  ``perf_counter`` is ``CLOCK_MONOTONIC``, which is shared across
  forked processes, so pool-worker span timestamps line up with the
  master's on the same timeline.

Export is the Chrome trace-event JSON format (``chrome://tracing`` /
Perfetto ``ui.perfetto.dev``): complete events (``"ph": "X"``) with
microsecond timestamps.  ``python -m repro.obs.view trace.json`` prints
a terminal summary of the same file.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import uuid
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from . import state

__all__ = [
    "new_trace_id",
    "current_trace_id",
    "set_trace_id",
    "reset_trace_id",
    "trace_id_scope",
    "Span",
    "NoopSpan",
    "Trace",
    "span",
    "active_trace",
    "install_trace",
    "start_trace",
    "finish_trace",
    "collect",
    "add_events",
    "chrome_events",
    "chrome_document",
    "write_chrome_trace",
]

#: one recorded span: name/trace_id/pid/tid/t0/dur/args
Event = Dict[str, Any]

_TRACE_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_obs_trace_id", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace ID (random, not time-derived)."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> Optional[str]:
    """The trace ID bound to the current context, if any."""
    return _TRACE_ID.get()


def set_trace_id(trace_id: Optional[str]) -> "contextvars.Token[Optional[str]]":
    """Bind ``trace_id`` to the current context; returns a reset token."""
    return _TRACE_ID.set(trace_id)


def reset_trace_id(token: "contextvars.Token[Optional[str]]") -> None:
    """Undo a :func:`set_trace_id`."""
    _TRACE_ID.reset(token)


@contextmanager
def trace_id_scope(trace_id: Optional[str]) -> Iterator[Optional[str]]:
    """Bind ``trace_id`` for the duration of the ``with`` block."""
    token = _TRACE_ID.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE_ID.reset(token)


class Span:
    """A live timed section; records one event into ``trace`` on exit."""

    __slots__ = ("_trace", "name", "args", "_t0")

    def __init__(self, trace: "Trace", name: str, args: Dict[str, Any]) -> None:
        self._trace = trace
        self.name = name
        self.args = args
        self._t0 = 0.0

    def add(self, **args: Any) -> None:
        """Attach extra attributes discovered while the span is open."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        dur = perf_counter() - self._t0
        self._trace.add_event(
            {
                "name": self.name,
                "trace_id": _TRACE_ID.get() or self._trace.trace_id,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "t0": self._t0,
                "dur": dur,
                "args": dict(self.args),
            }
        )


class NoopSpan:
    """Shared do-nothing span (stateless, safe to reenter concurrently)."""

    __slots__ = ()

    def add(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NOOP_SPAN = NoopSpan()


class Trace:
    """A thread-safe collector of span events under one trace ID."""

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self._lock = threading.Lock()
        self._events: List[Event] = []

    def add_event(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)

    def extend(self, events: Sequence[Event]) -> None:
        with self._lock:
            self._events.extend(events)

    def events(self) -> List[Event]:
        with self._lock:
            return list(self._events)

    def drain(self) -> List[Event]:
        """Return all events and empty the collector (worker ship-back)."""
        with self._lock:
            events = self._events
            self._events = []
        return events

    def span(self, name: str, **args: Any) -> Span:
        """An explicit span bound to this trace (ignores the kill-switch
        gate on the process-active trace; the caller already opted in)."""
        return Span(self, name, args)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# the process-active collector obs.span() records into; None almost always
_ACTIVE: Optional[Trace] = None
_ACTIVE_LOCK = threading.Lock()


def span(name: str, **args: Any) -> Union[Span, NoopSpan]:
    """A span on the process-active trace — or a shared no-op.

    This is *the* instrument-point entry: call sites pay two global
    reads when tracing is off, which is the perf-gated common case.
    """
    if not state.enabled:
        return _NOOP_SPAN
    trace = _ACTIVE
    if trace is None:
        return _NOOP_SPAN
    return Span(trace, name, args)


def active_trace() -> Optional[Trace]:
    """The collector :func:`span` currently records into, if any."""
    return _ACTIVE


def install_trace(trace: Optional[Trace]) -> Optional[Trace]:
    """Swap the process-active collector; returns the previous one."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = trace
    return previous


def start_trace(trace_id: Optional[str] = None) -> Trace:
    """Begin collecting spans process-wide; errors if already collecting."""
    global _ACTIVE
    trace = Trace(trace_id)
    with _ACTIVE_LOCK:
        if _ACTIVE is not None:
            raise RuntimeError(
                f"a trace is already being collected (id={_ACTIVE.trace_id})"
            )
        _ACTIVE = trace
    return trace


def finish_trace() -> Optional[Trace]:
    """Stop collecting and return the finished trace (None if idle)."""
    return install_trace(None)


@contextmanager
def collect(trace_id: Optional[str] = None) -> Iterator[Trace]:
    """Collect every span in this process (and its workers) into one trace.

    Binds the trace ID to the current context so engine/service code
    reuses it, installs the collector, and tears both down on exit.
    """
    trace = start_trace(trace_id)
    token = _TRACE_ID.set(trace.trace_id)
    try:
        yield trace
    finally:
        _TRACE_ID.reset(token)
        install_trace(None)


def add_events(events: Sequence[Event]) -> None:
    """Merge externally produced events (shard workers) into the active
    trace; silently dropped when no trace is being collected."""
    if not events:
        return
    trace = _ACTIVE
    if trace is not None:
        trace.extend(events)


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


def chrome_events(events: Sequence[Event]) -> List[Dict[str, Any]]:
    """Render recorded events as Chrome complete events (``ph: X``)."""
    out: List[Dict[str, Any]] = []
    for ev in events:
        args = dict(ev.get("args", {}))
        if ev.get("trace_id"):
            args["trace_id"] = ev["trace_id"]
        out.append(
            {
                "name": ev["name"],
                "ph": "X",
                "ts": ev["t0"] * 1e6,
                "dur": ev["dur"] * 1e6,
                "pid": ev.get("pid", 0),
                "tid": ev.get("tid", 0),
                "args": _json_safe(args),
            }
        )
    return out


def chrome_document(trace: Trace) -> Dict[str, Any]:
    """The full Chrome trace JSON document for a finished trace."""
    return {
        "traceEvents": chrome_events(trace.events()),
        "displayTimeUnit": "ms",
        "metadata": {"trace_id": trace.trace_id, "tool": "repro.obs"},
    }


def write_chrome_trace(path: Union[str, "os.PathLike[str]"], trace: Trace) -> str:
    """Write ``trace`` as Chrome trace JSON; returns the path written."""
    doc = chrome_document(trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return os.fspath(path)
