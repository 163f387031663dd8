"""Statistics, digests and span accounting shared by the suite's scripts.

Standard library only: the orchestrating half of ``run.py`` and all of
``compare.py`` use this module without importing the program under test.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """``pct``-th percentile with linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles`` defines them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def digest(obj: object) -> str:
    """Short SHA-256 of a JSON-serialisable object (sorted keys)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children.

    ``ru_maxrss`` is in KiB on Linux; the children figure is the largest
    single descendant, so the result is the max of the two, not a sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def self_times(events: Iterable[Dict[str, object]]) -> List[Tuple[Dict[str, object], float]]:
    """Each span event with its self time, in seconds.

    A span's self time is its duration minus the part its direct child
    spans cover.  Nesting is recovered per (pid, tid) from the intervals,
    because spans recorded by shard workers carry no parent reference.
    """
    by_thread: Dict[Tuple[object, object], List[Dict[str, object]]] = {}
    for ev in events:
        by_thread.setdefault((ev["pid"], ev["tid"]), []).append(ev)
    out: List[Tuple[Dict[str, object], float]] = []
    for evs in by_thread.values():
        evs.sort(key=lambda e: (e["t0"], -e["dur"]))
        stack: List[List[object]] = []  # open spans: [event, seconds covered by children]
        for ev in evs:
            end = ev["t0"] + ev["dur"]
            while stack and stack[-1][0]["t0"] + stack[-1][0]["dur"] < end:
                done = stack.pop()
                out.append((done[0], done[0]["dur"] - done[1]))
            if stack:
                stack[-1][1] += ev["dur"]
            stack.append([ev, 0.0])
        while stack:
            done = stack.pop()
            out.append((done[0], done[0]["dur"] - done[1]))
    return out
