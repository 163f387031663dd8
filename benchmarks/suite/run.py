#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 benchmarks/suite/run.py --workload skew-precision --seed 0
    python3 benchmarks/suite/run.py --seed 1 --out results.json   # every workload
    python3 benchmarks/suite/run.py --workload serve-warm --trace 1

Each workload runs in fresh worker processes started from this script.
The worker is started three times; each start is one set-up (imports,
input generation, engine, shard pool or server start) and ``setup_s`` is
the median of the three.  The third worker then measures for
``--seconds`` and checks its outputs.  With ``--trace 0`` the result
carries the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
a single worker runs an untraced window, then a traced one under
``repro.obs.collect()``, and reports the per-layer metrics and writes a
Chrome trace to ``benchmarks/suite/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"
OUT = SUITE / "out"
EXPECTED = SUITE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: fresh set-ups per end-to-end run; ``setup_s`` is their median
SETUPS = 3
#: a run gives up after this long, so it always ends within 180 s
TIME_LIMIT = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# worker side: set up, wait, measure, check
# ----------------------------------------------------------------------

def worker_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    from repro import obs

    import workloads as wl
    from measure import digest, peak_rss_mb, percentile

    w = wl.WORKLOADS[args.workload](args.seed, args.scale, trace=bool(args.trace))
    events: List[Dict[str, object]] = []
    try:
        if args.trace:
            with obs.collect() as tr:
                w.setup()
            events += tr.events()
        else:
            w.setup()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        if args.trace:
            untraced = wl.run_window(w, args.seconds, 0)
            with obs.collect() as tr:
                win = wl.run_window(w, args.seconds, 1)
            window_events = tr.events()
            with obs.collect() as tr:
                values = w.layers(win, window_events)
            events += window_events + tr.events()
            values["graph.build_ms"] = 1e3 * sum(
                ev["dur"] for ev in events if ev["name"] == "graph.build"
            )
            base_rate, _ = untraced.round_rate(w.round_size)
            traced_rate, _ = win.round_rate(w.round_size)
            values["obs.trace_overhead"] = base_rate / traced_rate if traced_rate else 0.0
            windows = [untraced, win]
        else:
            win = wl.run_window(w, args.seconds, 0)
            windows = [win]
    finally:
        w.close()

    lat = win.latencies(w.round_size)
    rate, rounds = win.round_rate(w.round_size)
    if not args.trace:
        values = {
            "requests_per_s": rate,
            "request_p50_ms": 1e3 * percentile(lat, 50) if lat else 0.0,
            "request_tail_ms": 1e3 * percentile(lat, w.tail_pct) if lat else 0.0,
            # after close(): the server and pool children have been reaped
            "peak_rss_mb": peak_rss_mb(),
        }
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        doc = {"traceEvents": obs.chrome_events(events), "displayTimeUnit": "ms"}
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)

    failures = [o.error for win_ in windows for o in win_.outcomes() if not o.ok]
    samples = []
    for win_ in windows:
        mismatches, sample = w.gate(win_)
        failures += mismatches
        samples.append(sample)
    # the first window runs the same requests in both modes
    counts_digest = digest([o.key() for o in samples[0]])
    failures += check_expected(args, w.inputs, counts_digest)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not failures,
        "attempted": sum(len(win_.outcomes()) for win_ in windows),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": values,
        "samples": {
            "requests": len(win.outcomes()),
            "rounds": rounds,
            "round_size": w.round_size,
            "tail_pct": w.tail_pct,
        },
        "digest": counts_digest,
        "inputs": w.inputs,
        "numpy": np.__version__,
    }
    print("RESULT " + json.dumps(record), flush=True)
    return 0


def check_expected(args: argparse.Namespace, inputs: Dict[str, dict], counts: str) -> List[str]:
    """Input pins and the seed-0 count digest against ``expected.json``.

    Pins of ``base-*`` graphs hold for every seed; the other pins and the
    digest are recorded for seed 0.  ``--update-expected`` rewrites the
    seed-0 entry instead of checking it.
    """
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    scale = f"scale={args.scale:g}"
    if args.update_expected:
        if args.seed != 0:
            return ["--update-expected records seed 0 only"]
        expected.setdefault(scale, {})[args.workload] = {"inputs": inputs, "digest": counts}
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return []
    entry = expected.get(scale, {}).get(args.workload)
    if entry is None:
        print(f"note: no expected values for {args.workload} at {scale}", file=sys.stderr)
        return []
    bad = []
    for name, want in entry["inputs"].items():
        if (args.seed == 0 or name.startswith("base-")) and inputs.get(name) != want:
            bad.append(f"input {name} drifted: {inputs.get(name)} != expected {want}")
    if args.seed == 0 and counts != entry["digest"]:
        bad.append(f"seed-0 count digest {counts} != expected {entry['digest']}")
    return bad


# ----------------------------------------------------------------------
# orchestrator side
# ----------------------------------------------------------------------

class Worker:
    """One worker process and a line reader on its standard output."""

    def __init__(self, cmd: List[str]) -> None:
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, deadline: float) -> str:
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - perf_counter(), 0.0))
            except queue.Empty:
                raise BenchError(f"worker did not answer {prefix.strip()!r} in time") from None
            if line is None:
                raise BenchError(f"worker exited (code {self.proc.wait()}) before {prefix.strip()!r}")
            if line.startswith(prefix):
                return line[len(prefix):]
            print(line, file=sys.stderr)

    def send(self, command: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.close()

    def finish(self, deadline: float) -> int:
        try:
            code = self.proc.wait(timeout=max(deadline - perf_counter(), 1.0))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker did not exit in time") from None
        self.reader.join(timeout=5)
        return code

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join(timeout=5)


def run_workload(name: str, args: argparse.Namespace) -> dict:
    cmd = [
        sys.executable, str(SUITE / "run.py"), "--worker", "--workload", name,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--scale", repr(args.scale),
    ]
    if args.update_expected:
        cmd.append("--update-expected")
    deadline = perf_counter() + TIME_LIMIT
    setups: List[float] = []
    workers: List[Worker] = []
    try:
        for k in range(1 if args.trace else SETUPS):
            t0 = perf_counter()
            worker = Worker(cmd)
            workers.append(worker)
            worker.expect("READY", deadline)
            setups.append(perf_counter() - t0)
            last = k == (0 if args.trace else SETUPS - 1)
            worker.send("go" if last else "exit")
            if not last and worker.finish(deadline) != 0:
                raise BenchError("set-up worker failed")
        record = json.loads(worker.expect("RESULT ", deadline))
        if worker.finish(deadline) != 0:
            raise BenchError("measuring worker failed")
    finally:
        for worker in workers:
            worker.stop()
    if not args.trace:
        record["metrics"]["setup_s"] = statistics.median(setups)
        record["samples"]["setups"] = setups
    return record


def commit_of(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def attach_units(record: dict, bench: dict) -> None:
    """Name every metric with its unit, in ``BENCHMARK.json`` order, and
    refuse a metric set that differs from the declared one."""
    specs = bench["per_layer"] if record["trace"] else bench["end_to_end"]
    values = dict(record["metrics"])
    missing = [s["name"] for s in specs if s["name"] not in values]
    if not record["trace"] and missing:
        raise BenchError(f"metrics missing from the result: {missing}")
    unknown = sorted(set(values) - {s["name"] for s in specs})
    if unknown:
        raise BenchError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # a layer a workload does not exercise reports 0
    record["metrics"] = {
        s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]} for s in specs
    }


def report(record: dict) -> None:
    m = record["machine"]
    print(
        f"workload {record['workload']}: seed={record['seed']} seconds={record['seconds']:g} "
        f"trace={record['trace']} scale={record['scale']:g} cores={m['cores']} "
        f"python={m['python']} numpy={m['numpy']} commit={m['commit'][:12]}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    s = record["samples"]
    print(
        f"  sample: {s['requests']} requests, {s['rounds']} complete rounds of "
        f"{s['round_size']}; request_tail_ms is p{s['tail_pct']:g}"
    )
    status = "ok" if record["correct"] else "FAILED"
    print(
        f"  correctness: {status} ({record['attempted']} attempted, {record['failed']} failed; "
        f"count digest {record['digest']})"
    )
    for failure in record["failures"]:
        print(f"    {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    if not BENCHMARK.exists() or not (SRC / "repro" / "__init__.py").exists():
        print(f"error: run from a checkout of the repository ({SRC} not found)", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: %(default)s)")
    parser.add_argument(
        "--seconds", type=float, default=float(bench["run_seconds"]),
        help="length of the timed window (default: %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: per-layer metrics from a traced run (default: %(default)s)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every graph size; the tests use a tiny one (default: %(default)s)",
    )
    parser.add_argument("--out", help="also write the full record(s) to this JSON file")
    parser.add_argument(
        "--update-expected", action="store_true",
        help="record seed 0's input pins and count digest in expected.json",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker_main(args)

    machine = {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit_of(ROOT),
    }
    records = []
    for name in [args.workload] if args.workload else names:
        try:
            record = run_workload(name, args)
            attach_units(record, bench)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        record["machine"] = {**machine, "numpy": record.pop("numpy")}
        report(record)
        records.append(record)
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
        sys.stdout.flush()
    if args.out:
        doc = records[0] if len(records) == 1 else records
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
