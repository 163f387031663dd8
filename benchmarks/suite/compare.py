#!/usr/bin/env python3
"""Compare two sets of benchmark results under the bounds of BENCHMARK.json.

    python3 benchmarks/suite/compare.py A/*.json B/*.json

Files are grouped by their directory: the first directory is the base
(A, e.g. the parent commit), the second the change (B).  Each file holds
one record, or a list of records, as ``run.py --out`` writes them.

For every workload and end-to-end metric the verdict is:

* ``unresolved`` — either side's quartile spread is wider than the
  metric's bound, unless every run of B reads better than every run of A;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least nine tenths of the runs paired by seed
  (ties count for neither) and the medians differ by more than A's
  distance between quartiles;
* ``unchanged`` — otherwise.

Runs of one seed must produce identical count digests and input pins in
both sets.  The exit code is 1 when any verdict is ``worse`` or
``unresolved`` or any exact count differs.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import quartiles

ROOT = Path(__file__).resolve().parents[2]


def load_sets(paths: List[str]) -> List[Tuple[str, List[dict]]]:
    groups: Dict[str, List[dict]] = {}
    for p in paths:
        doc = json.loads(Path(p).read_text(encoding="utf-8"))
        records = doc if isinstance(doc, list) else [doc]
        groups.setdefault(str(Path(p).parent), []).extend(
            r for r in records if not r.get("trace")
        )
    if len(groups) != 2:
        raise SystemExit(f"need result files from exactly two directories, got {sorted(groups)}")
    return list(groups.items())


def verdict(a: List[float], b: List[float], pairs: List[Tuple[float, float]],
            bound: float, lower: bool) -> Tuple[str, float]:
    """The verdict for one metric and B's median change relative to A's."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    change = (bm - am) / am if am else 0.0
    worse_by = change if lower else -change

    def better(x: float, y: float) -> bool:  # x (from B) reads better than y (from A)
        return x < y if lower else x > y

    if max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0) > bound:
        if all(better(x, y) for x in b for y in a):
            return "better", change
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    wins = sum(better(x, y) for y, x in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(bm - am) > a3 - a1:
        return "better", change
    return "unchanged", change


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (name_a, set_a), (name_b, set_b) = load_sets(argv)
    print(f"A = {name_a} ({len(set_a)} runs)   B = {name_b} ({len(set_b)} runs)")
    by_workload: Dict[str, Dict[str, Dict[int, dict]]] = defaultdict(lambda: {"A": {}, "B": {}})
    for side, records in (("A", set_a), ("B", set_b)):
        for r in records:
            by_workload[r["workload"]][side][r["seed"]] = r

    failing = False
    specs = bench["end_to_end"]
    print("workload".ljust(16) + "".join(s["name"].rjust(22) for s in specs))
    details = []
    for wname in [w["name"] for w in bench["workloads"]]:
        runs = by_workload.get(wname)
        if not runs or not runs["A"] or not runs["B"]:
            continue
        cells = []
        for spec in specs:
            metric = spec["name"]
            a = [r["metrics"][metric]["value"] for r in runs["A"].values()]
            b = [r["metrics"][metric]["value"] for r in runs["B"].values()]
            pairs = [
                (runs["A"][s]["metrics"][metric]["value"], runs["B"][s]["metrics"][metric]["value"])
                for s in sorted(set(runs["A"]) & set(runs["B"]))
            ]
            v, change = verdict(a, b, pairs, spec["bound"], spec["better"] == "lower")
            failing |= v in ("worse", "unresolved")
            cells.append(f"{v} {100 * change:+.1f}%".rjust(22))
            a1, am, a3 = quartiles(a)
            b1, bm, b3 = quartiles(b)
            details.append(
                f"  {wname:<16} {metric:<16} A {am:.5g} [{a1:.5g}, {a3:.5g}]  "
                f"B {bm:.5g} [{b1:.5g}, {b3:.5g}]  bound {spec['bound']:.0%}  {v}"
            )
        print(wname.ljust(16) + "".join(cells))
        for seed in sorted(set(runs["A"]) & set(runs["B"])):
            ra, rb = runs["A"][seed], runs["B"][seed]
            if ra["digest"] != rb["digest"] or ra["inputs"] != rb["inputs"]:
                failing = True
                print(f"  {wname} seed {seed}: counts or inputs differ between A and B")
            if not (ra["correct"] and rb["correct"]):
                failing = True
                print(f"  {wname} seed {seed}: a run failed its output checks")
    print("\nmedians [first quartile, third quartile]:")
    print("\n".join(details))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
