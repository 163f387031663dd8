"""Smoke test of the benchmark suite at a tiny input scale.

Every workload runs through ``run.py`` the way the benchmark is run:
fresh worker processes, three set-ups, the correctness gate with the
seed-0 pins and count digests of ``expected.json``.  Timings are not
asserted; the printed result must match ``BENCHMARK.json``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def results(stdout: str) -> List[dict]:
    """The JSON result lines, one per workload."""
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def tiny_runs() -> Dict[int, Tuple[int, str, str]]:
    """Both modes over every workload, run side by side to halve the wait."""
    procs = {
        trace: subprocess.Popen(
            [sys.executable, "benchmarks/suite/run.py", "--seed", "0", "--seconds", "0.2",
             "--scale", "0.15", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for trace in (0, 1)
    }
    out = {}
    try:
        for trace, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            out[trace] = (proc.returncode, stdout, stderr)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_at_tiny_scale(tiny_runs, trace: int, section: str) -> None:
    code, stdout, stderr = tiny_runs[trace]
    assert code == 0, stderr[-3000:]
    assert stdout.rstrip().splitlines()[-1].startswith("{")
    lines = results(stdout)
    assert len(lines) == len(WORKLOADS)
    units = {m["name"]: m["unit"] for m in BENCH[section]}
    for result in lines:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == list(units)
        assert all(m["unit"] == units[name] for name, m in result["metrics"].items())
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path: Path) -> None:
    """Holding only BENCHMARK.json and the suite, a run exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        SUITE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not results(proc.stdout)
