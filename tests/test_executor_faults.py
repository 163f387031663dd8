"""A ``ps-dist`` worker that dies mid-superstep fails the count cleanly:
a ``RuntimeError`` with no hang, a closed pool, no shared-memory segment
left behind, and a fresh pool for the engine's next request."""

import multiprocessing as mp
import os
import signal
from multiprocessing import shared_memory

import pytest

from repro.bench import dataset
from repro.counting.vectorized import VectorizedSolver
from repro.engine import CountingEngine
from repro.query import paper_query

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the patched solver reaches the workers only through fork",
)


def _hung(signum, frame):
    raise TimeoutError("count hung on a dead worker")


def test_worker_killed_mid_superstep(monkeypatch):
    g = dataset("condmat")
    q = paper_query("wiki")
    solve = VectorizedSolver.solve

    def dying_solve(self, block):
        # rank 1 of 2 is the only solver whose start range begins past 0
        if self.start_range[0] > 0:
            os._exit(1)
        return solve(self, block)

    with CountingEngine(g, workers=2) as engine:
        monkeypatch.setattr(VectorizedSolver, "solve", dying_solve)
        crashed = engine.executor_for(2)  # its workers fork with the patch
        monkeypatch.undo()
        previous = signal.signal(signal.SIGALRM, _hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match="worker 1 died"):
                engine.count(q, trials=1, seed=0, method="ps-dist")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert crashed.closed
        for shm in crashed._shms:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=shm.name)
        again = engine.count(q, trials=1, seed=0, method="ps-dist")
        assert engine.executor_for(2) is not crashed
        ref = engine.count(q, trials=1, seed=0, method="ps-vec", workers=1)
        assert again.colorful_counts == ref.colorful_counts
