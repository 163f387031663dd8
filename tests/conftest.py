"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph import Graph, erdos_renyi


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the tests/golden/ fixtures instead of asserting them",
    )


def wait_until(predicate, timeout: float = 5.0, interval: float = 0.01) -> bool:
    """Poll ``predicate`` until it is truthy or ``timeout`` elapses.

    The deflake primitive for timing-sensitive service tests: a fixed
    ``time.sleep`` picks one magic duration for every machine, while this
    helper returns as soon as the condition holds and only gives up after
    a generous deadline (returns False — asserts stay at the call site).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def triangle_graph():
    """K3."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)], name="K3")


@pytest.fixture
def square_graph():
    """C4 as a data graph."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="C4-data")


@pytest.fixture
def petersen_graph():
    """The Petersen graph — vertex transitive, girth 5, many cycles."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes, name="petersen")


@pytest.fixture
def small_random_graph(rng):
    return erdos_renyi(12, 0.3, rng, name="er12")

