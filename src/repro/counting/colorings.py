"""Coloring strategies for the color-coding estimator.

Section 2 uses uniform random colorings.  Two refinements are provided as
extensions (the variance-reduction direction the color-coding literature
explores and the paper leaves implicit):

* **balanced** colorings — each color class has (near-)equal size; the
  estimator stays unbiased over the uniform mixture of balanced colorings
  restricted sample space and typically has lower variance because color
  class sizes never degenerate;
* **stratified batches** — a deterministic low-discrepancy sequence of
  seeds, so repeated experiments across methods/ranks reuse identical
  colorings (how every benchmark in this repo keeps PS/DB comparisons
  paired).
"""

from __future__ import annotations

import itertools
from typing import Iterator, List

import numpy as np

__all__ = [
    "uniform_coloring",
    "balanced_coloring",
    "coloring_batch",
    "coloring_stream",
    "color_class_sizes",
    "COLORING_STRATEGIES",
]


def uniform_coloring(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """IID uniform colors — the paper's coloring distribution."""
    return rng.integers(0, k, size=n, dtype=np.int64)


def balanced_coloring(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random coloring with color-class sizes differing by at most one.

    Sampled as a uniformly random permutation of the fixed multiset
    ``{0,...,k-1}`` repeated ``ceil(n/k)`` times, truncated to ``n``.
    """
    reps = -(-n // k)
    palette = np.tile(np.arange(k, dtype=np.int64), reps)[:n]
    rng.shuffle(palette)
    return palette


#: coloring strategies by name (the ``strategy`` values
#: :func:`coloring_stream` accepts)
COLORING_STRATEGIES = {"uniform": uniform_coloring, "balanced": balanced_coloring}


def coloring_stream(
    n: int,
    k: int,
    seed: int,
    strategy: str = "uniform",
) -> Iterator[np.ndarray]:
    """Endless deterministic coloring sequence from one seeded generator.

    The engine's trial scheduler draws every coloring from this stream,
    so the first ``t`` trials of any run are the same ``t`` colorings
    whether it stops early or keeps going — the differential/parity
    invariants ride on this prefix property.  An unknown ``strategy``
    raises :class:`ValueError` here, before the first draw.
    """
    try:
        draw = COLORING_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown coloring strategy {strategy!r}") from None
    rng = np.random.default_rng(seed)
    return (draw(n, k, rng) for _ in itertools.count())


def coloring_batch(
    n: int,
    k: int,
    trials: int,
    seed: int,
    strategy: str = "uniform",
) -> List[np.ndarray]:
    """The first ``trials`` colorings of :func:`coloring_stream` (paired
    experiments replay exactly what the engine drew)."""
    return list(itertools.islice(coloring_stream(n, k, seed, strategy), trials))


def color_class_sizes(colors: np.ndarray, k: int) -> np.ndarray:
    """Histogram of color usage (diagnostics for degenerate colorings)."""
    return np.bincount(np.asarray(colors, dtype=np.int64), minlength=k)
