"""Colorings for the color-coding estimator: drawing them and checking them.

Section 2 colors the data vertices uniformly at random.  Every trial's
coloring comes from one seeded stream (:func:`coloring_stream`), so
repeated experiments across methods and ranks reuse identical colorings
(how every benchmark in this repo keeps PS/DB comparisons paired), and
every counting path checks a trial's input with :func:`trial_input`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.graph import Graph
from ..query.query import QueryGraph
from .labels import label_masks

__all__ = [
    "uniform_coloring",
    "coloring_batch",
    "coloring_stream",
    "trial_input",
    "MAX_COLORS_VEC",
]

Node = Hashable

#: signatures are bit sets inside one int64 ⇒ at most 62 colors
MAX_COLORS_VEC = 62


def uniform_coloring(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """IID uniform colors — the paper's coloring distribution."""
    return rng.integers(0, k, size=n, dtype=np.int64)


def coloring_stream(n: int, k: int, seed: int) -> Iterator[np.ndarray]:
    """Endless deterministic sequence of uniform colorings from one seeded
    generator.

    The engine's trial scheduler draws every coloring from this stream,
    so the first ``t`` trials of any run are the same ``t`` colorings
    whether it stops early or keeps going — the differential/parity
    invariants ride on this prefix property.
    """
    rng = np.random.default_rng(seed)
    return (uniform_coloring(n, k, rng) for _ in itertools.count())


def coloring_batch(n: int, k: int, trials: int, seed: int) -> List[np.ndarray]:
    """The first ``trials`` colorings of :func:`coloring_stream` (paired
    experiments replay exactly what the engine drew)."""
    return list(itertools.islice(coloring_stream(n, k, seed), trials))


def trial_input(
    g: Graph,
    query: QueryGraph,
    colors: Sequence[int],
    num_colors: Optional[int] = None,
    *,
    cap: bool = True,
) -> Tuple[np.ndarray, Optional[Dict[Node, np.ndarray]], Optional[int]]:
    """Check one trial's input; return ``(colors, vertex_ok, count)``.

    ``colors`` comes back as int64, checked against ``g`` and a palette of
    ``num_colors`` (default ``k``) colors; ``cap`` also holds the palette
    to :data:`MAX_COLORS_VEC`, the width of a sweep signature (the dict
    kernels and whole trials on other backends pass ``cap=False``).
    ``vertex_ok`` is the query's label masks (:func:`label_masks`, which
    refuses a labeled query on an unlabeled graph).  ``count`` answers a
    one-node query, which no block solves, outright; it is ``None`` for
    every other query.
    """
    k = query.k
    kc = num_colors if num_colors is not None else k
    if kc < k:
        raise ValueError(f"need at least k={k} colors, got num_colors={kc}")
    if cap and kc > MAX_COLORS_VEC:
        raise ValueError(f"the sweep packs signatures in int64; num_colors <= {MAX_COLORS_VEC}")
    arr = np.asarray(colors, dtype=np.int64)
    if len(arr) != g.n:
        raise ValueError("coloring must assign a color to every data vertex")
    if k > 0 and len(arr) and (int(np.min(arr)) < 0 or int(np.max(arr)) >= kc):
        raise ValueError(f"colors must lie in [0, {kc})")
    vertex_ok = label_masks(g, query)
    count = None
    if k == 1:
        count = int(next(iter(vertex_ok.values())).sum()) if vertex_ok else g.n
    return arr, vertex_ok, count
