"""Motif census: enumerate and count all small treewidth-2 motifs.

The applications motivating the paper (biological network analysis,
graphlet profiles) do not count a single query — they count *every*
motif of a given size and compare profiles across networks.  This module
provides:

* :func:`all_tw2_motifs` — every connected treewidth-≤2 graph on ``k``
  nodes, up to isomorphism (for ``k ≤ 5``; one edge subset per orbit
  under node permutations);
* :func:`motif_census` — the census vector of a data graph over a motif
  set, using the color-coding estimator per motif.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import List, Optional, Sequence

from ..engine import CountingEngine, CountRequest
from ..graph.graph import Graph
from ..query.automorphisms import automorphism_count
from ..query.isomorphism import canonical_form
from ..query.query import QueryGraph
from ..query.treewidth import is_treewidth_at_most_2

__all__ = ["all_tw2_motifs", "motif_census", "CensusEntry"]


def all_tw2_motifs(k: int) -> List[QueryGraph]:
    """All connected treewidth-≤2 graphs on ``k`` nodes, up to isomorphism.

    Walks the ``2^(k choose 2)`` edge subsets in order — limited to
    ``k <= 5`` (1024 subsets).  The first subset of each orbit under the
    ``k!`` node permutations stands for the orbit: a permutation table
    over pair indices marks the whole orbit seen, so the connectivity,
    treewidth and canonical-form checks run once per orbit.  Named
    ``motif{k}-{index}`` in a deterministic order.
    """
    if not (2 <= k <= 5):
        raise ValueError("motif enumeration supported for 2 <= k <= 5")
    pairs = list(combinations(range(k), 2))
    slot = {pair: i for i, pair in enumerate(pairs)}
    # images[p][i]: the bit of pair i's image under node permutation p
    images = [
        [1 << slot[(min(perm[a], perm[b]), max(perm[a], perm[b]))] for a, b in pairs]
        for perm in permutations(range(k))
    ]
    seen = bytearray(1 << len(pairs))
    found = {}
    for mask in range(1, 1 << len(pairs)):
        if seen[mask] or bin(mask).count("1") < k - 1:
            continue  # an orbit already visited, or too few edges to connect
        bits = [i for i in range(len(pairs)) if (mask >> i) & 1]
        for image in images:
            seen[sum(image[i] for i in bits)] = 1
        q = QueryGraph([pairs[i] for i in bits], nodes=range(k))
        if q.is_connected() and is_treewidth_at_most_2(q):
            found[canonical_form(q)] = q
    motifs = []
    for i, key in enumerate(sorted(found, key=lambda fs: sorted(fs))):
        q = found[key]
        q.name = f"motif{k}-{i}"
        motifs.append(q)
    return motifs


class CensusEntry:
    """One motif's census record."""

    __slots__ = ("motif", "match_estimate", "subgraph_estimate", "relative_std")

    def __init__(self, motif: QueryGraph, match_estimate: float, relative_std: float):
        self.motif = motif
        self.match_estimate = match_estimate
        self.subgraph_estimate = match_estimate / automorphism_count(motif)
        self.relative_std = relative_std

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CensusEntry({self.motif.name}, subgraphs~{self.subgraph_estimate:.3g})"
        )


def motif_census(
    g: Graph,
    motifs: Optional[Sequence[QueryGraph]] = None,
    k: int = 4,
    trials: int = 5,
    seed: int = 0,
    method: str = "auto",
    num_colors: Optional[int] = None,
    engine: Optional[CountingEngine] = None,
) -> List[CensusEntry]:
    """Census vector of ``g`` over ``motifs`` (default: all size-``k``
    treewidth-2 motifs).

    Runs as one :meth:`CountingEngine.count_many` batch, so each motif's
    decomposition plan is built once and reused across trials — pass a
    shared ``engine`` (bound to the same ``g``) to also reuse plans
    across repeated censuses of one graph, e.g. sweeping trial counts
    or palettes.  The default ``method="auto"`` runs the vectorized
    sweep, bit-identical to ``method="db"`` and several times faster on
    5-node motifs.
    """
    motifs = list(motifs) if motifs is not None else all_tw2_motifs(k)
    if engine is not None and engine.graph is not g:
        raise ValueError("engine is bound to a different graph than g")
    engine = engine if engine is not None else CountingEngine(g)
    requests = [
        CountRequest(
            query=q,
            trials=trials,
            seed=seed + 7 * i,
            method=method,
            num_colors=num_colors,
        )
        for i, q in enumerate(motifs)
    ]
    results = engine.count_many(requests)
    return [
        CensusEntry(q, result.estimate, result.relative_std)
        for q, result in zip(motifs, results)
    ]
