"""Motif significance: z-scores against a degree-preserving null model.

The network-motif methodology (Milo et al., Science 2002 — the paper's
reference [23]): a motif is *significant* in a network when its count
deviates from the null ensemble by many standard deviations.  The
significance profile (normalised z-score vector across motifs) is the
classic fingerprint used to compare networks across domains, and the
workload that makes fast subgraph counting matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..engine import CountingEngine
from ..graph.graph import Graph
from ..query.query import QueryGraph
from .nullmodel import null_ensemble

__all__ = ["MotifSignificance", "motif_significance", "significance_profile"]


@dataclass
class MotifSignificance:
    """Observed-vs-null statistics for one motif."""

    motif_name: str
    observed: float
    null_mean: float
    null_std: float

    @property
    def z_score(self) -> float:
        if self.null_std > 0:
            return (self.observed - self.null_mean) / self.null_std
        return 0.0 if self.observed == self.null_mean else float("inf")

    @property
    def abundance(self) -> float:
        """Relative abundance (observed - null) / (observed + null)."""
        denom = self.observed + self.null_mean
        return (self.observed - self.null_mean) / denom if denom > 0 else 0.0


def motif_significance(
    g: Graph,
    motifs: Sequence[QueryGraph],
    null_samples: int = 5,
    trials: int = 4,
    seed: int = 0,
    method: str = "auto",
) -> List[MotifSignificance]:
    """Z-scores of each motif's estimated count against the null ensemble.

    Both the observed network and every null sample are counted with the
    same color-coding estimator (one engine per graph, same trial
    budget), so estimator noise affects numerator and denominator
    symmetrically.  The default ``method="auto"`` runs the vectorized
    sweep, bit-identical to ``method="db"``; the engines share each
    motif's plan.
    """
    rng = np.random.default_rng(seed)
    nulls = null_ensemble(g, null_samples, rng)

    def estimates(h: Graph, offset: int) -> List[float]:
        """Each motif's estimate on ``h``; motif ``i`` draws from seed
        ``seed + 31 i + offset``."""
        with CountingEngine(h, method=method, trials=trials) as engine:
            return [
                engine.count(q, seed=seed + 31 * i + offset).estimate
                for i, q in enumerate(motifs)
            ]

    observed = estimates(g, 0)
    null_rows = [estimates(nh, 7 * j + 1) for j, nh in enumerate(nulls)]
    out: List[MotifSignificance] = []
    for i, q in enumerate(motifs):
        null_counts = [row[i] for row in null_rows]
        out.append(
            MotifSignificance(
                motif_name=q.name,
                observed=observed[i],
                null_mean=float(np.mean(null_counts)),
                null_std=float(np.std(null_counts, ddof=1)) if len(null_counts) > 1 else 0.0,
            )
        )
    return out


def significance_profile(results: Sequence[MotifSignificance]) -> np.ndarray:
    """Normalised z-score vector (the Milo et al. "SP" fingerprint)."""
    zs = np.array([r.z_score for r in results], dtype=np.float64)
    zs[~np.isfinite(zs)] = 0.0
    norm = np.linalg.norm(zs)
    return zs / norm if norm > 0 else zs
