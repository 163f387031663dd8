"""Approximate subgraph counting via repeated random colorings (Section 2).

For a random coloring χ with ``k`` colors, ``(k^k / k!) · E[colorful
matches]`` equals the true match count — the colorful count is an unbiased
estimator after normalization.  This module holds the estimator's
statistics; the trial loop that feeds them is
:meth:`repro.engine.CountingEngine.count`.  Results report the
coefficient of variation the paper uses in Figure 15 ("the ratio of the
empirical variance to the mean"; we additionally expose the conventional
std/mean ratio as ``relative_std``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..query.automorphisms import automorphism_count
from ..query.query import QueryGraph
from ..theory.bounds import chebyshev_halfwidth, student_t_quantile

__all__ = [
    "EstimateResult",
    "StreamingEstimate",
    "normalization_factor",
]


def normalization_factor(k: int, num_colors: Optional[int] = None) -> float:
    """Inverse probability that a fixed ``k``-vertex match is colorful.

    With the paper's ``num_colors == k`` palette this is ``k^k / k!``.
    The generalization to ``num_colors = c >= k`` (the classic
    variance-reduction extension) is ``c^k / (c)_k`` with ``(c)_k`` the
    falling factorial: a fixed match is colorful iff its ``k`` vertices
    draw distinct colors out of ``c``.
    """
    c = num_colors if num_colors is not None else k
    if c < k:
        raise ValueError(f"need at least k={k} colors, got {c}")
    falling = 1.0
    for i in range(k):
        falling *= c - i
    return float(c**k) / falling


@dataclass
class EstimateResult:
    """Outcome of a multi-trial color-coding estimation."""

    query_name: str
    graph_name: str
    trials: int
    colorful_counts: List[int]
    scale: float

    @property
    def colorful_mean(self) -> float:
        return float(np.mean(self.colorful_counts)) if self.colorful_counts else 0.0

    @property
    def colorful_variance(self) -> float:
        if len(self.colorful_counts) < 2:
            return 0.0
        return float(np.var(self.colorful_counts, ddof=1))

    @property
    def estimate(self) -> float:
        """Estimated number of matches (injective mappings)."""
        return self.scale * self.colorful_mean

    def estimated_subgraphs(self, query: QueryGraph) -> float:
        """Estimated number of distinct subgraphs (divide by aut(Q))."""
        return self.estimate / automorphism_count(query)

    @property
    def coefficient_of_variation(self) -> float:
        """Paper's Figure 15 metric: empirical variance over mean."""
        mean = self.colorful_mean
        return self.colorful_variance / mean if mean > 0 else 0.0

    @property
    def relative_std(self) -> float:
        """Conventional CoV: std over mean (scale free)."""
        mean = self.colorful_mean
        return math.sqrt(self.colorful_variance) / mean if mean > 0 else 0.0


class StreamingEstimate:
    """Single-pass mean/variance over per-trial colorful counts.

    The adaptive scheduler's accumulator: trials are pushed one at a
    time (Welford's update, numerically stable at any trial count) and
    the current empirical confidence interval is available after every
    push without revisiting earlier counts.  Matches the batch statistics
    of :class:`EstimateResult` — same ``ddof=1`` variance, same
    ``scale·mean`` estimate — which the fuzz tests pin down.

    The confidence interval is the Student-t interval on the trial mean.
    When the empirical variance is *degenerate* — fewer than two trials,
    an all-equal prefix, or a zero mean (relative error undefined) — the
    t-interval says nothing useful, so :meth:`relative_halfwidth` falls
    back to the distribution-free Chebyshev width under the worst-case
    per-trial relative variance from
    :func:`repro.theory.bounds.estimator_relative_variance_bound`.
    """

    def __init__(self, scale: float, rel_variance_bound: Optional[float] = None) -> None:
        self.scale = float(scale)
        #: worst-case per-trial relative variance used for the degenerate
        #: fallback; ``None`` disables the fallback (half-width becomes
        #: infinite whenever the empirical interval is undefined)
        self.rel_variance_bound = rel_variance_bound
        self.trials = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, count: int) -> None:
        """Fold one trial's colorful count into the running statistics."""
        self.trials += 1
        delta = float(count) - self._mean
        self._mean += delta / self.trials
        self._m2 += delta * (float(count) - self._mean)

    @property
    def colorful_mean(self) -> float:
        return self._mean if self.trials else 0.0

    @property
    def colorful_variance(self) -> float:
        """Sample variance of the colorful counts (``ddof=1``)."""
        if self.trials < 2:
            return 0.0
        return self._m2 / (self.trials - 1)

    @property
    def estimate(self) -> float:
        """Current unbiased match estimate (``scale · mean``)."""
        return self.scale * self._mean

    def relative_halfwidth(self, confidence: float = 0.95) -> float:
        """Relative half-width of the CI on the estimate at ``confidence``.

        Student-t when the empirical variance is usable; Chebyshev under
        ``rel_variance_bound`` when it is degenerate; ``inf`` when even
        the fallback is unavailable.
        """
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        degenerate = self.trials < 2 or self._mean <= 0.0 or self._m2 <= 0.0
        if degenerate:
            if self.rel_variance_bound is None or self.trials < 1:
                return math.inf
            return chebyshev_halfwidth(
                self.rel_variance_bound, self.trials, confidence
            )
        q = student_t_quantile(0.5 + confidence / 2.0, self.trials - 1)
        sem = math.sqrt(self.colorful_variance / self.trials)
        return q * sem / self._mean

    def interval(self, confidence: float = 0.95) -> Tuple[float, float]:
        """The CI on the *estimate* scale (clamped below at zero)."""
        hw = self.relative_halfwidth(confidence)
        if math.isinf(hw):
            return (0.0, math.inf)
        est = self.estimate
        return (max(0.0, est * (1.0 - hw)), est * (1.0 + hw))

    def precision_met(self, rel_error: float, confidence: float = 0.95) -> bool:
        """Whether the current CI is at least as tight as ``rel_error``."""
        if rel_error <= 0.0:
            raise ValueError("rel_error must be positive")
        return self.relative_halfwidth(confidence) <= rel_error
