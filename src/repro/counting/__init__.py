"""Counting algorithms: PS baseline, DB contribution, the vectorized PS
sweep (exact, chunked), brute-force references and the estimator."""

from .bruteforce import count_colorful_matches, count_matches
from .colorings import (
    balanced_coloring,
    color_class_sizes,
    coloring_batch,
    uniform_coloring,
)
from .verify import VerificationReport, verify_counting
from .db import count_colorful_db
from .estimator import EstimateResult, normalization_factor
from .labels import label_masks, label_masks_from_arrays
from .ps import count_colorful_ps
from .solver import METHODS, VEC_METHOD, BlockSolver, solve_plan
from .vectorized import count_colorful_ps_vec, solve_plan_vectorized

__all__ = [
    "count_matches",
    "count_colorful_matches",
    "label_masks",
    "label_masks_from_arrays",
    "count_colorful_ps",
    "count_colorful_ps_vec",
    "count_colorful_db",
    "solve_plan",
    "solve_plan_vectorized",
    "BlockSolver",
    "METHODS",
    "VEC_METHOD",
    "EstimateResult",
    "normalization_factor",
    "uniform_coloring",
    "balanced_coloring",
    "coloring_batch",
    "color_class_sizes",
    "verify_counting",
    "VerificationReport",
]
