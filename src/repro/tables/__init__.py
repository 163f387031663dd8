"""Signatures (color bitmasks) and projection tables."""

from .projection import BinaryTable, PathTable, UnaryTable, table_total
from .signatures import (
    all_signatures,
    color_bit,
    empty_signature,
    full_signature,
    sig_add,
    sig_colors,
    sig_contains,
    sig_disjoint_except,
    sig_from_colors,
    sig_intersection,
    sig_size,
    sig_union,
)

__all__ = [
    "UnaryTable",
    "BinaryTable",
    "PathTable",
    "table_total",
    "empty_signature",
    "full_signature",
    "color_bit",
    "sig_from_colors",
    "sig_contains",
    "sig_add",
    "sig_union",
    "sig_intersection",
    "sig_size",
    "sig_colors",
    "sig_disjoint_except",
    "all_signatures",
]
