"""The array-namespace seam for the vectorized PS kernels.

:mod:`repro.counting.vectorized` expresses the PS dynamic program as
whole-table int64 array operations.  Nothing in that sweep is NumPy-
specific — it is repeat/gather joins, ``searchsorted`` merges and
lexsort+reduceat segment sums — so this module narrows its array surface
to one audited seam: an :class:`ArrayNamespace` handle exposing exactly
the primitives the sweep uses (:data:`AUDITED_PRIMITIVES`), with

* :class:`NumpyNamespace` — the default CPU implementation;
* :class:`StrictNamespace` — a pure-Python CPU stub that wraps NumPy but
  *rejects any call outside the audited set* and counts per-primitive
  usage.  CI runs the whole vectorized suite under it
  (``REPRO_ARRAY_NAMESPACE=strict``), so a change that sneaks an
  un-audited NumPy call into the sweep fails the ``backend-matrix`` lane.

The seam is what a future device namespace would implement: the audited
set is small and every primitive in it has an array-API equivalent.

Resolution: :func:`resolve_namespace` maps a spec string
(:data:`KNOWN_NAMESPACES`) to a handle.  The process-wide default
(:func:`default_namespace`) reads the ``REPRO_ARRAY_NAMESPACE``
environment variable.

``python -m repro.counting.xp`` prints a JSON audit — the per-primitive
usage of a demo solve under the strict stub — uploaded as a CI artifact
by the ``backend-matrix`` job.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Array",
    "ArrayNamespace",
    "NumpyNamespace",
    "StrictNamespace",
    "AUDITED_PRIMITIVES",
    "KNOWN_NAMESPACES",
    "NAMESPACE_ENV_VAR",
    "resolve_namespace",
    "default_namespace",
    "as_namespace",
]

#: a backend-native array handle (np.ndarray on the CPU namespaces)
Array = Any
#: a backend-native dtype object
DType = Any
#: anything :func:`as_namespace` accepts
NamespaceLike = Union[str, "ArrayNamespace", None]

#: environment variable naming the process-wide default namespace
NAMESPACE_ENV_VAR = "REPRO_ARRAY_NAMESPACE"

#: every spec string :func:`resolve_namespace` accepts
KNOWN_NAMESPACES: Tuple[str, ...] = ("numpy", "strict")

#: the audited primitive set — the *only* module-level calls the
#: vectorized sweep may make; StrictNamespace rejects everything else
AUDITED_PRIMITIVES: Tuple[str, ...] = (
    # creation (dtype always explicit — the RP002 discipline)
    "asarray", "empty", "zeros", "ones", "arange",
    # movement / structure
    "repeat", "concatenate", "diff", "cumsum", "flatnonzero",
    # sorted-table joins and aggregation
    "searchsorted", "lexsort", "add_reduceat",
    # reductions and dtype promotion
    "sum", "min", "max", "all", "astype", "popcount",
)


# ----------------------------------------------------------------------
# the namespace interface and the NumPy default
# ----------------------------------------------------------------------

class ArrayNamespace:
    """The audited array surface of the vectorized PS sweep.

    Implementations provide :data:`AUDITED_PRIMITIVES` as methods plus
    the ``int64``/``bool_``/``float64`` dtype handles and ``name``.
    Everything else the kernels do is array-object algebra (elementwise
    operators, fancy/boolean indexing, slicing) — part of the array-API
    standard and portable by construction.
    """

    name: str = ""
    int64: DType = None
    bool_: DType = None
    float64: DType = None

    def asarray(self, a: object, dtype: DType = None) -> Array:
        """Convert (the point where caller data enters the namespace)."""
        raise NotImplementedError

    def empty(self, n: int, dtype: DType = None) -> Array:
        raise NotImplementedError

    def zeros(self, n: int, dtype: DType = None) -> Array:
        raise NotImplementedError

    def ones(self, n: int, dtype: DType = None) -> Array:
        raise NotImplementedError

    def arange(self, n: int, dtype: DType = None) -> Array:
        raise NotImplementedError

    def repeat(self, a: Array, repeats: Array) -> Array:
        raise NotImplementedError

    def concatenate(self, arrays: Sequence[Array]) -> Array:
        raise NotImplementedError

    def diff(self, a: Array) -> Array:
        raise NotImplementedError

    def cumsum(self, a: Array) -> Array:
        raise NotImplementedError

    def flatnonzero(self, a: Array) -> Array:
        raise NotImplementedError

    def searchsorted(self, a: Array, v: Array, side: str = "left") -> Array:
        raise NotImplementedError

    def lexsort(self, keys: Sequence[Array]) -> Array:
        """Stable multi-key argsort; ``keys[-1]`` is primary (NumPy order)."""
        raise NotImplementedError

    def add_reduceat(self, a: Array, starts: Array) -> Array:
        """Segment sums over sorted ``starts`` with ``starts[0] == 0``."""
        raise NotImplementedError

    def sum(self, a: Array) -> Array:
        raise NotImplementedError

    def min(self, a: Array) -> Array:
        raise NotImplementedError

    def max(self, a: Array) -> Array:
        raise NotImplementedError

    def all(self, a: Array) -> bool:
        raise NotImplementedError

    def astype(self, a: Array, dtype: DType) -> Array:
        raise NotImplementedError

    def popcount(self, a: Array) -> Array:
        """Per-element population count of an int64 array (values >= 0)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class NumpyNamespace(ArrayNamespace):
    """The default handle: thin delegation to NumPy."""

    name = "numpy"
    int64 = np.int64
    bool_ = np.bool_
    float64 = np.float64

    def asarray(self, a: object, dtype: DType = None) -> Array:
        return np.asarray(a, dtype=dtype)

    def empty(self, n: int, dtype: DType = None) -> Array:
        return np.empty(n, dtype=dtype)

    def zeros(self, n: int, dtype: DType = None) -> Array:
        return np.zeros(n, dtype=dtype)

    def ones(self, n: int, dtype: DType = None) -> Array:
        return np.ones(n, dtype=dtype)

    def arange(self, n: int, dtype: DType = None) -> Array:
        return np.arange(n, dtype=dtype)

    def repeat(self, a: Array, repeats: Array) -> Array:
        return np.repeat(a, repeats)

    def concatenate(self, arrays: Sequence[Array]) -> Array:
        return np.concatenate(arrays)

    def diff(self, a: Array) -> Array:
        return np.diff(a)

    def cumsum(self, a: Array) -> Array:
        return np.cumsum(a)

    def flatnonzero(self, a: Array) -> Array:
        return np.flatnonzero(a)

    def searchsorted(self, a: Array, v: Array, side: str = "left") -> Array:
        return np.searchsorted(a, v, side=side)

    def lexsort(self, keys: Sequence[Array]) -> Array:
        return np.lexsort(tuple(keys))

    def add_reduceat(self, a: Array, starts: Array) -> Array:
        return np.add.reduceat(a, starts)

    def sum(self, a: Array) -> Array:
        return np.sum(a)

    def min(self, a: Array) -> Array:
        return np.min(a)

    def max(self, a: Array) -> Array:
        return np.max(a)

    def all(self, a: Array) -> bool:
        return bool(np.all(a))

    def astype(self, a: Array, dtype: DType) -> Array:
        return a.astype(dtype)

    def popcount(self, a: Array) -> Array:
        if hasattr(np, "bitwise_count"):
            return np.bitwise_count(a).astype(np.int64)
        x = a.astype(np.uint64)
        m1 = np.uint64(0x5555555555555555)
        m2 = np.uint64(0x3333333333333333)
        m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        x = x - ((x >> np.uint64(1)) & m1)
        x = (x & m2) + ((x >> np.uint64(2)) & m2)
        x = (x + (x >> np.uint64(4))) & m4
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


class StrictNamespace(ArrayNamespace):
    """NumPy wrapped behind the audited set — the CPU enforcement stub.

    Results are *bit-identical* to :class:`NumpyNamespace` (every
    primitive delegates), but any attribute outside the audited surface
    raises :class:`AttributeError`, and every call is tallied in
    :attr:`usage` for the CI audit artifact.  Overhead is one Python
    method call per primitive invocation — the perf-smoke gate holds it
    under 1.3x on the whole-sweep benchmarks.
    """

    name = "strict"
    int64 = np.int64
    bool_ = np.bool_
    float64 = np.float64

    def __init__(self) -> None:
        self._np = NumpyNamespace()
        #: per-primitive call tally since construction (or :meth:`reset_usage`)
        self.usage: Dict[str, int] = {}

    def reset_usage(self) -> None:
        self.usage.clear()

    def _tally(self, primitive: str) -> None:
        self.usage[primitive] = self.usage.get(primitive, 0) + 1

    def __getattr__(self, attr: str) -> Any:
        raise AttributeError(
            f"StrictNamespace rejects {attr!r}: not in the audited primitive "
            f"set of the vectorized sweep ({', '.join(AUDITED_PRIMITIVES)})"
        )

    def asarray(self, a: object, dtype: DType = None) -> Array:
        self._tally("asarray")
        return self._np.asarray(a, dtype=dtype)

    def empty(self, n: int, dtype: DType = None) -> Array:
        self._tally("empty")
        return self._np.empty(n, dtype=dtype)

    def zeros(self, n: int, dtype: DType = None) -> Array:
        self._tally("zeros")
        return self._np.zeros(n, dtype=dtype)

    def ones(self, n: int, dtype: DType = None) -> Array:
        self._tally("ones")
        return self._np.ones(n, dtype=dtype)

    def arange(self, n: int, dtype: DType = None) -> Array:
        self._tally("arange")
        return self._np.arange(n, dtype=dtype)

    def repeat(self, a: Array, repeats: Array) -> Array:
        self._tally("repeat")
        return self._np.repeat(a, repeats)

    def concatenate(self, arrays: Sequence[Array]) -> Array:
        self._tally("concatenate")
        return self._np.concatenate(arrays)

    def diff(self, a: Array) -> Array:
        self._tally("diff")
        return self._np.diff(a)

    def cumsum(self, a: Array) -> Array:
        self._tally("cumsum")
        return self._np.cumsum(a)

    def flatnonzero(self, a: Array) -> Array:
        self._tally("flatnonzero")
        return self._np.flatnonzero(a)

    def searchsorted(self, a: Array, v: Array, side: str = "left") -> Array:
        self._tally("searchsorted")
        return self._np.searchsorted(a, v, side=side)

    def lexsort(self, keys: Sequence[Array]) -> Array:
        self._tally("lexsort")
        return self._np.lexsort(keys)

    def add_reduceat(self, a: Array, starts: Array) -> Array:
        self._tally("add_reduceat")
        return self._np.add_reduceat(a, starts)

    def sum(self, a: Array) -> Array:
        self._tally("sum")
        return self._np.sum(a)

    def min(self, a: Array) -> Array:
        self._tally("min")
        return self._np.min(a)

    def max(self, a: Array) -> Array:
        self._tally("max")
        return self._np.max(a)

    def all(self, a: Array) -> bool:
        self._tally("all")
        return self._np.all(a)

    def astype(self, a: Array, dtype: DType) -> Array:
        self._tally("astype")
        return self._np.astype(a, dtype)

    def popcount(self, a: Array) -> Array:
        self._tally("popcount")
        return self._np.popcount(a)


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------

_NUMPY = NumpyNamespace()
_STRICT = StrictNamespace()


def resolve_namespace(spec: Optional[str] = None) -> ArrayNamespace:
    """Map a spec string to an :class:`ArrayNamespace` handle.

    Specs are case-insensitive; anything outside
    :data:`KNOWN_NAMESPACES` raises :class:`ValueError`.  ``None`` means
    the process default (the ``REPRO_ARRAY_NAMESPACE`` environment
    variable, or NumPy).
    """
    if spec is None:
        return default_namespace()
    spec = spec.lower()
    if spec == "numpy":
        return _NUMPY
    if spec == "strict":
        return _STRICT
    raise ValueError(
        f"unknown array namespace {spec!r}; choose from {', '.join(KNOWN_NAMESPACES)}"
    )


def default_namespace() -> ArrayNamespace:
    """The process-wide default: ``REPRO_ARRAY_NAMESPACE`` or NumPy.

    An explicit env value resolves strictly: a typo raises rather than
    silently falling back.
    """
    return resolve_namespace(os.environ.get(NAMESPACE_ENV_VAR, "") or "numpy")


def as_namespace(xp: NamespaceLike) -> ArrayNamespace:
    """Normalize a namespace argument: handle, spec string, or None.

    Non-string, non-None values are returned as-is (duck-typed handle):
    ``python -m repro.counting.xp`` imports this module under two names,
    so an ``isinstance`` check against :class:`ArrayNamespace` would
    wrongly reject the twin module's instances.
    """
    if xp is None:
        return default_namespace()
    if isinstance(xp, str):
        return resolve_namespace(xp)
    return xp


# ----------------------------------------------------------------------
# CLI audit (the backend-matrix CI artifact)
# ----------------------------------------------------------------------

def _demo_usage() -> Dict[str, object]:
    """Solve a demo (graph, query) under the strict stub; report the tally."""
    from ..decomposition.planner import heuristic_plan
    from ..graph.generators import erdos_renyi
    from ..query.library import paper_query
    from .vectorized import solve_plan_vectorized

    strict = StrictNamespace()
    rng = np.random.default_rng(0)
    g = erdos_renyi(400, 0.02, rng, name="xp-audit")
    query = paper_query("youtube")
    colors = np.random.default_rng(1).integers(0, query.k, size=g.n)
    count = solve_plan_vectorized(heuristic_plan(query), g, colors, xp=strict)
    reference = solve_plan_vectorized(heuristic_plan(query), g, colors, xp=_NUMPY)
    unused = sorted(set(AUDITED_PRIMITIVES) - set(strict.usage))
    return {
        "graph": g.name,
        "query": query.name,
        "count": count,
        "matches_numpy": count == reference,
        "primitive_calls": dict(sorted(strict.usage.items())),
        "audited_but_unused": unused,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Print the JSON namespace audit (known specs + strict-run tally)."""
    import json

    doc = {
        "schema": "repro-xp-audit/1",
        "env": {NAMESPACE_ENV_VAR: os.environ.get(NAMESPACE_ENV_VAR, "")},
        "audited_primitives": list(AUDITED_PRIMITIVES),
        "namespaces": list(KNOWN_NAMESPACES),
        "strict_demo": _demo_usage(),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI lane
    raise SystemExit(main())
