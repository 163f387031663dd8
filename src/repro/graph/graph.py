"""Compressed-sparse-row data graph.

The data graph is the large input graph ``G`` of the subgraph counting
problem.  It is undirected and simple.  We store it in CSR form backed by
numpy arrays so that neighbourhood iteration inside the join kernels is a
contiguous slice (cache friendly, vectorizable) rather than a Python-level
adjacency-list walk.

Vertices are integers ``0..n-1``.  The *degree ordering* of the paper
(Section 5.1, "Degree Based Algorithm") is exposed through
:meth:`Graph.degree_order_rank`: vertex ``u`` is *higher* than ``v``
(written ``u ≻ v``) iff ``rank[u] > rank[v]`` where vertices are sorted by
``(degree, vertex id)`` ascending.  Ties are broken by vertex id, which
matches the paper's "arbitrary tie breaking, say by placing the vertex
having the least id first".
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["CSR", "Graph"]


class CSR(NamedTuple):
    """Compressed-sparse-row adjacency: ``indices[indptr[u]:indptr[u+1]]``
    is the sorted neighbour list of vertex ``u``.

    This is the exchange format between :class:`Graph` and the vectorized
    counting kernels (:mod:`repro.counting.vectorized`): both arrays are
    ``int64``, every edge appears in both directions, and each slice is
    sorted ascending so joins can binary-search and batch-gather.
    """

    indptr: np.ndarray
    indices: np.ndarray


class Graph:
    """An undirected simple graph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n``.  Self loops
        and duplicate edges are rejected (the paper's data graphs are
        simple).
    """

    __slots__ = ("n", "m", "indptr", "indices", "degrees", "labels", "_order_rank", "name")

    def __init__(
        self,
        n: int,
        edges: Iterable[Tuple[int, int]],
        name: str = "",
        labels: Optional[Iterable[int]] = None,
    ) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edge_list = self._validate_edges(n, edges)
        self.n = int(n)
        self.m = len(edge_list)
        self.name = name
        self.indptr, self.indices = self._build_csr(n, edge_list)
        self.degrees = np.diff(self.indptr).astype(np.int64)
        self.labels = self._validate_labels(self.n, labels)
        self._order_rank: Optional[np.ndarray] = None

    @staticmethod
    def _validate_labels(n: int, labels: Optional[Iterable[int]]) -> Optional[np.ndarray]:
        """Canonicalise an optional vertex-label array to non-negative int64."""
        if labels is None:
            return None
        # input validation must see the caller's own dtype (a float array
        # with fractional labels has to be rejected, not silently cast)
        arr = np.asarray(labels)  # repro: allow[RP002]
        if arr.shape != (n,):
            raise ValueError(f"labels must be one integer per vertex ({n}), got shape {arr.shape}")
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == arr.astype(np.int64)):
                raise ValueError("vertex labels must be integers")
        arr = arr.astype(np.int64, copy=True)
        if arr.size and arr.min() < 0:
            raise ValueError("vertex labels must be non-negative")
        return arr

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _validate_edges(n: int, edges: Iterable[Tuple[int, int]]) -> np.ndarray:
        """Canonicalise to an ``(m, 2)`` array with ``u < v`` rows.

        Validation is array-at-a-time: range/self-loop/duplicate checks are
        numpy reductions, with the first offending edge reported exactly
        like the historical per-edge loop did.
        """
        # dtype-free on purpose: shape/range validation below must inspect
        # the edges as the caller provided them before the int64 cast
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)  # repro: allow[RP002]
        if arr.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {arr.shape}")
        arr = arr.astype(np.int64, copy=False)
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            u = int(arr[int(np.argmax(loops)), 0])
            raise ValueError(f"self loop on vertex {u} is not allowed")
        bad = (arr < 0) | (arr >= n)
        if bad.any():
            u, v = (int(x) for x in arr[int(np.argmax(bad.any(axis=1)))])
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        key = lo * np.int64(n) + hi
        _, first, counts = np.unique(key, return_index=True, return_counts=True)
        if (counts > 1).any():
            # report the duplicate edge at its earliest repeated position,
            # in the orientation it was given
            dup_keys = np.flatnonzero(np.isin(key, key[first[counts > 1]]))
            seen: set = set()
            for i in dup_keys:
                k = int(key[i])
                if k in seen:
                    u, v = int(arr[i, 0]), int(arr[i, 1])
                    raise ValueError(f"duplicate edge ({u},{v})")
                seen.add(k)
        return np.column_stack((lo, hi))

    @staticmethod
    def _build_csr(n: int, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src = np.concatenate((edges[:, 0], edges[:, 1]))
        dst = np.concatenate((edges[:, 1], edges[:, 0]))
        deg = np.bincount(src, minlength=n).astype(np.int64) if n else np.zeros(0, np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        # One lexsort orders the directed edge list by (src, dst), which
        # lays every adjacency slice out sorted — no per-vertex Python loop.
        order = np.lexsort((dst, src))
        indices = dst[order]
        return indptr, indices

    @classmethod
    def from_edge_array(cls, n: int, edge_array: np.ndarray, name: str = "") -> "Graph":
        """Build from an ``(m, 2)`` integer array (convenience for generators)."""
        return cls(n, np.asarray(edge_array, dtype=np.int64).reshape(-1, 2), name=name)

    @classmethod
    def from_csr(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        name: str = "",
        labels: Optional[Iterable[int]] = None,
    ) -> "Graph":
        """Rebuild a graph from a :class:`CSR` pair (``Graph ↔ CSR`` round trip).

        The input must describe a simple undirected graph: every edge in
        both directions, no self loops, sorted slices.  Anything else —
        asymmetric adjacency, duplicates inside a slice, loops — raises
        ``ValueError``.  ``labels`` restores the optional per-vertex label
        array, completing the labeled-graph round trip.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        n = len(indptr) - 1
        if n < 0 or indptr[0] != 0 or (np.diff(indptr) < 0).any() or indptr[-1] != len(indices):
            raise ValueError("malformed CSR indptr")
        u = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        keep = u < indices
        g = cls(n, np.column_stack((u[keep], indices[keep])), name=name, labels=labels)
        if not (np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)):
            raise ValueError("CSR is not a valid simple undirected adjacency")
        return g

    @classmethod
    def wrap_csr(
        cls, indptr: np.ndarray, indices: np.ndarray,
        labels: Optional[np.ndarray] = None, name: str = "",
    ) -> "Graph":
        """A graph over CSR (and label) arrays that came out of a
        :class:`Graph` — no validation, no copy; untrusted input goes
        through :meth:`from_csr`."""
        g = object.__new__(cls)
        g.n, g.m, g.name = len(indptr) - 1, len(indices) // 2, name
        g.indptr, g.indices, g.degrees = indptr, indices, np.diff(indptr)
        g.labels, g._order_rank = labels, None
        return g

    def with_labels(self, labels: Optional[Iterable[int]]) -> "Graph":
        """A copy of this graph carrying ``labels`` (``None`` clears them).

        The CSR arrays (and the cached degree order) are shared with the
        original — labels never force an adjacency rebuild.
        """
        g = Graph.wrap_csr(
            self.indptr, self.indices, self._validate_labels(self.n, labels), self.name
        )
        g._order_rank = self._order_rank
        return g

    @property
    def labeled(self) -> bool:
        """Whether this graph carries a per-vertex label array."""
        return self.labels is not None

    def num_labels(self) -> int:
        """Size of the label alphabet (``max label + 1``; 0 when unlabeled)."""
        if self.labels is None or self.labels.size == 0:
            return 0
        return int(self.labels.max()) + 1

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def to_csr(self) -> CSR:
        """The graph's cached CSR adjacency as a :class:`CSR` pair.

        The arrays are the graph's own backing storage (built once in the
        constructor, never copied) — treat them as read-only.
        """
        return CSR(self.indptr, self.indices)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbour array of ``u`` (a view, do not mutate)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < len(nbrs) and nbrs[i] == v)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v`` rows."""
        u = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = u < self.indices
        return np.column_stack((u[keep], self.indices[keep]))

    # ------------------------------------------------------------------
    # degree ordering (paper Section 5.1)
    # ------------------------------------------------------------------
    def degree_order_rank(self) -> np.ndarray:
        """Position of each vertex in the ``(degree, id)`` total order.

        ``rank[u] > rank[v]`` means ``u ≻ v`` ("u is higher than v").  The
        array is computed once and cached.
        """
        if self._order_rank is None:
            order = np.lexsort((np.arange(self.n, dtype=np.int64), self.degrees))
            rank = np.empty(self.n, dtype=np.int64)
            rank[order] = np.arange(self.n, dtype=np.int64)
            self._order_rank = rank
        return self._order_rank

    def is_higher(self, u: int, v: int) -> bool:
        """``u ≻ v`` in the degree-based total order."""
        rank = self.degree_order_rank()
        return bool(rank[u] > rank[v])

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------
    def avg_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def degree_skew(self) -> float:
        """Max degree over average degree — the paper's informal skew proxy."""
        avg = self.avg_degree()
        return self.max_degree() / avg if avg > 0 else 0.0

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"Graph{label}(n={self.n}, m={self.m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if (self.labels is None) != (other.labels is None):
            return False
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and (self.labels is None or np.array_equal(self.labels, other.labels))
        )

    def __hash__(self) -> int:  # graphs are mutable-free; hash by identity data
        label_part = self.labels.tobytes() if self.labels is not None else b""
        return hash((self.n, self.m, self.indices.tobytes(), label_part))
