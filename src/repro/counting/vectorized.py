"""Vectorized PS kernels — the ``ps-vec`` backend (NumPy, CSR-batched).

The reference kernels in :mod:`repro.counting.kernels` walk one partial
match at a time: a Python loop pops a ``(u, v, sig) -> count`` dict entry,
slices the CSR row of ``v``, and pushes extensions back into another dict.
On the stand-in graphs the interpreter dispatch around those dicts costs
an order of magnitude more than the arithmetic.  This module re-expresses
the same dynamic program as whole-table array operations:

* a path table is four parallel ``int64`` arrays ``(u, v, sig, cnt)``,
  kept lexicographically sorted by ``(u, v, sig)``;
* **EdgeJoin with the data graph** gathers every entry's full CSR
  neighbour slice in one shot (``repeat`` over degrees + one fancy
  index into ``indices``), masks out colour collisions, and re-aggregates
  duplicates with a ``lexsort`` + ``add_reduceat`` segment sum;
* **EdgeJoin/NodeJoin with child tables** and the **cycle merge** are
  sort-merge joins: the child table is already sorted, so per-entry match
  ranges come from two ``searchsorted`` calls and the cross product is
  materialised with the same repeat/gather pattern;
* **leaf projection** and output-table accumulation are the same segment
  sum (this is where ``add.at`` semantics appear — we use the
  sorted-``reduceat`` form because it is deterministic and faster).

Counts use ``int64`` accumulators (the dict kernels use Python bignums).
Guards raise ``OverflowError`` before results can wrap: per-entry counts
entering a product join must stay below ``2^31`` (so products fit in 62
bits), and every aggregation/total is preceded by a float64 whole-table
sum check against ``2^62``.  Within those bounds the results are
**bit-identical** to ``method="ps"`` on the same plan and coloring —
asserted across the whole query library by the parity tests and the
differential matrix.  For tree queries :func:`tree_fits_int64` decides
from the maximum degree alone that no guard can trip; ``method="auto"``
sends the trees that fail it to the exact treelet DP instead.

Only the PS splitting strategy is vectorized: PS never records interior
boundary nodes, so its tables stay rectangular ``(u, v, sig)`` arrays.
The DB pruning variant keys entries by variable-length ``extras`` tuples
and stays on the dict kernels.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..decomposition.blocks import CYCLE, LEAF, SINGLETON, Block
from ..decomposition.planner import heuristic_plan
from ..decomposition.tree import Plan
from ..graph.graph import Graph
from ..query.query import QueryGraph
from .labels import label_masks
# the cycle-walk order must stay in lockstep with the dict solver for the
# ps/ps-vec bit-identical invariant to hold — share one implementation
from .solver import _ccw_labels, _cw_labels

__all__ = [
    "VecUnaryTable",
    "VecBinaryTable",
    "VecPathTable",
    "VectorizedSolver",
    "solve_plan_vectorized",
    "count_colorful_ps_vec",
    "MAX_COLORS_VEC",
    "tree_fits_int64",
]

Node = Hashable

#: signatures are bit sets inside one int64 ⇒ at most 62 colors
MAX_COLORS_VEC = 62

#: per-entry counts entering a product join must stay below this, so
#: every pairwise product fits in 62 bits
_ENTRY_LIMIT = 1 << 31

#: any table whose total count stays below this cannot wrap an int64
#: segment sum; measured in float64 so the check itself cannot overflow
_SUM_LIMIT = float(2**62)


def _popcount(a: np.ndarray) -> np.ndarray:
    """Per-element population count of an int64 array (values >= 0).

    NumPy >= 2 has ``bitwise_count``; older NumPy takes the SWAR
    bit-twiddling fallback, which yields the same counts.
    """
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


def _group_sum(
    cols: Sequence[np.ndarray], cnt: np.ndarray
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Aggregate duplicate keys: lexsort by ``cols`` then segment-sum ``cnt``.

    Returns the unique key columns (sorted ascending, first column most
    significant) and the per-key count sums — the array analogue of the
    dict kernels' ``table.add`` accumulation.
    """
    if len(cnt) == 0:
        return [c[:0] for c in cols], cnt[:0]
    # conservative overflow check: the whole-table float64 total bounds
    # every segment sum, so staying under 2^62 rules out int64 wrap
    if float(np.sum(cnt.astype(np.float64))) > _SUM_LIMIT:
        raise OverflowError(
            "ps-vec table aggregation would exceed int64; rerun with the "
            "arbitrary-precision 'ps' backend"
        )
    order = np.lexsort(tuple(reversed(cols)))
    cols = [c[order] for c in cols]
    cnt = cnt[order]
    boundary = np.zeros(len(cnt), dtype=np.bool_)
    boundary[0] = True
    for c in cols:
        boundary[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(boundary)
    return [c[starts] for c in cols], np.add.reduceat(cnt, starts)


def _expand(starts: np.ndarray, lens: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-entry ranges ``[starts, starts+lens)`` into gather indices.

    Returns ``(rep, pos)``: ``rep[i]`` is the source entry of flat slot
    ``i`` and ``pos[i]`` the absolute position inside the indexed array.
    """
    total = int(np.sum(lens)) if len(lens) else 0
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rep = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    offsets = np.cumsum(lens) - lens
    pos = np.arange(total, dtype=np.int64) - offsets[rep] + starts[rep]
    return rep, pos


def _check_counts(cnt: np.ndarray) -> None:
    """Refuse int64 ranges where a pairwise product could overflow.

    Counts are non-negative by construction (tables seed at 1 and only
    sum/multiply under these guards), so the max bounds the magnitude.
    """
    if len(cnt) and int(np.max(cnt)) >= _ENTRY_LIMIT:
        raise OverflowError(
            "ps-vec count tables exceeded 2^31 per entry; rerun with the "
            "arbitrary-precision 'ps' backend"
        )


def tree_fits_int64(g: Graph, k: int) -> bool:
    """Whether no guard above can trip on any ``k``-node tree query in ``g``.

    With ``Δ`` the maximum degree, a table entry counts colorful
    embeddings of a connected sub-query with one image fixed, so it is at
    most ``Δ^(k-1)``; a row sum before aggregation counts embeddings of a
    connected sub-query, so it is at most ``n·Δ^(k-1)``.  Both are
    checked in Python ints against the guards' own limits.  The argument
    holds for any connected query; ``method="auto"`` applies it to trees
    only, the one shape with an exact fallback (the treelet DP) fast
    enough to route to.
    """
    walks = g.max_degree() ** (k - 1)
    return walks < _ENTRY_LIMIT and g.n * walks <= _SUM_LIMIT


def _checked_total(cnt: np.ndarray) -> int:
    """Sum counts, refusing totals that could wrap an int64 accumulator."""
    if len(cnt) and float(np.sum(cnt.astype(np.float64))) > _SUM_LIMIT:
        raise OverflowError(
            "ps-vec total count would exceed int64; rerun with the "
            "arbitrary-precision 'ps' backend"
        )
    return int(np.sum(cnt)) if len(cnt) else 0


class VecUnaryTable:
    """Array form of :class:`repro.tables.projection.UnaryTable`.

    ``cnt[i]`` colorful matches project to boundary image ``u[i]`` with
    signature ``sig[i]``; rows are unique and sorted by ``(u, sig)``.
    """

    __slots__ = ("boundary", "u", "sig", "cnt")

    def __init__(
        self, boundary: Node, u: np.ndarray, sig: np.ndarray, cnt: np.ndarray
    ) -> None:
        self.boundary = boundary
        self.u, self.sig, self.cnt = u, sig, cnt

    def total(self) -> int:
        return _checked_total(self.cnt)

    def __len__(self) -> int:
        return len(self.cnt)


class VecBinaryTable:
    """Array form of :class:`repro.tables.projection.BinaryTable`.

    Rows are unique and sorted by ``(u, v, sig)`` so joins on ``u`` (or on
    the ``(u, v)`` pair) reduce to ``searchsorted`` range lookups.
    """

    __slots__ = ("boundary", "u", "v", "sig", "cnt")

    def __init__(
        self,
        boundary: Tuple[Node, Node],
        u: np.ndarray,
        v: np.ndarray,
        sig: np.ndarray,
        cnt: np.ndarray,
    ) -> None:
        self.boundary = boundary
        self.u, self.v, self.sig, self.cnt = u, v, sig, cnt

    def transpose(self) -> "VecBinaryTable":
        (u, v, sig), cnt = _group_sum((self.v, self.u, self.sig), self.cnt)
        return VecBinaryTable((self.boundary[1], self.boundary[0]), u, v, sig, cnt)

    def total(self) -> int:
        return int(np.sum(self.cnt)) if len(self.cnt) else 0

    def __len__(self) -> int:
        return len(self.cnt)


class VecPathTable:
    """Working path table: parallel ``(u, v, sig, cnt)`` arrays.

    ``u`` is the path's start image, ``v`` its current end image.  PS
    records no interior nodes, so no ``extras`` columns exist.
    """

    __slots__ = ("u", "v", "sig", "cnt")

    def __init__(self, u: np.ndarray, v: np.ndarray, sig: np.ndarray, cnt: np.ndarray) -> None:
        self.u, self.v, self.sig, self.cnt = u, v, sig, cnt

    def __len__(self) -> int:
        return len(self.cnt)


# ----------------------------------------------------------------------
# plan solver (array analogue of repro.counting.solver.BlockSolver, PS only)
# ----------------------------------------------------------------------

class VectorizedSolver:
    """Bottom-up PS plan solver over array tables (one pass per block).

    ``start_mask`` restricts every path sweep to rows whose *start* image
    lies in the mask.  Extensions and node joins never change a row's
    start vertex and the cycle merge joins rows sharing their start, so a
    masked solve produces exactly the rows of the unmasked solve whose
    key vertex is owned by the mask — the shard invariant the ``ps-dist``
    executor builds on.  Child tables must then cover *all* vertices:
    :meth:`inject` installs externally combined (full) child results.

    All inputs — CSR arrays, the coloring, shard and label masks — are
    converted to int64/bool arrays here, once per solver.
    """

    def __init__(
        self,
        g: Graph,
        colors: np.ndarray,
        k: int,
        start_mask: Optional[np.ndarray] = None,
        vertex_ok: Optional[Dict[Node, np.ndarray]] = None,
    ) -> None:
        self.g = g
        indptr, indices = g.to_csr()
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._degrees = np.asarray(g.degrees, dtype=np.int64)
        self.colors = np.asarray(colors, dtype=np.int64)
        self.k = k
        self.start_mask = (
            np.asarray(start_mask, dtype=np.bool_) if start_mask is not None else None
        )
        #: label-compatibility masks for labeled queries (empty = unlabeled)
        self.vertex_ok = {
            node: np.asarray(mask, dtype=np.bool_)
            for node, mask in (vertex_ok or {}).items()
        }
        #: per-color signature bits, indexed by data vertex color
        self.bit = 1 << self.colors
        self._solved: Dict[int, object] = {}
        self._tcache: Dict[int, VecBinaryTable] = {}
        self._retired: List[object] = []

    def _empty_path(self) -> VecPathTable:
        empty = np.empty(0, dtype=np.int64)
        return VecPathTable(empty, empty, empty, empty)

    def inject(self, block: Block, result: object) -> None:
        """Install (or overwrite) the solved table for ``block``.

        Used by the sharded executor: after the per-rank shards of a
        child block are combined into the full table, every rank injects
        the combined table so parent joins see all vertices, not just
        the rank's own shard.
        """
        old = self._solved.get(id(block))
        if old is not None:
            # pin the replaced table: _tcache keys transposes by id(), so
            # letting it be collected could recycle an id onto a new table
            self._retired.append(old)
        self._solved[id(block)] = result

    # ------------------------------------------------------------------
    # kernels (array analogues of repro.counting.kernels)
    # ------------------------------------------------------------------

    def _init_from_graph(
        self,
        ok_u: Optional[np.ndarray] = None,
        ok_v: Optional[np.ndarray] = None,
    ) -> VecPathTable:
        """Seed cnt(u, v, {χu, χv}) = 1 from every directed edge, batched.

        The repeat/gather over ``indptr`` emits all directed edges at
        once; rows arrive already sorted by ``(u, v)`` because CSR slices
        are sorted.  With ``start_mask`` only edges whose start vertex is
        in the mask are seeded — the shard-restricted sweep used by the
        ``ps-dist`` executor.  ``ok_u``/``ok_v`` are the label-
        compatibility masks of the path's first two query nodes.
        """
        colors, bit = self.colors, self.bit
        u = np.repeat(np.arange(self.g.n, dtype=np.int64), self._degrees)
        keep = colors[u] != colors[self._indices]
        if self.start_mask is not None:
            keep &= self.start_mask[u]
        if ok_u is not None:
            keep &= ok_u[u]
        if ok_v is not None:
            keep &= ok_v[self._indices]
        u, v = u[keep], self._indices[keep]
        return VecPathTable(u, v, bit[u] | bit[v], np.ones(len(u), dtype=np.int64))

    def _init_from_child(self, child: VecBinaryTable) -> VecPathTable:
        """Seed from an annotated edge's child projection table (copy-free)."""
        if self.start_mask is None:
            return VecPathTable(child.u, child.v, child.sig, child.cnt)
        keep = self.start_mask[child.u]
        return VecPathTable(child.u[keep], child.v[keep], child.sig[keep], child.cnt[keep])

    def _extend_with_graph(
        self, t: VecPathTable, ok_w: Optional[np.ndarray] = None
    ) -> VecPathTable:
        """EdgeJoin with the data graph: extend every path by every neighbour
        of its end vertex whose color is unused, in one batched gather.
        ``ok_w`` masks the new vertex by label compatibility."""
        if len(t) == 0:
            return self._empty_path()
        colors, bit = self.colors, self.bit
        rep, pos = _expand(self._indptr[t.v], self._degrees[t.v])
        w = self._indices[pos]
        sig = t.sig[rep]
        keep = ((sig >> colors[w]) & 1) == 0
        if ok_w is not None:
            keep &= ok_w[w]
        rep, w, sig = rep[keep], w[keep], sig[keep]
        (u, v, sig), cnt = _group_sum((t.u[rep], w, sig | bit[w]), t.cnt[rep])
        return VecPathTable(u, v, sig, cnt)

    def _extend_with_child(self, t: VecPathTable, child: VecBinaryTable) -> VecPathTable:
        """EdgeJoin with a child table: sort-merge join on the path end vertex.

        Signatures must intersect exactly in the shared vertex's color
        (``sig & sig2 == 1 << χv``) — the colorful-join discipline.
        """
        if len(t) == 0 or len(child) == 0:
            return self._empty_path()
        bit = self.bit
        lo = np.searchsorted(child.u, t.v, side="left")
        hi = np.searchsorted(child.u, t.v, side="right")
        rep, pos = _expand(lo, hi - lo)
        sig1, sig2 = t.sig[rep], child.sig[pos]
        keep = (sig1 & sig2) == bit[t.v[rep]]
        rep, pos, sig1, sig2 = rep[keep], pos[keep], sig1[keep], sig2[keep]
        _check_counts(t.cnt)
        _check_counts(child.cnt)
        (u, v, sig), cnt = _group_sum(
            (t.u[rep], child.v[pos], sig1 | sig2), t.cnt[rep] * child.cnt[pos]
        )
        return VecPathTable(u, v, sig, cnt)

    def _node_join(
        self, t: VecPathTable, child: VecUnaryTable, on_start: bool
    ) -> VecPathTable:
        """NodeJoin: fold a unary child annotating the path's start or end."""
        if len(t) == 0 or len(child) == 0:
            return self._empty_path()
        bit = self.bit
        x = t.u if on_start else t.v
        lo = np.searchsorted(child.u, x, side="left")
        hi = np.searchsorted(child.u, x, side="right")
        rep, pos = _expand(lo, hi - lo)
        sig1, sig2 = t.sig[rep], child.sig[pos]
        keep = (sig1 & sig2) == bit[x[rep]]
        rep, pos, sig1, sig2 = rep[keep], pos[keep], sig1[keep], sig2[keep]
        _check_counts(t.cnt)
        _check_counts(child.cnt)
        (u, v, sig), cnt = _group_sum(
            (t.u[rep], t.v[rep], sig1 | sig2), t.cnt[rep] * child.cnt[pos]
        )
        return VecPathTable(u, v, sig, cnt)

    def _merge_paths(
        self, tplus: VecPathTable, tminus: VecPathTable
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cycle merge: join the two path tables on their shared endpoints.

        Both tables run start→end, so the join key is the ``(u, v)``
        pair, encoded as ``u*n + v`` to make it one monotone
        ``searchsorted`` axis.  Returns the raw matched rows
        ``(u, v, sig1|sig2, cnt1*cnt2)`` — the caller aggregates
        according to the block's boundary arity.
        """
        bit, n = self.bit, self.g.n
        if len(tplus) == 0 or len(tminus) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty
        key_minus = tminus.u * n + tminus.v
        key_plus = tplus.u * n + tplus.v
        lo = np.searchsorted(key_minus, key_plus, side="left")
        hi = np.searchsorted(key_minus, key_plus, side="right")
        rep, pos = _expand(lo, hi - lo)
        sig1, sig2 = tplus.sig[rep], tminus.sig[pos]
        u, v = tplus.u[rep], tplus.v[rep]
        keep = (sig1 & sig2) == (bit[u] | bit[v])
        rep, pos, u, v = rep[keep], pos[keep], u[keep], v[keep]
        _check_counts(tplus.cnt)
        _check_counts(tminus.cnt)
        return u, v, sig1[keep] | sig2[keep], tplus.cnt[rep] * tminus.cnt[pos]

    # ------------------------------------------------------------------
    def solve(self, block: Block) -> object:
        key = id(block)
        if key not in self._solved:
            # one coarse span per DP stage — obs.span is a shared no-op
            # unless a trace is actively collected, so the perf-gated
            # sweep pays two global reads here and nothing else
            with obs.span(f"sweep.{block.kind}", boundary=len(block.boundary)):
                if block.kind == LEAF:
                    result = self._solve_leaf(block)
                elif block.kind == CYCLE:
                    result = self._solve_cycle(block)
                else:  # pragma: no cover - singletons handled by solve_plan_vectorized
                    raise ValueError(
                        "singleton blocks are roots, not solvable tables"
                    )
            self._solved[key] = result
        return self._solved[key]

    def _child_tables(self, block: Block) -> Tuple[Dict[Node, object], Dict[int, object]]:
        node_tables = {lab: self.solve(child) for lab, child in block.node_ann.items()}
        edge_tables = {i: self.solve(child) for i, child in block.edge_ann.items()}
        return node_tables, edge_tables

    def _oriented(self, table: VecBinaryTable, first: Node, second: Node) -> VecBinaryTable:
        if table.boundary == (first, second):
            return table
        if table.boundary == (second, first):
            key = id(table)
            if key not in self._tcache:
                self._tcache[key] = table.transpose()
            return self._tcache[key]
        raise ValueError(
            f"table boundary {table.boundary!r} does not match edge ({first!r}, {second!r})"
        )

    # ------------------------------------------------------------------
    def _build_path(
        self,
        path_labels: Sequence[Node],
        node_tables: Dict[Node, VecUnaryTable],
        edge_tables: Dict[int, VecBinaryTable],
    ) -> VecPathTable:
        """np.ndarray analogue of ``build_path_table`` (PS: no pruning/extras)."""
        vertex_ok = self.vertex_ok
        child0 = edge_tables.get(0)
        if child0 is None:
            t = self._init_from_graph(
                ok_u=vertex_ok.get(path_labels[0]),
                ok_v=vertex_ok.get(path_labels[1]),
            )
        else:
            t = self._init_from_child(child0)
        if path_labels[0] in node_tables:
            t = self._node_join(t, node_tables[path_labels[0]], True)
        if path_labels[1] in node_tables:
            t = self._node_join(t, node_tables[path_labels[1]], False)
        for j in range(1, len(path_labels) - 1):
            child = edge_tables.get(j)
            if child is None:
                t = self._extend_with_graph(t, ok_w=vertex_ok.get(path_labels[j + 1]))
            else:
                t = self._extend_with_child(t, child)
            nxt = path_labels[j + 1]
            if nxt in node_tables:
                t = self._node_join(t, node_tables[nxt], False)
        return t

    def _solve_leaf(self, block: Block) -> VecUnaryTable:
        a, b = block.nodes
        node_tables, edge_children = self._child_tables(block)
        edge_tables: Dict[int, VecBinaryTable] = {}
        if 0 in edge_children:
            edge_tables[0] = self._oriented(edge_children[0], a, b)
        pt = self._build_path((a, b), node_tables, edge_tables)
        (u, sig), cnt = _group_sum((pt.u, pt.sig), pt.cnt)
        return VecUnaryTable(a, u, sig, cnt)

    def _solve_cycle(self, block: Block) -> object:
        nodes = block.nodes
        L = len(nodes)
        boundary = block.boundary
        nb = len(boundary)
        node_tables, edge_children = self._child_tables(block)

        # PS split: at the boundary nodes, or an arbitrary diagonal
        if nb == 2:
            s_idx = nodes.index(boundary[0])
            e_idx = nodes.index(boundary[1])
        elif nb == 1:
            s_idx = nodes.index(boundary[0])
            e_idx = (s_idx + L // 2) % L
        else:
            s_idx, e_idx = 0, L // 2

        plus_labels = _cw_labels(nodes, s_idx, e_idx)
        minus_labels = _ccw_labels(nodes, s_idx, e_idx)

        # endpoint annotation convention mirrors BlockSolver: P+ takes the
        # end node's annotation, P- the start node's
        plus_nodes = {
            lab: node_tables[lab] for lab in plus_labels[1:] if lab in node_tables
        }
        minus_nodes = {
            lab: node_tables[lab] for lab in minus_labels[:-1] if lab in node_tables
        }
        plus_edges: Dict[int, VecBinaryTable] = {}
        for j in range(len(plus_labels) - 1):
            idx = (s_idx + j) % L
            if idx in edge_children:
                plus_edges[j] = self._oriented(
                    edge_children[idx], plus_labels[j], plus_labels[j + 1]
                )
        minus_edges: Dict[int, VecBinaryTable] = {}
        for j in range(len(minus_labels) - 1):
            idx = (s_idx - j - 1) % L
            if idx in edge_children:
                minus_edges[j] = self._oriented(
                    edge_children[idx], minus_labels[j], minus_labels[j + 1]
                )

        tplus = self._build_path(plus_labels, plus_nodes, plus_edges)
        tminus = self._build_path(minus_labels, minus_nodes, minus_edges)
        u, v, sig, cnt = self._merge_paths(tplus, tminus)

        if nb == 0:
            assert len(cnt) == 0 or np.all(
                _popcount(sig) == self.k
            ), "root signature size != k"
            return _checked_total(cnt)
        s_label, e_label = nodes[s_idx], nodes[e_idx]
        if nb == 1:
            img = u if boundary[0] == s_label else v
            (bu, bsig), bcnt = _group_sum((img, sig), cnt)
            return VecUnaryTable(boundary[0], bu, bsig, bcnt)
        images = tuple(u if lab == s_label else v for lab in boundary)
        (bu, bv, bsig), bcnt = _group_sum((images[0], images[1], sig), cnt)
        return VecBinaryTable((boundary[0], boundary[1]), bu, bv, bsig, bcnt)


def solve_plan_vectorized(
    plan: Plan,
    g: Graph,
    colors: np.ndarray,
    num_colors: Optional[int] = None,
) -> int:
    """Number of colorful matches of ``plan.query`` in ``g`` under ``colors``.

    Semantics match :func:`repro.counting.solver.solve_plan` with
    ``method="ps"`` exactly (bit-identical counts); only the execution
    strategy differs.  No per-rank load attribution is available — use
    the dict kernels for simulated-rank experiments.
    """
    colors = np.asarray(colors, dtype=np.int64)
    k = plan.query.k
    kc = num_colors if num_colors is not None else k
    if kc < k:
        raise ValueError(f"need at least k={k} colors, got num_colors={kc}")
    if kc > MAX_COLORS_VEC:
        raise ValueError(f"ps-vec packs signatures in int64; num_colors <= {MAX_COLORS_VEC}")
    if len(colors) != g.n:
        raise ValueError("coloring must assign a color to every data vertex")
    if k > 0 and len(colors) and (int(np.min(colors)) < 0 or int(np.max(colors)) >= kc):
        raise ValueError(f"colors must lie in [0, {kc})")
    vertex_ok = label_masks(g, plan.query)

    root = plan.root
    if root.kind == SINGLETON:
        if root.node_ann:
            solver = VectorizedSolver(g, colors, k, vertex_ok=vertex_ok)
            (child,) = root.node_ann.values()
            return solver.solve(child).total()
        if vertex_ok:
            (mask,) = vertex_ok.values()
            return int(mask.sum())
        return g.n

    solver = VectorizedSolver(g, colors, k, vertex_ok=vertex_ok)
    result = solver.solve(root)
    assert isinstance(result, int), "root cycle must produce a scalar"
    return result


def count_colorful_ps_vec(
    g: Graph,
    query: QueryGraph,
    colors: Sequence[int],
    plan: Optional[Plan] = None,
    num_colors: Optional[int] = None,
) -> int:
    """Colorful matches of ``query`` in ``g`` via the vectorized PS kernels."""
    plan = plan if plan is not None else heuristic_plan(query)
    return solve_plan_vectorized(plan, g, colors, num_colors=num_colors)
