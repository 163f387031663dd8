"""Vectorized PS kernels — the ``ps-vec`` backend (NumPy, CSR-batched).

The reference kernels in :mod:`repro.counting.kernels` walk one partial
match at a time: a Python loop pops a ``(u, v, sig) -> count`` dict entry,
slices the CSR row of ``v``, and pushes extensions back into another dict.
On the stand-in graphs the interpreter dispatch around those dicts costs
an order of magnitude more than the arithmetic.  This module re-expresses
the same dynamic program as whole-table array operations:

* a path table is four parallel arrays ``(u, v, sig, cnt)``, kept
  lexicographically sorted by ``(u, v, sig)``;
* **EdgeJoin with the data graph** gathers every entry's full CSR
  neighbour slice in one shot (``repeat`` over degrees + one fancy
  index into ``indices``), masks out colour collisions, and re-aggregates
  duplicates with a segment sum: the key columns pack into one ``int64``,
  one ``argsort`` orders it and ``add.reduceat`` sums each run of equal
  keys (:func:`_group_sum`; keys wider than 63 bits take a ``lexsort``);
* **EdgeJoin/NodeJoin with child tables** and the **cycle merge** are
  sort-merge joins: the child table is already sorted, so per-entry match
  ranges come from two ``searchsorted`` calls and the cross product is
  materialised with the same repeat/gather pattern;
* **leaf projection** and output-table accumulation are the same segment
  sum (this is where ``add.at`` semantics appear — we use the
  sorted-``reduceat`` form because it is deterministic and faster).

Each block compiles once into a *step program* (:func:`compile_block`):
the kernel calls above as a list of steps, each naming its inputs
(earlier steps, child blocks) and the query nodes whose label masks it
applies.  Equal steps over equal inputs appear once, so P+ and P- share
every equal prefix (an unlabeled cycle's two halves are often one path),
and each table is dropped after its last read.  The program is kept on
the block; :class:`VectorizedSolver` interprets it.

Memory is bounded by chunking every gather.  Each kernel keeps the
path's start vertex ``u`` as its leading output key, so a join's input
rows (sorted by ``u``) are cut where ``u`` changes into ranges that each
expand to at most :data:`_CHUNK_ROWS` rows, and the per-range outputs
concatenate into the sorted, unique table with no second aggregation.  A
0-boundary root cycle sums per-range totals instead.

Counts are exact.  The key columns are always ``int64``; the count
column is ``int64`` first, guarded so it cannot wrap: per-entry counts
entering a product join must stay below ``2^31`` (so products fit in 62
bits), and every aggregation/total is preceded by a float64 sum check
against ``2^62``.  When a guard trips, :func:`solve_plan_vectorized` (and
the ``ps-dist`` executor) rerun the trial with ``exact=True``: the count
column becomes a NumPy object array of Python ints and the guards are
skipped.  Either way the results are **bit-identical** to ``method="ps"``
on the same plan and coloring — asserted across the whole query library
by the parity tests and the differential matrix.

Only the PS splitting strategy is vectorized: PS never records interior
boundary nodes, so its tables stay rectangular ``(u, v, sig)`` arrays.
The DB pruning variant keys entries by variable-length ``extras`` tuples
and stays on the dict kernels.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .. import obs
from ..decomposition.blocks import CYCLE, LEAF, SINGLETON, Block
from ..decomposition.planner import heuristic_plan
from ..decomposition.tree import Plan
from ..graph.graph import Graph
from ..query.query import QueryGraph
from .colorings import MAX_COLORS_VEC, trial_input
# the cycle-walk order must stay in lockstep with the dict solver for the
# ps/ps-vec bit-identical invariant to hold — share one implementation
from .solver import _ccw_labels, _cw_labels

__all__ = [
    "VecUnaryTable",
    "VecBinaryTable",
    "VecPathTable",
    "VectorizedSolver",
    "compile_block",
    "sweep_plan",
    "solve_plan_vectorized",
    "count_colorful_ps_vec",
    "MAX_COLORS_VEC",
]

Node = Hashable

#: per-entry counts entering a product join must stay below this, so
#: every pairwise product fits in 62 bits
_ENTRY_LIMIT = 1 << 31

#: any table whose total count stays below this cannot wrap an int64
#: segment sum; measured in float64 so the check itself cannot overflow
_SUM_LIMIT = float(2**62)

#: widest key :func:`_group_sum` packs into one int64 (wider keys take a
#: ``lexsort``)
_KEY_BITS = 63

#: rows one gather may expand to: joins cut their input into start-vertex
#: ranges under this budget (one start vertex that alone expands past it
#: still runs as one range)
_CHUNK_ROWS = 1 << 18


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
    """Aggregate duplicate keys: sort by ``cols`` then segment-sum ``cnt``.

    Returns the unique key columns (sorted ascending, first column most
    significant) and the per-key count sums — the array analogue of the
    dict kernels' ``table.add`` accumulation.

    Each column is offset by its minimum and takes the bits of its span.
    When the spans fit :data:`_KEY_BITS` together, the columns pack into
    one ``int64`` key (first column in the high bits), so one ``argsort``
    orders the rows, one ``!=`` over the sorted key finds the segments,
    and only the unique keys are unpacked.  Wider keys take a ``lexsort``.
    The sort need not be stable: equal keys are summed, and neither the
    guarded ``int64`` sums nor Python-int sums depend on their order.
    """
    if len(cnt) == 0:
        return [c[:0] for c in cols], cnt[:0]
    # conservative overflow check: the whole-table float64 total bounds
    # every segment sum, so staying under 2^62 rules out int64 wrap
    # (object columns hold Python ints and cannot wrap)
    if cnt.dtype != object and float(np.sum(cnt.astype(np.float64))) > _SUM_LIMIT:
        raise OverflowError("ps-vec table aggregation would exceed int64")
    lows = [int(c.min()) for c in cols]
    widths = [(int(c.max()) - lo).bit_length() for c, lo in zip(cols, lows)]
    if sum(widths) > _KEY_BITS:
        order = np.lexsort(tuple(reversed(cols)))
        cols = [c[order] for c in cols]
        boundary = np.zeros(len(cnt), dtype=np.bool_)
        boundary[0] = True
        for c in cols:
            boundary[1:] |= c[1:] != c[:-1]
        starts = np.flatnonzero(boundary)
        return [c[starts] for c in cols], np.add.reduceat(cnt[order], starts)
    key = cols[0] - lows[0]
    for c, lo, width in zip(cols[1:], lows[1:], widths[1:]):
        key <<= width
        key |= c - lo
    order = np.argsort(key)
    key = key[order]
    boundary = np.empty(len(key), dtype=np.bool_)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    key = key[starts]
    out = []
    shift = sum(widths)
    for lo, width in zip(lows, widths):
        shift -= width
        out.append(((key >> shift) & ((1 << width) - 1)) + lo)
    return out, np.add.reduceat(cnt[order], starts)


def _expand(
    starts: np.ndarray, lens: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-entry ranges ``[starts, starts+lens)`` into gather indices.

    ``ends`` is the running total of ``lens``, which may continue a total
    over earlier rows.  Returns ``(rep, pos)``: ``rep[i]`` is the source
    entry of flat slot ``i`` and ``pos[i]`` the absolute position inside
    the indexed array.
    """
    first = int(ends[0] - lens[0]) if len(lens) else 0
    total = int(ends[-1]) - first if len(lens) else 0
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rep = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    pos = np.arange(first, first + total, dtype=np.int64) - (ends - lens)[rep] + starts[rep]
    return rep, pos


def _check_counts(cnt: np.ndarray) -> None:
    """Refuse int64 ranges where a pairwise product could overflow.

    Counts are non-negative by construction (tables seed at 1 and only
    sum/multiply under these guards), so the max bounds the magnitude.
    """
    if cnt.dtype != object and len(cnt) and int(np.max(cnt)) >= _ENTRY_LIMIT:
        raise OverflowError("ps-vec count tables exceeded 2^31 per entry")


def _checked_total(cnt: np.ndarray) -> int:
    """Sum counts, refusing totals that could wrap an int64 accumulator."""
    if cnt.dtype != object and len(cnt) and float(np.sum(cnt.astype(np.float64))) > _SUM_LIMIT:
        raise OverflowError("ps-vec total count would exceed int64")
    return int(np.sum(cnt)) if len(cnt) else 0


def _row_ranges(u: np.ndarray, ends: np.ndarray) -> List[slice]:
    """Cut rows sorted by start vertex ``u`` into one range per gather.

    ``ends`` is the running total of the rows each input row expands to.
    Cuts fall only where ``u`` changes, and each range expands to at most
    :data:`_CHUNK_ROWS` rows unless one start vertex alone expands past
    it.  At or under the budget the single range covers every row.
    """
    n = len(u)
    if n == 0 or int(ends[-1]) <= _CHUNK_ROWS:
        return [slice(0, n)]
    ranges = []
    a = 0
    while a < n:
        done = int(ends[a - 1]) if a else 0
        b = int(np.searchsorted(ends, done + _CHUNK_ROWS, side="right"))
        if b < n:
            # back off to the first row of u[b]; a start vertex that alone
            # overruns the budget becomes a range of its own
            b = int(np.searchsorted(u, u[b], side="left"))
            if b <= a:
                b = int(np.searchsorted(u, u[a], side="right"))
        ranges.append(slice(a, b))
        a = b
    return ranges


def _gathers(
    u: np.ndarray, starts: np.ndarray, lens: np.ndarray
) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
    """``(rows, rep, pos)`` per start-vertex range of a join's input rows:
    the rows of the range and the gather indices of its expansion
    (:func:`_expand` over ``[starts, starts+lens)``)."""
    ends = np.cumsum(lens)
    for r in _row_ranges(u, ends):
        rep, pos = _expand(starts[r], lens[r], ends[r])
        yield r, rep, pos


def _concat(parts: List[Tuple[np.ndarray, ...]]) -> Tuple[np.ndarray, ...]:
    """Stack per-range output columns; one range passes through uncopied.
    Every join keeps ``u`` as its leading output key, so the stacked
    ranges are the sorted, unique table."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(cols) for cols in zip(*parts))


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
# step programs: what a block computes, compiled once per block
# ----------------------------------------------------------------------

#: step operations, one per kernel of :class:`VectorizedSolver`
SEED = "seed"  # seed a path from the data graph's edges
SEED_CHILD = "seed-child"  # seed a path from an annotated edge's table
EXTEND = "extend"  # EdgeJoin with the data graph
EXTEND_CHILD = "extend-child"  # EdgeJoin with an annotated edge's table
JOIN = "join"  # NodeJoin with an annotated node's table
TRANSPOSE = "transpose"  # a child table with its two boundary nodes swapped
PROJECT = "project"  # leaf projection onto the boundary node
MERGE = "merge"  # cycle merge of P+ and P-

#: a step's table input: an earlier step's index, or a child block's
#: place in the block, ``("node", label)`` or ``("edge", i)``
Ref = Union[int, Tuple[str, Hashable]]


class Step(NamedTuple):
    """One kernel call of a block program.

    ``inputs`` are the tables it reads.  ``arg`` is the rest of what its
    table depends on: the query nodes whose label masks it applies
    (``None`` for a node without one), the side a node join folds into
    (``True``: the path's start), or the boundary a projection or merge
    keys by.  Equal steps build equal tables, so a program holds each
    step once.
    """

    op: str
    inputs: Tuple[Ref, ...]
    arg: Hashable = None


class Program(NamedTuple):
    """A block's steps in run order.  ``frees[i]`` lists the steps whose
    tables step ``i`` reads last; the last step's table is the block's."""

    steps: Tuple[Step, ...]
    frees: Tuple[Tuple[int, ...], ...]


def compile_block(block: Block, masked: FrozenSet[Node]) -> Program:
    """The step program of ``block`` for queries whose ``masked`` nodes
    carry label masks.

    The PS split of the dict solver: a leaf edge is one path, projected
    onto its first node.  A cycle splits at its boundary nodes (at a
    diagonal when it has fewer than two) into P+, walked clockwise, and
    P-, walked counter-clockwise; P+ folds in the end node's annotation
    and P- the start node's, and the merge joins the two.  A child edge
    table whose boundary runs against the walk enters transposed.

    Steps are keyed by what they compute, so paths share every equal
    prefix: unlabeled, a 4-cycle's P+ and P- are one path and a
    triangle's P- extends P+'s seed.  A labeled node keys its mask by
    itself, so paths whose masks differ never share a step.
    """
    if block.kind not in (LEAF, CYCLE):
        raise ValueError("singleton blocks are roots, not solvable tables")
    steps: List[Step] = []
    index: Dict[Step, int] = {}

    def emit(op: str, inputs: Tuple[Ref, ...], arg: Hashable = None) -> int:
        step = Step(op, inputs, arg)
        if step not in index:
            index[step] = len(steps)
            steps.append(step)
        return index[step]

    def mask(node: Node) -> Optional[Node]:
        return node if node in masked else None

    def edge(i: int, first: Node, second: Node) -> Ref:
        boundary = block.edge_ann[i].boundary
        if boundary == (first, second):
            return ("edge", i)
        if boundary == (second, first):
            return emit(TRANSPOSE, (("edge", i),))
        raise ValueError(
            f"table boundary {boundary!r} does not match edge ({first!r}, {second!r})"
        )

    def path(labels: Sequence[Node], edges: Sequence[int], joined: AbstractSet[Node]) -> int:
        """The steps of one path along ``labels``: ``edges[j]`` is the
        block edge it walks from ``labels[j]``, ``joined`` the nodes
        whose annotations it folds in."""
        if edges[0] in block.edge_ann:
            t = emit(SEED_CHILD, (edge(edges[0], labels[0], labels[1]),))
        else:
            t = emit(SEED, (), (mask(labels[0]), mask(labels[1])))
        if labels[0] in joined:
            t = emit(JOIN, (t, ("node", labels[0])), True)
        if labels[1] in joined:
            t = emit(JOIN, (t, ("node", labels[1])), False)
        for j in range(1, len(labels) - 1):
            if edges[j] in block.edge_ann:
                t = emit(EXTEND_CHILD, (t, edge(edges[j], labels[j], labels[j + 1])))
            else:
                t = emit(EXTEND, (t,), mask(labels[j + 1]))
            if labels[j + 1] in joined:
                t = emit(JOIN, (t, ("node", labels[j + 1])), False)
        return t

    nodes, boundary, annotated = block.nodes, block.boundary, block.node_ann.keys()
    if block.kind == LEAF:
        emit(PROJECT, (path(nodes, (0,), annotated),), nodes[0])
    else:
        L, nb = len(nodes), len(boundary)
        if nb == 2:
            s, e = nodes.index(boundary[0]), nodes.index(boundary[1])
        elif nb == 1:
            s = nodes.index(boundary[0])
            e = (s + L // 2) % L
        else:
            s, e = 0, L // 2
        plus, minus = _cw_labels(nodes, s, e), _ccw_labels(nodes, s, e)
        tplus = path(plus, [(s + j) % L for j in range(len(plus) - 1)], annotated & set(plus[1:]))
        tminus = path(
            minus, [(s - j - 1) % L for j in range(len(minus) - 1)], annotated & set(minus[:-1])
        )
        emit(MERGE, (tplus, tminus), boundary)

    last: Dict[int, int] = {}
    for i, step in enumerate(steps):
        for r in step.inputs:
            if isinstance(r, int):
                last[r] = i
    frees = tuple(tuple(r for r, at in last.items() if at == i) for i in range(len(steps)))
    return Program(tuple(steps), frees)


# ----------------------------------------------------------------------
# plan solver (array analogue of repro.counting.solver.BlockSolver, PS only)
# ----------------------------------------------------------------------

class VectorizedSolver:
    """Bottom-up PS plan solver over array tables (one pass per block).

    ``start_range=(lo, hi)`` (default ``(0, g.n)``) restricts every path
    sweep to rows whose *start* image lies in ``[lo, hi)``.  Extensions
    and node joins never change a row's start vertex, the cycle merge
    joins rows sharing their start, and every output table keeps the
    start vertex as its leading key, so a range solve produces exactly
    the rows of the full solve that start in the range — the tables of
    consecutive ranges concatenate into the full table.  This is the
    shard the ``ps-dist`` executor runs on each worker.  Child tables
    must then cover *all* vertices: :meth:`inject` installs externally
    combined (full) child results.

    ``exact=True`` seeds the count column as a NumPy object array of
    Python ints, which every join inherits and no guard checks: the rerun
    a trial takes when an ``int64`` guard trips.  Key columns stay int64.

    All inputs — CSR arrays, the coloring, label masks — are converted to
    int64/bool arrays here, once per solver.
    """

    def __init__(
        self,
        g: Graph,
        colors: np.ndarray,
        k: int,
        start_range: Optional[Tuple[int, int]] = None,
        vertex_ok: Optional[Dict[Node, np.ndarray]] = None,
        *,
        exact: bool = False,
    ) -> None:
        self.g = g
        self.exact = exact
        indptr, indices = g.to_csr()
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._degrees = np.asarray(g.degrees, dtype=np.int64)
        self.colors = np.asarray(colors, dtype=np.int64)
        self.k = k
        self.start_range = start_range if start_range is not None else (0, g.n)
        #: label-compatibility masks for labeled queries (empty = unlabeled)
        self.vertex_ok = {
            node: np.asarray(mask, dtype=np.bool_)
            for node, mask in (vertex_ok or {}).items()
        }
        #: per-color signature bits, indexed by data vertex color
        self.bit = 1 << self.colors
        self._solved: Dict[int, object] = {}

    def _empty_path(self) -> VecPathTable:
        empty = np.empty(0, dtype=np.int64)
        return VecPathTable(empty, empty, empty, empty)

    def inject(self, block: Block, result: object) -> None:
        """Install (or overwrite) the solved table for ``block``.

        Used by the sharded executor: the master combines the per-rank
        shards of a child block into the full table and sends it inside
        the parent block's request, and the worker's fresh solver injects
        it before solving the parent, so the parent's joins see all
        vertices, not just the rank's own shard.
        """
        self._solved[id(block)] = result

    # ------------------------------------------------------------------
    # kernels (array analogues of repro.counting.kernels)
    # ------------------------------------------------------------------

    def _init_from_graph(
        self,
        ok_u: Optional[np.ndarray] = None,
        ok_v: Optional[np.ndarray] = None,
    ) -> VecPathTable:
        """Seed cnt(u, v, {χu, χv}) = 1 from every directed edge out of the
        start range, batched.

        The range's start vertices own one contiguous slice of the CSR,
        so one repeat over their degrees against that slice emits their
        directed edges at once; rows arrive already sorted by ``(u, v)``
        because CSR slices are sorted.  ``ok_u``/``ok_v`` are the label-
        compatibility masks of the path's first two query nodes.
        """
        colors, bit = self.colors, self.bit
        lo, hi = self.start_range
        u = np.repeat(np.arange(lo, hi, dtype=np.int64), self._degrees[lo:hi])
        v = self._indices[self._indptr[lo]:self._indptr[hi]]
        keep = colors[u] != colors[v]
        if ok_u is not None:
            keep &= ok_u[u]
        if ok_v is not None:
            keep &= ok_v[v]
        u, v = u[keep], v[keep]
        cnt = np.ones(len(u), dtype=object if self.exact else np.int64)
        return VecPathTable(u, v, bit[u] | bit[v], cnt)

    def _init_from_child(self, child: VecBinaryTable) -> VecPathTable:
        """Seed from the start range's rows of an annotated edge's child
        projection table (sorted by ``u``, so slices: copy-free)."""
        a, b = np.searchsorted(child.u, self.start_range)
        return VecPathTable(child.u[a:b], child.v[a:b], child.sig[a:b], child.cnt[a:b])

    def _extend_with_graph(
        self, t: VecPathTable, ok_w: Optional[np.ndarray] = None
    ) -> VecPathTable:
        """EdgeJoin with the data graph: extend every path by every neighbour
        of its end vertex whose color is unused, one batched gather per
        start-vertex range.  ``ok_w`` masks the new vertex by label
        compatibility."""
        if len(t) == 0:
            return self._empty_path()
        colors, bit = self.colors, self.bit
        starts, lens = self._indptr[t.v], self._degrees[t.v]

        def extend(r: slice, rep: np.ndarray, pos: np.ndarray) -> Tuple[np.ndarray, ...]:
            w = self._indices[pos]
            sig = t.sig[r][rep]
            keep = ((sig >> colors[w]) & 1) == 0
            if ok_w is not None:
                keep &= ok_w[w]
            rep, w, sig = rep[keep], w[keep], sig[keep]
            (u, v, sig), cnt = _group_sum((t.u[r][rep], w, sig | bit[w]), t.cnt[r][rep])
            return u, v, sig, cnt

        return VecPathTable(*_concat([extend(*g) for g in _gathers(t.u, starts, lens)]))

    def _extend_with_child(self, t: VecPathTable, child: VecBinaryTable) -> VecPathTable:
        """EdgeJoin with a child table: sort-merge join on the path end vertex.

        Signatures must intersect exactly in the shared vertex's color
        (``sig & sig2 == 1 << χv``) — the colorful-join discipline.
        """
        if len(t) == 0 or len(child) == 0:
            return self._empty_path()
        bit = self.bit
        _check_counts(t.cnt)
        _check_counts(child.cnt)
        lo = np.searchsorted(child.u, t.v, side="left")
        lens = np.searchsorted(child.u, t.v, side="right") - lo

        def extend(r: slice, rep: np.ndarray, pos: np.ndarray) -> Tuple[np.ndarray, ...]:
            sig1, sig2 = t.sig[r][rep], child.sig[pos]
            keep = (sig1 & sig2) == bit[t.v[r][rep]]
            rep, pos, sig1, sig2 = rep[keep], pos[keep], sig1[keep], sig2[keep]
            (u, v, sig), cnt = _group_sum(
                (t.u[r][rep], child.v[pos], sig1 | sig2), t.cnt[r][rep] * child.cnt[pos]
            )
            return u, v, sig, cnt

        return VecPathTable(*_concat([extend(*g) for g in _gathers(t.u, lo, lens)]))

    def _node_join(
        self, t: VecPathTable, child: VecUnaryTable, on_start: bool
    ) -> VecPathTable:
        """NodeJoin: fold a unary child annotating the path's start or end."""
        if len(t) == 0 or len(child) == 0:
            return self._empty_path()
        bit = self.bit
        _check_counts(t.cnt)
        _check_counts(child.cnt)
        x = t.u if on_start else t.v
        lo = np.searchsorted(child.u, x, side="left")
        lens = np.searchsorted(child.u, x, side="right") - lo

        def join(r: slice, rep: np.ndarray, pos: np.ndarray) -> Tuple[np.ndarray, ...]:
            sig1, sig2 = t.sig[r][rep], child.sig[pos]
            keep = (sig1 & sig2) == bit[x[r][rep]]
            rep, pos, sig1, sig2 = rep[keep], pos[keep], sig1[keep], sig2[keep]
            (u, v, sig), cnt = _group_sum(
                (t.u[r][rep], t.v[r][rep], sig1 | sig2), t.cnt[r][rep] * child.cnt[pos]
            )
            return u, v, sig, cnt

        return VecPathTable(*_concat([join(*g) for g in _gathers(t.u, lo, lens)]))

    def _merge_paths(
        self, tplus: VecPathTable, tminus: VecPathTable, boundary: Tuple[Node, ...]
    ) -> object:
        """Cycle merge: join the two path tables on their shared endpoints
        and project the matches onto the block's ``boundary``.

        Both tables run start→end, so the join key is the ``(u, v)``
        pair, encoded as ``u*n + v`` to make it one monotone
        ``searchsorted`` axis.  P+ is cut into start-vertex ranges, each
        searched against all of P−.  The PS split puts ``boundary[0]`` at
        the path start, so a 1-boundary cycle groups on ``(u, sig)`` and a
        2-boundary cycle on ``(u, v, sig)``; a 0-boundary root sums the
        per-range totals.
        """
        bit, n, nb = self.bit, self.g.n, len(boundary)
        _check_counts(tplus.cnt)
        _check_counts(tminus.cnt)
        key_minus = tminus.u * n + tminus.v
        key_plus = tplus.u * n + tplus.v
        lo = np.searchsorted(key_minus, key_plus, side="left")
        lens = np.searchsorted(key_minus, key_plus, side="right") - lo

        def merge(r: slice, rep: np.ndarray, pos: np.ndarray) -> Tuple[np.ndarray, ...]:
            sig1, sig2 = tplus.sig[r][rep], tminus.sig[pos]
            u, v = tplus.u[r][rep], tplus.v[r][rep]
            keep = (sig1 & sig2) == (bit[u] | bit[v])
            rep, pos, u, v = rep[keep], pos[keep], u[keep], v[keep]
            sig, cnt = sig1[keep] | sig2[keep], tplus.cnt[r][rep] * tminus.cnt[pos]
            if nb == 0:
                assert np.all(_popcount(sig) == self.k), "root signature size != k"
                return (cnt,)
            keys = (u, sig) if nb == 1 else (u, v, sig)
            cols, cnt = _group_sum(keys, cnt)
            return (*cols, cnt)

        parts = (merge(*g) for g in _gathers(tplus.u, lo, lens))
        if nb == 0:
            return sum(_checked_total(cnt) for (cnt,) in parts)
        cols = _concat(list(parts))
        if nb == 1:
            return VecUnaryTable(boundary[0], *cols)
        return VecBinaryTable((boundary[0], boundary[1]), *cols)

    def _project(self, t: VecPathTable, boundary: Node) -> VecUnaryTable:
        """Leaf projection: sum a path table onto its start vertex."""
        (u, sig), cnt = _group_sum((t.u, t.sig), t.cnt)
        return VecUnaryTable(boundary, u, sig, cnt)

    # ------------------------------------------------------------------
    # the interpreter
    # ------------------------------------------------------------------

    def solve(self, block: Block) -> object:
        key = id(block)
        if key not in self._solved:
            # one coarse span per DP stage — obs.span is a shared no-op
            # unless a trace is actively collected, so the perf-gated
            # sweep pays two global reads here and nothing else
            with obs.span(f"sweep.{block.kind}", boundary=len(block.boundary)):
                result = self._run(block)
            self._solved[key] = result
        return self._solved[key]

    def _run(self, block: Block) -> object:
        """Run ``block``'s program, dropping each table after its last
        read.  The program is compiled on first use and kept on the block
        under the set of its nodes that carry a label mask, so a plan and
        its labeled twin (which share blocks) each find their own."""
        masked = frozenset(n for n in block.nodes if n in self.vertex_ok)
        program = block.programs.get(masked)
        if program is None:
            # two threads may compile one block at once: their programs
            # are equal, so either may land in the cache
            program = block.programs[masked] = compile_block(block, masked)
        tables: List[object] = [None] * len(program.steps)
        for i, step in enumerate(program.steps):
            tables[i] = self._step(block, step, tables)
            for r in program.frees[i]:
                tables[r] = None
        return tables[-1]

    def _step(self, block: Block, step: Step, tables: List[object]) -> object:
        """One step's kernel over its input tables."""
        a = [
            tables[r] if isinstance(r, int) else self.solve(
                block.node_ann[r[1]] if r[0] == "node" else block.edge_ann[r[1]]
            )
            for r in step.inputs
        ]
        op, arg = step.op, step.arg
        if op == SEED:
            return self._init_from_graph(*(self._mask(node) for node in arg))
        if op == SEED_CHILD:
            return self._init_from_child(a[0])
        if op == EXTEND:
            return self._extend_with_graph(a[0], self._mask(arg))
        if op == EXTEND_CHILD:
            return self._extend_with_child(a[0], a[1])
        if op == JOIN:
            return self._node_join(a[0], a[1], arg)
        if op == TRANSPOSE:
            return a[0].transpose()
        if op == PROJECT:
            return self._project(a[0], arg)
        return self._merge_paths(a[0], a[1], arg)

    def _mask(self, node: Optional[Node]) -> Optional[np.ndarray]:
        return None if node is None else self.vertex_ok[node]


def sweep_plan(
    plan: Plan,
    g: Graph,
    colors: np.ndarray,
    num_colors: Optional[int] = None,
    *,
    exact: bool = False,
) -> int:
    """One sweep of ``plan`` over ``g`` under ``colors``.

    On ``int64`` counts it raises :class:`OverflowError` where a guard
    trips; ``exact=True`` counts in Python ints and cannot.
    """
    colors, vertex_ok, count = trial_input(g, plan.query, colors, num_colors)
    if count is not None:
        return count
    solver = VectorizedSolver(g, colors, plan.query.k, vertex_ok=vertex_ok, exact=exact)
    root = plan.root
    if root.kind == SINGLETON:
        (child,) = root.node_ann.values()
        return solver.solve(child).total()
    result = solver.solve(root)
    assert isinstance(result, int), "root cycle must produce a scalar"
    return result


def solve_plan_vectorized(
    plan: Plan,
    g: Graph,
    colors: np.ndarray,
    num_colors: Optional[int] = None,
) -> int:
    """Number of colorful matches of ``plan.query`` in ``g`` under ``colors``.

    Semantics match :func:`repro.counting.solver.solve_plan` with
    ``method="ps"`` exactly (bit-identical counts); only the execution
    strategy differs.  The sweep runs on ``int64`` counts and, if a guard
    trips, once more with Python-int counts.  No per-rank load attribution
    is available — use the dict kernels for simulated-rank experiments.
    """
    try:
        return sweep_plan(plan, g, colors, num_colors)
    except OverflowError:
        return sweep_plan(plan, g, colors, num_colors, exact=True)


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
