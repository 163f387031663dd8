"""Bottom-up plan solver: blocks → projection tables → colorful count.

Implements the "plan solver" layer of the paper's Section 7 on top of the
join kernels.  Two methods are provided:

* ``"ps"`` — Path Splitting (Figure 4): each cycle is split once at its
  boundary nodes (or at an arbitrary node when it has fewer than two) and
  the two paths are built without pruning.  Equivalent to the original
  Alon et al. dynamic program; the paper's baseline.
* ``"db"`` — Degree Based (Figures 6/7): every cycle is processed once per
  choice of the highest node ``h``; paths run from ``h`` to the diagonally
  opposite node ``d`` under the high-starting constraint, recording
  boundary nodes that fall inside a path in extra key fields, and the
  per-``h`` counts are aggregated (Equation 1).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from ..decomposition.blocks import CYCLE, LEAF, SINGLETON, Block
from ..decomposition.tree import Plan
from ..distributed.runtime import ExecutionContext, sequential_context
from ..graph.graph import Graph
from ..tables.projection import BinaryTable, UnaryTable
from .kernels import build_path_table, merge_cycle_paths, oriented_binary
from .labels import label_masks

__all__ = ["solve_plan", "BlockSolver", "METHODS", "VEC_METHOD"]

Node = Hashable

#: ``ps`` — Path Splitting baseline; ``db`` — Degree Based contribution;
#: ``ps-even`` — the Section 5.1 ablation: PS splitting each cycle evenly
#: at a diagonal (recording interior boundary nodes) instead of at its
#: boundary nodes, but still without degree pruning.  The paper reports
#: this variant "does not differ significantly" from plain PS.
METHODS = ("ps", "db", "ps-even")

#: ``ps-vec`` — PS re-expressed as whole-table numpy operations over the
#: CSR adjacency (:mod:`repro.counting.vectorized`); bit-identical to
#: ``ps`` but without per-rank load attribution.
VEC_METHOD = "ps-vec"


def _cw_labels(nodes: Tuple[Node, ...], s: int, e: int) -> List[Node]:
    """Cycle labels from position ``s`` to ``e`` walking clockwise (+1)."""
    L = len(nodes)
    out = [nodes[s]]
    i = s
    while i != e:
        i = (i + 1) % L
        out.append(nodes[i])
    return out


def _ccw_labels(nodes: Tuple[Node, ...], s: int, e: int) -> List[Node]:
    """Cycle labels from ``s`` to ``e`` walking counter-clockwise (-1)."""
    L = len(nodes)
    out = [nodes[s]]
    i = s
    while i != e:
        i = (i - 1) % L
        out.append(nodes[i])
    return out


class BlockSolver:
    """Solves each block of a plan exactly once, bottom-up."""

    def __init__(
        self,
        g: Graph,
        colors: np.ndarray,
        ctx: ExecutionContext,
        method: str,
        k: int,
        vertex_ok: Optional[Dict[Node, np.ndarray]] = None,
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        self.g = g
        self.colors = colors
        self.ctx = ctx
        self.method = method
        self.k = k
        #: label-compatibility masks for labeled queries (None = unlabeled)
        self.vertex_ok = vertex_ok
        self._solved: Dict[int, Union[UnaryTable, BinaryTable, int]] = {}
        self._tcache: Dict[int, BinaryTable] = {}
        self._block_counter = 0

    # ------------------------------------------------------------------
    def solve(self, block: Block) -> Union[UnaryTable, BinaryTable, int]:
        key = id(block)
        if key not in self._solved:
            self._block_counter += 1
            tag = f"b{self._block_counter}"
            if block.kind == LEAF:
                result = self._solve_leaf(block, tag)
            elif block.kind == CYCLE:
                result = self._solve_cycle(block, tag)
            else:  # pragma: no cover - singletons handled by solve_plan
                raise ValueError("singleton blocks are roots, not solvable tables")
            self._solved[key] = result
        return self._solved[key]

    # ------------------------------------------------------------------
    def _child_tables(
        self, block: Block
    ) -> Tuple[Dict[Node, UnaryTable], Dict[int, BinaryTable]]:
        node_tables = {lab: self.solve(child) for lab, child in block.node_ann.items()}
        edge_tables = {i: self.solve(child) for i, child in block.edge_ann.items()}
        return node_tables, edge_tables

    def _solve_leaf(self, block: Block, tag: str) -> UnaryTable:
        a, b = block.nodes
        node_tables, edge_children = self._child_tables(block)
        edge_tables: Dict[int, BinaryTable] = {}
        if 0 in edge_children:
            edge_tables[0] = oriented_binary(edge_children[0], a, b, self._tcache)
        pt = build_path_table(
            self.g,
            self.colors,
            (a, b),
            node_tables,
            edge_tables,
            self.ctx,
            high=False,
            stage_prefix=f"{tag}:leaf",
            vertex_ok=self.vertex_ok,
        )
        out = UnaryTable(a)
        self.ctx.begin_stage(f"{tag}:leaf-project")
        for (u, _v, _extras, sig), cnt in pt.items():
            out.add(u, sig, cnt)
            self.ctx.op(u)
        return out

    # ------------------------------------------------------------------
    def _solve_cycle(self, block: Block, tag: str) -> Union[UnaryTable, BinaryTable, int]:
        nodes = block.nodes
        L = len(nodes)
        boundary = block.boundary
        nb = len(boundary)
        node_tables, edge_children = self._child_tables(block)

        # output container ------------------------------------------------
        total_scalar = 0
        out_unary: Optional[UnaryTable] = None
        out_binary: Optional[BinaryTable] = None
        if nb == 1:
            out_unary = UnaryTable(boundary[0])
        elif nb == 2:
            out_binary = BinaryTable((boundary[0], boundary[1]))
        def emit_entry(images: Tuple[int, ...], sig: int, cnt: int) -> None:
            nonlocal total_scalar
            if nb == 0:
                # a complete match uses exactly k distinct colors (which is
                # the full palette only when num_colors == k)
                assert bin(sig).count("1") == self.k, "root signature size != k"
                total_scalar += cnt
            elif nb == 1:
                out_unary.add(images[0], sig, cnt)
            else:
                out_binary.add(images[0], images[1], sig, cnt)

        # split choices ----------------------------------------------------
        if self.method == "ps":
            if nb == 2:
                s = nodes.index(boundary[0])
                e = nodes.index(boundary[1])
            elif nb == 1:
                s = nodes.index(boundary[0])
                e = (s + L // 2) % L
            else:
                s, e = 0, L // 2
            splits = [(s, e)]
            record_set: set = set()
        elif self.method == "ps-even":
            # even split at a diagonal; boundary nodes may land inside the
            # paths, so they are recorded like in DB — but no degree pruning
            s = nodes.index(boundary[0]) if nb else 0
            e = (s + L // 2) % L
            splits = [(s, e)]
            record_set = set(boundary)
        else:
            splits = [(h, (h + L // 2) % L) for h in range(L)]
            record_set = set(boundary)

        high = self.method == "db"
        for s_idx, e_idx in splits:
            plus_labels = _cw_labels(nodes, s_idx, e_idx)
            minus_labels = _ccw_labels(nodes, s_idx, e_idx)
            s_label, e_label = nodes[s_idx], nodes[e_idx]

            # Endpoint annotation convention (Section 5.2): P+ takes the
            # block annotating the end node d, P- the one annotating the
            # start node h; interior annotations go to their own path.
            plus_nodes = {
                lab: node_tables[lab]
                for lab in plus_labels[1:]
                if lab in node_tables
            }
            minus_nodes = {
                lab: node_tables[lab]
                for lab in minus_labels[:-1]
                if lab in node_tables
            }

            plus_edges: Dict[int, BinaryTable] = {}
            for j in range(len(plus_labels) - 1):
                idx = (s_idx + j) % L
                if idx in edge_children:
                    plus_edges[j] = oriented_binary(
                        edge_children[idx], plus_labels[j], plus_labels[j + 1], self._tcache
                    )
            minus_edges: Dict[int, BinaryTable] = {}
            for j in range(len(minus_labels) - 1):
                idx = (s_idx - j - 1) % L
                if idx in edge_children:
                    minus_edges[j] = oriented_binary(
                        edge_children[idx], minus_labels[j], minus_labels[j + 1], self._tcache
                    )

            tplus = build_path_table(
                self.g,
                self.colors,
                plus_labels,
                plus_nodes,
                plus_edges,
                self.ctx,
                high=high,
                record_set=record_set,
                stage_prefix=f"{tag}:p",
                vertex_ok=self.vertex_ok,
            )
            tminus = build_path_table(
                self.g,
                self.colors,
                minus_labels,
                minus_nodes,
                minus_edges,
                self.ctx,
                high=high,
                record_set=record_set,
                stage_prefix=f"{tag}:m",
                vertex_ok=self.vertex_ok,
            )
            merge_cycle_paths(
                tplus,
                tminus,
                self.colors,
                emit_entry,
                boundary,
                s_label,
                e_label,
                self.ctx,
                stage_name=f"{tag}:merge",
            )

        if nb == 0:
            return total_scalar
        if nb == 1:
            return out_unary
        return out_binary


def solve_plan(
    plan: Plan,
    g: Graph,
    colors: np.ndarray,
    ctx: Optional[ExecutionContext] = None,
    method: str = "db",
    num_colors: Optional[int] = None,
) -> int:
    """Number of colorful matches of ``plan.query`` in ``g`` under ``colors``.

    ``colors[u]`` must be an integer in ``[0, num_colors)``.  By default
    ``num_colors == k`` (the query size) — the paper's setting.  Passing
    ``num_colors > k`` enables the classic variance-reduction extension of
    color coding: with more colors than query nodes, a fixed match is
    colorful with higher probability, so fewer trials are needed (rescale
    with ``normalization_factor(k, num_colors)``).  A *colorful match*
    always means all ``k`` matched vertices have pairwise distinct colors.

    ``ctx`` defaults to an untracked sequential context.  ``method`` is
    one of :data:`METHODS`; the vectorized kernels have their own entry,
    :func:`repro.counting.vectorized.solve_plan_vectorized`.

    Labeled queries (``plan.query.labels``) count only matches mapping
    each query node to a data vertex with the same label; ``g`` must then
    carry a label array.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    colors = np.asarray(colors, dtype=np.int64)
    k = plan.query.k
    kc = num_colors if num_colors is not None else k
    if kc < k:
        raise ValueError(f"need at least k={k} colors, got num_colors={kc}")
    if len(colors) != g.n:
        raise ValueError("coloring must assign a color to every data vertex")
    if k > 0 and colors.size and (colors.min() < 0 or colors.max() >= kc):
        raise ValueError(f"colors must lie in [0, {kc})")
    vertex_ok = label_masks(g, plan.query)
    if ctx is None:
        ctx = sequential_context(g)

    root = plan.root
    if root.kind == SINGLETON:
        if root.node_ann:
            solver = BlockSolver(g, colors, ctx, method, k, vertex_ok=vertex_ok)
            (child,) = root.node_ann.values()
            table = solver.solve(child)
            # Every entry of the root child's table is a complete match; its
            # signature has exactly k (distinct) colors by construction, so
            # summing everything counts the colorful matches.
            return sum(cnt for (_u, _sig), cnt in table.items())
        if vertex_ok:
            # A single-node labeled query: count label-compatible vertices.
            (mask,) = vertex_ok.values()
            return int(mask.sum())
        # A single-node query: every vertex is a colorful match.
        return g.n

    solver = BlockSolver(g, colors, ctx, method, k, vertex_ok=vertex_ok)
    result = solver.solve(root)
    assert isinstance(result, int), "root cycle must produce a scalar"
    return result
