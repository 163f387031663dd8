"""Blocks of the decomposition tree (paper Section 4.1).

A *block* is either a **leaf edge** ``(a, b)`` (``b`` of degree one, ``a``
the boundary node) or a **contractible cycle** — an induced cycle with at
most two boundary nodes (nodes sharing edges with the outside).  Blocks
carry the annotations they inherited when contracted: child blocks hanging
off their nodes and edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Tuple

__all__ = ["Block", "CYCLE", "LEAF", "SINGLETON"]

Node = Hashable

CYCLE = "cycle"
LEAF = "leaf"
SINGLETON = "singleton"


@dataclass
class Block:
    """One node of the decomposition tree.

    Attributes
    ----------
    kind:
        ``"cycle"``, ``"leaf"`` or ``"singleton"`` (the synthetic root used
        when the contraction process ends with a single annotated node).
    nodes:
        For cycles: the node labels in cyclic order ``(a_0, ..., a_{L-1})``;
        edge ``i`` joins ``nodes[i]`` and ``nodes[(i+1) % L]``.
        For leaf edges: ``(a, b)`` with ``b`` the degree-one node.
        For singletons: ``(a,)``.
    boundary:
        Tuple of boundary node labels, in canonical (sorted-repr) order;
        length 0, 1 or 2.  The projection table of the block is keyed by
        the images of these nodes in this order.
    node_ann:
        ``label -> child Block`` for annotated nodes of this block.
    edge_ann:
        For cycles: ``edge index -> child Block``; for leaf edges the only
        edge has index ``0``.  The child's own ``boundary`` tuple tells
        which endpoint is its first boundary node (orientation).
    programs:
        The vectorized sweep's compiled step programs for this block,
        keyed by the set of its nodes that carry a label mask
        (:mod:`repro.counting.vectorized`).  A cache: never compared,
        and never pickled, so a plan ships to a worker without it.
    """

    kind: str
    nodes: Tuple[Node, ...]
    boundary: Tuple[Node, ...]
    node_ann: Dict[Node, "Block"] = field(default_factory=dict)
    edge_ann: Dict[int, "Block"] = field(default_factory=dict)
    programs: Dict[FrozenSet[Node], object] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        return {**self.__dict__, "programs": {}}

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Cycle length (number of nodes == edges); 1 for leaf edges."""
        return len(self.nodes) if self.kind == CYCLE else 1

    def children(self) -> List["Block"]:
        out = list(self.node_ann.values())
        out.extend(self.edge_ann.values())
        return out

    def descendants(self) -> List["Block"]:
        """All blocks in the subtree rooted here (preorder, self first)."""
        out: List[Block] = [self]
        for child in self.children():
            out.extend(child.descendants())
        return out

    def subquery_nodes(self) -> set:
        """Union of node labels in this block and all descendants."""
        out = set(self.nodes)
        for child in self.children():
            out |= child.subquery_nodes()
        return out

    def edge_endpoints(self, i: int) -> Tuple[Node, Node]:
        """Endpoints of cycle edge ``i`` (or the leaf edge for ``i == 0``)."""
        if self.kind == CYCLE:
            return self.nodes[i], self.nodes[(i + 1) % len(self.nodes)]
        if self.kind == LEAF and i == 0:
            return self.nodes[0], self.nodes[1]
        raise IndexError(f"no edge {i} on {self.kind} block")

    # ------------------------------------------------------------------
    def signature(self) -> tuple:
        """Canonical structural signature (used to deduplicate plans)."""
        node_part = tuple(
            sorted((repr(n), child.signature()) for n, child in self.node_ann.items())
        )
        edge_part = tuple(
            sorted((i, child.signature()) for i, child in self.edge_ann.items())
        )
        return (
            self.kind,
            tuple(map(repr, self.nodes)),
            tuple(map(repr, self.boundary)),
            node_part,
            edge_part,
        )

    def describe(self, indent: int = 0) -> str:
        """Human-readable tree dump (used by the CLI and examples)."""
        pad = "  " * indent
        head = f"{pad}{self.kind} nodes={self.nodes} boundary={self.boundary}"
        lines = [head]
        for label, child in sorted(self.node_ann.items(), key=lambda kv: repr(kv[0])):
            lines.append(f"{pad}  @node {label!r}:")
            lines.append(child.describe(indent + 2))
        for i, child in sorted(self.edge_ann.items()):
            lines.append(f"{pad}  @edge {self.edge_endpoints(i)}:")
            lines.append(child.describe(indent + 2))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Block({self.kind}, nodes={self.nodes}, boundary={self.boundary}, "
            f"children={len(self.children())})"
        )
