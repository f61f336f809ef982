"""Finite simple directed graphs over integer vertex ids.

Vertices are arbitrary positive integers; nothing requires them to be
contiguous. Graphs are immutable after construction and every operation is a
pure function, so values can be shared freely. All iteration is in ascending
id order to keep downstream reports deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable


Edge = tuple[int, int]


@dataclass(frozen=True)
class DiGraph:
    """A simple digraph: no self-loops, at most one edge per ordered pair."""

    vertices: frozenset[int]
    edges: frozenset[Edge]
    _succ: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, hash=False
    )
    _pred: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        for v in self.vertices:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"vertex ids must be positive integers, got {v!r}")
        succ: dict[int, list[int]] = {v: [] for v in self.vertices}
        pred: dict[int, list[int]] = {v: [] for v in self.vertices}
        for tail, head in self.edges:
            if tail == head:
                raise ValueError(f"self-loop at vertex {tail} is not allowed")
            if tail not in self.vertices or head not in self.vertices:
                raise ValueError(f"edge ({tail}, {head}) has an endpoint outside the vertex set")
            succ[tail].append(head)
            pred[head].append(tail)
        object.__setattr__(self, "_succ", {v: tuple(sorted(ns)) for v, ns in succ.items()})
        object.__setattr__(self, "_pred", {v: tuple(sorted(ns)) for v, ns in pred.items()})

    @classmethod
    def of(cls, vertices: Iterable[int], edges: Iterable[Edge] = ()) -> DiGraph:
        return cls(frozenset(vertices), frozenset((t, h) for t, h in edges))

    def _require(self, v: int) -> None:
        if v not in self.vertices:
            raise ValueError(f"vertex {v} is not in the graph")

    def out_neighbors(self, v: int) -> frozenset[int]:
        self._require(v)
        return frozenset(self._succ[v])

    def in_neighbors(self, v: int) -> frozenset[int]:
        self._require(v)
        return frozenset(self._pred[v])

    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))


def sources_and_sinks(g: DiGraph) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices without in-edges, and vertices without out-edges.

    An isolated vertex appears in both sets.
    """
    sources = frozenset(v for v in g.vertices if not g._pred[v])
    sinks = frozenset(v for v in g.vertices if not g._succ[v])
    return sources, sinks


def reverse(g: DiGraph) -> DiGraph:
    """Same vertices, every edge flipped. Involutive."""
    return DiGraph(g.vertices, frozenset((h, t) for t, h in g.edges))


def max_vertex_disjoint_paths(
    g: DiGraph, sources: Iterable[int], targets: Iterable[int]
) -> int:
    """Maximum number of pairwise vertex-disjoint paths from sources to targets.

    Paths must be disjoint including their endpoints, and a vertex lying in
    both sets counts as a zero-length path that occupies just that vertex.

    Computed as max-flow on the split graph: each vertex v becomes an arc
    v_in -> v_out of capacity one, so no two paths can share v; a super source
    feeds every source's v_in and every target's v_out drains into a super
    sink. The zero-length convention falls out of the construction.
    """
    src = frozenset(sources)
    tgt = frozenset(targets)
    for v in src | tgt:
        g._require(v)
    if not src or not tgt:
        return 0

    # Node numbering: 0 = super source, 1 = super sink, then 2v / 2v+1 for
    # v_in / v_out. Ids are sparse; dict adjacency handles that.
    SS, TT = 0, 1

    def n_in(v: int) -> int:
        return 2 * v

    def n_out(v: int) -> int:
        return 2 * v + 1

    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = {}

    def arc(a: int, b: int) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + 1
        cap.setdefault((b, a), 0)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for v in g.vertices:
        arc(n_in(v), n_out(v))
    for t, h in g.edges:
        arc(n_out(t), n_in(h))
    for v in src:
        arc(SS, n_in(v))
    for v in tgt:
        arc(n_out(v), TT)

    # Unit capacities: each BFS augmentation adds one path, at most
    # min(|sources|, |targets|) rounds.
    order = {node: tuple(sorted(nbrs)) for node, nbrs in adj.items()}
    flow = 0
    while True:
        parent: dict[int, int] = {SS: SS}
        queue = deque([SS])
        while queue and TT not in parent:
            a = queue.popleft()
            for b in order.get(a, ()):
                if b not in parent and cap[(a, b)] > 0:
                    parent[b] = a
                    queue.append(b)
        if TT not in parent:
            return flow
        b = TT
        while b != SS:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1
