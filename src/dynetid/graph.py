"""Finite simple directed graphs over integer vertex ids.

Vertices are arbitrary positive integers; nothing requires them to be
contiguous. A graph holds its vertex set and its edge set, and neighbour
queries scan the edges. Graphs are immutable after construction and every
operation is a pure function, so values can be shared freely. The one other
thing a graph holds, and the one mutable thing, is its flow kernel,
_SplitGraph, which max_vertex_disjoint_paths builds on first use and keeps
with its caches; no result, comparison, hash or repr can observe it.
Counting paths on one graph from two threads at once is not supported. All
iteration is in ascending id order to keep downstream reports deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


Edge = tuple[int, int]


@dataclass(frozen=True)
class DiGraph:
    """A simple digraph: no self-loops, at most one edge per ordered pair.

    It holds its two sets and, after its first path count, its flow kernel.
    """

    vertices: frozenset[int]
    edges: frozenset[Edge]
    _kernel: _SplitGraph | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        for v in self.vertices:
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"vertex ids must be positive integers, got {v!r}")
        for tail, head in self.edges:
            if isinstance(tail, bool) or isinstance(head, bool):
                bad = tail if isinstance(tail, bool) else head
                raise ValueError(f"vertex ids must be positive integers, got {bad!r}")
            if tail == head:
                raise ValueError(f"self-loop at vertex {tail} is not allowed")
            if tail not in self.vertices or head not in self.vertices:
                raise ValueError(f"edge ({tail}, {head}) has an endpoint outside the vertex set")

    @classmethod
    def of(cls, vertices: Iterable[int], edges: Iterable[Edge] = ()) -> DiGraph:
        return cls(frozenset(vertices), frozenset((t, h) for t, h in edges))

    def _require(self, v: int) -> None:
        if v not in self.vertices:
            raise ValueError(f"vertex {v} is not in the graph")

    def out_neighbors(self, v: int) -> frozenset[int]:
        """Heads of v's out-edges, by a scan of every edge: O(|E|)."""
        self._require(v)
        return frozenset(h for t, h in self.edges if t == v)

    def in_neighbors(self, v: int) -> frozenset[int]:
        """Tails of v's in-edges, by a scan of every edge: O(|E|)."""
        self._require(v)
        return frozenset(t for t, h in self.edges if h == v)

    def sorted_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.vertices))


def sources_and_sinks(g: DiGraph) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices without in-edges, and vertices without out-edges.

    An isolated vertex appears in both sets.
    """
    sources = g.vertices - {h for _, h in g.edges}
    sinks = g.vertices - {t for t, _ in g.edges}
    return sources, sinks


def reverse(g: DiGraph) -> DiGraph:
    """Same vertices, every edge flipped. Involutive."""
    return DiGraph(g.vertices, frozenset((h, t) for t, h in g.edges))


class _SplitGraph:
    """The residual network of a graph's vertex-split graph.

    Vertex i in sorted-id order is node 2i (in) and node 2i + 1 (out). Arc k
    runs to head[k], and arc k ^ 1 is its reverse. The even arcs are the real
    ones, each of capacity one: v_in -> v_out for every vertex, then
    t_out -> h_in for every edge in ascending (t, h) order, which fixes the
    order of every forest, walk and search. The odd arcs are their residual
    partners, of capacity zero. Every count leaves the capacities as it
    found them.

    forest is a breadth-first forest over the real arcs from the in-nodes of
    forest_src, the last source set counted: forest[b] is the arc that
    reached node b, -1 at a root and -2 where no source reaches. It depends
    on the source set only, so it is rebuilt only when that set changes.
    order lists the vertices by index, so in-node a is vertex order[a >> 1].

    memo maps a target set to the start vertices of the last full count
    into it, one whose paths reached every target. It never holds more
    entries than the graph has vertices: a store that would pass that size
    empties it first.
    """

    __slots__ = ("order", "index", "head", "arcs", "cap", "forest_src", "forest", "memo")

    def __init__(self, g: DiGraph) -> None:
        self.order = tuple(sorted(g.vertices))
        self.index = index = {v: i for i, v in enumerate(self.order)}
        pairs = [(2 * i, 2 * i + 1) for i in range(len(self.index))]
        pairs += [(2 * index[t] + 1, 2 * index[h]) for t, h in sorted(g.edges)]
        arcs: list[list[int]] = [[] for _ in range(2 * len(self.index))]
        head: list[int] = []
        for a, b in pairs:
            arcs[a].append(len(head))
            head.append(b)
            arcs[b].append(len(head))
            head.append(a)
        self.head = head
        self.arcs = [tuple(ks) for ks in arcs]
        self.cap = [1, 0] * len(pairs)
        self.forest_src: frozenset[int] | None = None
        self.forest: list[int] = []
        self.memo: dict[frozenset[int], list[int]] = {}

    def _forest(self, sources: frozenset[int]) -> list[int]:
        """The forest of sources, built unless it is the one cached. Only
        in-nodes are queued: in-node a's one real arc is arc a, to a + 1."""
        if sources is not self.forest_src and sources != self.forest_src:
            head, arcs = self.head, self.arcs
            forest = [-2] * len(arcs)
            queue = [2 * self.index[v] for v in sources]
            for a in queue:
                forest[a] = -1
            for a in queue:
                forest[a + 1] = a
                for k in arcs[a + 1]:
                    b = head[k]
                    if not k & 1 and forest[b] == -2:
                        forest[b] = k
                        queue.append(b)
            self.forest_src, self.forest = sources, forest
        return self.forest

    def count(self, sources: frozenset[int], targets: frozenset[int]) -> list[int]:
        """Augment from the free sources to the free targets until no path is
        left or every source or every target is used, and return the
        vertices the paths start from, one per path. A source is free until
        a path starts at it, a target until a path ends at it.

        A target set whose memo entry lies inside sources returns that entry
        with no augmenting: its paths reach every target from the sources,
        which no count can exceed. The list returned is the memo's own, so
        the caller must not change it. A count that reaches every target
        becomes the set's entry.

        The sources' in-nodes are the forest's roots: the walks below take
        only free roots, and so does a search (see _search), so a call costs
        nothing per source while the forest holds.

        Each target is first walked up the source forest to its root, and
        the walk is augmented if that root is still free. Root a is free
        exactly when cap[a] is 1: arc a is its vertex's own arc, and every
        forest path from a takes it. A free root means a path disjoint from
        every path taken so far, because every vertex those paths use has
        a used root: two forest paths that share a node share the rest of
        the way to the root, and a path taken by the second chance below is
        a forest path plus a target whose own root is used.

        A target whose root is used gets that second chance (_detour) if
        its own arc, t - 1, is still free: a free forest path into one of
        its in-neighbours, extended by the edge into the target and the
        target's own arc. The walks thus leave a feasible flow, and the
        backward searches finish the max-flow from it, so every count is
        exact. Which sources the paths start from can depend on the walks
        and on the memo, but it is always the start set of a maximum
        family."""
        memo = self.memo
        known = memo.get(targets)
        if known is not None and sources.issuperset(known):
            return known
        order = self.order
        head, cap = self.head, self.cap
        forest = self._forest(sources)
        free_tgt = {2 * self.index[v] + 1 for v in targets}
        goal = min(len(sources), len(free_tgt))
        touched: list[int] = []
        starts: list[int] = []
        try:
            for t in tuple(free_tgt):
                if len(starts) == goal:
                    break
                path: list[int] = []
                node, k = t, forest[t]
                while k >= 0:
                    path.append(k)
                    node = head[k ^ 1]
                    k = forest[node]
                if k != -1 or not cap[node]:
                    if not cap[t - 1] or (path := self._detour(forest, t)) is None:
                        continue
                    # A detour ends on its root's own arc, whose index is the root.
                    node = path[-1]
                free_tgt.remove(t)
                for k in path:
                    cap[k] = 0
                    cap[k ^ 1] = 1
                touched += path
                starts.append(order[node >> 1])
            while len(starts) < goal:
                found = self._search(forest, free_tgt)
                if found is None:
                    break
                node, via = found
                starts.append(order[node >> 1])
                k = via[node]
                while k >= 0:
                    cap[k] -= 1
                    cap[k ^ 1] += 1
                    touched.append(k)
                    node = head[k]
                    k = via[node]
                free_tgt.remove(node)
        finally:
            for k in touched:
                cap[k & ~1] = 1
                cap[k | 1] = 0
        if len(starts) == len(targets):
            if len(memo) >= len(order):
                memo.clear()
            memo[targets] = starts
        return starts

    def _detour(self, forest: list[int], t: int) -> list[int] | None:
        """A free path to out-node t through an in-neighbour, as arcs from
        t back to the path's root, or None. The real in-arcs p_out -> t_in
        are tried in order, and the first whose tail's forest path has
        every arc free, its root's own arc included, is taken with that
        in-arc and t's own arc. Such a path is disjoint from every path
        taken so far, provided t's own arc is free as well: each of its
        vertices still has its own arc free, and no path passes through a
        vertex without taking that vertex's arc."""
        head, cap = self.head, self.cap
        for k in self.arcs[t - 1]:
            if k & 1:
                path = [t - 1, k ^ 1]
                a = forest[head[k]]
                while a >= 0 and cap[a]:
                    path.append(a)
                    a = forest[head[a ^ 1]]
                if a == -1:
                    return path
        return None

    def _search(
        self, forest: list[int], free_tgt: set[int]
    ) -> tuple[int, dict[int, int]] | None:
        """Breadth-first search backward over residual arcs from every free
        target. Returns the first source reached, a root of forest, with the
        arc by which each visited node steps toward a target (-1 at the
        targets). That source is free: a used source's in-node has no
        residual arc out, since its one real arc carries the path that
        starts there, so no search reaches it.

        The search starts from the targets because they are the small side:
        a path check's targets are one vertex's in-neighbourhood, while its
        sources can be half the graph. It runs only after count's walks, so
        it is left with the targets they would not serve: those the sources
        do not reach, and those whose forest path, and every in-neighbour's,
        crosses a path already taken."""
        head, arcs, cap = self.head, self.arcs, self.cap
        via = dict.fromkeys(free_tgt, -1)
        queue = list(free_tgt)
        for b in queue:
            for k in arcs[b]:
                a = head[k]
                if cap[k ^ 1] and a not in via:
                    via[a] = k ^ 1
                    if forest[a] == -1:
                        return a, via
                    queue.append(a)
        return None


def max_vertex_disjoint_paths(
    g: DiGraph, sources: Iterable[int], targets: Iterable[int]
) -> int:
    """Maximum number of pairwise vertex-disjoint paths from sources to targets.

    Paths must be disjoint including their endpoints, and a vertex lying in
    both sets counts as a zero-length path that occupies just that vertex.
    An unknown source or target raises ValueError. Every count is the exact
    maximum, by max-flow on the graph's vertex-split graph. Each graph builds
    that kernel once, on its first call, and keeps it; its caches make
    repeated counts cheaper and never change one (see _SplitGraph). Counting
    on one graph from two threads at once is not supported.
    """
    return len(_path_starts(g, sources, targets))


def _path_starts(
    g: DiGraph, sources: Iterable[int], targets: Iterable[int]
) -> list[int]:
    """The sources a maximum path family starts from, one per path; the
    kernel is built on first use. A source set passed again as the very
    object the cached forest was built from is not checked again: it was
    checked before that forest was built."""
    src = frozenset(sources)
    tgt = frozenset(targets)
    kernel = g._kernel
    cached = kernel is not None and src is kernel.forest_src
    if not ((cached or src <= g.vertices) and tgt <= g.vertices):
        for v in src | tgt:
            g._require(v)
    if not src or not tgt:
        return []
    if kernel is None:
        kernel = _SplitGraph(g)
        object.__setattr__(g, "_kernel", kernel)
    return kernel.count(src, tgt)
