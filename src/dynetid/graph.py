"""Finite simple directed graphs over integer vertex ids.

Vertices are arbitrary positive integers; nothing requires them to be
contiguous. A graph holds its vertex set and its edge set, and neighbour
queries scan the edges. Graphs are immutable after construction and every
operation is a pure function, so values can be shared freely. The one other
thing a graph holds, and the one mutable thing, is its flow kernel,
_SplitGraph, which max_vertex_disjoint_paths builds on first use and keeps
with its caches; no result, comparison, hash or repr can observe it. A
count first gives each target its path up a breadth-first forest cached
from its source set, when no other target took that path's root, which a
cached root array tells in O(1). It then finishes the max-flow with one
backward search from each target left, which stops at the first node
whose path up that forest is still free. Capacities are written only when
such a search runs.
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
            if not (type(tail) is int and type(head) is int):
                # A float or bool equal to a vertex would pass the membership test.
                for v in (tail, head):
                    if isinstance(v, bool) or not isinstance(v, int):
                        raise ValueError(f"vertex ids must be positive integers, got {v!r}")
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
    order of every forest, walk and search. The arrays are laid out from
    per-tail buckets of vertex indices, each sorted, so no edge sort runs.
    The odd arcs are the real arcs' residual partners, of capacity zero.
    A count writes its paths into cap only when a backward search runs, and
    every count leaves the capacities as it found them.

    forest is a breadth-first forest over the real arcs from the in-nodes of
    forest_src, the last source set counted: forest[b] is the arc that
    reached node b, -1 at a root and -2 where no source reaches. root[b] is
    the root in-node that node b's forest path starts from, b itself at a
    root and -2 where no source reaches. Both depend on the source set
    only, so they are rebuilt only when that set changes. order lists the
    vertices by index, so in-node a is vertex order[a >> 1].

    memo maps a target set to the start vertices of the last full count
    into it, one whose paths reached every target. It never holds more
    entries than the graph has vertices: a store that would pass that size
    empties it first.
    """

    __slots__ = ("order", "index", "head", "arcs", "cap", "forest_src", "forest", "root", "memo")

    def __init__(self, g: DiGraph) -> None:
        self.order = order = tuple(sorted(g.vertices))
        self.index = index = {v: i for i, v in enumerate(order)}
        succ: list[list[int]] = [[] for _ in order]
        for t, h in g.edges:
            succ[index[t]].append(index[h])
        head = [b for i in range(len(order)) for b in (2 * i + 1, 2 * i)]
        arcs = [[k] for k in range(len(head))]
        for i, js in enumerate(succ):
            a = 2 * i + 1
            js.sort()
            for j in js:
                arcs[a].append(len(head))
                arcs[2 * j].append(len(head) + 1)
                head += (2 * j, a)
        self.head = head
        self.arcs = [tuple(ks) for ks in arcs]
        self.cap = [1, 0] * (len(head) // 2)
        self.forest_src: frozenset[int] | None = None
        self.forest: list[int] = []
        self.root: list[int] = []
        self.memo: dict[frozenset[int], list[int]] = {}

    def _forest(self, sources: frozenset[int]) -> list[int]:
        """The forest of sources, built with its root array unless it is
        the one cached. Only in-nodes are queued: in-node a's one real arc
        is arc a, to a + 1."""
        if sources is not self.forest_src and sources != self.forest_src:
            head, arcs = self.head, self.arcs
            forest = [-2] * len(arcs)
            root = forest[:]
            queue = [2 * self.index[v] for v in sources]
            for a in queue:
                forest[a] = -1
                root[a] = a
            for a in queue:
                r = root[a]
                forest[a + 1] = a
                root[a + 1] = r
                for k in arcs[a + 1]:
                    b = head[k]
                    if not k & 1 and forest[b] == -2:
                        forest[b] = k
                        root[b] = r
                        queue.append(b)
            self.forest_src, self.forest, self.root = sources, forest, root
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

        Each target t is first walked: it takes its forest path if root[t],
        the root that path starts from, exists and no earlier walk of this
        count took it, a test in O(1) that reads no path. A path from an
        untaken root is disjoint from every path taken so far, because every
        node those paths use has a taken root: two forest paths that share a
        node share the rest of the way to the root.

        The walks thus leave a feasible flow, not yet written. If a target is
        left and the goal is not met, the walked paths are written into cap
        before the first search, and from then on root a is free exactly when
        cap[a] is 1: arc a is its vertex's own arc, and every forest path from
        a takes it. Every target the walks did not serve has a used root or
        none, which _search relies on, and gets one backward search. A search
        hands back one augmenting path from a free root, reached by the search
        or joined through a free forest path, and the loop below augments it
        from that root. A search that fails adds every node it discovered to
        dead. No free source reaches them over residual arcs and no residual
        arc enters them, so no augmenting path passes them, and augmenting
        elsewhere changes arcs only outside them: they stay unreachable for the
        rest of the count. So a target whose search failed never gets an
        augmenting path, and once every target is used or has failed the flow
        is maximum and the count exact. Later searches skip the dead nodes, so
        the failures of one count cost O(V + E) together.
        Which sources the paths start from can depend on the walks, on where
        a search joins the forest and on the memo, but it is always the
        start set of a maximum family."""
        memo = self.memo
        known = memo.get(targets)
        if known is not None and sources.issuperset(known):
            return known
        order, index = self.order, self.index
        forest = self._forest(sources)
        root = self.root
        goal = min(len(sources), len(targets))
        taken: dict[int, int] = {}
        left: list[int] = []
        for v in targets:
            if len(taken) == goal:
                break
            t = 2 * index[v] + 1
            r = root[t]
            if r < 0 or r in taken:
                left.append(t)
            else:
                taken[r] = t
        starts = [order[r >> 1] for r in taken]
        if left and len(starts) < goal:
            head, cap = self.head, self.cap
            touched: list[int] = []
            dead: set[int] = set()
            try:
                for t in taken.values():
                    k = forest[t]
                    while k >= 0:
                        cap[k] = 0
                        cap[k ^ 1] = 1
                        touched.append(k)
                        k = forest[head[k ^ 1]]
                for t in left:
                    if len(starts) == goal:
                        break
                    found = self._search(forest, t, dead)
                    if found is None:
                        continue
                    node, via = found
                    starts.append(order[node >> 1])
                    k = via[node]
                    while k >= 0:
                        cap[k] -= 1
                        cap[k ^ 1] += 1
                        touched.append(k)
                        node = head[k]
                        k = via[node]
            finally:
                for k in touched:
                    cap[k & ~1] = 1
                    cap[k | 1] = 0
        if len(starts) == len(targets):
            if len(memo) >= len(order):
                memo.clear()
            memo[targets] = starts
        return starts

    def _search(
        self, forest: list[int], t: int, dead: set[int]
    ) -> tuple[int, dict[int, int]] | None:
        """Breadth-first search backward over residual arcs from out-node t,
        a target the walks did not serve, skipping the nodes in dead and
        stopped at the first node it discovers whose forest path is free:
        every arc from the node up to its root free, the root's own arc
        included, so that root is a free source. A root itself has the
        empty path and passes when reached, and it is free: a used source's
        in-node has no residual arc out, since its one real arc carries the
        path that starts there, so no search reaches it. Returns that root
        with the arc by which each node steps toward t (-1 at t): the
        forest path's arcs from the root down to the node, then the
        search's arcs on to t, so count augments the joined path from the
        root as it would a path the search found alone. A search that finds
        none adds every node it discovered to dead and returns None.

        A discovered node whose root r is absent or used (r < 0 or not
        cap[r]) is not walked, only queued. The test is exact: a node no
        source reaches has no forest path, and one below a used root fails
        its walk at that root's own arc at the latest. A root in-node the
        search discovers is never refused by it, since a used one has no
        residual arc out. So every search returns what a walk of each
        discovered node would.

        The joined path is simple. Every node on the node's forest path
        has a prefix of that free path as its own, so it would pass; every
        node discovered earlier was tested and failed, and so does t,
        because count's walk left it with a used root or none, and a used
        root stays used. So none of them lies on the forest path, and the
        search's arcs from the node run through them alone.

        A walk goes up the forest until an arc is used or a node is
        blocked or dead. When it fails, every node it walked is blocked for
        the rest of the search: each one's forest path runs through the
        failing spot, and capacities do not change within a search. A dead
        node's forest path fails for good. So no node is walked past twice
        and a search stays O(V + E), where a walk per node alone would be
        quadratic on a long chain hanging below a used arc under a free
        root.

        The search starts from a target because that is the small side: a
        path check's targets are one vertex's in-neighbourhood, while its
        sources can be half the graph. The forest joins pay most where the
        sources are few, as in the measurement dual's counts."""
        head, arcs, cap, root = self.head, self.arcs, self.cap, self.root
        via = {t: -1}
        blocked: set[int] = set()
        queue = [t]
        for b in queue:
            for k in arcs[b]:
                a = head[k]
                if cap[k ^ 1] and a not in via and a not in dead:
                    via[a] = k ^ 1
                    r = root[a]
                    if r >= 0 and cap[r]:
                        up: list[int] = []
                        node, j = a, forest[a]
                        while j >= 0 and cap[j] and node not in blocked and node not in dead:
                            up.append(j)
                            node = head[j ^ 1]
                            j = forest[node]
                        if j == -1:
                            for j in up:
                                via[head[j ^ 1]] = j
                            return node, via
                        if up:
                            blocked.add(a)
                            blocked.update([head[j ^ 1] for j in up])
                    queue.append(a)
        dead.update(via)
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
