"""Reference vertex-disjoint path count for differential tests.

This is the max-flow the library used before its cached split-graph kernel:
it rebuilds a dict-of-tuples split graph with a super source and a super
sink on every call and searches forward from the super source. It keeps no
state between calls, so it cannot carry capacity over from one call to the
next, which is what the tests compare the kernel against.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from dynetid.graph import DiGraph


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
