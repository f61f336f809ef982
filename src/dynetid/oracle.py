"""Exponential-time reference implementations.

Everything here exists to cross-check the production code on small
instances: exhaustive vertex-disjoint path packing, exact minimum disjoint
pseudotree covering, and identifiability decided through the exhaustive
path counter. All searches honor an explicit budget and abort with
BudgetExceeded rather than run away; none of them recurses in Python, so
a deep instance within budget is searched, not cut off by the interpreter's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from dynetid.graph import DiGraph, Edge
from dynetid.model import ExtendedGraph, extended_in_neighbors
from dynetid.pseudotree import Covering, Pseudotree


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 7
    max_edges: int = 12
    max_nodes_explored: int = 200_000

    def __post_init__(self) -> None:
        if self.max_vertices < 1 or self.max_edges < 0 or self.max_nodes_explored < 1:
            raise ValueError("budget limits must be positive")


class BudgetExceeded(RuntimeError):
    """The instance or the search exceeded the oracle budget."""


class _Meter:
    __slots__ = ("left",)

    def __init__(self, limit: int) -> None:
        self.left = limit

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("search node budget exhausted")


def _run_deep(call: Iterator) -> None:
    """Run a recursive search on an explicit stack of generator frames.

    Inside the search, `yield f(...)` stands for the recursive call
    `f(...)`, so the depth is bounded by memory and the node budget, not
    by the interpreter's recursion limit.
    """
    stack = [call]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(child)


def _check_instance(g: DiGraph, budget: OracleBudget) -> None:
    if len(g.vertices) > budget.max_vertices:
        raise BudgetExceeded(
            f"{len(g.vertices)} vertices exceed the budget of {budget.max_vertices}"
        )
    if len(g.edges) > budget.max_edges:
        raise BudgetExceeded(
            f"{len(g.edges)} edges exceed the budget of {budget.max_edges}"
        )


def brute_disjoint_paths(
    g: DiGraph,
    sources: Iterable[int],
    targets: Iterable[int],
    budget: OracleBudget = OracleBudget(),
) -> int:
    """Maximum vertex-disjoint path count by explicit enumeration.

    Enumerates every simple path from the source set to the target set,
    including the zero-length path at a vertex lying in both, then packs a
    maximum pairwise-disjoint subfamily by branch and bound.
    """
    _check_instance(g, budget)
    srcs = frozenset(sources)
    tgts = frozenset(targets)
    for v in srcs | tgts:
        if v not in g.vertices:
            raise ValueError(f"vertex {v} is not in the graph")
    if not srcs or not tgts:
        return 0

    succ: dict[int, list[int]] = {v: [] for v in g.vertices}
    for t, h in sorted(g.edges):
        succ[t].append(h)
    meter = _Meter(budget.max_nodes_explored)
    found: set[frozenset[int]] = set()

    def extend(v: int, seen: set[int]) -> Iterator:
        meter.spend()
        if v in tgts:
            found.add(frozenset(seen))
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                yield extend(w, seen)
                seen.discard(w)

    for s in sorted(srcs):
        _run_deep(extend(s, {s}))

    # supersets of another path are never needed in a maximum packing
    candidates = sorted(found, key=lambda s: (len(s), sorted(s)))
    minimal: list[frozenset[int]] = []
    for s in candidates:
        if not any(t <= s for t in minimal):
            minimal.append(s)

    order = sorted({v for s in minimal for v in s})
    bit = {v: 1 << k for k, v in enumerate(order)}
    masks = [sum(bit[v] for v in s) for s in minimal]
    cap = min(len(srcs), len(tgts))
    best = 0

    def pack(idx: int, used: int, count: int) -> Iterator:
        nonlocal best
        meter.spend()
        if count > best:
            best = count
        if best >= cap or idx == len(masks) or count + len(masks) - idx <= best:
            return
        if not masks[idx] & used:
            yield pack(idx + 1, used | masks[idx], count + 1)
        yield pack(idx + 1, used, count)

    _run_deep(pack(0, 0, 0))
    return best


def brute_min_covering(
    g: DiGraph,
    target: Iterable[Edge],
    budget: OracleBudget = OracleBudget(),
) -> tuple[int, Covering]:
    """Exact minimum disjoint pseudotree covering of the target edges.

    All out-edges of a vertex must land in the same tree, so the unit of
    assignment is the per-tail edge block. The search walks canonical set
    partitions of the blocks, rejecting in-degree clashes as they appear and
    checking connectivity of every class at the leaves.
    """
    _check_instance(g, budget)
    targets = frozenset(target)
    for e in targets:
        if e not in g.edges:
            raise ValueError(f"target edge {e} is not in the graph")
    if not targets:
        return 0, Covering(trees=(), host=g, target_edges=frozenset())

    tails = sorted({t for t, _ in targets})
    blocks = [tuple(sorted(e for e in targets if e[0] == v)) for v in tails]
    n = len(blocks)
    meter = _Meter(budget.max_nodes_explored)

    def connected(edges: tuple[Edge, ...]) -> bool:
        adj: dict[int, list[int]] = {}
        for t, h in edges:
            adj.setdefault(t, []).append(h)
            adj.setdefault(h, []).append(t)
        verts = set(adj)
        seen = {next(iter(verts))}
        stack = list(seen)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == verts

    # the all-stars partition is always feasible, so a witness always exists
    best_k = n
    best_classes: list[tuple[Edge, ...]] = [b for b in blocks]

    heads: list[set[int]] = []
    members: list[list[int]] = []

    def assign(i: int) -> Iterator:
        nonlocal best_k, best_classes
        meter.spend()
        if len(heads) >= best_k:
            return
        if i == n:
            classes = [
                tuple(sorted(e for b in ms for e in blocks[b])) for ms in members
            ]
            if all(connected(cl) for cl in classes):
                best_k = len(classes)
                best_classes = classes
            return
        block_heads = {h for _, h in blocks[i]}
        for c in range(len(heads)):
            if heads[c] & block_heads:
                continue
            heads[c] |= block_heads
            members[c].append(i)
            yield assign(i + 1)
            members[c].pop()
            heads[c] -= block_heads
        if len(heads) + 1 < best_k:
            heads.append(set(block_heads))
            members.append([i])
            yield assign(i + 1)
            members.pop()
            heads.pop()

    _run_deep(assign(0))
    trees = tuple(Pseudotree.from_edges(cl) for cl in best_classes)
    return best_k, Covering(trees=trees, host=g, target_edges=targets)


def brute_identifiability(
    eg: ExtendedGraph, budget: OracleBudget = OracleBudget()
) -> bool:
    """Identifiability decided with the exhaustive path counter only."""
    for j in sorted(eg.internal):
        targets = extended_in_neighbors(eg, j)
        if not targets:
            continue
        got = brute_disjoint_paths(eg.graph, eg.stimulated, targets, budget)
        if got != len(targets):
            return False
    return True
