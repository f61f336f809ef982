"""Pseudotree coverings and the three-valued merge algebra.

A pseudotree is a connected simple digraph on at least two vertices in which
every vertex has in-degree at most one; it is a rooted tree plus at most one
extra edge closing a single cycle. A disjoint family of pseudotrees covering
a target edge set is the combinatorial object behind both the excitation and
the measurement selection problems, and the merge heuristic below shrinks an
initial star covering by repeatedly folding one tree into another.

Mergeability bookkeeping lives in a square matrix over {One, Zero, Empty}:
One means tree i can fold into tree j, Empty means the two trees do not even
share a vertex, Zero anything else. After a merge the matrix is updated by
pure row/column arithmetic (reduce): the odot fold of the merged row and
column, plus the mergeability triangles the entrywise rules cannot see,
which together reproduce the matrix recomputed from the merged covering.
The covering-backed merge loop keeps the conservative odot-only fold and
re-derives the matrix from the covering between passes, so the coverings
it produces stay as they were; reduce serves the matrix-only entry point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

from dynetid.graph import DiGraph, Edge
from dynetid.model import ExtendedGraph


class CharEntry(enum.Enum):
    ZERO = "0"
    ONE = "1"
    EMPTY = "E"

    def __str__(self) -> str:
        return self.value


def odot(a: CharEntry, b: CharEntry) -> CharEntry:
    """Combine two mergeability entries: Zero absorbs, One beats Empty."""
    if a is CharEntry.ZERO or b is CharEntry.ZERO:
        return CharEntry.ZERO
    if a is CharEntry.ONE or b is CharEntry.ONE:
        return CharEntry.ONE
    return CharEntry.EMPTY


# ---- pseudotrees ----


def _reachable(succ: dict[int, list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_pseudotree(
    vertices: Iterable[int],
    edges: Iterable[Edge],
    host: DiGraph | None = None,
) -> tuple[bool, frozenset[int]]:
    """Test the pseudotree conditions; on success also return the root set.

    Roots are the vertices with exactly one directed path to every other
    vertex. Under the in-degree bound any existing path is unique (walking
    in-edges backward from the endpoint is deterministic), so the root set
    is simply the set of vertices that reach all others. A connected graph
    with in-degree at most one has |V| - 1 edges or |V|. With |V| - 1 it is
    a tree, rooted at its one vertex of in-degree zero. With |V| every vertex
    has one in-edge, and walking in-edges backward from any vertex ends on
    the one cycle; every cycle vertex reaches the whole graph and no other
    vertex reaches the cycle, so the roots are the cycle's vertices.
    """
    vs = frozenset(vertices)
    es = frozenset(edges)
    if host is not None:
        if not vs <= host.vertices or not es <= host.edges:
            raise ValueError("subgraph is not contained in the host graph")
    if len(vs) < 2:
        return False, frozenset()
    pred: dict[int, int] = {}
    und: dict[int, list[int]] = {v: [] for v in vs}
    for t, h in es:
        if t == h or t not in vs or h not in vs or h in pred:
            return False, frozenset()
        pred[h] = t
        und[t].append(h)
        und[h].append(t)
    if _reachable(und, min(vs)) != vs:
        return False, frozenset()
    if len(es) < len(vs):
        return True, vs.difference(pred)
    v = min(vs)
    for _ in vs:
        v = pred[v]
    cycle = [v]
    while pred[cycle[-1]] != v:
        cycle.append(pred[cycle[-1]])
    return True, frozenset(cycle)


@dataclass(frozen=True)
class Pseudotree:
    vertices: frozenset[int]
    edges: frozenset[Edge]
    roots: frozenset[int]

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> Pseudotree:
        es = frozenset(edges)
        vs = frozenset(v for e in es for v in e)
        ok, roots = is_pseudotree(vs, es)
        if not ok:
            raise ValueError("edge set does not form a pseudotree")
        return cls(vs, es, roots)


def are_disjoint(t1: Pseudotree, t2: Pseudotree) -> bool:
    """No shared edges, and no vertex has out-edges in both trees."""
    if t1.edges & t2.edges:
        return False
    tails1 = {t for t, _ in t1.edges}
    tails2 = {t for t, _ in t2.edges}
    return not (tails1 & tails2)


def is_mergeable(t1: Pseudotree, t2: Pseudotree) -> bool:
    """True when t1 can fold into t2.

    The union of the two trees must itself be a pseudotree and every root of
    t2 must reach every vertex of t1 inside the union. A root of t2 already
    reaches all of t2, so that holds exactly when every root of t2 is a root
    of the union. Callers supply trees that are disjoint in the covering
    sense; vertex-disjoint pairs fail the connectivity test and come out
    False.
    """
    ok, roots = is_pseudotree(t1.vertices | t2.vertices, t1.edges | t2.edges)
    return ok and t2.roots <= roots


# ---- coverings ----


@dataclass(frozen=True)
class Covering:
    """An ordered family of disjoint pseudotrees covering target_edges."""

    trees: tuple[Pseudotree, ...]
    host: DiGraph
    target_edges: frozenset[Edge]

    def __len__(self) -> int:
        return len(self.trees)


def covering_violations(c: Covering) -> tuple[str, ...]:
    """Diagnostics for the covering invariants; empty means valid."""
    problems: list[str] = []
    for k, t in enumerate(c.trees, start=1):
        ok, roots = is_pseudotree(t.vertices, t.edges, host=c.host)
        if not ok:
            problems.append(f"tree {k} is not a pseudotree")
        elif roots != t.roots:
            problems.append(f"tree {k} carries a stale root set")
        if not t.edges <= c.target_edges:
            problems.append(f"tree {k} uses edges outside the target set")
    for a in range(len(c.trees)):
        for b in range(a + 1, len(c.trees)):
            if not are_disjoint(c.trees[a], c.trees[b]):
                problems.append(f"trees {a + 1} and {b + 1} are not disjoint")
    covered = frozenset(e for t in c.trees for e in t.edges)
    for e in sorted(c.target_edges - covered):
        problems.append(f"target edge {e} is uncovered")
    return tuple(problems)


def initial_covering(eg: ExtendedGraph) -> Covering:
    """One star per vertex with outgoing target edges, in ascending id order."""
    targets = eg.parameterized_edges
    if not targets:
        raise ValueError("no parameterized edges to cover")
    by_tail: dict[int, list[Edge]] = {}
    for e in targets:
        by_tail.setdefault(e[0], []).append(e)
    trees = tuple(Pseudotree.from_edges(by_tail[v]) for v in sorted(by_tail))
    return Covering(trees=trees, host=eg.graph, target_edges=targets)


def merge_trees(c: Covering, i: int, j: int) -> Covering:
    """Fold tree i into tree j (1-based positions); roots are recomputed.

    Recomputing guards against the union closing a new root cycle, in which
    case the merged tree gains roots the absorbing tree never had.
    """
    n = len(c.trees)
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"invalid tree positions ({i}, {j}) for {n} trees")
    ti, tj = c.trees[i - 1], c.trees[j - 1]
    if not is_mergeable(ti, tj):
        raise ValueError(f"tree {i} is not mergeable into tree {j}")
    union = Pseudotree.from_edges(ti.edges | tj.edges)
    trees = list(c.trees)
    trees[j - 1] = union
    del trees[i - 1]
    return Covering(trees=tuple(trees), host=c.host, target_edges=c.target_edges)


# ---- characteristic matrices ----


@dataclass(frozen=True)
class CharMatrix:
    entries: tuple[tuple[CharEntry, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for r, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError("characteristic matrix must be square")
            if row[r] is not CharEntry.ZERO:
                raise ValueError(f"diagonal entry ({r + 1}, {r + 1}) must be 0")

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> CharEntry:
        """Entry at 1-based position (i, j)."""
        return self.entries[i - 1][j - 1]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[CharEntry]]) -> CharMatrix:
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def parse(cls, text: str) -> CharMatrix:
        """Parse rows of whitespace-separated tokens 0, 1, E."""
        rows = []
        for line in text.strip().splitlines():
            tokens = line.split()
            if not tokens:
                continue
            rows.append(tuple(CharEntry(tok) for tok in tokens))
        return cls(tuple(rows))

    def render(self) -> str:
        return "\n".join(" ".join(str(e) for e in row) for row in self.entries)


def char_matrix(c: Covering) -> CharMatrix:
    """Mergeability matrix of a covering by the direct pairwise checks."""
    n = len(c.trees)
    rows = []
    for i in range(n):
        ti = c.trees[i]
        row = []
        for j in range(n):
            if i == j:
                row.append(CharEntry.ZERO)
            elif not (ti.vertices & c.trees[j].vertices):
                row.append(CharEntry.EMPTY)
            elif is_mergeable(ti, c.trees[j]):
                row.append(CharEntry.ONE)
            else:
                row.append(CharEntry.ZERO)
        rows.append(tuple(row))
    return CharMatrix(tuple(rows))


def char_matrix_from_adjacency(
    g: DiGraph, target_edges: frozenset[Edge] | None = None
) -> CharMatrix:
    """Mergeability matrix of the star covering, by complex column products.

    Indexing follows the star covering: one row/column per vertex with
    outgoing target edges, ascending. For distinct stars the product
    a_ij = (col_i + i*e_i)^T (col_j + i*e_j) packs everything needed: the
    real part counts shared out-neighbors (an in-degree conflict in the
    union), the imaginary part flags adjacency between the two centers, and
    a_ij = 0 is exactly vertex-disjointness. Tree i folds into tree j when
    the real part vanishes, the centers are adjacent, and specifically the
    edge from center j to center i exists so j's star reaches all of i's.
    """
    targets = g.edges if target_edges is None else target_edges
    for e in targets:
        if e not in g.edges:
            raise ValueError(f"target edge {e} is not in the graph")
    order = g.sorted_vertices()
    pos = {v: k for k, v in enumerate(order)}
    centers = sorted({t for t, _ in targets})

    cols: dict[int, list[complex]] = {}
    for v in centers:
        col = [0j] * len(order)
        for t, h in targets:
            if t == v:
                col[pos[h]] += 1
        col[pos[v]] += 1j
        cols[v] = col

    n = len(centers)
    rows = []
    for i in range(n):
        vi = centers[i]
        row = []
        for j in range(n):
            vj = centers[j]
            if i == j:
                row.append(CharEntry.ZERO)
                continue
            a = sum(x * y for x, y in zip(cols[vi], cols[vj]))
            if a == 0:
                row.append(CharEntry.EMPTY)
            elif a.real == 0 and a.imag != 0 and (vj, vi) in targets:
                row.append(CharEntry.ONE)
            else:
                row.append(CharEntry.ZERO)
        rows.append(tuple(row))
    return CharMatrix(tuple(rows))


def _entrywise_fold(m: CharMatrix, i: int, j: int) -> CharMatrix:
    """Fold row/column i into row/column j by odot alone; drop index i.

    Row j and column j are recombined entrywise against row and column i of
    the original matrix; the (j, j) cell lands on Zero either way because
    the old diagonal absorbs. Applied to an exact matrix this never invents
    a One, and its only misses are Zero-for-One in the merged row or
    column: the mergeability triangles that reduce adds back.
    """
    n = m.n
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"invalid positions ({i}, {j}) for a {n}x{n} matrix")
    if m.entry(i, j) is not CharEntry.ONE:
        raise ValueError(f"entry ({i}, {j}) is not 1; the pair cannot be merged")
    old = m.entries
    i0, j0 = i - 1, j - 1
    rows = []
    for r in range(n):
        if r == i0:
            continue
        row = []
        for c in range(n):
            if c == i0:
                continue
            if r == j0:
                row.append(odot(old[i0][c], old[j0][c]))
            elif c == j0:
                row.append(odot(old[r][i0], old[r][j0]))
            else:
                row.append(old[r][c])
        rows.append(tuple(row))
    return CharMatrix(tuple(rows))


def reduce(m: CharMatrix, i: int, j: int) -> CharMatrix:
    """Fold row/column i into row/column j and drop index i (1-based).

    The merged row and column are first combined entrywise with odot. That
    misses one case, a mergeability triangle: a tree k with (k, i) = One
    and (j, k) = One is mergeable with the grown tree in both directions,
    yet odot yields Zero there when (k, j) and (i, k) are Zero. The
    pairwise unions are pseudotrees, so the union of all three has
    in-degree at most one and is connected, hence a pseudotree. k folds
    into the grown tree because every root of the grown tree reaches i's
    roots, which reach all of k. The grown tree folds into k because k's
    roots reach all of tree j, including j's roots, which reach all of i.
    Raising those two entries to One makes the result equal the matrix
    recomputed from the merged covering whenever m is exact.
    """
    rows = [list(row) for row in _entrywise_fold(m, i, j).entries]
    j0 = j - 1 - (j > i)
    for k in range(1, m.n + 1):
        if m.entry(k, i) is CharEntry.ONE and m.entry(j, k) is CharEntry.ONE:
            k0 = k - 1 - (k > i)
            rows[k0][j0] = CharEntry.ONE
            rows[j0][k0] = CharEntry.ONE
    return CharMatrix.from_rows(rows)


# ---- the merge heuristic ----


def _pick_row(m: CharMatrix, forced: bool) -> tuple[int, int] | None:
    """The (row, column) to merge next, or None when no row qualifies.

    A row qualifies with exactly one One when forced, else with any One.
    The row with the most Empties wins, ties going to the lowest index; it
    folds into its lowest One column.
    """
    best: tuple[int, int, int] | None = None
    for r, row in enumerate(m.entries, start=1):
        ones = [c for c, e in enumerate(row, start=1) if e is CharEntry.ONE]
        qualifies = len(ones) == 1 if forced else bool(ones)
        if not qualifies:
            continue
        empties = row.count(CharEntry.EMPTY)
        if best is None or empties > best[0]:
            best = (empties, r, ones[0])
    return None if best is None else best[1:]


def _run_merge_policy(
    m: CharMatrix, advance: Callable[[CharMatrix, int, int], CharMatrix]
) -> tuple[CharMatrix, list[tuple[int, int]]]:
    """Two-phase merge selection; advance() yields the post-merge matrix.

    Phase one merges forced rows (exactly one One) until none is left, then
    phase two spends the remaining Ones; _pick_row chooses every step.
    """
    trace: list[tuple[int, int]] = []
    for forced in (True, False):
        while (pick := _pick_row(m, forced)) is not None:
            trace.append(pick)
            m = advance(m, *pick)
    return m, trace


def matrix_only_merge(m: CharMatrix) -> tuple[CharMatrix, list[tuple[int, int]]]:
    """Run the merge selection policy on a bare matrix via reduce alone."""
    return _run_merge_policy(m, reduce)


def algorithm1_merge(eg: ExtendedGraph) -> tuple[Covering, list[tuple[int, int]]]:
    """Shrink the star covering of the parameterized edges by greedy merging.

    Each two-phase pass keeps its matrix current with the odot-only fold,
    which never overstates mergeability, so every selected pair is safe to
    merge on the covering. It can understate it though: folding tree i into
    tree j may close a mergeability triangle with a third tree, which the
    entrywise arithmetic maps to Zero (reduce adds these back). A pass can
    therefore end with genuine merges left, so the matrix is re-derived
    from the covering between passes and the loop only stops once it is
    One-free. The loop keeps this conservative fold and its recompute so
    that the coverings and traces it produces stay unchanged.

    Without parameterized edges there is nothing to cover: the result is
    the empty covering and an empty trace.
    """
    if not eg.parameterized_edges:
        return Covering(trees=(), host=eg.graph, target_edges=eg.parameterized_edges), []
    state = {"c": initial_covering(eg)}

    def advance(m: CharMatrix, i: int, j: int) -> CharMatrix:
        state["c"] = merge_trees(state["c"], i, j)
        return _entrywise_fold(m, i, j)

    trace: list[tuple[int, int]] = []
    while True:
        _, pass_trace = _run_merge_policy(char_matrix(state["c"]), advance)
        trace.extend(pass_trace)
        if not pass_trace:
            return state["c"], trace
