"""Pseudotree coverings and the three-valued merge algebra.

A pseudotree is a connected simple digraph on at least two vertices in which
every vertex has in-degree at most one; it is a rooted tree plus at most one
extra edge closing a single cycle. A disjoint family of pseudotrees covering
a target edge set is the combinatorial object behind both the excitation and
the measurement selection problems, and the merge heuristic below shrinks an
initial star covering by repeatedly folding one tree into another.

Mergeability bookkeeping lives in a square matrix over {One, Zero, Empty}:
One means tree i can fold into tree j, Empty means the two trees do not even
share a vertex, Zero anything else. CharMatrix is the dense form the paper
writes down, and reduce updates it after a merge: the odot fold of the merged
row and column, plus the mergeability triangles the entrywise rules cannot
see, which together reproduce the matrix recomputed from the merged
covering. matrix_only_merge runs the merge policy on a CharMatrix through
reduce. The merge loop runs on _MergeMatrix instead: trees keyed by an id,
one map per row holding its One and Zero entries as True and False, Empty
left out, and a merge folds the two trees' rows and the cells of their
columns in place. Under that encoding odot is Python's `and`, with Empty as
its identity. The trace and merge_trees speak in 1-based positions; a
tree's position is its id's rank among the trees still live. The loop keeps
the conservative odot-only fold and rebuilds the matrix from the covering
between passes, because the exact fold changes what the merge decides: with
reduce in the loop the trace differs on 49 of 2,942 random_model inputs and
on 35 of 40 sparse models at L = 30-70 (ROADMAP item 10).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    vertices: Iterable[int], edges: Iterable[Edge]
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


def is_mergeable(t1: Pseudotree, t2: Pseudotree) -> bool:
    """True when t1 can fold into t2.

    By definition the union of the two trees must itself be a pseudotree
    and every root of t2 must reach every vertex of t1 inside the union. For
    trees that share no edge, as no two trees of a covering do, this is
    decided from their roots and vertex sets without building the union:

    - The union is a pseudotree exactly when the trees share a vertex and
      no vertex is a head in both: it is then connected and keeps in-degree
      at most one. A tree's heads are all its vertices but its root; a
      cyclic pseudotree's heads are all its vertices.
    - If t1 is a tree, t2's roots reach all of t1 exactly when they reach
      t1's root r, since r reaches all of t1. r has no in-edge in t1, so
      its only possible in-edge in the union comes from t2: if r lies in
      t2, t2's roots reach it inside t2; if not, nothing but r reaches r.
    - If t1 has a cycle, a cycle vertex's only in-edge in the union is its
      own cycle edge, so only cycle vertices reach the cycle, and t2's roots
      must all lie on it: t2's roots must be a subset of t1's. Then t2 is
      a tree, since t1 leaves no shared vertex headless and the head test
      passed only because the shared vertices are t2's root; that root, on
      t1's cycle, reaches all of the union.

    The same facts give the union's roots, which merge_trees reads off
    instead of testing the union. A pseudotree union has |V| - 1 edges, as
    a tree, or |V|. A tree union comes from two trees that share only t1's
    root r. If r is t2's root as well, it is the union's root. If not, r
    has its in-edge in t2, while t2's root has none in t2 and, not being
    shared, none in t1: t2's root is the union's. A union with |V| edges
    has one cycle. If t1 has a cycle, that is the cycle, so t1's roots are
    the union's. If t2 has one, t1 is a tree that shares only its root, so
    the union keeps t2's cycle and t2's roots. If both are trees, they
    share both roots, and the new cycle runs from each root to the other
    through one tree: only then are the roots found by walking the union.

    Vertex-disjoint pairs come out False. Pairs that share an edge fall
    outside the covering contract: the shared edge's head is a head in
    both, so they come out False as well, even where the union definition
    would have said True.

    The rule lives in _mergeable_pair, which decides both directions of a
    pair at once; this is its first value.
    """
    return _mergeable_pair(t1, t2)[0]


def _mergeable_pair(t1: Pseudotree, t2: Pseudotree) -> tuple[bool, bool]:
    """is_mergeable(t1, t2) and is_mergeable(t2, t1), in that order.

    The union test is the same in both directions, so both are decided from
    one shared-vertex set and one pair of tree flags (see is_mergeable).
    """
    shared = t1.vertices & t2.vertices
    tree1 = len(t1.edges) < len(t1.vertices)
    tree2 = len(t2.edges) < len(t2.vertices)
    unheaded = (t1.roots if tree1 else frozenset()) | (t2.roots if tree2 else frozenset())
    if not shared or not shared <= unheaded:
        return False, False
    return (
        t1.roots <= t2.vertices if tree1 else t2.roots <= t1.roots,
        t2.roots <= t1.vertices if tree2 else t1.roots <= t2.roots,
    )


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
        ok, roots = is_pseudotree(t.vertices, t.edges)
        if not (t.vertices <= c.host.vertices and t.edges <= c.host.edges):
            problems.append(f"tree {k} leaves the host graph")
        if not ok:
            problems.append(f"tree {k} is not a pseudotree")
        elif roots != t.roots:
            problems.append(f"tree {k} carries a stale root set")
        if not t.edges <= c.target_edges:
            problems.append(f"tree {k} uses edges outside the target set")
    # Disjoint: no vertex has out-edges in two trees, so no edge is shared.
    tails = [{t for t, _ in tree.edges} for tree in c.trees]
    for a in range(len(tails)):
        for b in range(a + 1, len(tails)):
            if tails[a] & tails[b]:
                problems.append(f"trees {a + 1} and {b + 1} are not disjoint")
    covered = frozenset(e for t in c.trees for e in t.edges)
    for e in sorted(c.target_edges - covered):
        problems.append(f"target edge {e} is uncovered")
    return tuple(problems)


def initial_covering(eg: ExtendedGraph) -> Covering:
    """One star per vertex with outgoing target edges, in ascending id order.

    A star is a tree rooted at its centre, so its root set is the centre.
    """
    targets = eg.parameterized_edges
    if not targets:
        raise ValueError("no parameterized edges to cover")
    heads: dict[int, list[int]] = {}
    for t, h in targets:
        heads.setdefault(t, []).append(h)
    trees = tuple(
        Pseudotree(
            frozenset([v, *heads[v]]),
            frozenset([(v, h) for h in heads[v]]),
            frozenset([v]),
        )
        for v in sorted(heads)
    )
    return Covering(trees=trees, host=eg.graph, target_edges=targets)


def merge_trees(c: Covering, i: int, j: int) -> Covering:
    """Fold tree i into tree j (1-based positions).

    is_mergeable guards the merge, and the merged tree's roots follow from
    the two trees' (see is_mergeable): an acyclic union keeps tj's roots, a
    union with ti's cycle takes ti's roots and one with tj's cycle tj's.
    Only when two trees close a new cycle, as (3, 1) folding into (1, 3)
    does, are the roots read off the union by is_pseudotree: the merged
    tree then gains roots the absorbing tree never had.
    """
    n = len(c.trees)
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"invalid tree positions ({i}, {j}) for {n} trees")
    ti, tj = c.trees[i - 1], c.trees[j - 1]
    if not is_mergeable(ti, tj):
        raise ValueError(f"tree {i} is not mergeable into tree {j}")
    vertices, edges = ti.vertices | tj.vertices, ti.edges | tj.edges
    if len(edges) < len(vertices):
        roots = tj.roots
    elif len(ti.edges) == len(ti.vertices):
        roots = ti.roots
    elif len(tj.edges) == len(tj.vertices):
        roots = tj.roots
    else:
        _, roots = is_pseudotree(vertices, edges)
    trees = list(c.trees)
    trees[j - 1] = Pseudotree(vertices, edges, roots)
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
    rows = _MergeMatrix.of_trees(c.trees).rows
    entry = {True: CharEntry.ONE, False: CharEntry.ZERO, None: CharEntry.EMPTY}
    return CharMatrix.from_rows(
        (entry[False if r == k else row.get(k)] for k in rows) for r, row in rows.items()
    )


def char_matrix_from_adjacency(
    g: DiGraph, target_edges: frozenset[Edge] | None = None
) -> CharMatrix:
    """Mergeability matrix of the star covering, by complex column products.

    Indexing follows the star covering: one row/column per vertex with
    outgoing target edges, ascending. Centre v's column col_v + i*e_v is kept
    as a sparse map: 1 at each head of v's target edges, i at v. For distinct
    stars the product a_ij = (col_i + i*e_i)^T (col_j + i*e_j) packs
    everything needed: the real part counts shared out-neighbors (an
    in-degree conflict in the union), the imaginary part flags adjacency
    between the two centers, and a_ij = 0 is exactly vertex-disjointness.
    Tree i folds into tree j when the real part vanishes, the centers are
    adjacent, and specifically the edge from center j to center i exists so
    j's star reaches all of i's. A product runs over the keys of one column,
    so n centres and T target edges cost O(n (n + T)).
    """
    targets = g.edges if target_edges is None else target_edges
    for e in targets:
        if e not in g.edges:
            raise ValueError(f"target edge {e} is not in the graph")
    cols: dict[int, dict[int, complex]] = {}
    for t, h in targets:
        cols.setdefault(t, {t: 1j})[h] = 1
    centers = sorted(cols)

    rows = []
    for vi in centers:
        row = []
        for vj in centers:
            if vi == vj:
                row.append(CharEntry.ZERO)
                continue
            cj = cols[vj]
            a = sum(x * cj[v] for v, x in cols[vi].items() if v in cj)
            if a == 0:
                row.append(CharEntry.EMPTY)
            elif a.real == 0 and a.imag != 0 and (vj, vi) in targets:
                row.append(CharEntry.ONE)
            else:
                row.append(CharEntry.ZERO)
        rows.append(tuple(row))
    return CharMatrix(tuple(rows))


class _MergeMatrix:
    """The merge loop's characteristic matrix, keyed by tree id, folded in place.

    rows[r] holds the One and Zero entries of row r as booleans, True for
    One and False for Zero; an absent key means Empty, and the diagonal,
    always Zero, is not stored. On this encoding odot is `and` with Empty
    as its identity. ids lists the live ids in ascending order; a fold
    keeps the order of the surviving trees, so an id's 1-based position in
    the matrix is its rank there. ones counts the Ones of every row that
    has any. lossy is set once a fold leaves a mergeability triangle below
    One (see fold), the only way the matrix can drift from the one of_trees
    would build from the merged covering.

    Empty means the two trees share no vertex, which is symmetric, so in a
    matrix built by of_trees row r's keys are also the rows whose column r
    is non-Empty. fold relies on that and keeps it; only of_trees matrices
    are folded. pick reads any rows.
    """

    def __init__(self, rows: dict[int, dict[int, bool]]) -> None:
        self.rows = rows
        self.ids = sorted(rows)
        self.ones = {r: k for r, row in rows.items() if (k := sum(row.values()))}
        self.lossy = False

    @classmethod
    def of_trees(cls, trees: tuple[Pseudotree, ...]) -> _MergeMatrix:
        """The matrix of trees[k - 1] as id k, one decision per unordered pair.

        Pairs that share no vertex are Empty, so only the pairs found through
        a vertex -> trees index are decided, in any order: every reader takes
        a minimum. _mergeable_pair gives both directions of a pair, which
        fill its two cells.
        """
        rows: dict[int, dict[int, bool]] = {k: {} for k in range(1, len(trees) + 1)}
        holders: dict[int, list[int]] = {}
        for k, t in enumerate(trees, start=1):
            for v in t.vertices:
                holders.setdefault(v, []).append(k)
        pairs = {(a, b) for ks in holders.values() for a in ks for b in ks if a < b}
        for a, b in pairs:
            rows[a][b], rows[b][a] = _mergeable_pair(trees[a - 1], trees[b - 1])
        return cls(rows)

    def position(self, k: int) -> int:
        return bisect_left(self.ids, k) + 1

    def _count(self, r: int, delta: int) -> None:
        if delta:
            k = self.ones.get(r, 0) + delta
            if k:
                self.ones[r] = k
            else:
                del self.ones[r]

    def pick(self, forced: bool) -> tuple[int, int] | None:
        """The (row, column) ids to merge next, or None when no row qualifies.

        A row qualifies with exactly one One when forced, else with any One.
        The row with the fewest non-Empty entries (the most Empties) wins,
        ties going to the lowest id; it folds into its lowest One column.
        """
        best: tuple[int, int] | None = None
        for r, k in self.ones.items():
            if forced and k != 1:
                continue
            key = (len(self.rows[r]), r)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        r = best[1]
        return r, min(c for c, e in self.rows[r].items() if e)

    def fold(self, i: int, j: int) -> None:
        """Fold row/column i into row/column j by odot and drop id i.

        Only rows i and j and the cells (k, i) and (k, j) move, for the keys
        k of row i, which by symmetric support are all the rows with a
        non-Empty (k, i). A k with (k, i) = One and (j, k) = One whose (k, j)
        or (j, k) the fold leaves below One is a triangle reduce would raise,
        and it sets lossy.
        """
        rows = self.rows
        ri, rj = rows.pop(i), rows[j]
        self.ones.pop(i, None)
        del self.ids[bisect_left(self.ids, i)]
        del ri[j]
        delta = -rj.pop(i)
        for k, e in ri.items():
            old = rj.get(k)
            if old is None or (old and not e):
                rj[k] = e
                delta += e - bool(old)
            row = rows[k]
            f = row.pop(i)
            kj = row.get(j)
            if kj is None:
                row[j] = f
            elif kj or f:
                row[j] = kj and f
                self._count(k, -1)
            if f and old and not (e and kj is not False):
                self.lossy = True
        self._count(j, delta)


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
    n = m.n
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"invalid positions ({i}, {j}) for a {n}x{n} matrix")
    if m.entry(i, j) is not CharEntry.ONE:
        raise ValueError(f"entry ({i}, {j}) is not 1; the pair cannot be merged")
    old, i0, j0 = m.entries, i - 1, j - 1
    rows = [list(row) for row in old]
    for k in range(n):
        rows[j0][k] = odot(old[i0][k], old[j0][k])
        rows[k][j0] = odot(old[k][i0], old[k][j0])
    for k in range(n):
        if old[k][i0] is CharEntry.ONE and old[j0][k] is CharEntry.ONE:
            rows[k][j0] = rows[j0][k] = CharEntry.ONE
    del rows[i0]
    for row in rows:
        del row[i0]
    return CharMatrix.from_rows(rows)


# ---- the merge heuristic ----


def _merge_steps(m: _MergeMatrix) -> Iterator[tuple[int, int]]:
    """Two-phase merge selection on m, folding it in place as it goes.

    Phase one merges forced rows (exactly one One) until none is left, then
    phase two spends the remaining Ones; pick chooses every step. Each merge
    is yielded as 1-based positions (i, j) before m folds it.
    """
    for forced in (True, False):
        while (pick := m.pick(forced)) is not None:
            i, j = pick
            yield m.position(i), m.position(j)
            m.fold(i, j)


def _rows(m: CharMatrix) -> dict[int, dict[int, bool]]:
    """m's rows in _MergeMatrix's encoding, keyed by 1-based position."""
    return {
        r: {
            c: e is CharEntry.ONE
            for c, e in enumerate(row, start=1)
            if c != r and e is not CharEntry.EMPTY
        }
        for r, row in enumerate(m.entries, start=1)
    }


def matrix_only_merge(m: CharMatrix) -> tuple[CharMatrix, list[tuple[int, int]]]:
    """Run the merge selection policy on a bare matrix, following each merge
    by reduce.

    Every step picks on a _MergeMatrix of m's rows, so the pick rule lives
    in _MergeMatrix.pick alone; that matrix is only picked from, never
    folded, and m may have any Empty pattern. A step costs O(n^2), as
    reduce does: the input is already n^2.
    """
    trace: list[tuple[int, int]] = []
    for forced in (True, False):
        while (pick := _MergeMatrix(_rows(m)).pick(forced)) is not None:
            trace.append(pick)
            m = reduce(m, *pick)
    return m, trace


def algorithm1_merge(eg: ExtendedGraph) -> tuple[Covering, list[tuple[int, int]]]:
    """Shrink the star covering of the parameterized edges by greedy merging.

    Each pass builds the sparse matrix of the current covering, keyed by the
    trees' positions at the start of the pass, and runs the two-phase policy
    on it. The trace records every merge as the trees' 1-based positions in
    the covering at that moment, which is each id's rank among the ids still
    live. Within a pass the matrix follows each merge by the odot-only fold,
    which never overstates mergeability, so every selected pair is safe to
    merge on the covering (merge_trees still checks it). It can understate
    it though: folding tree i into tree j may close a mergeability triangle
    with a third tree, which the entrywise arithmetic maps to Zero (reduce
    adds these back). A pass can therefore end with genuine merges left, so
    the loop rebuilds the matrix from the covering and goes on. It stops
    after a pass whose folds left no triangle below One: that pass's matrix
    stayed the exact one of the covering (criterion 7), and it ended with
    no One, so a rebuilt matrix would hold none either. A pass that merges
    nothing folds nothing and stops the loop too. The loop keeps this
    conservative fold because the exact one changes the trace on 49 of
    2,942 random_model inputs and on 35 of 40 sparse models at L = 30-70
    (ROADMAP item 10).

    Without parameterized edges there is nothing to cover: the result is
    the empty covering and an empty trace.
    """
    if not eg.parameterized_edges:
        return Covering(trees=(), host=eg.graph, target_edges=eg.parameterized_edges), []
    c = initial_covering(eg)
    trace: list[tuple[int, int]] = []
    while True:
        m = _MergeMatrix.of_trees(c.trees)
        for i, j in _merge_steps(m):
            c = merge_trees(c, i, j)
            trace.append((i, j))
        if not m.lossy:
            return c, trace
