"""Reference merge heuristic for differential tests.

This is the merge loop the library ran before its sparse, in-place
mergeability matrix: each pass builds the dense characteristic matrix of the
covering by direct pairwise checks, every merge rebuilds that matrix as a new
(n-1)^2 tuple through the odot-only fold, and every policy step rescans every
cell. It is O(n^3) in the star count n, which is why it lives here and not in
the library; the tests compare the library's traces and coverings against it.
matrix_only_merge is the same policy on a bare matrix with the triangle rule
after each fold, the reference for the library's reduce and
matrix_only_merge. dense_char_matrix_from_adjacency is the formula matrix
with a dense column of length |V| per star centre and one scan of the
target edges per centre, O(n^2 |V|); the library multiplies sparse columns.
"""

from __future__ import annotations

from dynetid.graph import DiGraph, Edge
from dynetid.model import ExtendedGraph
from dynetid.pseudotree import (
    CharEntry,
    CharMatrix,
    Covering,
    initial_covering,
    is_mergeable,
    merge_trees,
    odot,
)


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


def dense_char_matrix_from_adjacency(
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
    jc = j0 - (j0 > i0)
    rows = []
    for r in range(n):
        if r == i0:
            continue
        row = old[r]
        if r == j0:
            rows.append(tuple(odot(old[i0][c], row[c]) for c in range(n) if c != i0))
        else:
            # Outside row j only column j changes; the rest is copied.
            kept = row[:i0] + row[i0 + 1:]
            rows.append(kept[:jc] + (odot(row[i0], row[j0]),) + kept[jc + 1:])
    return CharMatrix(tuple(rows))


def _pick_row(m: CharMatrix, forced: bool) -> tuple[int, int] | None:
    """The (row, column) to merge next, or None when no row qualifies.

    A row qualifies with exactly one One when forced, else with any One.
    The row with the most Empties wins, ties going to the lowest index; it
    folds into its lowest One column.
    """
    best: tuple[int, int, int] | None = None
    for r, row in enumerate(m.entries, start=1):
        ones = row.count(CharEntry.ONE)
        qualifies = ones == 1 if forced else ones > 0
        if not qualifies:
            continue
        empties = row.count(CharEntry.EMPTY)
        if best is None or empties > best[0]:
            best = (empties, r, row.index(CharEntry.ONE) + 1)
    return None if best is None else best[1:]


def _close_triangles(m: CharMatrix, folded: CharMatrix, i: int, j: int) -> CharMatrix:
    """The triangle rule on folded, the fold of i into j: every k with
    (k, i) = One and (j, k) = One in m gets One at (k, j) and (j, k)."""
    rows = [list(row) for row in folded.entries]
    at = {p: p - 1 - (p > i) for p in range(1, m.n + 1) if p != i}
    for k in at:
        if k != j and m.entry(k, i) is CharEntry.ONE and m.entry(j, k) is CharEntry.ONE:
            rows[at[k]][at[j]] = rows[at[j]][at[k]] = CharEntry.ONE
    return CharMatrix.from_rows(rows)


def matrix_only_merge(m: CharMatrix) -> tuple[CharMatrix, list[tuple[int, int]]]:
    """The two-phase policy on a bare matrix, each merge followed by the
    odot fold plus the triangle rule."""
    trace: list[tuple[int, int]] = []
    for forced in (True, False):
        while (pick := _pick_row(m, forced)) is not None:
            trace.append(pick)
            m = _close_triangles(m, _entrywise_fold(m, *pick), *pick)
    return m, trace


def merge_pass(c: Covering) -> tuple[Covering, list[tuple[int, int]]]:
    """One two-phase pass over the covering's freshly built matrix.

    Phase one merges forced rows (exactly one One) until none is left, then
    phase two spends the remaining Ones; the matrix follows each merge by
    the odot-only fold.
    """
    m = char_matrix(c)
    trace: list[tuple[int, int]] = []
    for forced in (True, False):
        while (pick := _pick_row(m, forced)) is not None:
            trace.append(pick)
            c = merge_trees(c, *pick)
            m = _entrywise_fold(m, *pick)
    return c, trace


def algorithm1_merge(eg: ExtendedGraph) -> tuple[Covering, list[tuple[int, int]]]:
    """Passes over the star covering until one of them merges nothing."""
    if not eg.parameterized_edges:
        return Covering(trees=(), host=eg.graph, target_edges=eg.parameterized_edges), []
    c = initial_covering(eg)
    trace: list[tuple[int, int]] = []
    while True:
        c, pass_trace = merge_pass(c)
        trace.extend(pass_trace)
        if not pass_trace:
            return c, trace
