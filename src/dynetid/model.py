"""Structural network models and their extended graphs.

A model records only the parameterization pattern of the module matrix G, the
noise model H and the excitation selection R: which entries are zero, which
are unknown parameters, and which are fixed known transfers. That pattern is
all the identifiability test needs.

The pattern is stored sparsely. modules maps each nonzero module, keyed by
its signal-flow edge (tail, head), i.e. the transfer from vertex tail into
vertex head, to its status. noise holds one row -> status map per column of
H: noise[c][j] describes how noise channel c+1 enters vertex j. Entries
absent from either map are zero.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from dynetid.graph import DiGraph, Edge


class EntryStatus(enum.Enum):
    ZERO = "zero"
    PARAMETERIZED = "param"
    KNOWN = "known"


class InvalidModelError(ValueError):
    """Raised when an operation requires a model that passes validation.

    The message joins the violations with "; "; violations keeps them apart.
    """

    def __init__(self, violations: Sequence[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


Z = EntryStatus.ZERO
P = EntryStatus.PARAMETERIZED
K = EntryStatus.KNOWN


def _is_vertex(v: object, L: int) -> bool:
    """Whether v names one of the vertices 1..L. A float or bool equal to
    one does not: it would pass the range test and then build a graph. The
    checks below test `type(v) is int` first, which plain ids pass, and
    call this only for a value that fails it."""
    return isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= L


@dataclass(frozen=True)
class ModelSet:
    """Parameterization pattern of a network model set.

    Attributes:
        L: number of internal vertices, labeled 1..L.
        modules: status of every nonzero module, keyed by edge (tail, head).
        noise: one row -> status map of nonzero entries per noise column
            (there may be none).
        excited: vertices carrying one designed excitation signal each.
        strictly_proper_modules: if False, feedthrough_edges drives an
            algebraic-loop check at validation.
        feedthrough_edges: modules with direct feedthrough; None means all
            nonzero modules are treated as feedthrough when the strictly
            proper flag is off.
    """

    L: int
    modules: Mapping[Edge, EntryStatus]
    noise: tuple[Mapping[int, EntryStatus], ...]
    excited: frozenset[int]
    strictly_proper_modules: bool = True
    feedthrough_edges: frozenset[Edge] | None = None

    def __post_init__(self) -> None:
        L = self.L
        if type(L) is not int and (isinstance(L, bool) or not isinstance(L, int)):
            # True or 2.0 would pass the range tests below, and the model
            # would serialize to a file that parse_model rejects.
            raise ValueError(f"L must be an integer, got {L!r}")
        if L < 1:
            raise ValueError("a model needs at least one vertex")
        for (tail, head), status in self.modules.items():
            if not (type(tail) is int and type(head) is int and 0 < tail <= L and 0 < head <= L):
                if not (_is_vertex(tail, L) and _is_vertex(head, L)):
                    raise ValueError(f"edge ({tail}, {head}) outside 1..{L}")
            if status is Z:
                raise ValueError(f"module ({tail}, {head}) is listed with a zero status")
        for column in self.noise:
            for row, status in column.items():
                if not (type(row) is int and 0 < row <= L or _is_vertex(row, L)):
                    raise ValueError(f"noise row {row} outside 1..{L}")
                if status is Z:
                    raise ValueError(f"noise row {row} is listed with a zero status")
        for v in self.excited:
            if not (type(v) is int and 0 < v <= L or _is_vertex(v, L)):
                raise ValueError(f"excited vertex {v} outside 1..{L}")
        if self.feedthrough_edges is not None:
            for t, h in self.feedthrough_edges:
                if not (type(t) is int and type(h) is int and 0 < t <= L and 0 < h <= L):
                    if not (_is_vertex(t, L) and _is_vertex(h, L)):
                        raise ValueError(f"feedthrough edge ({t}, {h}) outside 1..{L}")

    @property
    def p(self) -> int:
        return len(self.noise)

    def internal_edges(self) -> frozenset[Edge]:
        return frozenset(self.modules)

    @classmethod
    def from_edges(
        cls,
        L: int,
        edges: Iterable[tuple[int, int, EntryStatus]] | Iterable[Edge] = (),
        noise_columns: Sequence[Sequence[tuple[int, EntryStatus]]] = (),
        excited: Iterable[int] = (),
        strictly_proper_modules: bool = True,
        feedthrough_edges: Iterable[Edge] | None = None,
    ) -> ModelSet:
        """Build a model from edge and column listings.

        edges may be (tail, head) pairs, taken as parameterized, or
        (tail, head, status) triples. noise_columns lists each H column as
        (row, status) pairs. A later listing of the same entry overrides an
        earlier one, and zero entries are dropped.
        """
        modules: dict[Edge, EntryStatus] = {}
        for e in edges:
            if len(e) == 2:
                tail, head = e  # type: ignore[misc]
                status = P
            else:
                tail, head, status = e  # type: ignore[misc]
            modules[(tail, head)] = status
        return cls(
            L=L,
            modules={e: s for e, s in modules.items() if s is not Z},
            noise=tuple(
                {row: s for row, s in dict(column).items() if s is not Z}
                for column in noise_columns
            ),
            excited=frozenset(excited),
            strictly_proper_modules=strictly_proper_modules,
            feedthrough_edges=None if feedthrough_edges is None else frozenset(feedthrough_edges),
        )


def _parameterized_columns(m: ModelSet) -> list[int]:
    """0-based indices of noise columns whose nonzeros are all parameterized."""
    return [
        c for c, column in enumerate(m.noise)
        if column and all(s is P for s in column.values())
    ]


def _single_known_columns(m: ModelSet) -> list[tuple[int, int]]:
    """(0-based column, driven vertex) for columns with one Known nonzero."""
    return [
        (c, row)
        for c, column in enumerate(m.noise)
        if len(column) == 1
        for row, s in column.items()
        if s is K
    ]


def validate(m: ModelSet) -> tuple[str, ...]:
    """Check the structural rules a model must satisfy.

    Returns one message per violation, in a fixed order; empty means valid.

    Rules: no self-loop modules; noise rows and columns with two or more
    nonzeros must be entirely parameterized; every noise column must drive at
    least one vertex; a column is either all-parameterized or carries a single
    known entry; a vertex driven by a single-known noise column cannot also be
    excited (it already carries an independent stimulation); and when modules
    are not strictly proper, the feedthrough subgraph must be acyclic.
    """
    violations: list[str] = []

    for v in sorted(t for t, h in m.modules if t == h):
        violations.append(f"self-loop module at vertex {v}")

    rows: dict[int, list[EntryStatus]] = {}
    for column in m.noise:
        for row, s in column.items():
            rows.setdefault(row, []).append(s)
    for row in sorted(rows):
        nonzero = rows[row]
        if len(nonzero) >= 2 and any(s is not P for s in nonzero):
            violations.append(
                f"noise row {row} mixes a known entry with other nonzeros"
            )

    for c, column in enumerate(m.noise):
        if not column:
            violations.append(f"noise column {c + 1} drives no vertex")
        elif len(column) == 1:
            pass  # single entry, parameterized or known, both fine
        elif any(s is not P for s in column.values()):
            violations.append(
                f"noise column {c + 1} has multiple nonzeros that are not all parameterized"
            )

    driven = {v for _, v in _single_known_columns(m)}
    overlap = sorted(driven & m.excited)
    for v in overlap:
        violations.append(
            f"vertex {v} is excited and also driven by a known noise column"
        )

    if not m.strictly_proper_modules:
        internal = m.internal_edges()
        if m.feedthrough_edges is None:
            feed = internal
        else:
            feed = m.feedthrough_edges
            for e in sorted(feed - internal):
                violations.append(f"feedthrough edge {e} is not a nonzero module")
            feed = feed & internal
        if _has_cycle(feed):
            violations.append("feedthrough subgraph contains a cycle (algebraic loop)")

    return tuple(violations)


def _has_cycle(edges: Iterable[Edge]) -> bool:
    """Kahn's peel: a digraph is acyclic exactly when repeatedly removing
    its in-degree-zero vertices removes them all. Iterative, so the depth of
    the graph is not limited by the interpreter's recursion limit."""
    succ: dict[int, list[int]] = {}
    indeg: dict[int, int] = {}
    for t, h in edges:
        succ.setdefault(t, []).append(h)
        indeg.setdefault(t, 0)
        indeg[h] = indeg.get(h, 0) + 1
    ready = [v for v, d in indeg.items() if d == 0]
    peeled = 0
    while ready:
        v = ready.pop()
        peeled += 1
        for w in succ.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return peeled < len(indeg)


@dataclass(frozen=True)
class ExtendedGraph:
    """The internal graph augmented with one vertex per parameterized noise column.

    Attributes:
        graph: digraph over internal vertices 1..L plus noise vertices.
        L: internal vertex count.
        noise_vertices: the added vertices L+1..L+p-p0.
        noise_driven: internal vertices driven by single-known noise columns.
        stimulated: everything carrying an independent external signal, i.e.
            the excited vertices plus noise_stimulated, which is added to
            whatever the caller passes.
        parameterized_edges: edges whose transfer is an unknown parameter;
            known edges stay in the graph but not in this set.
        p0: number of single-known noise columns.
        internal: the internal vertices 1..L, derived from L.
        noise_stimulated: noise_vertices + noise_driven, the vertices the
            noise model stimulates whatever the excitations are.
        param_in: each internal vertex's in-neighbors through edges of the
            graph that are parameterized; extended_in_neighbors reads it.
    """

    graph: DiGraph
    L: int
    noise_vertices: frozenset[int]
    noise_driven: frozenset[int]
    stimulated: frozenset[int]
    parameterized_edges: frozenset[Edge]
    p0: int
    # Built once: the per-vertex loops test membership on every call.
    internal: frozenset[int] = field(init=False, repr=False, compare=False)
    noise_stimulated: frozenset[int] = field(init=False, repr=False, compare=False)
    param_in: dict[int, frozenset[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "internal", frozenset(range(1, self.L + 1)))
        param_in: dict[int, list[int]] = {j: [] for j in self.internal}
        for i, j in self.parameterized_edges & self.graph.edges:
            if j in param_in:
                param_in[j].append(i)
        object.__setattr__(
            self, "param_in", {j: frozenset(ins) for j, ins in param_in.items()}
        )
        noise_stimulated = self.noise_vertices | self.noise_driven
        object.__setattr__(self, "noise_stimulated", noise_stimulated)
        object.__setattr__(self, "stimulated", self.stimulated | noise_stimulated)

    @property
    def p(self) -> int:
        return len(self.noise_vertices) + self.p0


def build_extended_graph(m: ModelSet) -> ExtendedGraph:
    """Construct the extended graph of a model; InvalidModelError if invalid."""
    violations = validate(m)
    if violations:
        raise InvalidModelError(violations)

    # Parameterized columns are compacted in their original order before
    # vertex ids are assigned, so gaps left by single-known columns vanish.
    param_cols = _parameterized_columns(m)
    noise_vertices = frozenset(m.L + k + 1 for k in range(len(param_cols)))
    noise_edges = frozenset(
        (m.L + k + 1, row) for k, c in enumerate(param_cols) for row in m.noise[c]
    )
    param_edges = frozenset(e for e, s in m.modules.items() if s is P)

    noise_driven = frozenset(v for _, v in _single_known_columns(m))
    vertices = frozenset(range(1, m.L + 1)) | noise_vertices
    graph = DiGraph(vertices, m.internal_edges() | noise_edges)

    return ExtendedGraph(
        graph=graph,
        L=m.L,
        noise_vertices=noise_vertices,
        noise_driven=noise_driven,
        stimulated=m.excited,
        parameterized_edges=param_edges | noise_edges,
        p0=m.p - len(param_cols),
    )


def extended_in_neighbors(eg: ExtendedGraph, j: int) -> frozenset[int]:
    """In-neighbors of an internal vertex through parameterized edges only."""
    try:
        return eg.param_in[j]
    except KeyError:
        raise ValueError(f"vertex {j} is not internal") from None
