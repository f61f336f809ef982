"""Generic identifiability tests over the extended graph.

The decision rule is purely graph-theoretic: the model set is generically
identifiable exactly when, for every internal vertex j, the maximum number
of vertex-disjoint paths from the stimulated set to j's parameterized
in-neighborhood equals that in-neighborhood's size. Two functions evaluate
it. vertex_checks counts the paths at every vertex asked about; the reports
here and the CLI's oracle comparison read it. Of the reports,
check_generic_identifiability takes the model's own stimulated set and
check_with_excitations a trial one; allocation's prune verifies its result
and each rollback step with the latter. path_condition_holds, which prune's
per-tree trials call, answers only whether every vertex asked about passes
and stops at the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from dynetid.graph import max_vertex_disjoint_paths, sources_and_sinks
from dynetid.model import ExtendedGraph, extended_in_neighbors
from dynetid.pseudotree import Covering


@dataclass(frozen=True)
class VertexCheck:
    vertex: int
    required: int
    achieved: int


@dataclass(frozen=True)
class IdentReport:
    identifiable: bool
    per_vertex: tuple[VertexCheck, ...]
    failing_vertices: tuple[int, ...]


def vertex_checks(
    eg: ExtendedGraph, stimulated: frozenset[int], vertices: Iterable[int]
) -> Iterator[VertexCheck]:
    """The path condition at each given internal vertex, in ascending order.

    The reports take every check; path_condition_holds answers whether all
    of them pass and stops at the first failure. A vertex without
    parameterized in-edges needs no paths and runs no flow.
    """
    for j in sorted(vertices):
        targets = extended_in_neighbors(eg, j)
        achieved = (
            max_vertex_disjoint_paths(eg.graph, stimulated, targets) if targets else 0
        )
        yield VertexCheck(vertex=j, required=len(targets), achieved=achieved)


def path_condition_holds(
    eg: ExtendedGraph, stimulated: frozenset[int], vertices: Iterable[int]
) -> bool:
    """Whether the path condition holds at every given internal vertex.

    The vertices are counted in ascending order, and the first failure
    returns False without counting the rest.
    """
    for j in sorted(vertices):
        targets = extended_in_neighbors(eg, j)
        if targets and max_vertex_disjoint_paths(eg.graph, stimulated, targets) < len(targets):
            return False
    return True


def _report_for(eg: ExtendedGraph, stimulated: frozenset[int]) -> IdentReport:
    checks = tuple(vertex_checks(eg, stimulated, eg.internal))
    failing = tuple(c.vertex for c in checks if c.achieved != c.required)
    return IdentReport(
        identifiable=not failing, per_vertex=checks, failing_vertices=failing
    )


def check_generic_identifiability(eg: ExtendedGraph) -> IdentReport:
    """Evaluate the path condition with the model's own stimulated set."""
    return _report_for(eg, eg.stimulated)


def check_with_excitations(eg: ExtendedGraph, trial_excited) -> IdentReport:
    """Evaluate the path condition with a trial excitation set.

    The trial set replaces the designed excitations only; noise-side
    stimulation (noise vertices and vertices driven by known noise columns)
    is part of the model and always contributes.
    """
    trial = frozenset(trial_excited)
    if not trial <= eg.internal:
        bad = sorted(trial - eg.internal)
        raise ValueError(f"trial excitations {bad} are not internal vertices")
    return _report_for(eg, trial | eg.noise_stimulated)


def excitation_bounds(eg: ExtendedGraph, covering: Covering) -> tuple[int, int]:
    """Bounds on the number of designed excitations needed.

    lower = max(0, max(source count of the extended graph, largest
    parameterized in-neighborhood) - p) and upper = (covering tree count) -
    p, where p is the noise channel count, not the number of trees the
    noise channels root, and the covering is the caller's: the merge
    heuristic's output or an allocation's covering_used. lower <=
    len(allocate(eg).excited) <= upper, with allocate's covering, holds
    when every source of the extended graph has a parameterized out-edge
    and every vertex driven by a single known noise column is such a
    source. Outside these conditions upper can be negative, lower can
    exceed upper, and an allocation can fall on either side of the pair.
    """
    sources, _ = sources_and_sinks(eg.graph)
    max_indeg = max(
        (len(extended_in_neighbors(eg, j)) for j in eg.internal), default=0
    )
    lower = max(0, max(len(sources), max_indeg) - eg.p)
    return lower, len(covering) - eg.p
