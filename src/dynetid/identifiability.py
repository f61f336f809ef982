"""Generic identifiability tests over the extended graph.

The decision rule is purely graph-theoretic: the model set is generically
identifiable exactly when, for every internal vertex j, the maximum number
of vertex-disjoint paths from the stimulated set to j's parameterized
in-neighborhood equals that in-neighborhood's size.
"""

from __future__ import annotations

from dataclasses import dataclass

from dynetid.graph import max_vertex_disjoint_paths
from dynetid.model import ExtendedGraph, extended_in_neighbors
from dynetid.pseudotree import Covering, algorithm1_merge


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


def _report_for(eg: ExtendedGraph, stimulated: frozenset[int]) -> IdentReport:
    checks = []
    failing = []
    for j in sorted(eg.internal):
        targets = extended_in_neighbors(eg, j)
        required = len(targets)
        if required == 0:
            achieved = 0
        else:
            achieved = max_vertex_disjoint_paths(eg.graph, stimulated, targets)
        checks.append(VertexCheck(vertex=j, required=required, achieved=achieved))
        if achieved != required:
            failing.append(j)
    return IdentReport(
        identifiable=not failing,
        per_vertex=tuple(checks),
        failing_vertices=tuple(failing),
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
    return _report_for(eg, trial | eg.noise_vertices | eg.noise_driven)


def excitation_bounds(
    eg: ExtendedGraph, covering: Covering | None = None
) -> tuple[int, int]:
    """Bounds on the number of designed excitations needed.

    lower = max(source count of the extended graph, largest parameterized
    in-neighborhood) minus the noise channel count, clamped at zero. The
    upper bound spends one excitation per covering tree, minus the trees the
    noise channels already root; the covering defaults to the merge
    heuristic's output.
    """
    sources = sum(1 for v in eg.graph.vertices if not eg.graph.in_neighbors(v))
    max_indeg = max(
        (len(extended_in_neighbors(eg, j)) for j in eg.internal), default=0
    )
    lower = max(0, max(sources, max_indeg) - eg.p)
    if covering is None:
        covering, _ = algorithm1_merge(eg)
    return lower, len(covering) - eg.p
