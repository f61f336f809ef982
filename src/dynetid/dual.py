"""Measurement selection for fully excited, noise-free networks.

This is the mirror image of excitation allocation. With every vertex excited
and no noise model, the question becomes which vertices to measure, and the
role of pseudotrees is taken over by anti-pseudotrees: connected simple
digraphs with all out-degrees at most one, whose roots every other vertex
reaches by exactly one path. Reversing every edge turns one problem into the
other, so the implementation runs the primal pipeline and the primal bounds
(allocation.allocate, identifiability.excitation_bounds) on the
reversed graph with zero noise channels.

select_measurements therefore returns allocate's own AllocationResult: its
excited vertices are the ones to measure, its bounds are the measurement
bounds, and its covering_used covers the reversed graph. The
anti-pseudotrees are that covering's trees with every edge flipped back;
their roots are the same.

The input is the ExtendedGraph that build_extended_graph validated, the
same one allocate takes. Its stimulated set is ignored (every vertex counts
as excited), it must have no noise channels (p = 0), and every nonzero
module must be parameterized; validate_dual lists what breaks this.
"""

from __future__ import annotations

from dynetid.allocation import AllocationResult, allocate
from dynetid.graph import reverse
from dynetid.identifiability import excitation_bounds
from dynetid.model import ExtendedGraph, InvalidModelError
from dynetid.pseudotree import Covering


class InvalidDualModelError(InvalidModelError):
    """Raised when a model does not fit the measurement-selection setting."""


def validate_dual(eg: ExtendedGraph) -> tuple[str, ...]:
    """Violations of the measurement-selection setting; empty means it fits.

    A model with noise channels gets the p = 0 violation alone. Otherwise
    each known module is one violation, by (head, tail): known transfers
    have no place here because the covering and the per-vertex condition
    both read the full out-neighborhood.
    """
    if eg.p:
        return ("measurement selection requires a noise-free model (p = 0)",)
    known = eg.graph.edges - eg.parameterized_edges
    return tuple(
        f"module ({tail}, {head}) is known; measurement selection"
        " expects every nonzero module to be parameterized"
        for head, tail in sorted((h, t) for t, h in known)
    )


def _require_dual(eg: ExtendedGraph) -> None:
    violations = validate_dual(eg)
    if violations:
        raise InvalidDualModelError(violations)


def _reversed_extended(eg: ExtendedGraph) -> ExtendedGraph:
    """The noise-free extended graph of the reversed network."""
    rev = reverse(eg.graph)
    return ExtendedGraph(
        graph=rev,
        L=eg.L,
        noise_vertices=frozenset(),
        noise_driven=frozenset(),
        stimulated=frozenset(),
        parameterized_edges=rev.edges,
        p0=0,
    )


def select_measurements(eg: ExtendedGraph) -> AllocationResult:
    """Pick a measured vertex set supporting disjoint paths from every
    out-neighborhood.

    Runs allocate on the reversed graph; a reversed pseudotree is an
    anti-pseudotree of the original graph and its roots are the vertices to
    measure. The result's bounds equal measurement_bounds(eg, covering_used).
    """
    _require_dual(eg)
    return allocate(_reversed_extended(eg))


def measurement_bounds(eg: ExtendedGraph, covering: Covering) -> tuple[int, int]:
    """Bounds on the measurement count.

    lower = max(sink count, largest out-neighborhood); upper = size of the
    anti-pseudotree covering, given as a covering of the reversed graph.
    These are the excitation bounds of the reversed graph: its sources are
    the sinks, its in-degrees the out-degrees, and p = 0.
    """
    _require_dual(eg)
    return excitation_bounds(_reversed_extended(eg), covering)
