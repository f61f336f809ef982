"""Reference prune step for differential tests.

This is the prune the library ran before it skipped counts: every trial
counts the paths at every vertex of its tree through vertex_checks, and the
verification and each rollback step count them at every internal vertex
through check_with_excitations, each of which builds a full report. It
keeps no state of its own between counts. Its counts go through the same
flow kernel as the library's, memo included, so the tests run it on an
ExtendedGraph of its own, apart from the one the library's prune counts on.
"""

from __future__ import annotations

from dynetid.allocation import AllocationResult, noise_rooted_filter, select_roots
from dynetid.identifiability import (
    check_with_excitations,
    excitation_bounds,
    vertex_checks,
)
from dynetid.model import ExtendedGraph
from dynetid.pseudotree import Covering, Pseudotree, algorithm1_merge


def prune(
    eg: ExtendedGraph,
    pi_s: tuple[Pseudotree, ...],
    r0: tuple[int, ...],
    covering_used: Covering,
) -> AllocationResult:
    """allocate's last step: drop removable roots, then verify the
    survivors and roll back if needed.

    r0[k] is the root chosen for pi_s[k]. A root is removable when, without
    it, the stimulated set still supports a full set of disjoint paths into
    every in-neighborhood inside its own tree. The final verification
    re-checks every internal vertex; on failure the most recent removals are
    restored one at a time until it passes or none is left. covering_used
    is the covering pi_s came from, carried into the result along with
    excitation_bounds(eg, covering_used).
    """
    active = set(r0)
    pruned: list[int] = []
    for k, tree in enumerate(pi_s):
        tau = r0[k]
        trial = frozenset(active - {tau}) | eg.noise_stimulated
        if all(
            c.achieved == c.required
            for c in vertex_checks(eg, trial, tree.vertices & eg.internal)
        ):
            active.discard(tau)
            pruned.append(tau)

    verified = check_with_excitations(eg, frozenset(active)).identifiable
    while not verified and pruned:
        active.add(pruned.pop())
        verified = check_with_excitations(eg, frozenset(active)).identifiable

    return AllocationResult(
        excited=tuple(sorted(active)),
        covering_used=covering_used,
        pruned=tuple(pruned),
        verified=verified,
        bounds=excitation_bounds(eg, covering_used),
    )


def allocate(eg: ExtendedGraph) -> AllocationResult:
    """The library's allocate pipeline with the reference prune."""
    covering, _ = algorithm1_merge(eg)
    pi_s = noise_rooted_filter(covering, eg)
    return prune(eg, pi_s, select_roots(pi_s), covering_used=covering)
