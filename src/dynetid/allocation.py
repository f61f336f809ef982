"""Excitation signal allocation.

Pipeline (cover_and_prune): cover the parameterized edges with disjoint
pseudotrees, drop the trees already rooted in a noise-stimulated vertex,
excite one root of each remaining tree, then greedily prune roots whose
removal keeps the path condition intact on the tree's own vertices. The
greedy step validates only the tree at hand, so a removal can in principle
invalidate a tree cleared earlier; a full final verification with rollback
keeps the result sound regardless. Both tests evaluate the path condition
through identifiability.vertex_checks. allocate adds its fallbacks on top;
the measurement dual runs the same pipeline on the reversed graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from dynetid.identifiability import check_with_excitations, vertex_checks
from dynetid.model import ExtendedGraph
from dynetid.pseudotree import Covering, Pseudotree, algorithm1_merge


@dataclass(frozen=True)
class AllocationResult:
    excited: tuple[int, ...]
    covering_used: Covering
    pruned: tuple[int, ...]
    verified: bool


def noise_rooted_filter(
    c: Covering, eg: ExtendedGraph
) -> tuple[tuple[Pseudotree, ...], frozenset[int]]:
    """Split off the trees whose roots the noise channels already stimulate.

    Returns the trees still needing a designed excitation, plus the
    noise-stimulated vertex set (noise vertices and internal vertices driven
    by known noise columns, one per channel).
    """
    v_e = eg.noise_vertices | eg.noise_driven
    pi_s = tuple(t for t in c.trees if not (t.roots & v_e))
    return pi_s, v_e


def select_roots(pi_s: tuple[Pseudotree, ...]) -> tuple[int, ...]:
    """One root per tree; multi-root trees contribute their lowest id."""
    return tuple(min(t.roots) for t in pi_s)


def prune(
    eg: ExtendedGraph,
    pi_s: tuple[Pseudotree, ...],
    r0: tuple[int, ...],
    covering_used: Covering | None = None,
) -> AllocationResult:
    """Drop removable roots, then verify the survivors and roll back if needed.

    A root is removable when, without it, the stimulated set still supports
    a full set of disjoint paths into every in-neighborhood inside its own
    tree. The final verification re-checks every internal vertex; on failure
    the most recent removals are restored one at a time until it passes.
    """
    v_e = eg.noise_vertices | eg.noise_driven
    active = set(r0)
    pruned: list[int] = []
    for k, tree in enumerate(pi_s):
        tau = r0[k]
        trial = frozenset(active - {tau}) | v_e
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

    if covering_used is None:
        covering_used = Covering(
            trees=pi_s, host=eg.graph, target_edges=eg.parameterized_edges
        )
    return AllocationResult(
        excited=tuple(sorted(active)),
        covering_used=covering_used,
        pruned=tuple(pruned),
        verified=verified,
    )


def cover_and_prune(eg: ExtendedGraph) -> AllocationResult:
    """Cover, drop the noise-rooted trees, excite one root each, prune."""
    covering, _ = algorithm1_merge(eg)
    pi_s, _ = noise_rooted_filter(covering, eg)
    return prune(eg, pi_s, select_roots(pi_s), covering_used=covering)


def allocate(eg: ExtendedGraph) -> AllocationResult:
    """Full allocation pipeline on a model's extended graph.

    The model's own excitation pattern is ignored: this designs one from
    scratch. When the covering-based selection cannot be verified, the
    result escalates, first to every internal root in the covering, then to
    all internal vertices, and reports whatever first passes.
    """
    result = cover_and_prune(eg)
    if result.verified:
        return result
    covering = result.covering_used

    for fallback in (
        sorted({v for t in covering.trees for v in t.roots} & eg.internal),
        sorted(eg.internal),
    ):
        trial = frozenset(fallback)
        if check_with_excitations(eg, trial).identifiable:
            return AllocationResult(
                excited=tuple(sorted(trial)),
                covering_used=covering,
                pruned=(),
                verified=True,
            )
    return result
