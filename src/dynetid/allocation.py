"""Excitation signal allocation.

One pipeline, allocate, serves both selections: cover the parameterized
edges with disjoint pseudotrees (algorithm1_merge), drop the trees already
rooted in a noise-stimulated vertex (noise_rooted_filter), then prune:
excite one root of each remaining tree (select_roots) and greedily drop
the roots whose removal keeps the path condition intact on the tree's own
vertices. Each trial validates only the tree at hand, through
identifiability.path_condition_holds, so a removal can invalidate a tree
cleared earlier, and does: one pass of the benchmark's seed-1 design
workload rolls back 2 removals, one of batch-small 15. A full final
verification with rollback, each step one
identifiability.check_with_excitations, keeps the result sound. The
measurement dual runs allocate on the reversed graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from dynetid.identifiability import check_with_excitations, excitation_bounds, path_condition_holds
from dynetid.model import ExtendedGraph
from dynetid.pseudotree import Covering, Pseudotree, algorithm1_merge


@dataclass(frozen=True)
class AllocationResult:
    excited: tuple[int, ...]
    covering_used: Covering
    pruned: tuple[int, ...]
    verified: bool
    bounds: tuple[int, int]


def noise_rooted_filter(c: Covering, eg: ExtendedGraph) -> tuple[Pseudotree, ...]:
    """The trees still needing a designed excitation: those with no root
    the noise channels already stimulate (eg.noise_stimulated)."""
    # From a list: CPython grows a generator's tuple from 10 slots, and a
    # grown tuple, once freed, stays cached by size (design's peak RSS).
    return tuple([t for t in c.trees if not (t.roots & eg.noise_stimulated)])


def select_roots(pi_s: tuple[Pseudotree, ...]) -> tuple[int, ...]:
    """One root per tree; multi-root trees contribute their lowest id."""
    return tuple([min(t.roots) for t in pi_s])  # from a list, as above


def prune(
    eg: ExtendedGraph, pi_s: tuple[Pseudotree, ...], covering_used: Covering
) -> AllocationResult:
    """allocate's last step: excite one root of each tree in pi_s, drop the
    removable ones, then verify the survivors and roll back if needed.

    Each tree's root comes from select_roots(pi_s). A root is removable
    when, without it, the stimulated set still supports a full set of
    disjoint paths into every in-neighborhood inside its own tree, as
    path_condition_holds decides. The final verification is
    check_with_excitations on the survivors; on failure the most recent
    removals are restored one at a time, each followed by another
    check_with_excitations, until it passes or none is left. covering_used
    is the covering pi_s came from, carried into the result along with
    excitation_bounds(eg, covering_used).

    The trials, the verification and each rollback count on one graph, so
    the flow kernel's memo (graph._SplitGraph) recounts a vertex only when
    a removal took a start of its last full path family.
    """
    roots = select_roots(pi_s)
    active = set(roots)
    pruned: list[int] = []
    for tau, tree in zip(roots, pi_s):
        trial = frozenset(active - {tau}) | eg.noise_stimulated
        if path_condition_holds(eg, trial, tree.vertices & eg.internal):
            active.discard(tau)
            pruned.append(tau)

    verified = check_with_excitations(eg, active).identifiable
    while not verified and pruned:
        active.add(pruned.pop())
        verified = check_with_excitations(eg, active).identifiable

    return AllocationResult(
        excited=tuple(sorted(active)),
        covering_used=covering_used,
        pruned=tuple(pruned),
        verified=verified,
        bounds=excitation_bounds(eg, covering_used),
    )


def allocate(eg: ExtendedGraph) -> AllocationResult:
    """Design an excitation set on a model's extended graph.

    The model's own excitation pattern is ignored: this designs one from
    scratch, in three steps: algorithm1_merge, noise_rooted_filter, and
    prune, which excites the roots select_roots picks and drops the ones
    it can spare.

    The unpruned roots always pass the path condition, so prune's rollback
    stops at them at the latest and the result is verified. Let T be the
    tree covering a parameterized edge (i, j). Every vertex on T's path
    from its root to i has an out-edge in T, i included through (i, j).
    Disjoint trees never give one vertex out-edges in two trees, and a tree
    has in-degree at most one, so each of j's parameterized in-edges lies
    in its own tree and their root paths are pairwise vertex-disjoint: the
    flow reaches the size of j's parameterized in-neighborhood. Each path
    starts at a stimulated root: the one select_roots chose or, for a tree
    the filter dropped, its noise-stimulated root (every root of a tree
    reaches all of it). The initial stars form a valid covering and
    merge_trees guards every merge, so the covering is always valid;
    verified false would mean a broken covering, which the CLI reports as
    exit 4 with a reason.
    """
    covering, _ = algorithm1_merge(eg)
    pi_s = noise_rooted_filter(covering, eg)
    return prune(eg, pi_s, covering_used=covering)
