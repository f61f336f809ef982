"""Excitation allocation pipeline: filtering, root selection, pruning, and
the library's prune against the reference in pruneref, which counts every
vertex at every trial and verification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynetid import allocation
from dynetid.allocation import allocate, noise_rooted_filter, prune, select_roots
from dynetid.dual import _reversed_extended, select_measurements
from dynetid.identifiability import check_with_excitations, excitation_bounds
from dynetid.model import EntryStatus, ExtendedGraph, ModelSet, build_extended_graph
from dynetid.pseudotree import Covering, Pseudotree, algorithm1_merge

from . import pruneref
from .randgen import (
    all_extended_subsets,
    random_bounded_model,
    random_model,
    random_sparse_model,
)
from .test_model import correlated_noise_model

P, K = EntryStatus.PARAMETERIZED, EntryStatus.KNOWN

SEEDS = st.integers(0, 10**9)


def diamond() -> ModelSet:
    return ModelSet.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])


def doubly_noise_covered() -> ModelSet:
    """One parameterized edge; separate noise channels drive both endpoints."""
    return ModelSet.from_edges(2, [(1, 2)], noise_columns=[[(1, P)], [(2, P)]])


def unpruned_roots(eg: ExtendedGraph) -> tuple[int, ...]:
    """What allocate hands to prune: one root of each tree left by the filter."""
    covering, _ = algorithm1_merge(eg)
    return select_roots(noise_rooted_filter(covering, eg))


class TestNoiseRootedFilter:
    def test_no_noise_keeps_everything(self):
        eg = build_extended_graph(diamond())
        covering, _ = algorithm1_merge(eg)
        assert noise_rooted_filter(covering, eg) == covering.trees
        assert eg.noise_stimulated == frozenset()

    def test_noise_rooted_trees_drop_out(self):
        eg = build_extended_graph(correlated_noise_model())
        covering, _ = algorithm1_merge(eg)
        assert eg.noise_stimulated == {6, 7, 8}
        assert [sorted(t.roots) for t in noise_rooted_filter(covering, eg)] == [[5]]

    def test_all_trees_noise_rooted(self):
        eg = build_extended_graph(doubly_noise_covered())
        covering, _ = algorithm1_merge(eg)
        assert noise_rooted_filter(covering, eg) == ()
        assert eg.noise_stimulated == {3, 4}

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_noise_stimulated_count_is_p(self, seed):
        rng = random.Random(seed)
        m = random_model(rng)
        eg = build_extended_graph(m)
        if not eg.parameterized_edges:
            return
        covering, _ = algorithm1_merge(eg)
        assert len(eg.noise_stimulated) == m.p
        assert set(noise_rooted_filter(covering, eg)) <= set(covering.trees)


class TestSelectRoots:
    def test_empty(self):
        assert select_roots(()) == ()

    def test_cycle_tree_contributes_lowest_root(self):
        cycle = Pseudotree.from_edges([(2, 5), (5, 9), (9, 2)])
        assert cycle.roots == {2, 5, 9}
        assert select_roots((cycle,)) == (2,)

    def test_one_root_per_tree_in_order(self):
        a = Pseudotree.from_edges([(1, 2)])
        b = Pseudotree.from_edges([(3, 4)])
        assert select_roots((a, b)) == (1, 3)


class TestPrune:
    def test_diamond_keeps_both_roots(self):
        eg = build_extended_graph(diamond())
        covering, _ = algorithm1_merge(eg)
        pi_s = noise_rooted_filter(covering, eg)
        result = prune(eg, pi_s, covering_used=covering)
        assert result.excited == (1, 3)
        assert result.pruned == ()
        assert result.verified

    def test_fully_noise_served_tree_loses_its_root(self):
        # the tree is not noise-rooted, but the two channels reach both of
        # its vertices disjointly, so the designed excitation is redundant
        eg = build_extended_graph(doubly_noise_covered())
        pi_s = (Pseudotree.from_edges([(1, 2)]),)
        covering = Covering(trees=pi_s, host=eg.graph, target_edges=eg.parameterized_edges)
        result = prune(eg, pi_s, covering_used=covering)
        assert result.excited == ()
        assert result.pruned == (1,)
        assert result.verified

    def test_fixture_root_survives(self):
        eg = build_extended_graph(correlated_noise_model())
        covering, _ = algorithm1_merge(eg)
        pi_s = noise_rooted_filter(covering, eg)
        result = prune(eg, pi_s, covering_used=covering)
        assert result.excited == (5,)
        assert result.pruned == ()
        assert result.verified


class TestCoveringRoots:
    @given(SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_unpruned_roots_pass_the_path_condition(self, seed):
        # allocate's verification rests on this: the roots of a disjoint
        # covering, plus the noise-stimulated vertices, are enough before
        # prune drops anything. The reversed graph is the dual's input: the
        # model without its noise and with every module parameterized.
        m = random_model(random.Random(seed), max_vertices=7, max_noise=3, known_share=0.35)
        dual = build_extended_graph(ModelSet.from_edges(m.L, m.modules))
        for eg in (build_extended_graph(m), _reversed_extended(dual)):
            assert check_with_excitations(eg, unpruned_roots(eg)).identifiable


class TestAllocate:
    def test_diamond_hits_the_lower_bound(self):
        eg = build_extended_graph(diamond())
        result = allocate(eg)
        assert result.excited == (1, 3)
        assert result.verified
        lower, upper = excitation_bounds(eg, result.covering_used)
        assert lower == len(result.excited) <= upper

    def test_single_edge(self):
        result = allocate(build_extended_graph(ModelSet.from_edges(2, [(1, 2)])))
        assert result.excited == (1,)
        assert result.verified

    def test_fixture_needs_one_designed_excitation(self):
        result = allocate(build_extended_graph(correlated_noise_model()))
        assert result.excited == (5,)
        assert result.pruned == ()
        assert result.verified
        assert len(result.covering_used.trees) == 4

    def test_noise_alone_can_suffice(self):
        result = allocate(build_extended_graph(doubly_noise_covered()))
        assert result.excited == ()
        assert result.verified

    def test_no_parameterized_edges(self):
        result = allocate(build_extended_graph(ModelSet.from_edges(3, [(1, 2, K), (2, 3, K)])))
        assert result.excited == ()
        assert result.verified
        assert result.covering_used.trees == ()

    def test_deterministic(self):
        a = allocate(build_extended_graph(correlated_noise_model()))
        b = allocate(build_extended_graph(correlated_noise_model()))
        assert a == b

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_result_is_verified_and_sound(self, seed):
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng))
        result = allocate(eg)
        assert result.verified
        assert check_with_excitations(eg, result.excited).identifiable
        assert set(result.excited) <= eg.internal
        assert result.bounds == excitation_bounds(eg, result.covering_used)

    @given(SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_bounds_sandwich_the_allocation(self, seed):
        rng = random.Random(seed)
        eg = build_extended_graph(random_bounded_model(rng))
        result = allocate(eg)
        lower, upper = excitation_bounds(eg, result.covering_used)
        assert lower <= len(result.excited) <= upper

    def test_optimality_gap_is_pinned(self):
        # allocate is a heuristic; against the exhaustive minimum over
        # 2,000 seeded models it is always verified, never below the
        # optimum, and above it on exactly one model (seed 205: L = 5 with
        # the known module (1, 5), 3 excitations where 2 suffice). A
        # change to the heuristic that moves this gap shows up here.
        gaps = []
        for seed in range(2000):
            eg = build_extended_graph(random_model(random.Random(seed)))
            result = allocate(eg)
            assert result.verified
            optimum = next(
                len(trial)
                for trial in all_extended_subsets(eg)
                if check_with_excitations(eg, trial).identifiable
            )
            assert len(result.excited) >= optimum
            if len(result.excited) > optimum:
                gaps.append((seed, len(result.excited), optimum))
        assert gaps == [(205, 3, 2)]


class TestPruneAgainstReference:
    """allocate and select_measurements against the pipeline that counts
    every vertex at every trial and verification (tests/pruneref.py). Each
    side runs on its own ExtendedGraph, so neither's flow memo answers the
    other's counts. A wrong memo answer changes a verdict and with it the
    excited, pruned or verified fields."""

    @pytest.fixture
    def rollbacks(self, monkeypatch):
        """Runs one pipeline on one graph and counts its rollback steps:
        every verification after the first in its prune call. A step is a
        check_with_excitations call, counted in the reference and in the
        library alike, so equal counts pin the library to one call per
        verification, the calls the traced benchmark counts."""
        steps = [0]

        def counting(eg, trial):
            steps[0] += 1
            return check_with_excitations(eg, trial)

        monkeypatch.setattr(pruneref, "check_with_excitations", counting)
        monkeypatch.setattr(allocation, "check_with_excitations", counting)

        def run(pipeline, eg):
            before = steps[0]
            result = pipeline(eg)
            return result, steps[0] - before - 1

        return run

    def test_random_models_match(self, rollbacks):
        rolled = []
        for seed in range(2000):
            m = random_model(random.Random(seed))
            want = rollbacks(pruneref.allocate, build_extended_graph(m))
            assert rollbacks(allocate, build_extended_graph(m)) == want, seed
            rolled += [seed] * want[1]
            dual = build_extended_graph(ModelSet.from_edges(m.L, m.modules))
            want = rollbacks(pruneref.allocate, _reversed_extended(dual))
            assert rollbacks(select_measurements, dual) == want, seed
            rolled += [seed] * want[1]
        assert rolled, "no model in the sample rolls back"

    def test_sparse_models_match(self, rollbacks):
        rolled = []
        for L in (50, 100, 200, 400):
            m = random_sparse_model(random.Random(L), L)
            want = rollbacks(pruneref.allocate, build_extended_graph(m))
            eg = build_extended_graph(m)
            assert rollbacks(allocate, eg) == want, L
            rolled += [L] * want[1]
            want = rollbacks(pruneref.allocate, _reversed_extended(eg))
            assert rollbacks(select_measurements, eg) == want, L
            rolled += [L] * want[1]
        assert rolled, "no model in the sample rolls back"
