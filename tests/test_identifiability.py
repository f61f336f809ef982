"""Path-condition identifiability checks and excitation-count bounds."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynetid.allocation import noise_rooted_filter, select_roots
from dynetid.dual import _reversed_extended
from dynetid.identifiability import (
    check_generic_identifiability,
    check_with_excitations,
    excitation_bounds,
    path_condition_holds,
    vertex_checks,
)
from dynetid.model import EntryStatus, ExtendedGraph, ModelSet, build_extended_graph
from dynetid.oracle import OracleBudget, brute_disjoint_paths, brute_identifiability
from dynetid.model import extended_in_neighbors
from dynetid.pseudotree import algorithm1_merge, initial_covering

from .randgen import random_model, random_sparse_model
from .test_model import correlated_noise_model

P, K = EntryStatus.PARAMETERIZED, EntryStatus.KNOWN

SEEDS = st.integers(0, 10**9)

# the model generator can exceed the default instance budget slightly
WIDE_BUDGET = OracleBudget(max_vertices=8, max_edges=20, max_nodes_explored=500_000)

DIAMOND_EDGES = [(1, 2), (1, 3), (2, 4), (3, 4)]


def diamond(excited=(1, 3)) -> ModelSet:
    return ModelSet.from_edges(4, DIAMOND_EDGES, excited=excited)


def heuristic_bounds(eg: ExtendedGraph) -> tuple[int, int]:
    """excitation_bounds with the merge heuristic's covering."""
    covering, _ = algorithm1_merge(eg)
    return excitation_bounds(eg, covering)


class TestCheckGeneric:
    def test_diamond_identifiable(self):
        rep = check_generic_identifiability(build_extended_graph(diamond()))
        assert rep.identifiable
        assert rep.failing_vertices == ()

    def test_diamond_underexcited(self):
        rep = check_generic_identifiability(build_extended_graph(diamond([1])))
        assert not rep.identifiable
        assert rep.failing_vertices == (4,)
        vertex4 = {c.vertex: c for c in rep.per_vertex}[4]
        assert (vertex4.required, vertex4.achieved) == (2, 1)

    def test_every_internal_vertex_reported(self):
        rep = check_generic_identifiability(build_extended_graph(diamond()))
        assert [c.vertex for c in rep.per_vertex] == [1, 2, 3, 4]
        source = rep.per_vertex[0]
        assert (source.required, source.achieved) == (0, 0)

    def test_no_parameterized_edges_is_vacuous(self):
        m = ModelSet.from_edges(3, [(1, 2, K), (2, 3, K)])
        rep = check_generic_identifiability(build_extended_graph(m))
        assert rep.identifiable
        assert all(c.required == 0 for c in rep.per_vertex)

    def test_correlated_noise_fixture_identifiable(self):
        rep = check_generic_identifiability(
            build_extended_graph(correlated_noise_model())
        )
        assert rep.identifiable

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_exhaustive_search(self, seed):
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng, with_excitations=True))
        assert check_generic_identifiability(eg).identifiable == brute_identifiability(
            eg, WIDE_BUDGET
        )

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_per_vertex_counts_match_enumeration(self, seed):
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng, with_excitations=True))
        rep = check_generic_identifiability(eg)
        for c in rep.per_vertex:
            targets = extended_in_neighbors(eg, c.vertex)
            assert c.required == len(targets)
            if targets:
                assert c.achieved == brute_disjoint_paths(
                    eg.graph, eg.stimulated, targets, WIDE_BUDGET
                )


class TestCheckWithExcitations:
    def test_trial_set_replaces_designed_excitations(self):
        eg = build_extended_graph(diamond([1]))
        assert check_with_excitations(eg, {1, 3}).identifiable

    def test_empty_trial_without_noise_fails(self):
        eg = build_extended_graph(diamond())
        rep = check_with_excitations(eg, set())
        assert not rep.identifiable
        assert rep.failing_vertices == (2, 3, 4)

    def test_full_excitation_saturates(self):
        eg = build_extended_graph(diamond([1]))
        rep = check_with_excitations(eg, {1, 2, 3, 4})
        assert rep.identifiable
        assert all(c.achieved == c.required for c in rep.per_vertex)

    def test_noise_stimulation_is_kept(self):
        eg = build_extended_graph(correlated_noise_model())
        rep = check_with_excitations(eg, set())
        assert not rep.identifiable
        assert 1 in rep.failing_vertices  # four parameterized in-edges, three noise channels

    def test_rejects_noise_vertices_in_trial(self):
        eg = build_extended_graph(correlated_noise_model())
        with pytest.raises(ValueError, match="not internal"):
            check_with_excitations(eg, {6})

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_full_excitation_always_identifiable(self, seed):
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng))
        assert check_with_excitations(eg, eg.internal).identifiable

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_the_trial_set(self, seed):
        # enlarging the excitation set never loses identifiability
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng))
        internal = sorted(eg.internal)
        small = set(rng.sample(internal, rng.randint(0, len(internal))))
        extra = set(rng.sample(internal, rng.randint(0, len(internal))))
        small_rep = check_with_excitations(eg, small)
        assume(small_rep.identifiable)
        assert check_with_excitations(eg, small | extra).identifiable


def _prune_walk(rng: random.Random, eg: ExtendedGraph):
    """Stimulated sets shaped like prune's: the roots it starts from, then
    one root dropped, or one time in five a dropped root restored, per
    step, each with the noise-side stimulation. It takes twice as many
    steps as there are roots, so most walks end with few roots left."""
    pi_s = noise_rooted_filter(algorithm1_merge(eg)[0], eg)
    active, dropped = set(select_roots(pi_s)), []
    yield frozenset(active) | eg.noise_stimulated
    for _ in range(2 * len(active)):
        if active and (not dropped or rng.random() < 0.8):
            v = rng.choice(sorted(active))
            active.remove(v)
            dropped.append(v)
        else:
            active.add(dropped.pop(rng.randrange(len(dropped))))
        yield frozenset(active) | eg.noise_stimulated


class TestPathConditionHolds:
    """path_condition_holds over a run of stimulated sets on one shared
    ExtendedGraph, whose flow memo carries from call to call, against
    vertex_checks on a fresh copy of the graph for every set."""

    def _run(self, rng, make, verdicts):
        eg = make()
        internal = sorted(eg.internal)
        for stimulated in _prune_walk(rng, eg):
            tree = rng.sample(internal, min(len(internal), rng.randint(1, 10)))
            for vertices in (tree, eg.internal):
                fresh = make()
                want = all(
                    c.achieved == c.required
                    for c in vertex_checks(fresh, stimulated, vertices)
                )
                assert path_condition_holds(eg, stimulated, vertices) == want
                verdicts.add(want)

    @pytest.mark.parametrize("reversed_graph", [False, True])
    def test_random_models(self, reversed_graph):
        verdicts = set()
        for seed in range(300):
            m = random_model(random.Random(seed))
            if reversed_graph:
                dual = ModelSet.from_edges(m.L, m.modules)
                make = lambda: _reversed_extended(build_extended_graph(dual))
            else:
                make = lambda: build_extended_graph(m)
            self._run(random.Random(f"holds/{seed}"), make, verdicts)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("reversed_graph", [False, True])
    @pytest.mark.parametrize("L", [50, 100, 200, 400])
    def test_sparse_models(self, L, reversed_graph):
        m = random_sparse_model(random.Random(f"holds/{L}"), L)
        if reversed_graph:
            make = lambda: _reversed_extended(build_extended_graph(m))
        else:
            make = lambda: build_extended_graph(m)
        verdicts = set()
        self._run(random.Random(f"holds-walk/{L}/{reversed_graph}"), make, verdicts)
        assert verdicts == {True, False}


class TestExcitationBounds:
    def test_diamond(self):
        eg = build_extended_graph(diamond())
        assert heuristic_bounds(eg) == (2, 2)

    def test_explicit_covering_sets_the_upper_bound(self):
        eg = build_extended_graph(diamond())
        assert excitation_bounds(eg, initial_covering(eg)) == (2, 3)

    def test_correlated_noise_fixture(self):
        eg = build_extended_graph(correlated_noise_model())
        assert heuristic_bounds(eg) == (1, 1)

    def test_lower_bound_clamped_at_zero(self):
        m = ModelSet.from_edges(
            2, [(1, 2)], noise_columns=[[(1, P)], [(2, P)]]
        )
        eg = build_extended_graph(m)
        lower, upper = heuristic_bounds(eg)
        assert lower == 0
        assert upper >= 0

    def test_no_parameterized_edges(self):
        # a Known-only source still counts toward the source term, so the
        # formula can put lower above upper when nothing needs covering
        m = ModelSet.from_edges(2, [(1, 2, K)])
        eg = build_extended_graph(m)
        assert heuristic_bounds(eg) == (1, 0)
