"""Measurement selection on fully excited noise-free networks."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynetid.dual import (
    InvalidDualModelError,
    _reversed_extended,
    measurement_bounds,
    select_measurements,
    validate_dual,
)
from dynetid.graph import DiGraph, max_vertex_disjoint_paths
from dynetid.model import EntryStatus, ExtendedGraph, ModelSet, build_extended_graph
from dynetid.pseudotree import algorithm1_merge, covering_violations

from .randgen import random_all_param_edges

SEEDS = st.integers(0, 10**9)

P, K = EntryStatus.PARAMETERIZED, EntryStatus.KNOWN


def diamond() -> ModelSet:
    return ModelSet.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])


def extended(n: int, edges=()) -> ExtendedGraph:
    return build_extended_graph(ModelSet.from_edges(n, edges))


def heuristic_bounds(eg: ExtendedGraph) -> tuple[int, int]:
    """measurement_bounds with the merge heuristic's reversed covering."""
    covering, _ = algorithm1_merge(_reversed_extended(eg))
    return measurement_bounds(eg, covering)


def graph_of(m: ModelSet) -> DiGraph:
    return DiGraph(frozenset(range(1, m.L + 1)), m.internal_edges())


class TestConstruction:
    def test_needs_one_vertex(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            ModelSet.from_edges(0)

    def test_edge_in_range(self):
        with pytest.raises(ValueError, match="outside"):
            ModelSet.from_edges(2, [(1, 3)])

    def test_edges_round_trip(self):
        m = diamond()
        assert m.internal_edges() == {(1, 2), (1, 3), (2, 4), (3, 4)}
        assert graph_of(m).vertices == {1, 2, 3, 4}


class TestValidateDual:
    def test_clean_model(self):
        assert validate_dual(build_extended_graph(diamond())) == ()

    def test_known_module_rejected(self):
        eg = extended(2, [(1, 2, K)])
        violations = validate_dual(eg)
        assert any("parameterized" in v for v in violations)
        with pytest.raises(InvalidDualModelError, match="parameterized") as info:
            select_measurements(eg)
        assert info.value.violations == violations

    def test_noise_model_rejected(self):
        m = ModelSet.from_edges(2, [(1, 2, K)], noise_columns=[[(1, P)]])
        eg = build_extended_graph(m)
        assert validate_dual(eg) == (
            "measurement selection requires a noise-free model (p = 0)",
        )
        with pytest.raises(InvalidDualModelError, match="noise-free"):
            select_measurements(eg)
        with pytest.raises(InvalidDualModelError, match="noise-free"):
            measurement_bounds(eg, algorithm1_merge(eg)[0])

    def test_excitations_are_ignored(self):
        m = ModelSet.from_edges(2, [(1, 2)], excited=[1])
        assert validate_dual(build_extended_graph(m)) == ()


class TestSelectMeasurements:
    def test_single_edge(self):
        sel = select_measurements(extended(2, [(1, 2)]))
        assert sel.excited == (2,)
        assert sel.verified

    def test_chain(self):
        sel = select_measurements(extended(3, [(1, 2), (2, 3)]))
        assert sel.excited == (3,)
        assert len(sel.covering_used.trees) == 1

    def test_diamond(self):
        sel = select_measurements(build_extended_graph(diamond()))
        assert sel.excited == (3, 4)
        assert len(sel.excited) == 2  # vertex 1's out-degree forces two
        assert sel.verified

    def test_no_edges(self):
        sel = select_measurements(extended(2))
        assert sel.excited == ()
        assert sel.verified
        assert sel.covering_used.trees == ()

    def test_flipped_covering_gives_anti_pseudotrees(self):
        m = diamond()
        sel = select_measurements(build_extended_graph(m))
        anti_trees = [{(h, t) for t, h in rev.edges} for rev in sel.covering_used.trees]
        assert set().union(*anti_trees) == m.internal_edges()
        for anti in anti_trees:
            # out-degrees within an anti-pseudotree stay at most one
            tails = [t for t, _ in anti]
            assert len(tails) == len(set(tails))

    def test_out_neighborhood_condition(self):
        m = diamond()
        g = graph_of(m)
        measured = set(select_measurements(build_extended_graph(m)).excited)
        for j in sorted(g.vertices):
            outs = g.out_neighbors(j)
            if outs:
                assert max_vertex_disjoint_paths(g, outs, measured) == len(outs)

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_condition_holds_on_random_patterns(self, seed):
        rng = random.Random(seed)
        n, edges = random_all_param_edges(rng)
        m = ModelSet.from_edges(n, edges)
        assume(not any(t == h for t, h in edges))
        sel = select_measurements(build_extended_graph(m))
        assert sel.verified
        g = graph_of(m)
        measured = set(sel.excited)
        for j in sorted(g.vertices):
            outs = g.out_neighbors(j)
            if outs:
                assert max_vertex_disjoint_paths(g, outs, measured) == len(outs)

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_reversed_covering_is_valid(self, seed):
        rng = random.Random(seed)
        n, edges = random_all_param_edges(rng)
        assume(not any(t == h for t, h in edges))
        sel = select_measurements(extended(n, edges))
        assert covering_violations(sel.covering_used) == ()
        rev_edges = {e for t in sel.covering_used.trees for e in t.edges}
        assert rev_edges == {(h, t) for t, h in edges}


class TestMeasurementBounds:
    def test_diamond(self):
        assert heuristic_bounds(build_extended_graph(diamond())) == (2, 2)

    def test_chain(self):
        assert heuristic_bounds(extended(3, [(1, 2), (2, 3)])) == (1, 1)

    def test_star_needs_one_per_sink(self):
        assert heuristic_bounds(extended(4, [(1, 2), (1, 3), (1, 4)])) == (3, 3)

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_bounds_sandwich_the_selection(self, seed):
        rng = random.Random(seed)
        n, edges = random_all_param_edges(rng)
        assume(not any(t == h for t, h in edges))
        eg = extended(n, edges)
        touched = {v for e in edges for v in e}
        assume(touched == set(range(1, n + 1)))  # isolated vertices inflate the sink count
        sel = select_measurements(eg)
        lower, upper = heuristic_bounds(eg)
        assert lower <= len(sel.excited) <= upper
        assert sel.bounds == measurement_bounds(eg, sel.covering_used)
