"""Hand-verified fixtures for the brute-force reference implementations.

Every expected value in this file was worked out on paper from the
definitions alone, before the search code existed. The rest of the suite
cross-checks production code against these oracles, so nothing here may
import the production algorithms it is meant to referee.
"""

import pytest

from dynetid.graph import DiGraph
from dynetid.model import EntryStatus, ModelSet, build_extended_graph
from dynetid.oracle import (
    BudgetExceeded,
    OracleBudget,
    brute_disjoint_paths,
    brute_identifiability,
    brute_min_covering,
)
from dynetid.pseudotree import covering_violations


def diamond() -> DiGraph:
    return DiGraph.of([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])


class TestDisjointPaths:
    def test_single_source_cannot_split(self):
        assert brute_disjoint_paths(diamond(), {1}, {2, 3}) == 1

    def test_zero_length_path_at_shared_vertex(self):
        g = DiGraph.of([1])
        assert brute_disjoint_paths(g, {1}, {1}) == 1

    def test_source_set_equal_target_set(self):
        assert brute_disjoint_paths(diamond(), {2, 3}, {2, 3}) == 2

    def test_real_path_plus_zero_length(self):
        assert brute_disjoint_paths(diamond(), {1, 3}, {2, 3}) == 2

    def test_empty_source_side(self):
        assert brute_disjoint_paths(diamond(), set(), {2}) == 0

    def test_empty_target_side(self):
        assert brute_disjoint_paths(diamond(), {1}, set()) == 0

    def test_shared_head_is_a_bottleneck(self):
        g = DiGraph.of([1, 2, 3], [(1, 3), (2, 3)])
        assert brute_disjoint_paths(g, {1, 2}, {3}) == 1

    def test_disjoint_edges_pack(self):
        g = DiGraph.of([1, 2, 3, 4], [(1, 3), (2, 4)])
        assert brute_disjoint_paths(g, {1, 2}, {3, 4}) == 2

    def test_midpoint_on_every_path(self):
        g = DiGraph.of([1, 2, 3], [(1, 2), (2, 3)])
        assert brute_disjoint_paths(g, {1, 2}, {3}) == 1

    def test_detour_shares_its_endpoint(self):
        g = DiGraph.of([1, 2, 3], [(1, 2), (1, 3), (3, 2)])
        assert brute_disjoint_paths(g, {1}, {2}) == 1

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            brute_disjoint_paths(diamond(), {9}, {2})


class TestMinCovering:
    def test_diamond_needs_two_trees(self):
        kappa, witness = brute_min_covering(diamond(), diamond().edges)
        assert kappa == 2
        assert covering_violations(witness) == ()

    def test_chain_is_one_tree(self):
        g = DiGraph.of([1, 2, 3], [(1, 2), (2, 3)])
        kappa, witness = brute_min_covering(g, g.edges)
        assert kappa == 1
        assert covering_violations(witness) == ()

    def test_cycle_is_one_tree(self):
        g = DiGraph.of([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        kappa, witness = brute_min_covering(g, g.edges)
        assert kappa == 1
        assert covering_violations(witness) == ()

    def test_fan_in_forces_one_tree_per_tail(self):
        g = DiGraph.of([1, 2, 3, 4], [(1, 4), (2, 4), (3, 4)])
        kappa, witness = brute_min_covering(g, g.edges)
        assert kappa == 3
        assert covering_violations(witness) == ()

    def test_disconnected_targets_cannot_share_a_tree(self):
        g = DiGraph.of([1, 2, 3, 4], [(1, 2), (3, 4)])
        kappa, witness = brute_min_covering(g, g.edges)
        assert kappa == 2
        assert covering_violations(witness) == ()

    def test_single_star(self):
        g = DiGraph.of([1, 2, 3], [(1, 2), (1, 3)])
        kappa, _ = brute_min_covering(g, g.edges)
        assert kappa == 1

    def test_partial_target_set(self):
        # only the two top edges need covering; one star suffices
        kappa, witness = brute_min_covering(diamond(), {(1, 2), (1, 3)})
        assert kappa == 1
        assert witness.target_edges == frozenset({(1, 2), (1, 3)})

    def test_empty_target_set(self):
        kappa, witness = brute_min_covering(diamond(), set())
        assert kappa == 0
        assert witness.trees == ()

    def test_witness_is_deterministic(self):
        first = brute_min_covering(diamond(), diamond().edges)
        second = brute_min_covering(diamond(), diamond().edges)
        assert first == second


class TestIdentifiability:
    def _diamond_model(self, excited):
        return ModelSet.from_edges(
            4, [(1, 2), (1, 3), (2, 4), (3, 4)], excited=excited
        )

    def test_two_sources_excited(self):
        eg = build_extended_graph(self._diamond_model([1, 3]))
        assert brute_identifiability(eg) is True

    def test_one_source_is_not_enough(self):
        eg = build_extended_graph(self._diamond_model([1]))
        assert brute_identifiability(eg) is False

    def test_no_parameterized_edges_is_vacuous(self):
        m = ModelSet.from_edges(2, [(1, 2, EntryStatus.KNOWN)])
        eg = build_extended_graph(m)
        assert brute_identifiability(eg) is True


class TestBudget:
    def test_vertex_budget(self):
        g = DiGraph.of(range(1, 9))
        with pytest.raises(BudgetExceeded):
            brute_disjoint_paths(g, {1}, {2})

    def test_edge_budget(self):
        edges = [(i, j) for i in range(1, 6) for j in range(1, 6) if i != j][:13]
        g = DiGraph.of(range(1, 6), edges)
        with pytest.raises(BudgetExceeded):
            brute_min_covering(g, g.edges)

    def test_node_meter_aborts_search(self):
        tight = OracleBudget(max_nodes_explored=1)
        with pytest.raises(BudgetExceeded):
            brute_disjoint_paths(diamond(), {1}, {4}, tight)

    def test_budget_limits_validated(self):
        with pytest.raises(ValueError):
            OracleBudget(max_vertices=0)


CHAIN = 1200  # deeper than the interpreter's default recursion limit of 1000


def chain(n: int) -> DiGraph:
    return DiGraph.of(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


class TestDeepInstances:
    WIDE = OracleBudget(max_vertices=CHAIN, max_edges=CHAIN, max_nodes_explored=200_000)

    def test_one_path_along_a_long_chain(self):
        assert brute_disjoint_paths(chain(CHAIN), {1}, {CHAIN}, self.WIDE) == 1

    def test_long_chain_is_one_tree(self):
        g = chain(CHAIN)
        kappa, c = brute_min_covering(g, g.edges, self.WIDE)
        assert kappa == 1
        assert covering_violations(c) == ()

    def test_node_meter_aborts_a_deep_search(self):
        tight = OracleBudget(max_vertices=CHAIN, max_edges=CHAIN, max_nodes_explored=CHAIN // 2)
        with pytest.raises(BudgetExceeded):
            brute_disjoint_paths(chain(CHAIN), {1}, {CHAIN}, tight)
        with pytest.raises(BudgetExceeded):
            brute_min_covering(chain(CHAIN), chain(CHAIN).edges, tight)
