"""Model-set validation and extended-graph construction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynetid.dual import (
    InvalidDualModelError,
    _reversed_extended,
    select_measurements,
    validate_dual,
)
from dynetid.graph import DiGraph
from dynetid.model import (
    EntryStatus,
    ExtendedGraph,
    InvalidModelError,
    ModelSet,
    build_extended_graph,
    extended_in_neighbors,
    validate,
)

from .randgen import _random_noise_columns, _random_pattern, random_model

Z, P, K = EntryStatus.ZERO, EntryStatus.PARAMETERIZED, EntryStatus.KNOWN


def correlated_noise_model() -> ModelSet:
    """Five internal vertices; noise channels 1 and 2 drive vertices 1 and 2
    jointly, channel 3 drives vertex 3; vertices 4 and 5 carry excitations."""
    return ModelSet.from_edges(
        5,
        [(2, 1), (5, 1), (1, 3), (3, 4), (4, 2)],
        noise_columns=[
            [(1, P), (2, P)],
            [(1, P), (2, P)],
            [(3, P)],
        ],
        excited=[4, 5],
    )


class TestConstruction:
    def test_needs_one_vertex(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            ModelSet(0, {}, (), frozenset())

    def test_excited_vertex_in_range(self):
        with pytest.raises(ValueError, match="excited vertex"):
            ModelSet.from_edges(2, [(1, 2)], excited=[3])

    def test_edge_in_range(self):
        with pytest.raises(ValueError, match="outside"):
            ModelSet.from_edges(2, [(1, 5)])
        with pytest.raises(ValueError, match=r"edge \(0, 1\) outside"):
            ModelSet(2, {(0, 1): P}, (), frozenset())

    def test_noise_row_in_range(self):
        with pytest.raises(ValueError, match="noise row"):
            ModelSet.from_edges(2, [(1, 2)], noise_columns=[[(9, P)]])
        with pytest.raises(ValueError, match="noise row 3 outside"):
            ModelSet(2, {}, ({3: K},), frozenset())

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"edges": [(1.0, 2)]}, r"edge \(1\.0, 2\) outside 1\.\.3"),
            ({"edges": [(1, True)]}, r"edge \(1, True\) outside 1\.\.3"),
            ({"excited": [True, 2.0]}, r"excited vertex (True|2\.0) outside 1\.\.3"),
            ({"noise_columns": [[(2.0, P)]]}, r"noise row 2\.0 outside 1\.\.3"),
            (
                {"strictly_proper_modules": False, "feedthrough_edges": [(1, 2.0)]},
                r"feedthrough edge \(1, 2\.0\) outside 1\.\.3",
            ),
        ],
    )
    def test_ids_must_be_ints(self, kwargs, message):
        # A float or bool equal to a vertex passes the range test, and the
        # model would serialize to a file that parse_model rejects.
        kwargs.setdefault("edges", [(1, 2), (2, 3)])
        with pytest.raises(ValueError, match=message):
            ModelSet.from_edges(3, **kwargs)

    @pytest.mark.parametrize("L, edges", [(True, []), (2.0, [(1, 2)]), ("3", [(1, 2)])])
    def test_vertex_count_must_be_an_int(self, L, edges):
        # True and 2.0 pass the range tests, and the model would serialize
        # to "L": true or "L": 2.0, which parse_model rejects.
        with pytest.raises(ValueError, match=f"L must be an integer, got {L!r}"):
            ModelSet.from_edges(L, edges)

    def test_zero_entries_are_not_stored(self):
        m = ModelSet.from_edges(
            3, [(1, 2), (2, 3, K), (1, 2, Z)], noise_columns=[[(1, P), (2, Z)]]
        )
        assert m.modules == {(2, 3): K}
        assert m.noise == ({1: P},)
        with pytest.raises(ValueError, match="zero status"):
            ModelSet(2, {(1, 2): Z}, (), frozenset())
        with pytest.raises(ValueError, match="zero status"):
            ModelSet(2, {}, ({1: Z},), frozenset())

    def test_p_counts_columns(self):
        assert correlated_noise_model().p == 3
        assert ModelSet.from_edges(2, [(1, 2)]).p == 0

    def test_g_status_is_tail_head(self):
        m = ModelSet.from_edges(2, [(1, 2, K)])
        assert m.modules.get((1, 2), Z) is K
        assert m.modules.get((2, 1), Z) is Z

    def test_internal_edges_include_known(self):
        m = ModelSet.from_edges(3, [(1, 2, P), (2, 3, K)])
        assert m.internal_edges() == {(1, 2), (2, 3)}


class TestValidate:
    def test_fixture_passes(self):
        assert validate(correlated_noise_model()) == ()

    def test_self_loop_module(self):
        m = ModelSet.from_edges(2, [(1, 1)])
        violations = validate(m)
        assert violations
        assert any("self-loop module" in v for v in violations)

    def test_mixed_column_rejected(self):
        m = ModelSet.from_edges(
            3, [(1, 2)], noise_columns=[[(1, K), (2, P)]]
        )
        violations = validate(m)
        assert violations
        assert any("column 1" in v for v in violations)

    def test_mixed_row_rejected(self):
        m = ModelSet.from_edges(
            2, [(1, 2)], noise_columns=[[(1, K)], [(1, P)]]
        )
        violations = validate(m)
        assert violations
        assert any("row 1" in v for v in violations)

    def test_empty_column_rejected(self):
        m = ModelSet.from_edges(2, noise_columns=[[]])
        violations = validate(m)
        assert any("drives no vertex" in v for v in violations)

    def test_single_known_column_is_fine(self):
        m = ModelSet.from_edges(2, [(1, 2)], noise_columns=[[(1, K)]])
        assert validate(m) == ()

    def test_known_driven_vertex_cannot_be_excited(self):
        m = ModelSet.from_edges(
            2, [(1, 2)], noise_columns=[[(1, K)]], excited=[1]
        )
        violations = validate(m)
        assert violations
        assert any("excited and also driven" in v for v in violations)

    def test_feedthrough_cycle_rejected(self):
        m = ModelSet.from_edges(
            2, [(1, 2), (2, 1)], strictly_proper_modules=False
        )
        violations = validate(m)
        assert any("algebraic loop" in v for v in violations)

    def test_feedthrough_subset_can_break_the_cycle(self):
        m = ModelSet.from_edges(
            2,
            [(1, 2), (2, 1)],
            strictly_proper_modules=False,
            feedthrough_edges=[(1, 2)],
        )
        assert validate(m) == ()

    def test_feedthrough_edge_must_be_a_module(self):
        m = ModelSet.from_edges(
            2,
            [(1, 2)],
            strictly_proper_modules=False,
            feedthrough_edges=[(2, 1)],
        )
        violations = validate(m)
        assert any("not a nonzero module" in v for v in violations)

    def test_deep_feedthrough_chain_is_acyclic(self):
        L = 3000
        chain = [(v, v + 1) for v in range(1, L)]
        m = ModelSet.from_edges(L, chain, strictly_proper_modules=False)
        assert validate(m) == ()

    def test_deep_feedthrough_loop_is_reported(self):
        L = 3000
        loop = [(v, v + 1) for v in range(1, L)] + [(L, 1)]
        m = ModelSet.from_edges(L, loop, strictly_proper_modules=False)
        assert validate(m) == (
            "feedthrough subgraph contains a cycle (algebraic loop)",
        )

    def test_strictly_proper_ignores_cycles(self):
        m = ModelSet.from_edges(2, [(1, 2), (2, 1)])
        assert validate(m) == ()


def planted_model(seed: int) -> tuple[ModelSet, str | None]:
    """A seeded model and the violation planted in it, if any.

    Seeds cycle through no plant, a self-loop, a known entry in a shared
    noise row and a feedthrough cycle. The random pattern around the plant
    may break further rules, or the measurement setting, on its own.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    edges = _random_pattern(rng, n, known_share=rng.choice([0.0, 0.3]))
    columns = _random_noise_columns(rng, n, rng.randint(0, 2))
    excited = rng.sample(range(1, n + 1), rng.randint(0, 2))
    kind, planted, proper = seed % 4, None, True
    if kind == 1:
        v = rng.randint(1, n)
        edges.append((v, v, P))
        planted = f"self-loop module at vertex {v}"
    elif kind == 2:
        row = rng.randint(1, n)
        columns += [[(row, K)], [(row, P)]]
        planted = f"noise row {row} mixes a known entry with other nonzeros"
    elif kind == 3:
        a, b = rng.sample(range(1, n + 1), 2)
        edges += [(a, b, P), (b, a, P)]
        planted, proper = "feedthrough subgraph contains a cycle (algebraic loop)", False
    m = ModelSet.from_edges(
        n, edges, noise_columns=columns, excited=excited, strictly_proper_modules=proper
    )
    return m, planted


class TestVerdictContract:
    """Each verdict is a tuple of violations that is empty exactly when its
    gate passes, and a failing gate raises with exactly that tuple."""

    def test_seeded_models(self):
        seen = {"valid": 0, "invalid": 0, "dual": 0, "not dual": 0}
        for seed in range(200):
            m, planted = planted_model(seed)
            violations = validate(m)
            assert planted is None or planted in violations, seed
            try:
                eg = build_extended_graph(m)
            except InvalidModelError as exc:
                assert type(exc) is InvalidModelError, seed
                assert violations and exc.violations == violations, seed
                seen["invalid"] += 1
                continue
            assert violations == (), seed
            seen["valid"] += 1
            dual = validate_dual(eg)
            try:
                select_measurements(eg)
            except InvalidDualModelError as exc:
                assert dual and exc.violations == dual, seed
                seen["not dual"] += 1
            else:
                assert dual == (), seed
                seen["dual"] += 1
        assert min(seen.values()) >= 10, seen


class TestExtendedGraph:
    def test_fixture_noise_vertices(self):
        eg = build_extended_graph(correlated_noise_model())
        assert eg.noise_vertices == {6, 7, 8}
        assert eg.p0 == 0
        assert eg.p == 3

    def test_fixture_noise_edges(self):
        eg = build_extended_graph(correlated_noise_model())
        added = {e for e in eg.graph.edges if e[0] > 5}
        assert added == {(6, 1), (6, 2), (7, 1), (7, 2), (8, 3)}

    def test_fixture_stimulated(self):
        eg = build_extended_graph(correlated_noise_model())
        assert eg.stimulated == {4, 5, 6, 7, 8}

    def test_fixture_in_neighbors_of_vertex_one(self):
        eg = build_extended_graph(correlated_noise_model())
        assert extended_in_neighbors(eg, 1) == {2, 5, 6, 7}

    def test_no_noise_means_internal_graph(self):
        m = ModelSet.from_edges(3, [(1, 2), (2, 3)], excited=[1])
        eg = build_extended_graph(m)
        assert eg.graph == DiGraph.of([1, 2, 3], [(1, 2), (2, 3)])
        assert eg.stimulated == {1}
        assert eg.noise_vertices == frozenset()

    def test_single_known_column_adds_no_vertex(self):
        m = ModelSet.from_edges(2, [(1, 2)], noise_columns=[[(1, K)]])
        eg = build_extended_graph(m)
        assert eg.noise_vertices == frozenset()
        assert eg.noise_driven == {1}
        assert eg.stimulated == {1}
        assert eg.p0 == 1
        assert eg.p == 1

    def test_column_compaction_preserves_order(self):
        m = ModelSet.from_edges(
            3,
            [(1, 2)],
            noise_columns=[[(1, K)], [(2, P)], [(3, P)]],
        )
        eg = build_extended_graph(m)
        assert eg.noise_vertices == {4, 5}
        assert (4, 2) in eg.graph.edges
        assert (5, 3) in eg.graph.edges
        assert eg.p0 == 1

    def test_known_internal_edge_kept_but_not_target(self):
        m = ModelSet.from_edges(3, [(1, 2, K), (2, 3, P)])
        eg = build_extended_graph(m)
        assert (1, 2) in eg.graph.edges
        assert (1, 2) not in eg.parameterized_edges
        assert (2, 3) in eg.parameterized_edges
        assert extended_in_neighbors(eg, 2) == frozenset()
        assert extended_in_neighbors(eg, 3) == {2}

    def test_invalid_model_rejected(self):
        m = ModelSet.from_edges(2, [(1, 1), (2, 2)])
        with pytest.raises(InvalidModelError) as info:
            build_extended_graph(m)
        violations = ("self-loop module at vertex 1", "self-loop module at vertex 2")
        assert info.value.violations == violations
        assert str(info.value) == "; ".join(violations)

    def test_in_neighbors_of_noise_vertex_rejected(self):
        eg = build_extended_graph(correlated_noise_model())
        with pytest.raises(ValueError, match="not internal"):
            extended_in_neighbors(eg, 6)

    def test_vertex_without_in_edges(self):
        eg = build_extended_graph(correlated_noise_model())
        assert extended_in_neighbors(eg, 5) == frozenset()


SEEDS = st.integers(min_value=0, max_value=10**9)


class TestExtendedGraphProperties:
    @given(SEEDS)
    @settings(max_examples=120, deadline=None)
    def test_stimulated_count(self, seed):
        rng = random.Random(seed)
        m = random_model(rng, with_excitations=True)
        eg = build_extended_graph(m)
        assert len(eg.stimulated) == len(m.excited) + m.p

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_noise_vertices_are_sources(self, seed):
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng))
        for nv in eg.noise_vertices:
            assert eg.graph.in_neighbors(nv) == frozenset()
            for head in eg.graph.out_neighbors(nv):
                assert (nv, head) in eg.parameterized_edges
        assert eg.stimulated >= eg.noise_vertices

    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_dropping_noise_vertices_recovers_internal_graph(self, seed):
        rng = random.Random(seed)
        m = random_model(rng)
        eg = build_extended_graph(m)
        kept = frozenset(
            e for e in eg.graph.edges if e[0] in eg.internal and e[1] in eg.internal
        )
        assert DiGraph(eg.internal, kept) == DiGraph(
            frozenset(range(1, m.L + 1)), m.internal_edges()
        )


def param_in_by_membership(eg: ExtendedGraph) -> dict[int, frozenset[int]]:
    """param_in as one graph-membership test per parameterized edge."""
    param_in: dict[int, list[int]] = {j: [] for j in eg.internal}
    for i, j in eg.parameterized_edges:
        if j in param_in and (i, j) in eg.graph.edges:
            param_in[j].append(i)
    return {j: frozenset(ins) for j, ins in param_in.items()}


class TestParameterizedInNeighbors:
    def test_intersection_matches_a_membership_test_per_edge(self):
        for seed in range(300):
            m = random_model(random.Random(seed), max_vertices=6, max_noise=3, known_share=0.35)
            eg = build_extended_graph(m)
            assert eg.param_in == param_in_by_membership(eg), seed
            rev = _reversed_extended(build_extended_graph(ModelSet.from_edges(m.L, m.modules)))
            assert rev.param_in == param_in_by_membership(rev), seed
        # A parameterized edge outside the graph, one into a non-internal
        # vertex, and a graph edge that is not parameterized.
        direct = ExtendedGraph(
            graph=DiGraph.of([1, 2, 3], [(1, 2), (2, 3)]),
            L=3,
            noise_vertices=frozenset(),
            noise_driven=frozenset(),
            stimulated=frozenset(),
            parameterized_edges=frozenset({(1, 2), (3, 1), (3, 4)}),
            p0=0,
        )
        assert direct.param_in == {1: frozenset(), 2: frozenset({1}), 3: frozenset()}
        assert direct.param_in == param_in_by_membership(direct)

    def test_stored_sets_match_the_definition(self):
        # The sets ExtendedGraph stores at construction against the
        # definition, on models with noise vertices and known modules, on
        # both sides of the dual.
        seen = {"noise vertex in a set": 0, "known module left out": 0}
        for seed in range(500):
            m = random_model(random.Random(seed), max_vertices=6, max_noise=3, known_share=0.35)
            eg = build_extended_graph(m)
            for j in sorted(eg.internal):
                want = frozenset(
                    i for i in eg.graph.in_neighbors(j) if (i, j) in eg.parameterized_edges
                )
                assert extended_in_neighbors(eg, j) == want, (seed, j)
                seen["noise vertex in a set"] += bool(want & eg.noise_vertices)
                seen["known module left out"] += len(want) < len(eg.graph.in_neighbors(j))
            rev = _reversed_extended(build_extended_graph(ModelSet.from_edges(m.L, m.modules)))
            for j in sorted(rev.internal):
                assert extended_in_neighbors(rev, j) == rev.graph.in_neighbors(j)
        assert min(seen.values()) >= 50, seen

    def test_outside_the_internal_vertices(self):
        eg = build_extended_graph(correlated_noise_model())
        assert eg.noise_vertices
        for j in (0, eg.L + 1, max(eg.noise_vertices)):
            with pytest.raises(ValueError, match=f"^vertex {j} is not internal$"):
                extended_in_neighbors(eg, j)

    def test_stored_sets_stay_out_of_equality_and_repr(self):
        m = correlated_noise_model()
        a, b = build_extended_graph(m), build_extended_graph(m)
        assert a == b and hash(a) == hash(b)
        assert "param_in" not in repr(a)
