"""Pseudotree recognition, disjointness, mergeability, characteristic-matrix
algebra, and the two-phase merge heuristic.

The 9x9 matrix fixture and its printed reductions exercise the exact
published behavior of the merge bookkeeping; the property tests then check
the same laws on random instances against the brute-force oracle, and the
sparse in-place merge against the dense reference loop in mergeref.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynetid.dual import _reversed_extended
from dynetid.graph import DiGraph
from dynetid.model import EntryStatus, ModelSet, build_extended_graph
from dynetid.oracle import OracleBudget, brute_min_covering
from dynetid.pseudotree import (
    CharEntry,
    CharMatrix,
    Covering,
    Pseudotree,
    _MergeMatrix,
    _merge_steps,
    _mergeable_pair,
    _rows,
    algorithm1_merge,
    char_matrix,
    char_matrix_from_adjacency,
    covering_violations,
    initial_covering,
    is_mergeable,
    is_pseudotree,
    matrix_only_merge,
    merge_trees,
    odot,
    reduce,
)

from .mergeref import _close_triangles, _entrywise_fold, _pick_row
from .mergeref import char_matrix as reference_char_matrix
from .mergeref import dense_char_matrix_from_adjacency
from .mergeref import algorithm1_merge as reference_merge
from .mergeref import matrix_only_merge as reference_matrix_only_merge
from .mergeref import merge_pass as reference_pass
from .randgen import random_digraph, random_model, random_sparse_model
from .test_model import correlated_noise_model

O, I, E = CharEntry.ZERO, CharEntry.ONE, CharEntry.EMPTY

SEEDS = st.integers(min_value=0, max_value=10**9)

# Nine initial stars of an eleven-vertex host; the merge policy must shrink
# this to five trees through the exact trace pinned below.
FIXTURE_9 = CharMatrix.parse(
    """
    0 1 E E 0 E 0 E E
    0 0 1 E 0 0 0 E E
    E 1 0 0 E 0 E 0 0
    E E 0 0 E 0 E 0 0
    0 1 E E 0 1 0 0 E
    E 0 1 0 0 0 0 0 0
    0 0 E E 0 0 0 1 E
    E E 0 0 1 0 0 0 0
    E E 0 0 E 0 E 0 0
    """
)

FIXTURE_9_AFTER_12 = CharMatrix.parse(
    """
    0 1 E 0 0 0 E E
    1 0 0 E 0 E 0 0
    E 0 0 E 0 E 0 0
    0 E E 0 1 0 0 E
    0 1 0 0 0 0 0 0
    0 E E 0 0 0 1 E
    E 0 0 1 0 0 0 0
    E 0 0 E 0 E 0 0
    """
)


def diamond_eg():
    m = ModelSet.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)], excited=[1])
    return build_extended_graph(m)


def star_covering(g: DiGraph, targets) -> Covering:
    targets = frozenset(targets)
    tails = sorted({t for t, _ in targets})
    trees = tuple(
        Pseudotree.from_edges(e for e in targets if e[0] == v) for v in tails
    )
    return Covering(trees=trees, host=g, target_edges=targets)


class TestOdot:
    def test_published_table(self):
        assert odot(I, I) is I
        assert odot(I, O) is O
        assert odot(I, E) is I
        assert odot(O, O) is O
        assert odot(E, O) is O
        assert odot(E, E) is E

    def test_commutative(self):
        for a in CharEntry:
            for b in CharEntry:
                assert odot(a, b) is odot(b, a)

    def test_zero_absorbs(self):
        for a in CharEntry:
            assert odot(a, O) is O

    @pytest.mark.parametrize("a", (O, I, E))
    @pytest.mark.parametrize("b", (O, I, E))
    def test_fold_of_the_boolean_encoding(self, a, b):
        # _MergeMatrix keeps One as True and Zero as False and leaves Empty
        # out. Folding tree 1 into tree 2 must store odot of their entries
        # against tree 3, a at (1, 3) and (3, 1), b at (2, 3) and (3, 2),
        # in that encoding, in row 2 and in row 3. The matrix has symmetric
        # support, as every matrix the merge loop folds does.
        encode = {I: True, O: False, E: None}
        m = CharMatrix.from_rows([(O, I, a), (O, O, b), (a, b, O)])
        sparse = _MergeMatrix(_rows(m))
        sparse.fold(1, 2)
        want = encode[odot(a, b)]
        assert sparse.rows[2].get(3) is want
        assert sparse.rows[3].get(2) is want


class TestIsPseudotree:
    def test_star(self):
        ok, roots = is_pseudotree([1, 2, 3], [(1, 2), (1, 3)])
        assert ok and roots == {1}

    def test_cycle_has_all_roots(self):
        ok, roots = is_pseudotree([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        assert ok and roots == {1, 2, 3}

    def test_in_degree_two_fails(self):
        ok, roots = is_pseudotree(
            [1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)]
        )
        assert not ok and roots == frozenset()

    def test_single_vertex_too_small(self):
        assert is_pseudotree([1], [])[0] is False

    def test_disconnected_fails(self):
        assert is_pseudotree([1, 2, 3, 4], [(1, 2), (3, 4)])[0] is False

    def test_cycle_with_branch(self):
        # only the cycle vertices reach everything
        ok, roots = is_pseudotree([1, 2, 3], [(1, 2), (2, 1), (2, 3)])
        assert ok and roots == {1, 2}

    def test_chain_rooted_at_head(self):
        ok, roots = is_pseudotree([1, 2, 3], [(1, 2), (2, 3)])
        assert ok and roots == {1}

    def test_host_containment_enforced(self):
        # a tree leaving its host graph is a violation, not an exception
        host = DiGraph.of([1, 2], [(1, 2)])
        tree = Pseudotree.from_edges([(1, 2), (1, 3)])
        c = Covering(trees=(tree,), host=host, target_edges=tree.edges)
        assert covering_violations(c) == ("tree 1 leaves the host graph",)

    def test_from_edges_rejects_non_pseudotree(self):
        with pytest.raises(ValueError, match="does not form a pseudotree"):
            Pseudotree.from_edges([(1, 2), (3, 2)])


def _disjointness(t1: Pseudotree, t2: Pseudotree) -> tuple[str, ...]:
    """covering_violations of the two trees covering exactly their edges."""
    edges = t1.edges | t2.edges
    host = DiGraph.of({v for e in edges for v in e}, edges)
    return covering_violations(Covering(trees=(t1, t2), host=host, target_edges=edges))


class TestAreDisjoint:
    """Disjointness is the "not disjoint" rule of covering_violations."""

    def test_separate_stars(self):
        t1 = Pseudotree.from_edges([(1, 2), (1, 3)])
        t2 = Pseudotree.from_edges([(2, 4)])
        assert _disjointness(t1, t2) == ()

    def test_split_out_edges(self):
        t1 = Pseudotree.from_edges([(1, 2)])
        t2 = Pseudotree.from_edges([(1, 3)])
        assert _disjointness(t1, t2) == ("trees 1 and 2 are not disjoint",)

    def test_shared_edge(self):
        t1 = Pseudotree.from_edges([(1, 2), (1, 3)])
        t2 = Pseudotree.from_edges([(1, 2)])
        assert _disjointness(t1, t2) == ("trees 1 and 2 are not disjoint",)


class TestIsMergeable:
    def setup_method(self):
        self.t1 = Pseudotree.from_edges([(1, 2), (1, 3)])
        self.t2 = Pseudotree.from_edges([(2, 4)])
        self.t3 = Pseudotree.from_edges([(3, 4)])

    def test_star_folds_under_its_parent(self):
        assert is_mergeable(self.t2, self.t1)

    def test_in_degree_conflict(self):
        assert not is_mergeable(self.t2, self.t3)

    def test_direction_matters(self):
        # the absorbing tree's root must reach the absorbed tree
        assert not is_mergeable(self.t1, self.t2)

    def test_vertex_disjoint_pair(self):
        far = Pseudotree.from_edges([(8, 9)])
        assert not is_mergeable(far, self.t1)


class TestInitialCovering:
    def test_diamond_stars(self):
        c = initial_covering(diamond_eg())
        assert len(c) == 3
        assert [t.roots for t in c.trees] == [{1}, {2}, {3}]
        assert covering_violations(c) == ()

    def test_single_edge(self):
        eg = build_extended_graph(ModelSet.from_edges(2, [(1, 2)]))
        c = initial_covering(eg)
        assert len(c) == 1
        assert c.trees[0].edges == {(1, 2)}

    def test_no_targets(self):
        eg = build_extended_graph(
            ModelSet.from_edges(2, [(1, 2, EntryStatus.KNOWN)])
        )
        with pytest.raises(ValueError, match="no parameterized edges"):
            initial_covering(eg)

    def test_known_edges_never_covered(self):
        m = ModelSet.from_edges(3, [(1, 2, EntryStatus.KNOWN), (2, 3)])
        c = initial_covering(build_extended_graph(m))
        assert c.target_edges == {(2, 3)}
        assert all((1, 2) not in t.edges for t in c.trees)

    def test_star_count_formula(self):
        # one star per non-sink vertex of the target-induced subgraph
        c = initial_covering(diamond_eg())
        touched = {v for e in c.target_edges for v in e}
        sinks = {v for v in touched if all(t != v for t, _ in c.target_edges)}
        assert len(c) == len(touched) - len(sinks)


class TestCharMatrix:
    def test_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            CharMatrix.from_rows([(O, O)])

    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValueError, match="diagonal"):
            CharMatrix.from_rows([(O, O), (O, I)])

    def test_parse_render_round_trip(self):
        assert CharMatrix.parse(FIXTURE_9.render()) == FIXTURE_9

    def test_entry_indexing(self):
        assert FIXTURE_9.entry(1, 2) is I
        assert FIXTURE_9.entry(5, 6) is I
        assert FIXTURE_9.entry(9, 1) is E

    def test_diamond(self):
        c = initial_covering(diamond_eg())
        expected = CharMatrix.parse("0 0 0\n1 0 0\n1 0 0")
        assert char_matrix(c) == expected

    def test_disjoint_edges_are_empty(self):
        g = DiGraph.of([1, 2, 3, 4], [(1, 2), (3, 4)])
        c = star_covering(g, g.edges)
        assert char_matrix(c) == CharMatrix.parse("0 E\nE 0")


class TestCharMatrixFromAdjacency:
    def test_diamond_agrees_with_direct(self):
        eg = diamond_eg()
        c = initial_covering(eg)
        assert char_matrix_from_adjacency(eg.graph) == char_matrix(c)

    def test_two_cycle_corner_case(self):
        # both stars fold into each other around the cycle
        g = DiGraph.of([1, 2], [(1, 2), (2, 1)])
        m = char_matrix_from_adjacency(g)
        assert m == CharMatrix.parse("0 1\n1 0")

    def test_partial_targets(self):
        g = DiGraph.of([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])
        m = char_matrix_from_adjacency(g, frozenset({(1, 2), (2, 4)}))
        assert m == CharMatrix.parse("0 0\n1 0")

    def test_target_must_be_an_edge(self):
        g = DiGraph.of([1, 2], [(1, 2)])
        with pytest.raises(ValueError, match="not in the graph"):
            char_matrix_from_adjacency(g, frozenset({(2, 1)}))

    @given(SEEDS)
    @settings(max_examples=300, deadline=None)
    def test_sparse_columns_match_the_dense_ones(self, seed):
        # Vertex ids are spread out so that id order, not a vertex's index,
        # has to fix the rows; each graph runs with all of its edges and
        # with a random target subset, the empty one included.
        rng = random.Random(seed)
        small = random_digraph(rng)
        spread = sorted(rng.sample(range(1, 60), len(small.vertices)))
        ids = dict(zip(sorted(small.vertices), spread))
        g = DiGraph.of(ids.values(), [(ids[t], ids[h]) for t, h in small.edges])
        edges = sorted(g.edges)
        for targets in (None, frozenset(rng.sample(edges, rng.randint(0, len(edges))))):
            expected = dense_char_matrix_from_adjacency(g, targets).render()
            assert char_matrix_from_adjacency(g, targets).render() == expected

    @pytest.mark.parametrize("side", ("extended", "reversed"))
    def test_sparse_model_matches_the_dense_columns(self, side):
        eg = build_extended_graph(random_sparse_model(random.Random(200), 200))
        if side == "reversed":
            eg = _reversed_extended(eg)
        targets = eg.parameterized_edges
        expected = dense_char_matrix_from_adjacency(eg.graph, targets).render()
        assert char_matrix_from_adjacency(eg.graph, targets).render() == expected


class TestReduce:
    def test_two_by_two_base_case(self):
        m = CharMatrix.parse("0 1\n0 0")
        assert reduce(m, 1, 2) == CharMatrix.parse("0")

    def test_requires_a_one_entry(self):
        m = CharMatrix.parse("0 0\n0 0")
        with pytest.raises(ValueError, match="is not 1"):
            reduce(m, 1, 2)

    def test_positions_validated(self):
        m = CharMatrix.parse("0 1\n0 0")
        with pytest.raises(ValueError, match="invalid positions"):
            reduce(m, 1, 1)
        with pytest.raises(ValueError, match="invalid positions"):
            reduce(m, 1, 3)

    def test_fixture_first_reduction(self):
        assert reduce(FIXTURE_9, 1, 2) == FIXTURE_9_AFTER_12


class TestMergeTrees:
    def test_diamond_merge(self):
        c = initial_covering(diamond_eg())
        merged = merge_trees(c, 2, 1)
        assert len(merged) == 2
        assert merged.trees[0].edges == {(1, 2), (1, 3), (2, 4)}
        assert merged.trees[0].roots == {1}
        assert merged.trees[1].edges == {(3, 4)}
        assert covering_violations(merged) == ()

    def test_non_mergeable_rejected(self):
        c = initial_covering(diamond_eg())
        with pytest.raises(ValueError, match="not mergeable"):
            merge_trees(c, 1, 2)

    def test_positions_validated(self):
        c = initial_covering(diamond_eg())
        with pytest.raises(ValueError, match="invalid tree positions"):
            merge_trees(c, 0, 1)

    def test_union_closing_a_cycle_gains_roots(self):
        # (3, 1) folds into (1, 3): the closed form says mergeable, and the
        # merged tree takes both cycle vertices as roots from the union.
        host = DiGraph.of([1, 3], [(1, 3), (3, 1)])
        c = Covering(
            trees=(Pseudotree.from_edges([(3, 1)]), Pseudotree.from_edges([(1, 3)])),
            host=host,
            target_edges=host.edges,
        )
        merged = merge_trees(c, 1, 2)
        assert merged.trees[0].roots == {1, 3}
        assert covering_violations(merged) == ()

    def test_shared_edge_is_refused(self):
        # Outside the covering contract: the union is the larger tree and
        # a pseudotree, but the shared edge's head is a head in both.
        host = DiGraph.of([1, 2, 3], [(1, 2), (2, 3)])
        small = Pseudotree.from_edges([(1, 2)])
        large = Pseudotree.from_edges([(1, 2), (2, 3)])
        assert not is_mergeable(small, large)
        c = Covering(trees=(small, large), host=host, target_edges=host.edges)
        with pytest.raises(ValueError, match="not mergeable"):
            merge_trees(c, 1, 2)

    def test_cycle_keeps_its_root_set(self):
        host = DiGraph.of([1, 2, 3, 4], [(1, 2), (2, 1), (2, 3), (3, 4)])
        cycle = Pseudotree.from_edges([(1, 2), (2, 1), (2, 3)])
        star = Pseudotree.from_edges([(3, 4)])
        c = Covering(trees=(cycle, star), host=host, target_edges=host.edges)
        assert covering_violations(c) == ()
        merged = merge_trees(c, 2, 1)
        assert len(merged) == 1
        assert merged.trees[0].roots == {1, 2}


class TestMergePolicy:
    def test_fixture_trace_and_final(self):
        final, trace = matrix_only_merge(FIXTURE_9)
        assert trace == [(1, 2), (1, 2), (3, 4), (4, 5)]
        assert final.n == 5
        assert all(e is O for row in final.entries for e in row)

    def test_all_zero_is_stable(self):
        m = CharMatrix.parse("0 0\n0 0")
        final, trace = matrix_only_merge(m)
        assert trace == []
        assert final == m

    def test_two_by_two(self):
        final, trace = matrix_only_merge(CharMatrix.parse("0 1\n0 0"))
        assert trace == [(1, 2)]
        assert final == CharMatrix.parse("0")


class TestAlgorithmOne:
    def test_diamond(self):
        covering, trace = algorithm1_merge(diamond_eg())
        assert trace == [(2, 1)]
        assert len(covering) == 2
        assert covering_violations(covering) == ()

    def test_single_star_graph(self):
        eg = build_extended_graph(ModelSet.from_edges(3, [(1, 2), (1, 3)]))
        covering, trace = algorithm1_merge(eg)
        assert trace == []
        assert len(covering) == 1

    def test_no_targets_give_the_empty_covering(self):
        eg = build_extended_graph(
            ModelSet.from_edges(2, [(1, 2, EntryStatus.KNOWN)])
        )
        covering, trace = algorithm1_merge(eg)
        assert trace == []
        assert covering == Covering(trees=(), host=eg.graph, target_edges=frozenset())

    def test_correlated_noise_fixture(self):
        eg = build_extended_graph(correlated_noise_model())
        covering, trace = algorithm1_merge(eg)
        assert trace == [(4, 3), (2, 3), (2, 6), (1, 2)]
        assert len(covering) == 4
        assert covering_violations(covering) == ()
        assert {min(t.roots) for t in covering.trees} == {5, 6, 7, 8}


WIDE_BUDGET = OracleBudget(max_vertices=8, max_edges=20, max_nodes_explored=500_000)


def _ones(m: CharMatrix):
    return [
        (i, j)
        for i in range(1, m.n + 1)
        for j in range(1, m.n + 1)
        if m.entry(i, j) is CharEntry.ONE
    ]


class TestMatrixCoveringConsistency:
    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_reduce_is_a_conservative_update(self, seed):
        # the odot-only fold that algorithm1_merge runs within a pass (in
        # its dense form from mergeref), applied to an exact matrix, never
        # invents a One, and the Ones it misses all involve the merged
        # tree: growing tree j can close a mergeability triangle, and
        # 0 odot 1 stays 0. The merge loop's safety rests on both. Checked
        # for every legal merge along a random walk.
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng))
        assume(eg.parameterized_edges)
        c = initial_covering(eg)
        while True:
            m = char_matrix(c)
            ones = _ones(m)
            if not ones:
                break
            for i, j in ones:
                folded = _entrywise_fold(m, i, j)
                exact = char_matrix(merge_trees(c, i, j))
                merged = j - 1 if j > i else j
                for r in range(1, folded.n + 1):
                    for s in range(1, folded.n + 1):
                        got, true = folded.entry(r, s), exact.entry(r, s)
                        if got is true:
                            continue
                        assert merged in (r, s)
                        assert (got, true) == (CharEntry.ZERO, CharEntry.ONE)
            c = merge_trees(c, *rng.choice(ones))
            assert covering_violations(c) == ()

    @given(SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_formula_matches_direct_checks(self, seed):
        rng = random.Random(seed)
        g = random_digraph(rng)
        assume(g.edges)
        edges = sorted(g.edges)
        targets = frozenset(rng.sample(edges, rng.randint(1, len(edges))))
        direct = char_matrix(star_covering(g, targets))
        assert char_matrix_from_adjacency(g, targets) == direct


def _reach(edges, start: int) -> set[int]:
    succ: dict[int, list[int]] = {}
    for t, h in edges:
        succ.setdefault(t, []).append(h)
    seen, stack = {start}, [start]
    while stack:
        for w in succ.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


class TestRootsDefinition:
    @given(SEEDS, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_roots_are_the_vertices_that_reach_all(self, seed, close_cycle):
        # A random rooted tree on shuffled ids, optionally with one edge
        # into its root closing a cycle, checked against the definition:
        # the roots are exactly the vertices that reach every vertex.
        rng = random.Random(seed)
        vs = rng.sample(range(1, 40), rng.randint(2, 12))
        edges = {(rng.choice(vs[:k]), vs[k]) for k in range(1, len(vs))}
        if close_cycle:
            edges.add((rng.choice(vs[1:]), vs[0]))
        ok, roots = is_pseudotree(vs, edges)
        assert ok
        assert roots == {r for r in vs if _reach(edges, r) == set(vs)}

    @given(SEEDS)
    @settings(max_examples=200, deadline=None)
    def test_random_edge_sets_agree_with_the_definition(self, seed):
        rng = random.Random(seed)
        vs = rng.sample(range(1, 12), rng.randint(1, 6))
        edges = {
            (rng.choice(vs), rng.choice(vs)) for _ in range(rng.randint(0, len(vs) + 1))
        }
        heads = [h for _, h in edges]
        undirected = edges | {(h, t) for t, h in edges}
        want = (
            len(vs) >= 2
            and all(t != h for t, h in edges)
            and len(heads) == len(set(heads))
            and _reach(undirected, vs[0]) == set(vs)
        )
        ok, roots = is_pseudotree(vs, edges)
        assert ok is want
        if ok:
            assert roots == {r for r in vs if _reach(edges, r) == set(vs)}
        else:
            assert roots == frozenset()


def _mergeable_by_union(t1: Pseudotree, t2: Pseudotree) -> bool:
    """The definition: the union is a pseudotree in which every root of t2
    reaches every vertex of t1."""
    union = t1.edges | t2.edges
    ok, _ = is_pseudotree(t1.vertices | t2.vertices, union)
    return ok and all(t1.vertices <= _reach(union, r) for r in t2.roots)


class TestMergeabilityDefinition:
    @given(SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_is_mergeable_matches_the_definition(self, seed):
        # t1 folds into t2 when their union is a pseudotree and every root
        # of t2 reaches every vertex of t1 inside the union. Checked for
        # every ordered pair of trees along a random merge walk, which
        # moves only along the pairs the definition allows.
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng, max_vertices=7))
        assume(eg.parameterized_edges)
        c = initial_covering(eg)
        while True:
            legal = []
            for i, t1 in enumerate(c.trees, start=1):
                for j, t2 in enumerate(c.trees, start=1):
                    if i == j:
                        continue
                    want = _mergeable_by_union(t1, t2)
                    assert is_mergeable(t1, t2) is want
                    if want:
                        legal.append((i, j))
            if not legal:
                break
            c = merge_trees(c, *rng.choice(legal))


def _random_pseudotree(rng: random.Random, pool: list[int], cyclic: bool) -> Pseudotree:
    """A random rooted tree on 2-5 vertices of pool, with one edge into the
    root closing a cycle when cyclic."""
    vs = rng.sample(pool, rng.randint(2, min(5, len(pool))))
    edges = {(rng.choice(vs[:k]), vs[k]) for k in range(1, len(vs))}
    if cyclic:
        edges.add((rng.choice(vs[1:]), vs[0]))
    return Pseudotree.from_edges(edges)


class TestMergeabilityClosedForm:
    def test_matches_the_union_on_random_edge_disjoint_pairs(self):
        # Pairs drawn from a small shared pool overlap often; a quarter
        # draw t2 from a pool of its own and share no vertex.
        rng = random.Random("closed-form")
        seen = dict.fromkeys(
            ["mergeable cyclic t1", "cyclic t2", "shared tail", "vertex-disjoint", "mergeable"], 0
        )
        for _ in range(6000):
            t1 = _random_pseudotree(rng, list(range(1, 8)), rng.random() < 0.4)
            pool = list(range(20, 26)) if rng.random() < 0.25 else list(range(1, 8))
            t2 = _random_pseudotree(rng, pool, rng.random() < 0.4)
            if t1.edges & t2.edges:
                continue
            want = _mergeable_by_union(t1, t2)
            assert is_mergeable(t1, t2) is want, (sorted(t1.edges), sorted(t2.edges))
            # The pair helper decides both directions at once.
            assert _mergeable_pair(t1, t2) == (want, _mergeable_by_union(t2, t1))
            seen["mergeable cyclic t1"] += want and len(t1.edges) == len(t1.vertices)
            seen["cyclic t2"] += len(t2.edges) == len(t2.vertices)
            seen["shared tail"] += bool({t for t, _ in t1.edges} & {t for t, _ in t2.edges})
            seen["vertex-disjoint"] += not t1.vertices & t2.vertices
            seen["mergeable"] += want
        assert min(seen.values()) >= 50, seen


class TestClosedFormRoots:
    def test_merge_roots_match_the_union(self):
        # Every mergeable pair of the closed-form generator, folded by
        # merge_trees, against is_pseudotree on the union; the pairs reach
        # each of the four ways the roots follow from the two trees.
        rng = random.Random("closed-form-roots")
        seen = dict.fromkeys(["acyclic", "cyclic t1", "cyclic t2", "new cycle"], 0)
        for _ in range(6000):
            t1 = _random_pseudotree(rng, list(range(1, 8)), rng.random() < 0.4)
            t2 = _random_pseudotree(rng, list(range(1, 8)), rng.random() < 0.4)
            if t1.edges & t2.edges or not is_mergeable(t1, t2):
                continue
            vertices, edges = t1.vertices | t2.vertices, t1.edges | t2.edges
            host = DiGraph(vertices, edges)
            merged = merge_trees(Covering((t1, t2), host, edges), 1, 2).trees
            assert merged == (Pseudotree(vertices, edges, is_pseudotree(vertices, edges)[1]),)
            if len(edges) < len(vertices):
                seen["acyclic"] += 1
            elif len(t1.edges) == len(t1.vertices):
                seen["cyclic t1"] += 1
            elif len(t2.edges) == len(t2.vertices):
                seen["cyclic t2"] += 1
            else:
                seen["new cycle"] += 1
        assert min(seen.values()) >= 20, seen

    def test_initial_covering_matches_the_stars_from_edges(self):
        # initial_covering builds each star with its centre as the root;
        # from_edges finds the same roots by testing the star.
        for seed in range(400):
            eg = build_extended_graph(random_model(random.Random(seed), max_vertices=7))
            if eg.parameterized_edges:
                want = star_covering(eg.graph, eg.parameterized_edges)
                assert initial_covering(eg) == want, seed
        for L in (50, 200):
            eg = build_extended_graph(random_sparse_model(random.Random(L), L))
            for side in (eg, _reversed_extended(eg)):
                assert initial_covering(side) == star_covering(side.graph, side.parameterized_edges)


class TestAlgorithmOneProperties:
    @given(SEEDS)
    @settings(max_examples=100, deadline=None)
    def test_output_is_valid_and_saturated(self, seed):
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng))
        assume(eg.parameterized_edges)
        covering, trace = algorithm1_merge(eg)
        assert covering_violations(covering) == ()
        assert _ones(char_matrix(covering)) == []
        assert len(covering) == len(initial_covering(eg)) - len(trace)

    @given(SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_never_beats_the_oracle(self, seed):
        rng = random.Random(seed)
        eg = build_extended_graph(random_model(rng))
        assume(eg.parameterized_edges)
        covering, _ = algorithm1_merge(eg)
        kappa, _ = brute_min_covering(
            eg.graph, eg.parameterized_edges, WIDE_BUDGET
        )
        assert len(covering) >= kappa


def _dump(result):
    covering, trace = result
    return trace, [(sorted(t.roots), sorted(t.edges)) for t in covering.trees]


def _random_char_matrix(rng: random.Random, symmetric: bool = False) -> CharMatrix:
    """A random matrix; with symmetric, (r, c) is Empty exactly when (c, r) is."""
    n = rng.randint(2, 7)
    rows = [[O if r == c else rng.choice((O, I, E)) for c in range(n)] for r in range(n)]
    if symmetric:
        for r in range(n):
            for c in range(r):
                if (rows[r][c] is E) != (rows[c][r] is E):
                    rows[r][c] = rows[c][r] = E
    return CharMatrix.from_rows(rows)


def _dense(m: _MergeMatrix) -> CharMatrix:
    """m as a CharMatrix, its live ids in ascending order."""
    entry = {True: I, False: O, None: E}
    return CharMatrix.from_rows(
        (entry[False if r == c else m.rows[r].get(c)] for c in m.ids) for r in m.ids
    )


def _assert_bookkeeping(m: _MergeMatrix) -> None:
    """Entries are booleans, the support is symmetric (c keys row r exactly
    when r keys row c), the live ids key the rows, and ones counts the True
    entries of every row that has any."""
    entries = {(r, c, e) for r, row in m.rows.items() for c, e in row.items()}
    assert all(e is True or e is False for _, _, e in entries)
    assert {(r, c) for r, c, _ in entries} == {(c, r) for r, c, _ in entries}
    assert sorted(m.rows) == m.ids
    assert m.ones == {r: k for r, row in m.rows.items() if (k := sum(row.values()))}


class TestMergeAgainstReference:
    """The sparse in-place merge against the dense loop in tests/mergeref.py."""

    @given(SEEDS)
    @settings(max_examples=300, deadline=None)
    def test_fold_and_pick_match_the_dense_ones(self, seed):
        # The sparse pick names the same positions as the dense row scan on
        # any matrix, Empty pattern asymmetric or not. On matrices with
        # symmetric support, the kind of_trees builds, the in-place fold
        # equals the dense odot fold for every One and keeps the support
        # symmetric and the One counts in step.
        rng = random.Random(seed)
        m = _random_char_matrix(rng)
        for forced in (True, False):
            sparse = _MergeMatrix(_rows(m))
            pick = sparse.pick(forced)
            got = None if pick is None else tuple(map(sparse.position, pick))
            assert got == _pick_row(m, forced)
        m = _random_char_matrix(rng, symmetric=True)
        for i, j in _ones(m):
            sparse = _MergeMatrix(_rows(m))
            _assert_bookkeeping(sparse)
            sparse.fold(i, j)
            _assert_bookkeeping(sparse)
            assert _dense(sparse) == _entrywise_fold(m, i, j)

    @given(SEEDS)
    @settings(max_examples=300, deadline=None)
    def test_reduce_and_matrix_only_merge_match_the_dense_ones(self, seed):
        # On any matrix, Empty pattern asymmetric or not: reduce is the
        # dense odot fold plus the triangle rule for every One, and the
        # matrix-only merge gives mergeref's trace and final matrix.
        m = _random_char_matrix(random.Random(seed))
        for i, j in _ones(m):
            assert reduce(m, i, j) == _close_triangles(m, _entrywise_fold(m, i, j), i, j)
        assert matrix_only_merge(m) == reference_matrix_only_merge(m)

    def test_random_models_match(self):
        for seed in range(400):
            eg = build_extended_graph(random_model(random.Random(seed)))
            assert _dump(algorithm1_merge(eg)) == _dump(reference_merge(eg)), seed

    @pytest.mark.parametrize("L", (50, 100, 200, 400))
    @pytest.mark.parametrize("side", ("extended", "reversed"))
    def test_sparse_models_match(self, L, side):
        eg = build_extended_graph(random_sparse_model(random.Random(L), L))
        if side == "reversed":
            eg = _reversed_extended(eg)
        assert _dump(algorithm1_merge(eg)) == _dump(reference_merge(eg))

    def test_pass_matrices_match_the_pairwise_checks(self):
        # The matrix each pass starts from, built one decision per unordered
        # pair, against mergeref's one is_mergeable call per ordered pair,
        # on the covering at the start of every pass; the later passes'
        # coverings hold cyclic trees.
        inputs = [build_extended_graph(random_model(random.Random(seed))) for seed in range(300)]
        for L in (50, 100, 200):
            eg = build_extended_graph(random_sparse_model(random.Random(L), L))
            inputs += [eg, _reversed_extended(eg)]
        seen = {"cyclic trees": 0, "ones": 0, "passes": 0}
        for eg in inputs:
            if not eg.parameterized_edges:
                continue
            c = initial_covering(eg)
            while True:
                assert char_matrix(c) == reference_char_matrix(c)
                m = _MergeMatrix.of_trees(c.trees)
                _assert_bookkeeping(m)
                seen["cyclic trees"] += sum(len(t.edges) == len(t.vertices) for t in c.trees)
                seen["ones"] += sum(m.ones.values())
                seen["passes"] += 1
                steps = list(_merge_steps(m))
                if not steps:
                    break
                # Each step's positions hold in the covering as merged so far.
                for i, j in steps:
                    c = merge_trees(c, i, j)
        assert min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("seed", (93, 95, 154, 274))
    def test_second_productive_pass(self, seed):
        # A single pass of the odot-only fold leaves a genuine merge behind
        # on these inputs, so the merge must rebuild its matrix and go on.
        eg = build_extended_graph(random_model(random.Random(seed)))
        once, first_pass = reference_pass(initial_covering(eg))
        assert _ones(char_matrix(once)) != []
        covering, trace = algorithm1_merge(eg)
        assert len(trace) > len(first_pass)
        assert _dump((covering, trace)) == _dump(reference_merge(eg))
        assert _ones(char_matrix(covering)) == []


def _reference_passes(eg) -> int:
    """mergeref's pass count, the last one empty."""
    c, passes = initial_covering(eg), 0
    while True:
        c, trace = reference_pass(c)
        passes += 1
        if not trace:
            return passes


def _reference_builds(eg) -> int:
    """The matrices the merge must build: mergeref's passes, up to and
    including the first whose odot folds all equalled the triangle rule's
    (a pass that merges nothing is one). Such a pass kept its matrix exact,
    so the pass after it could merge nothing."""
    c, builds = initial_covering(eg), 0
    while True:
        m, builds, lossy = reference_char_matrix(c), builds + 1, False
        for forced in (True, False):
            while (pick := _pick_row(m, forced)) is not None:
                c = merge_trees(c, *pick)
                folded = _entrywise_fold(m, *pick)
                lossy = lossy or _close_triangles(m, folded, *pick) != folded
                m = folded
        if not lossy:
            return builds


class TestLastPassSkip:
    """algorithm1_merge builds no matrix after a pass whose folds left no
    mergeability triangle below One; its trace stays mergeref's."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        of_trees = _MergeMatrix.of_trees.__func__

        def counted(cls, trees):
            calls.append(len(trees))
            return of_trees(cls, trees)

        monkeypatch.setattr(_MergeMatrix, "of_trees", classmethod(counted))
        return calls

    def test_builds_stop_after_the_first_exact_pass(self, builds):
        inputs = [build_extended_graph(random_model(random.Random(seed))) for seed in range(400)]
        for L in (50, 100):
            eg = build_extended_graph(random_sparse_model(random.Random(L), L))
            inputs += [eg, _reversed_extended(eg)]
        seen = {"skipped": 0, "rebuilt": 0}
        for eg in inputs:
            if not eg.parameterized_edges:
                continue
            builds.clear()
            assert _dump(algorithm1_merge(eg)) == _dump(reference_merge(eg))
            want = _reference_builds(eg)
            assert len(builds) == want
            # mergeref ends on a pass that merges nothing, which the library
            # skips unless the pass before it was lossy; a lossy pass makes
            # the library build again.
            seen["skipped"] += want < _reference_passes(eg)
            seen["rebuilt"] += want > 1
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize(("seed", "want"), [(0, 1), (65, 2)])
    def test_build_count(self, builds, seed, want):
        # Seed 0's one pass folds no lossy triangle, so the empty pass
        # mergeref runs after it is skipped. Seed 65's pass folds one, so
        # its matrix is rebuilt, and that pass merges nothing.
        eg = build_extended_graph(random_model(random.Random(seed)))
        assert _dump(algorithm1_merge(eg)) == _dump(reference_merge(eg))
        assert len(builds) == want
        assert _reference_passes(eg) == 2
