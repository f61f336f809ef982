"""Graph primitives: construction rules, neighborhood queries, reversal, and the vertex-disjoint path count (cross-checked against the
brute-force oracle, and against the per-call reference flow in flowref over
many calls on one graph), with the kernel's start list of a maximum path
family and the memo of full families that can answer a count unrun."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynetid.graph import (
    DiGraph,
    _path_starts,
    _SplitGraph,
    max_vertex_disjoint_paths,
    reverse,
    sources_and_sinks,
)
from dynetid.model import build_extended_graph
from dynetid.oracle import brute_disjoint_paths

from . import flowref
from .randgen import random_digraph, random_sparse_model, random_vertex_subset


def chain() -> DiGraph:
    return DiGraph.of([1, 2, 3], [(1, 2), (2, 3)])


def diamond() -> DiGraph:
    return DiGraph.of([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])


def _random_graphs(count: int = 150):
    """Seeded random graphs on sparse ids, so that the vertex set's
    iteration order is not sorted, most with one to three isolated vertices
    added, each followed by its reverse."""
    for seed in range(count):
        rng = random.Random(f"sparse/{seed}")
        g = random_digraph(rng, max_vertices=10, max_edges=30)
        ids = rng.sample(range(1, 10**6), len(g.vertices) + 3)
        relabel = dict(zip(sorted(g.vertices), ids))
        isolated = ids[len(g.vertices) : len(g.vertices) + rng.randint(0, 3)]
        g = DiGraph.of([*relabel.values(), *isolated], ((relabel[t], relabel[h]) for t, h in g.edges))
        yield g
        yield reverse(g)


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DiGraph.of([1, 2], [(1, 1)])

    def test_edge_endpoint_must_exist(self):
        with pytest.raises(ValueError, match="outside the vertex set"):
            DiGraph.of([1, 2], [(1, 3)])

    def test_vertex_ids_positive(self):
        with pytest.raises(ValueError):
            DiGraph.of([0, 1])
        # True == 1 and hashes alike, so a bool id would pass for vertex 1
        with pytest.raises(ValueError, match="got True"):
            DiGraph.of([True, 2, 3], [(True, 2), (2, 3)])
        with pytest.raises(ValueError, match="got True"):
            DiGraph.of([1, 2, 3], [(True, 2), (2, 3)])

    def test_value_semantics(self):
        assert diamond() == diamond()
        assert chain() != diamond()

    def test_sorted_accessors(self):
        g = DiGraph.of([3, 1, 2], [(3, 1), (1, 2)])
        assert g.sorted_vertices() == (1, 2, 3)
        assert g.edges == {(1, 2), (3, 1)}


class TestNeighborhoods:
    def test_chain_middle(self):
        g = chain()
        assert g.in_neighbors(2) == {1}
        assert g.out_neighbors(2) == {3}

    def test_diamond_join(self):
        assert diamond().in_neighbors(4) == {2, 3}

    def test_isolated_vertex(self):
        g = DiGraph.of([1, 2], [])
        assert g.in_neighbors(1) == frozenset()
        assert g.out_neighbors(1) == frozenset()

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="vertex 9 is not in the graph"):
            diamond().in_neighbors(9)
        with pytest.raises(ValueError, match="not in the graph"):
            diamond().out_neighbors(9)

    def test_random_graphs_match_the_edge_set(self):
        # Each neighbourhood is what a membership test over every vertex
        # pair finds in the edge set, and together they name each edge once.
        isolated = 0
        for g in _random_graphs():
            outs = {v: g.out_neighbors(v) for v in g.vertices}
            ins = {v: g.in_neighbors(v) for v in g.vertices}
            for v in g.vertices:
                assert outs[v] == {h for h in g.vertices if (v, h) in g.edges}
                assert ins[v] == {t for t in g.vertices if (t, v) in g.edges}
                isolated += not outs[v] and not ins[v]
            assert {(v, h) for v in g.vertices for h in outs[v]} == g.edges
            assert {(t, v) for v in g.vertices for t in ins[v]} == g.edges
        assert isolated >= 100, isolated


class TestSourcesAndSinks:
    def test_chain(self):
        assert sources_and_sinks(chain()) == ({1}, {3})

    def test_diamond(self):
        assert sources_and_sinks(diamond()) == ({1}, {4})

    def test_isolated_vertex_is_both(self):
        g = DiGraph.of([1])
        assert sources_and_sinks(g) == ({1}, {1})

    def test_cycle_has_neither(self):
        g = DiGraph.of([1, 2], [(1, 2), (2, 1)])
        assert sources_and_sinks(g) == (frozenset(), frozenset())

    def test_random_graphs_match_the_edge_set(self):
        # A source heads no edge and a sink tails none; an isolated vertex
        # is both.
        both = 0
        for g in _random_graphs():
            sources, sinks = sources_and_sinks(g)
            assert sources == {v for v in g.vertices if all(h != v for _, h in g.edges)}
            assert sinks == {v for v in g.vertices if all(t != v for t, _ in g.edges)}
            both += len(sources & sinks)
        assert both >= 100, both


class TestReverse:
    def test_chain(self):
        assert reverse(chain()) == DiGraph.of([1, 2, 3], [(2, 1), (3, 2)])

    def test_involution(self):
        assert reverse(reverse(diamond())) == diamond()

    def test_swaps_sources_and_sinks(self):
        sources, sinks = sources_and_sinks(diamond())
        rsources, rsinks = sources_and_sinks(reverse(diamond()))
        assert (rsources, rsinks) == (sinks, sources)


class TestDisjointPaths:
    def test_diamond_single_source(self):
        assert max_vertex_disjoint_paths(diamond(), {1}, {2, 3}) == 1

    def test_zero_length_paths_saturate(self):
        assert max_vertex_disjoint_paths(diamond(), {2, 3}, {2, 3}) == 2

    def test_mixed_real_and_zero_length(self):
        assert max_vertex_disjoint_paths(diamond(), {1, 3}, {2, 3}) == 2

    def test_empty_sides(self):
        assert max_vertex_disjoint_paths(diamond(), set(), {2}) == 0
        assert max_vertex_disjoint_paths(diamond(), {1}, set()) == 0

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError, match="not in the graph"):
            max_vertex_disjoint_paths(diamond(), {1}, {7})


class TestFlowKernelCache:
    def test_cache_is_invisible(self):
        g = diamond()
        before = (hash(g), repr(g))
        assert max_vertex_disjoint_paths(g, {1}, {4}) == 1
        assert g == diamond()
        assert (hash(g), repr(g)) == before

    def test_reverse_answers_from_its_own_kernel(self):
        # From 1 to 3 the chain has one path and its reverse none; the
        # reverse is asked after the chain's kernel has run and holds state.
        g = chain()
        assert max_vertex_disjoint_paths(g, {1}, {3}) == 1
        r = reverse(g)
        assert max_vertex_disjoint_paths(r, {1}, {3}) == 0
        assert max_vertex_disjoint_paths(r, {3}, {1}) == 1
        assert r._kernel is not g._kernel
        assert max_vertex_disjoint_paths(g, {3}, {1}) == 0

    def test_unknown_target_with_the_cached_sources(self):
        # The cached forest's own source set skips its membership check,
        # but the targets are still checked.
        g = diamond()
        sources = frozenset({1})
        assert max_vertex_disjoint_paths(g, sources, {4}) == 1
        assert g._kernel.forest_src is sources
        with pytest.raises(ValueError, match="vertex 7 is not in the graph"):
            max_vertex_disjoint_paths(g, sources, {4, 7})

    def test_unknown_source_in_a_fresh_set(self):
        # A source set other than the cached one is checked, even while a
        # forest is cached, and the failed call leaves that forest alone.
        g = diamond()
        sources = frozenset({1})
        assert max_vertex_disjoint_paths(g, sources, {4}) == 1
        with pytest.raises(ValueError, match="vertex 7 is not in the graph"):
            max_vertex_disjoint_paths(g, frozenset({1, 7}), {4})
        assert g._kernel.forest_src is sources
        assert max_vertex_disjoint_paths(g, sources, {2, 3}) == 1


def _former_layout(g: DiGraph) -> tuple[list[int], list[tuple[int, ...]]]:
    """head and arcs as _SplitGraph built them from sorted(g.edges)."""
    index = {v: i for i, v in enumerate(sorted(g.vertices))}
    pairs = [(2 * i, 2 * i + 1) for i in range(len(index))]
    pairs += [(2 * index[t] + 1, 2 * index[h]) for t, h in sorted(g.edges)]
    arcs: list[list[int]] = [[] for _ in range(2 * len(index))]
    head: list[int] = []
    for a, b in pairs:
        arcs[a].append(len(head))
        head.append(b)
        arcs[b].append(len(head))
        head.append(a)
    return head, [tuple(ks) for ks in arcs]


class TestSplitGraphLayout:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_random_graphs_keep_the_sorted_edge_layout(self, seed):
        # The arc numbering is the one _former_layout gives from the sorted
        # edges. Sparse ids keep the vertex set's iteration order from being
        # sorted.
        rng = random.Random(seed)
        g = random_digraph(rng, max_vertices=15, max_edges=60)
        ids = dict(zip(sorted(g.vertices), rng.sample(range(1, 10**6), len(g.vertices))))
        g = DiGraph.of(ids.values(), ((ids[t], ids[h]) for t, h in g.edges))
        kernel = _SplitGraph(g)
        assert (kernel.head, kernel.arcs) == _former_layout(g)

    def test_sparse_model_keeps_the_sorted_edge_layout(self):
        g = build_extended_graph(random_sparse_model(random.Random(200), 200)).graph
        for h in (g, reverse(g)):
            kernel = _SplitGraph(h)
            assert (kernel.head, kernel.arcs) == _former_layout(h)

    def test_edge_arcs_run_in_ascending_edge_order(self):
        # Read off the arrays themselves, whatever the graph stores: arc 2i
        # is vertex i's own arc, and the edge arcs after them run in
        # ascending (tail, head) order. Forests, walks and searches follow
        # this order, and with them the start lists reports are built from.
        model = build_extended_graph(random_sparse_model(random.Random(200), 200)).graph
        for g in [*_random_graphs(), model, reverse(model)]:
            kernel = _SplitGraph(g)
            head, order, n = kernel.head, kernel.order, len(g.vertices)
            assert order == g.sorted_vertices()
            assert [(head[k ^ 1], head[k]) for k in range(0, 2 * n, 2)] == [
                (2 * i, 2 * i + 1) for i in range(n)
            ]
            assert [
                (order[head[k ^ 1] >> 1], order[head[k] >> 1]) for k in range(2 * n, len(head), 2)
            ] == sorted(g.edges)


def _counted(g: DiGraph, sources, targets) -> tuple[list[int], bool]:
    """The kernel's start list for one call, and whether the memo served
    it: a count builds a new list, and a hit returns the stored one."""
    kernel = g._kernel
    stored = kernel.memo.get(frozenset(targets)) if kernel is not None else None
    starts = _path_starts(g, sources, targets)
    return starts, stored is not None and starts is stored


# Each run below must take the memo at least this often, so that a wrong
# hit would show as a count off flowref.
MIN_HITS = 5


def _kernel_workload(rng: random.Random, g: DiGraph, calls: int):
    """Interleaved (sources, targets) sets of every shape the callers use,
    plus an unknown vertex that must raise. The check-shaped source set
    holds half the graph and gains or loses one vertex per call, as prune's
    trials and rollbacks do, and half the targets are the in-neighbourhoods
    of a fixed set of eight vertices, so that the memo's entries meet new
    source sets."""
    vs = g.sorted_vertices()
    unknown = max(vs) + 1
    pool = rng.sample(vs, 8)
    half = set(rng.sample(vs, len(vs) // 2))
    kinds = ["check", "dual", "overlap", "empty", "unknown"] * (calls // 5)
    rng.shuffle(kinds)
    for kind in kinds:
        targets = g.in_neighbors(rng.choice(rng.choice([vs, pool])))
        if kind == "check":
            half ^= {rng.choice(vs)}
            yield kind, set(half), targets
        elif kind == "dual":
            yield kind, set(rng.sample(vs, 3)), targets
        elif kind == "overlap":
            sources = set(rng.sample(vs, rng.randint(1, 10)))
            yield kind, sources, set(rng.sample(sorted(sources), 1)) | targets
        elif kind == "empty":
            yield kind, *rng.choice([(set(), targets), (set(rng.sample(vs, 5)), set())])
        else:
            yield kind, {unknown, *rng.sample(vs, 3)}, targets


class TestFlowKernelAgainstReference:
    @pytest.mark.parametrize("reversed_graph", [False, True])
    @pytest.mark.parametrize("L", [50, 100, 200, 400])
    def test_repeated_calls_on_one_graph(self, L, reversed_graph):
        # Hundreds of calls share one graph's kernel, so capacity left over
        # from any call would change a later count.
        g = build_extended_graph(random_sparse_model(random.Random(f"flow/{L}"), L)).graph
        if reversed_graph:
            g = reverse(g)
        rng = random.Random(f"flow-calls/{L}/{reversed_graph}")
        hits = 0
        for kind, sources, targets in _kernel_workload(rng, g, 300):
            if kind == "unknown":
                with pytest.raises(ValueError, match="not in the graph"):
                    max_vertex_disjoint_paths(g, sources, targets)
                continue
            want = flowref.max_vertex_disjoint_paths(g, sources, targets)
            starts, hit = _counted(g, sources, targets)
            assert len(starts) == want, kind
            assert max_vertex_disjoint_paths(g, sources, targets) == want, kind
            hits += hit
        assert hits >= MIN_HITS, hits


def _reach(g: DiGraph, sources) -> set[int]:
    succ: dict[int, list[int]] = {v: [] for v in g.vertices}
    for t, h in g.edges:
        succ[t].append(h)
    seen = set(sources)
    queue = list(seen)
    for a in queue:
        for b in succ[a]:
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


def _prune_runs(rng: random.Random, g: DiGraph):
    """Runs of (sources, targets) calls that share one source set, the way
    prune's per-tree trials and the final verification make them. The
    source sets switch A -> B -> A, change to a set of the same size that
    differs in one vertex, lose one vertex at a time as prune's trials do,
    and include sets of the graph's sinks, which reach nothing but
    themselves, alone and next to one other vertex, so that many targets
    hang from one root. Targets are in-neighbourhoods, some merged with a
    second one or with sources or vertices the sources never reach. Half of
    them belong to a fixed set of eight vertices, the way every trial of
    prune asks about the same in-neighbourhoods, so that the memo's entries
    meet new source sets."""
    vs = g.sorted_vertices()
    pool = rng.sample(vs, 8)
    tails = {t for t, _ in g.edges}
    sinks = [v for v in vs if v not in tails]
    a = frozenset(rng.sample(vs, 3))
    b = frozenset(rng.sample(vs, len(vs) // 2))
    swapped = sorted(a)[1:] + [rng.choice([v for v in vs if v not in a])]
    runs = [a, b, a, frozenset(swapped), b]
    for v in rng.sample(sorted(b), 3):
        runs.append(runs[-1] - {v})
    runs.append(frozenset(rng.sample(sinks, min(3, len(sinks)))))
    runs.append(frozenset({rng.choice(sinks), rng.choice(vs)}))
    for sources in runs:
        unreached = sorted(set(vs) - _reach(g, sources))
        for _ in range(rng.randint(10, 30)):
            targets = set(g.in_neighbors(rng.choice(rng.choice([vs, pool]))))
            if rng.random() < 0.3:
                targets |= g.in_neighbors(rng.choice(vs))
            if rng.random() < 0.3:
                targets |= set(rng.sample(sorted(sources), 1))
            if unreached and rng.random() < 0.3:
                targets |= set(rng.sample(unreached, min(2, len(unreached))))
            if targets:
                yield sources, frozenset(targets)


def _assert_forest_of(g: DiGraph, sources: frozenset[int]) -> None:
    """The kernel's cached forest is a forest of the real arcs rooted at
    exactly these sources' in-nodes and spanning what they reach."""
    kernel = g._kernel
    assert kernel.forest_src == sources
    reached = {2 * kernel.index[v] + side for v in _reach(g, sources) for side in (0, 1)}
    forest = kernel.forest
    assert {b for b, k in enumerate(forest) if k != -2} == reached
    assert {b for b, k in enumerate(forest) if k == -1} == {2 * kernel.index[v] for v in sources}
    for b, k in enumerate(forest):
        if k >= 0:
            assert not k & 1 and kernel.head[k] == b and forest[kernel.head[k ^ 1]] != -2


class TestSourceForest:
    @pytest.mark.parametrize("reversed_graph", [False, True])
    @pytest.mark.parametrize("L", [50, 100, 200, 400])
    def test_prune_shaped_runs(self, L, reversed_graph):
        # One cached forest serves each run, and its roots are the sources
        # a count starts paths from. A stale forest, or a forest path taken
        # although another path already used its root, shows as a count off
        # the reference or a forest of the wrong set. A call the memo
        # answers builds no forest, so the forest is checked only after a
        # call that counted, and every answer, hit or count, against flowref.
        # A pendant path L + 1 -> L + 2 -> 1 leaves two vertices that only
        # a set holding L + 1 reaches, on graphs every vertex reaches, and
        # the isolated vertex L + 3 is a sink on every graph.
        g = build_extended_graph(random_sparse_model(random.Random(f"forest/{L}"), L)).graph
        if reversed_graph:
            g = reverse(g)
        g = DiGraph.of(g.vertices | {L + 1, L + 2, L + 3}, g.edges | {(L + 1, L + 2), (L + 2, 1)})
        rng = random.Random(f"forest-calls/{L}/{reversed_graph}")
        seen = {"source targets": 0, "unreached targets": 0, "short": 0, "hits": 0}
        for sources, targets in _prune_runs(rng, g):
            want = flowref.max_vertex_disjoint_paths(g, sources, targets)
            starts, hit = _counted(g, sources, targets)
            assert len(starts) == want
            if not hit:
                _assert_forest_of(g, sources)
            assert max_vertex_disjoint_paths(g, sources, targets) == want
            seen["hits"] += hit
            seen["source targets"] += bool(sources & targets)
            seen["unreached targets"] += not targets <= _reach(g, sources)
            seen["short"] += want < min(len(sources), len(targets))
        assert all(seen.values()) and seen["hits"] >= MIN_HITS, seen


def _assert_witness(g: DiGraph, sources, targets) -> frozenset[int]:
    """The kernel's start list names distinct sources, one per path of the
    count, which flowref confirms, and they support that many paths on
    their own. Returns them as a set."""
    starts = _path_starts(g, sources, targets)
    vertices = frozenset(starts)
    count = max_vertex_disjoint_paths(g, sources, targets)
    assert len(vertices) == len(starts)
    assert vertices <= frozenset(sources)
    assert len(starts) == count == flowref.max_vertex_disjoint_paths(g, sources, targets)
    assert flowref.max_vertex_disjoint_paths(g, vertices, targets) == count
    return vertices


class TestPathStarts:
    def test_small_cases(self):
        g = diamond()
        assert _assert_witness(g, {1}, {4}) == {1}
        assert _assert_witness(g, {2, 3}, {2, 3, 4}) == {2, 3}
        # Both {1} and {4} start a maximum family here. The memo holds 1's
        # path into 4 from the first call, so it answers {1}.
        assert _assert_witness(g, {1, 4}, {4}) in ({1}, {4})
        assert _assert_witness(g, {2, 4}, {1}) == frozenset()
        assert _assert_witness(g, set(), {4}) == frozenset()
        assert _assert_witness(g, {1}, set()) == frozenset()
        with pytest.raises(ValueError, match="vertex 7 is not in the graph"):
            _path_starts(g, {1, 7}, {4})

    def test_random_graphs(self):
        # Small random graphs and sets, drawn independently, so sets that
        # overlap, empty sets and starved targets all come up.
        seen = {"source targets": 0, "empty side": 0, "short": 0}
        for seed in range(600):
            rng = random.Random(f"starts/{seed}")
            g = random_digraph(rng)
            u = random_vertex_subset(rng, g)
            y = random_vertex_subset(rng, g)
            starts = _assert_witness(g, u, y)
            seen["source targets"] += bool(u & y)
            seen["empty side"] += not (u and y)
            seen["short"] += 0 < len(starts) < min(len(u), len(y))
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("reversed_graph", [False, True])
    @pytest.mark.parametrize("L", [50, 100])
    def test_prune_shaped_runs(self, L, reversed_graph):
        # Runs of calls on one source set take the cached-forest path, or
        # the memo, the way prune's counts do, and still give a maximum
        # family's starts each time. The isolated vertex L + 1 gives every
        # graph a sink for _prune_runs.
        g = build_extended_graph(random_sparse_model(random.Random(f"starts/{L}"), L)).graph
        if reversed_graph:
            g = reverse(g)
        g = DiGraph.of(g.vertices | {L + 1}, g.edges)
        rng = random.Random(f"starts-calls/{L}/{reversed_graph}")
        cached = hits = 0
        for sources, targets in _prune_runs(rng, g):
            cached += g._kernel is not None and g._kernel.forest_src is sources
            hits += _counted(g, sources, targets)[1]
            _assert_witness(g, sources, targets)
        assert cached >= 50 and hits >= MIN_HITS, (cached, hits)


class TestStartMemo:
    """A full count is recorded under its target set and answers a later
    call whose sources hold its starts; nothing else is answered unrun."""

    def test_hit_keeps_the_forest(self):
        # 1's path into 4 is recorded; {1, 2} holds its start, so the call
        # returns that start list and builds no forest for {1, 2}.
        g = diamond()
        first = _path_starts(g, frozenset({1}), frozenset({4}))
        assert _path_starts(g, frozenset({1, 2}), frozenset({4})) is first
        assert g._kernel.forest_src == {1}

    def test_dropped_start_is_counted_again(self):
        g = diamond()
        assert _assert_witness(g, {1}, {4}) == {1}
        assert _assert_witness(g, {2, 3}, {4}) in ({2}, {3})
        assert g._kernel.forest_src == {2, 3}
        assert g._kernel.memo[frozenset({4})] != [1]

    def test_short_count_is_not_recorded(self):
        # From 1 alone only one of 2 and 3 is reached by a disjoint path;
        # that start must not answer for a source set that reaches both.
        g = diamond()
        assert max_vertex_disjoint_paths(g, {1}, {2, 3}) == 1
        assert frozenset({2, 3}) not in g._kernel.memo
        assert max_vertex_disjoint_paths(g, {1, 2}, {2, 3}) == 2

    def test_memo_holds_no_more_entries_than_vertices(self):
        g = diamond()
        subsets = [
            frozenset(c) for n in range(1, 5) for c in itertools.combinations(g.sorted_vertices(), n)
        ]
        for targets in subsets:
            want = flowref.max_vertex_disjoint_paths(g, g.vertices, targets)
            assert max_vertex_disjoint_paths(g, g.vertices, targets) == want
            assert len(g._kernel.memo) <= len(g.vertices)


def _relabelled(edges, sources, targets):
    """The case under every assignment of the ids 1..n to its named
    vertices, as (graph, sources, targets): which target a count walks
    first follows the ids, so some assignment walks each one first."""
    names = sorted({v for e in edges for v in e} | set(sources) | set(targets))
    for ids in itertools.permutations(range(1, len(names) + 1)):
        at = dict(zip(names, ids))
        g = DiGraph.of(ids, [(at[t], at[h]) for t, h in edges])
        yield g, frozenset(at[v] for v in sources), frozenset(at[v] for v in targets)


class TestSecondChance:
    """A target whose forest path ends at a used root is served through an
    in-neighbour's forest path when that path and the target are free."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = _SplitGraph._search

        def counted(self, forest, free_tgt):
            calls.append(len(free_tgt))
            return search(self, forest, free_tgt)

        monkeypatch.setattr(_SplitGraph, "_search", counted)
        return calls

    def test_taken_through_a_free_in_neighbour(self, searches):
        # Whichever source the forest reaches x and y from, the first target
        # walked takes it and the second comes through the other source,
        # with no search.
        edges = [("s", "x"), ("s", "y"), ("r", "x"), ("r", "y")]
        for g, sources, targets in _relabelled(edges, {"s", "r"}, {"x", "y"}):
            assert _assert_witness(g, sources, targets) == sources
        assert searches == []

    def test_refused_where_the_in_neighbours_path_is_used(self):
        # Both paths would pass m. Once one target's path takes it, the
        # other's in-neighbours m and q have forest paths through m, although
        # q itself is free; z keeps a second source unused.
        edges = [("s", "m"), ("m", "x"), ("m", "y"), ("m", "q"), ("q", "y")]
        for g, sources, targets in _relabelled(edges, {"s", "z"}, {"x", "y"}):
            assert len(_assert_witness(g, sources, targets)) == 1

    def test_refused_where_the_target_is_on_a_path(self):
        # x's path runs through the target m, so m cannot end a second
        # path, although its in-neighbour r is a free source.
        edges = [("s", "m"), ("r", "m"), ("m", "x")]
        for g, sources, targets in _relabelled(edges, {"s", "r"}, {"m", "x"}):
            assert len(_assert_witness(g, sources, targets)) == 1

    @pytest.mark.parametrize("reversed_graph", [False, True])
    @pytest.mark.parametrize("L", [50, 100, 200, 400])
    def test_dual_shaped_runs(self, L, reversed_graph):
        # The measurement dual's shape: one to six sources, asked about one
        # in-neighbourhood after another, so the walks collide on few roots.
        g = build_extended_graph(random_sparse_model(random.Random(f"dual/{L}"), L)).graph
        if reversed_graph:
            g = reverse(g)
        rng = random.Random(f"dual-calls/{L}/{reversed_graph}")
        vs = g.sorted_vertices()
        seen = {"full": 0, "short": 0}
        for _ in range(10):
            sources = frozenset(rng.sample(vs, rng.randint(1, 6)))
            for _ in range(30):
                targets = g.in_neighbors(rng.choice(vs))
                if rng.random() < 0.3:
                    targets |= g.in_neighbors(rng.choice(vs))
                starts = _assert_witness(g, sources, targets)
                seen["full" if len(starts) == min(len(sources), len(targets)) else "short"] += 1
        assert all(seen.values()), seen

    def test_small_random_graphs(self):
        # Every vertex's in-neighbourhood against one cached set of one to
        # six sources, on small random graphs.
        for seed in range(300):
            rng = random.Random(f"dual-small/{seed}")
            g = random_digraph(rng, min_vertices=3, max_vertices=9, max_edges=20)
            vs = g.sorted_vertices()
            sources = frozenset(rng.sample(vs, rng.randint(1, min(6, len(vs)))))
            for v in vs:
                _assert_witness(g, sources, g.in_neighbors(v))


def _root_only_visits(kernel: _SplitGraph, forest: list[int], free_tgt: set[int]) -> int:
    """The nodes a backward search marks, targets included, when only a root
    can end it: the search as it ran before it joined the forest."""
    head, arcs, cap = kernel.head, kernel.arcs, kernel.cap
    seen = set(free_tgt)
    queue = list(free_tgt)
    for b in queue:
        for k in arcs[b]:
            a = head[k]
            if cap[k ^ 1] and a not in seen:
                seen.add(a)
                if forest[a] == -1:
                    return len(seen)
                queue.append(a)
    return len(seen)


class TestForestJoin:
    """A backward search stops at the first node whose forest path is free
    and augments through that path from its root."""

    @pytest.fixture
    def searches(self, monkeypatch):
        # (nodes the search marked, forest path included; nodes a root-only
        # search marks) for every search, both on the same residual state.
        calls = []
        search = _SplitGraph._search

        def measured(self, forest, free_tgt):
            root_only = _root_only_visits(self, forest, free_tgt)
            found = search(self, forest, free_tgt)
            calls.append((None if found is None else len(found[1]), root_only))
            return found

        monkeypatch.setattr(_SplitGraph, "_search", measured)
        return calls

    def test_search_ends_on_a_free_forest_path(self, searches):
        # x hangs off s, one level up, and off r through y, two levels up,
        # so the forest reaches x from s. Where x is walked first it takes
        # s, and z, whose only in-neighbour is s, is left to a search. That
        # search steps back over s -> x to x, whose in-neighbour y has the
        # free forest path r -> y. A root-only search goes on to r and also
        # marks the dead branch w -> y, which nothing reaches.
        edges = [("s", "x"), ("s", "z"), ("r", "y"), ("y", "x"), ("w", "y")]
        for g, sources, targets in _relabelled(edges, {"s", "r"}, {"x", "z"}):
            assert _assert_witness(g, sources, targets) == sources
        assert searches
        assert all(marked is not None and marked < root_only for marked, root_only in searches)

    def test_comb_is_counted_in_linear_time(self, searches):
        # Source 1 reaches hub 3, the hub's head 4 and a chain 7 -> ... -> n
        # hanging below the hub, so 4's walk takes the hub first. The chain
        # end's search then discovers the whole chain, each node with a
        # forest path up through the used hub, before it steps back over
        # 3 -> 4 and joins 2 -> 5 -> 6 -> 4. Were each node walked to the hub
        # afresh, the search would be quadratic: over a minute here, against
        # a tenth of a second for the search with its blocked marks.
        n = 20_000
        edges = [(1, 3), (3, 4), (2, 5), (5, 6), (6, 4), (3, 7)]
        edges += [(v, v + 1) for v in range(7, n)]
        g = DiGraph.of(range(1, n + 1), edges)
        start = time.perf_counter()
        assert max_vertex_disjoint_paths(g, {1, 2}, {4, n}) == 2
        assert time.perf_counter() - start < 2
        assert len(searches) == 1 and searches[0][0] >= 2 * (n - 7)


SEEDS = st.integers(min_value=0, max_value=10**9)


class TestDisjointPathProperties:
    @given(SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_digraph(rng)
        u = random_vertex_subset(rng, g)
        y = random_vertex_subset(rng, g)
        assert max_vertex_disjoint_paths(g, u, y) == brute_disjoint_paths(g, u, y)

    @given(SEEDS)
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_side_sizes(self, seed):
        rng = random.Random(seed)
        g = random_digraph(rng)
        u = random_vertex_subset(rng, g)
        y = random_vertex_subset(rng, g)
        b = max_vertex_disjoint_paths(g, u, y)
        assert 0 <= b <= min(len(u), len(y))

    @given(SEEDS)
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_source_set(self, seed):
        rng = random.Random(seed)
        g = random_digraph(rng)
        u = random_vertex_subset(rng, g)
        y = random_vertex_subset(rng, g)
        smaller = set(rng.sample(sorted(u), rng.randint(0, len(u))))
        assert max_vertex_disjoint_paths(g, smaller, y) <= max_vertex_disjoint_paths(
            g, u, y
        )

    @given(SEEDS)
    @settings(max_examples=80, deadline=None)
    def test_reversal_symmetry(self, seed):
        # reversing every path gives a bijection between the two path packings
        rng = random.Random(seed)
        g = random_digraph(rng)
        u = random_vertex_subset(rng, g)
        y = random_vertex_subset(rng, g)
        assert max_vertex_disjoint_paths(g, u, y) == max_vertex_disjoint_paths(
            reverse(g), y, u
        )

    @given(SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_reverse_swaps_neighborhoods(self, seed):
        rng = random.Random(seed)
        g = random_digraph(rng)
        r = reverse(g)
        for v in g.vertices:
            assert r.in_neighbors(v) == g.out_neighbors(v)
            assert r.out_neighbors(v) == g.in_neighbors(v)
