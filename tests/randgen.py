"""Seeded random instance generators shared by the property and acceptance tests.

All generators take a random.Random so every test run is reproducible from
its seed. Sizes stay inside the oracle budget (7 vertices, 12 edges) so the
brute-force references can always be consulted, except random_sparse_model,
which feeds the medium-scale tests.
"""

import itertools
import random

from dynetid.graph import DiGraph
from dynetid.model import (
    EntryStatus,
    ExtendedGraph,
    ModelSet,
    build_extended_graph,
    validate,
)

MAX_TRIES = 10_000


def random_digraph(
    rng: random.Random,
    min_vertices: int = 2,
    max_vertices: int = 7,
    max_edges: int = 12,
) -> DiGraph:
    n = rng.randint(min_vertices, max_vertices)
    vertices = list(range(1, n + 1))
    pool = [(i, j) for i in vertices for j in vertices if i != j]
    count = rng.randint(0, min(max_edges, len(pool)))
    return DiGraph.of(vertices, rng.sample(pool, count))


def random_vertex_subset(rng: random.Random, g: DiGraph) -> set[int]:
    verts = sorted(g.vertices)
    size = rng.randint(0, len(verts))
    return set(rng.sample(verts, size))


def _random_pattern(rng: random.Random, n: int, known_share: float):
    pool = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    count = rng.randint(1, min(10, len(pool)))
    edges = []
    for i, j in rng.sample(pool, count):
        status = (
            EntryStatus.KNOWN
            if rng.random() < known_share
            else EntryStatus.PARAMETERIZED
        )
        edges.append((i, j, status))
    return edges


def _random_noise_columns(rng: random.Random, n: int, p: int):
    columns = []
    for _ in range(p):
        if rng.random() < 0.3:
            columns.append([(rng.randint(1, n), EntryStatus.KNOWN)])
        else:
            size = rng.randint(1, min(3, n))
            rows = rng.sample(range(1, n + 1), size)
            columns.append([(r, EntryStatus.PARAMETERIZED) for r in rows])
    return columns


def random_model(
    rng: random.Random,
    max_vertices: int = 5,
    max_noise: int = 2,
    known_share: float = 0.15,
    with_excitations: bool = False,
) -> ModelSet:
    """Any valid model set, with no structural guarantees beyond validity."""
    for _ in range(MAX_TRIES):
        n = rng.randint(2, max_vertices)
        edges = _random_pattern(rng, n, known_share)
        columns = _random_noise_columns(rng, n, rng.randint(0, max_noise))
        excited = []
        if with_excitations:
            excited = rng.sample(range(1, n + 1), rng.randint(0, n))
        try:
            m = ModelSet.from_edges(n, edges, noise_columns=columns, excited=excited)
        except Exception:
            continue
        if not validate(m):
            return m
    raise RuntimeError("no valid model found")


def random_bounded_model(rng: random.Random) -> ModelSet:
    """A valid model whose extended graph satisfies the two source conditions
    the allocation size bounds rely on: every source has a parameterized
    out-edge, and every vertex driven by a single known noise column is a
    source with a parameterized out-edge.
    """
    for _ in range(MAX_TRIES):
        m = random_model(rng)
        eg = build_extended_graph(m)
        if _bounded_instance_ok(eg):
            return m
    raise RuntimeError("no admissible model found")


def _bounded_instance_ok(eg: ExtendedGraph) -> bool:
    param_tails = {a for a, _ in eg.parameterized_edges}
    for v in sorted(eg.graph.vertices):
        if not eg.graph.in_neighbors(v) and v not in param_tails:
            return False
    for d in eg.noise_driven:
        if eg.graph.in_neighbors(d) or d not in param_tails:
            return False
    return True


def random_extended_graph(rng: random.Random) -> ExtendedGraph:
    return build_extended_graph(random_model(rng))


def random_all_param_edges(rng: random.Random, max_vertices: int = 6):
    """Edge list of a nonempty all-parameterized pattern, for the dual side."""
    for _ in range(MAX_TRIES):
        n = rng.randint(2, max_vertices)
        pool = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        count = rng.randint(1, min(10, len(pool)))
        return n, rng.sample(pool, count)
    raise RuntimeError("unreachable")


def random_sparse_model(rng: random.Random, L: int) -> ModelSet:
    """An all-parameterized, noise-free model on L vertices, each with up to
    three out-edges (a drawn self-loop is dropped), and a third of the
    vertices excited. It fits both the excitation and the measurement
    problem.
    """
    edges = sorted(
        (t, h) for t in range(1, L + 1) for h in rng.sample(range(1, L + 1), 3) if h != t
    )
    return ModelSet.from_edges(L, edges, excited=rng.sample(range(1, L + 1), L // 3))


def nonisomorphic_stream(rng: random.Random, make, key, want: int):
    """Draw instances until `want` distinct keys have been seen; yields each
    new instance. Guards against a generator that collapses onto few shapes.
    """
    seen = set()
    for _ in range(MAX_TRIES):
        inst = make(rng)
        k = key(inst)
        if k in seen:
            continue
        seen.add(k)
        yield inst
        if len(seen) >= want:
            return
    raise RuntimeError(f"only found {len(seen)} distinct instances")


def graph_key(g: DiGraph):
    return (len(g.vertices), tuple(sorted(g.edges)))


def model_key(m: ModelSet):
    return (
        m.L,
        tuple(sorted(m.modules.items())),
        tuple(tuple(sorted(column.items())) for column in m.noise),
        tuple(sorted(m.excited)),
    )


def all_extended_subsets(eg: ExtendedGraph):
    """Every subset of internal vertices, for exhaustive excitation sweeps."""
    internal = sorted(eg.internal)
    for r in range(len(internal) + 1):
        for combo in itertools.combinations(internal, r):
            yield frozenset(combo)
