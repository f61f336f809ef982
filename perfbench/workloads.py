"""Seeded model files and op lists for the four benchmark workloads.

The program under test only ever sees the JSON files written here. They are
encoded by this module's own writer, not by dynetid.modelfile, so a change to
the program cannot change its inputs. Sizes, degrees and the mix of model
kinds are fixed per workload; the seed only chooses edges, rows and excited
vertices, so two seeds cost about the same to run.

Each op records the exit codes it may return and, for invalid models, the
exact violations the generator planted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("design", "check", "validate-large", "batch-small")

# Workloads whose ops count at their fastest pass of a run rather than their
# median pass. validate-large allocates hundreds of MB per op, and single
# passes of those ops run up to 50 % slower on a shared host's memory system
# than the calibration task accounts for, and a run holds only a few passes.
FASTEST_PASS = frozenset({"validate-large"})

MSG_P0 = "measurement selection requires a noise-free model (p = 0)"
MSG_CYCLE = "feedthrough subgraph contains a cycle (algebraic loop)"


@dataclass
class Model:
    """One model file: its document, what was planted in it, and why it exists."""

    name: str
    doc: dict
    violations: tuple[str, ...] = ()
    note: str = ""


@dataclass
class Op:
    """One `dynetid <command> <model> --out <report>` call."""

    command: str
    model: str
    expect_exit: tuple[int, ...]
    expect_violations: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    seed: int
    models: dict[str, Model] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def add(self, model: Model) -> Model:
        self.models[model.name] = model
        return model


def encode(doc: dict) -> bytes:
    """The benchmark's own model writer: compact JSON, keys in insertion order."""
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


# ---- model pieces ----


def _out_degree_edges(rng: random.Random, L: int, degree: int) -> list[tuple[int, int]]:
    edges = []
    for v in range(1, L + 1):
        for x in rng.sample(range(1, L), degree):
            edges.append((v, x if x < v else x + 1))
    return edges


def _random_edges(rng: random.Random, L: int, count: int) -> list[tuple[int, int]]:
    seen: set[tuple[int, int]] = set()
    while len(seen) < count:
        t, h = rng.randint(1, L), rng.randint(1, L)
        if t != h:
            seen.add((t, h))
    return sorted(seen)


def _cascade_edges(rng: random.Random, L: int) -> list[tuple[int, int]]:
    """A chain 1 -> 2 -> ... -> L with a forward or backward chord every 10 vertices."""
    edges = {(v, v + 1) for v in range(1, L)}
    for v in range(10, L + 1, 10):
        w = v + rng.choice((-1, 1)) * rng.randint(2, 50)
        if 1 <= w <= L:
            edges.add((v, w))
    return sorted(edges)


class _Noise:
    """Noise columns with row bookkeeping, so only planted rules are broken."""

    def __init__(self, rng: random.Random, L: int) -> None:
        self.rng = rng
        self.L = L
        self.columns: list[list[tuple[int, str]]] = []
        self.used: set[int] = set()
        self.driven: set[int] = set()

    def fresh_rows(self, k: int) -> list[int]:
        rows: list[int] = []
        while len(rows) < k:
            r = self.rng.randint(1, self.L)
            if r not in self.used and r not in rows:
                rows.append(r)
        self.used.update(rows)
        return sorted(rows)

    def param(self, k: int) -> None:
        self.columns.append([(r, "param") for r in self.fresh_rows(k)])

    def known(self, row: int | None = None, avoid=()) -> int:
        """A single-known column on `row`, or on a fresh row outside `avoid`."""
        if row is None:
            r = self.rng.choice([v for v in range(1, self.L + 1) if v not in self.used and v not in avoid])
            self.used.add(r)
        else:
            r = row
            self.used.add(r)
        self.columns.append([(r, "known")])
        self.driven.add(r)
        return r


def _doc(
    L: int,
    edges: list[tuple[int, int]],
    known: set[tuple[int, int]] = frozenset(),
    noise: _Noise | None = None,
    excited: list[int] = (),
    feedthrough: list[tuple[int, int]] | None = None,
) -> dict:
    doc: dict = {
        "schema": 1,
        "L": L,
        "modules": [
            {"from": t, "to": h, "status": "known" if (t, h) in known else "param"}
            for t, h in edges
        ],
    }
    if noise is not None and noise.columns:
        doc["noise"] = {
            "p": len(noise.columns),
            "columns": [[{"row": r, "status": s} for r, s in col] for col in noise.columns],
        }
    doc["excited"] = sorted(excited)
    doc["strictly_proper"] = feedthrough is None
    if feedthrough is not None:
        doc["feedthrough_edges"] = [list(e) for e in feedthrough]
    return doc


def _known_share(rng: random.Random, edges: list[tuple[int, int]], share: float) -> set:
    return set(rng.sample(edges, round(share * len(edges))))


def _excite(rng: random.Random, L: int, count: int, noise: _Noise | None) -> list[int]:
    pool = [v for v in range(1, L + 1) if noise is None or v not in noise.driven]
    return rng.sample(pool, min(count, len(pool)))


def _forward(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Edges pointing up the vertex order: always an acyclic feedthrough set."""
    return [(t, h) for t, h in edges if t < h]


PLANTS = (
    "self_loop",
    "empty_column",
    "mixed_column",
    "mixed_row",
    "excited_driven",
    "feedthrough_not_module",
    "feedthrough_cycle",
)


def _plant(
    rng: random.Random,
    kind: str,
    L: int,
    edges: list[tuple[int, int]],
    noise: _Noise,
    excited: list[int],
    feedthrough: list[tuple[int, int]] | None,
) -> str:
    """Break exactly one structural rule and return the message validate reports."""
    if kind == "self_loop":
        v = rng.randint(1, L)
        edges.append((v, v))
        return f"self-loop module at vertex {v}"
    if kind == "empty_column":
        noise.columns.append([])
        return f"noise column {len(noise.columns)} drives no vertex"
    if kind == "mixed_column":
        r1, r2 = noise.fresh_rows(2)
        noise.columns.append([(r1, "known"), (r2, "param")])
        return f"noise column {len(noise.columns)} has multiple nonzeros that are not all parameterized"
    if kind == "mixed_row":
        r = noise.known(avoid=excited)
        (other,) = noise.fresh_rows(1)
        noise.columns.append(sorted([(r, "param"), (other, "param")]))
        return f"noise row {r} mixes a known entry with other nonzeros"
    if kind == "excited_driven":
        free = [v for v in excited if v not in noise.used]
        if free:
            r = noise.known(rng.choice(free))
        else:
            r = noise.known()
            excited.append(r)
        return f"vertex {r} is excited and also driven by a known noise column"
    if feedthrough is None:
        raise ValueError(f"plant {kind!r} needs a non-strictly-proper model")
    present = set(edges)
    if kind == "feedthrough_not_module":
        while True:
            a, b = rng.randint(1, L), rng.randint(1, L)
            if a != b and (a, b) not in present:
                feedthrough.append((a, b))
                return f"feedthrough edge {(a, b)} is not a nonzero module"
    if kind == "feedthrough_cycle":
        # Within the last 100 vertices: a depth-first search from vertex 1 then
        # meets the cycle only after walking any feedthrough chain, so the
        # outcome does not depend on which edge it happens to try first.
        a, b = sorted(rng.sample(range(max(1, L - 99), L + 1), 2))
        for e in ((a, b), (b, a)):
            if e not in present:
                edges.append(e)
            if e not in feedthrough:
                feedthrough.append(e)
        return MSG_CYCLE
    raise ValueError(f"unknown plant {kind!r}")


# ---- the four workloads ----


def _design(w: Workload, rng: random.Random) -> None:
    # allocate is the headline design question; merge and prune flow share the time.
    for i, L in enumerate((70,) * 6):
        edges = _out_degree_edges(rng, L, 3)
        noise = _Noise(rng, L)
        for _ in range(i % 4):
            noise.param(3)
        known = _known_share(rng, edges, 0.10)
        m = w.add(Model(f"design-{i}-L{L}", _doc(L, edges, known, noise)))
        # allocate-measurements runs on the all-parameterized, noise-free graph.
        d = w.add(Model(f"design-{i}-L{L}-dual", _doc(L, edges)))
        w.ops.append(Op("allocate", m.name, (0,)))
        w.ops.append(Op("allocate-measurements", d.name, (0,)))


def _check(w: Workload, rng: random.Random) -> None:
    # Flow only: the merge never runs, so this is the control for merge changes.
    for i, L in enumerate((250,) * 6):
        edges = _out_degree_edges(rng, L, 3 + i % 2)
        noise = _Noise(rng, L)
        for _ in range(2 + i % 2):
            noise.param(3)
        excited = _excite(rng, L, L // 2, noise)
        m = w.add(Model(f"check-{i}-L{L}", _doc(L, edges, noise=noise, excited=excited)))
        w.ops.append(Op("check", m.name, (0, 3)))


def _validate_large(w: Workload, rng: random.Random) -> None:
    # Dense L x L storage decides time and memory; no flow or merge runs.
    specs = (
        ("random", 2000, "proper", ()),
        ("cascade", 2000, "proper", ()),
        ("random", 3000, "forward", ()),
        ("cascade", 3000, "chain", ()),
        ("random", 4000, "forward", ("self_loop", "empty_column", "feedthrough_not_module")),
        ("cascade", 5000, "chain", ("mixed_row", "feedthrough_cycle")),
    )
    for i, (shape, L, feed, plants) in enumerate(specs):
        edges = _out_degree_edges(rng, L, 3) if shape == "random" else _cascade_edges(rng, L)
        noise = _Noise(rng, L)
        noise.param(4)
        noise.known()
        excited = _excite(rng, L, L // 10, noise)
        feedthrough = {
            "proper": None,
            "forward": _forward(edges)[::2],
            "chain": [(v, v + 1) for v in range(1, L)],
        }[feed]
        violations = tuple(
            _plant(rng, kind, L, edges, noise, excited, feedthrough) for kind in plants
        )
        note = f"feedthrough chain of depth {L}" if feed == "chain" else ""
        doc = _doc(L, edges, noise=noise, excited=excited, feedthrough=feedthrough)
        m = w.add(Model(f"validate-{i}-{shape}-L{L}", doc, violations, note))
        w.ops.append(Op("validate", m.name, (2,) if violations else (0,), violations))


def _batch_small(w: Workload, rng: random.Random) -> None:
    # Fixed per-call cost: argparse, reading and digesting, validating, rendering.
    for i in range(60):
        L = 6 + (i * 13) % 35
        degree_cap = 2 if L <= 7 else 3
        # The edge count is fixed by i, not drawn, so seeds differ only in
        # which edges a model has and cost about the same to run.
        count = L + (i * 7) % ((degree_cap - 1) * L + 1)
        edges = _random_edges(rng, L, min(L * (L - 1), count))
        if L <= 7:
            edges = edges[:12]  # stay inside the brute-force oracle's budget
        noise = _Noise(rng, L)
        kind = i % 4
        if kind in (1, 3):
            noise.param(rng.randint(1, 3))
            if L > 10:
                noise.param(rng.randint(1, 3))
        if kind in (2, 3):
            noise.known()
        known = _known_share(rng, edges, 0.15) if i % 3 == 0 else set()
        excited = _excite(rng, L, L // 3, noise)
        feedthrough = _forward(edges) if i % 5 == 4 else None
        violations: tuple[str, ...] = ()
        if i % 10 == 9:
            if feedthrough is None:
                feedthrough = _forward(edges)
            kind_name = PLANTS[(i // 10) % len(PLANTS)]
            violations = (_plant(rng, kind_name, L, edges, noise, excited, feedthrough),)
        m = w.add(Model(f"small-{i}-L{L}", _doc(L, edges, known, noise, excited, feedthrough), violations))
        if violations:
            for cmd in ("validate", "check", "cover", "bounds", "allocate", "allocate-measurements"):
                w.ops.append(Op(cmd, m.name, (2,), violations))
            continue
        w.ops.append(Op("validate", m.name, (0,)))
        w.ops.append(Op("check", m.name, (0, 3)))
        w.ops.append(Op("cover", m.name, (0,)))
        w.ops.append(Op("bounds", m.name, (0,)))
        w.ops.append(Op("allocate", m.name, (0,)))
        if noise.columns:
            w.ops.append(Op("allocate-measurements", m.name, (2,), (MSG_P0,)))
        elif known:
            msgs = tuple(
                f"module ({t}, {h}) is known; measurement selection"
                " expects every nonzero module to be parameterized"
                for h, t in sorted((h, t) for t, h in known)
            )
            w.ops.append(Op("allocate-measurements", m.name, (2,), msgs))
        d = w.add(Model(f"small-{i}-L{L}-dual", _doc(L, edges)))
        w.ops.append(Op("allocate-measurements", d.name, (0,)))


_BUILDERS = {
    "design": _design,
    "check": _check,
    "validate-large": _validate_large,
    "batch-small": _batch_small,
}


def build(name: str, seed: int) -> Workload:
    """The workload's models and ops; the same (name, seed) gives the same files."""
    w = Workload(name, seed)
    _BUILDERS[name](w, random.Random(f"{name}/{seed}"))
    return w
