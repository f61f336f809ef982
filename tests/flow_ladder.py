"""The hand ladder: check, allocate and select_measurements times at each L.

    python3 tests/flow_ladder.py [--src DIR] [--shape {sparse,hub,fan}] [L ...]

For each L (default 400 1600) it builds one noise-free, all-parameterized
model of the chosen shape:

- sparse (the default): tests/randgen.random_sparse_model(random.Random(L),
  L), out-degree 3;
- hub: every vertex v = 2..L feeds vertex 1, and a chain
  2 -> 3 -> ... -> L -> 1 runs through the rest, so |E| = 2L - 3;
- fan: vertex 1 feeds every other vertex, plus the same chain.

It times one run of each of three commands on the model:
check_generic_identifiability, allocate and select_measurements (the
measurement dual). Each run gets a freshly built extended graph, so no
command starts from another's flow kernel. The last two columns are the
excited and measured vertex counts, which no speed change may move.

One run per row on a shared host drifts a lot; compare a change against its
parent (--src picks the dynetid sources) over several runs, in alternating
order. Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def shape_edges(shape: str, L: int) -> set[tuple[int, int]]:
    """The hub or fan edges on vertices 1..L: the chain v -> v % L + 1 for
    v = 2..L, plus every v -> 1 (hub) or 1 -> v (fan)."""
    chain = {(v, v % L + 1) for v in range(2, L + 1)}
    spokes = {(v, 1) if shape == "hub" else (1, v) for v in range(2, L + 1)}
    return chain | spokes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--shape", choices=("sparse", "hub", "fan"), default="sparse")
    ap.add_argument("L", type=int, nargs="*", default=[400, 1600])
    args = ap.parse_args()
    sys.path[:0] = [str(args.src), str(ROOT / "tests")]
    from randgen import random_sparse_model

    from dynetid import ModelSet, allocate, build_extended_graph, check_generic_identifiability
    from dynetid.dual import select_measurements

    print(f"{'L':>6}{'check_s':>10}{'allocate_s':>12}{'dual_s':>10}{'excited':>9}{'measured':>10}")
    for L in args.L:
        if args.shape == "sparse":
            m = random_sparse_model(random.Random(L), L)
        else:
            m = ModelSet.from_edges(L, sorted(shape_edges(args.shape, L)))
        times, results = [], []
        for command in (check_generic_identifiability, allocate, select_measurements):
            eg = build_extended_graph(m)
            start = time.perf_counter()
            results.append(command(eg))
            times.append(time.perf_counter() - start)
        excited, measured = (len(r.excited) for r in results[1:])
        print(f"{L:>6}{times[0]:>10.3f}{times[1]:>12.3f}{times[2]:>10.3f}{excited:>9}{measured:>10}")


if __name__ == "__main__":
    main()
