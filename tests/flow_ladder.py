"""The hand ladder: check, allocate and select_measurements times at each L.

    python3 tests/flow_ladder.py [--src DIR] [L ...]

For each L (default 400 1600) it builds
tests/randgen.random_sparse_model(random.Random(L), L), an out-degree-3,
noise-free, all-parameterized model, and times one run of each of three
commands on it: check_generic_identifiability, allocate and
select_measurements (the measurement dual). Each run gets a freshly built
extended graph, so no command starts from another's flow kernel. The last
two columns are the excited and measured vertex counts, which no speed
change may move.

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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("L", type=int, nargs="*", default=[400, 1600])
    args = ap.parse_args()
    sys.path[:0] = [str(args.src), str(ROOT / "tests")]
    from randgen import random_sparse_model

    from dynetid import allocate, build_extended_graph, check_generic_identifiability
    from dynetid.dual import select_measurements

    print(f"{'L':>6}{'check_s':>10}{'allocate_s':>12}{'dual_s':>10}{'excited':>9}{'measured':>10}")
    for L in args.L:
        m = random_sparse_model(random.Random(L), L)
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
