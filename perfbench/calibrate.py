"""Machine-speed calibration: a fixed pure-Python task timed between ops.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, so the same op list can read 2 s in one run
and 3 s in the next. The op loop therefore times this task between chunks
of ops, spending about CAL_SHARE of a pass on it, and divides each chunk's
op times by how much slower than NOMINAL_S the task ran just before and just
after the chunk. Reported times are then seconds on a machine where this
task takes NOMINAL_S.

The task mixes what the program spends its time on: breadth-first searches
over a dict-of-dicts network, filling a dense list-of-lists matrix and
parsing a JSON document. Its inputs are fixed (not taken from the workload
seed) and it calls nothing in dynetid, so no change to the program can
change it.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import deque

# The task's median time on the machine the baseline was measured on
# (2 vCPUs of a Xeon at 2.1 GHz, Python 3.11.7), when that machine was quiet.
NOMINAL_S = 0.004
# Share of op time spent re-timing the task, spread over the pass.
CAL_SHARE = 0.1
# Ops are timed in chunks of at least this much op time between two calibrations.
CHUNK_S = 0.1


class Calibrator:
    def __init__(self) -> None:
        rng = random.Random("perfbench calibration")
        self.n = 150
        self.edges = [
            (v, w) for v in range(1, self.n + 1) for w in rng.sample(range(1, self.n + 1), 3) if w != v
        ]
        self.doc = json.dumps({"rows": [[rng.randint(0, 9) for _ in range(40)] for _ in range(60)]})
        self.last: list[float] = []

    def task(self) -> int:
        net: dict[int, dict[int, int]] = {}
        for v, w in self.edges:
            net.setdefault(v, {})[w] = 1
            net.setdefault(w, {}).setdefault(v, 0)
        reached = 0
        for t in range(2, 40):
            seen = {1: None}
            queue = deque([1])
            while queue:
                a = queue.popleft()
                for b, c in net[a].items():
                    if c > 0 and b not in seen:
                        seen[b] = a
                        queue.append(b)
            reached += t in seen
        dense = [[0] * 300 for _ in range(300)]
        for v, w in self.edges:
            dense[v][w] = 1
        return reached + sum(map(sum, dense)) + len(json.loads(self.doc)["rows"])

    def slowdown(self, op_seconds: float) -> float:
        """Time the task for about CAL_SHARE of `op_seconds` (at least twice)
        and return how much slower than NOMINAL_S it ran, over these samples
        and the previous call's: the slowdown of the work between the calls."""
        reps = max(2, round(CAL_SHARE * op_seconds / NOMINAL_S))
        clock = time.perf_counter
        samples = []
        for _ in range(reps):
            t0 = clock()
            self.task()
            samples.append(clock() - t0)
        slowdown = statistics.median(self.last + samples) / NOMINAL_S
        self.last = samples
        return slowdown
