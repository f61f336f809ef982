"""Output checker for the benchmark; shares no code with the code under test.

The model is read from the generator's own document, the extended graph is
built here, and vertex-disjoint paths are counted by depth-first augmenting
paths on an array-indexed split network that is built once per source set
(`graph.py` runs breadth-first Edmonds-Karp on a dict network rebuilt per
call). Every checker returns a list of problems; an empty list means the
report is correct. Nothing here raises on a bad report.

Models with at most ORACLE_MAX_L internal vertices are also decided by
`dynetid.oracle.brute_identifiability`, on an extended graph built here.
"""

from __future__ import annotations

import hashlib
import json

ORACLE_MAX_L = 7
SPLIT_VIOLATIONS = "violations are the planted messages cut apart at '; '"


class FlowNet:
    """Unit-capacity split network over vertex ids 1..n with a fixed source set.

    Vertex v becomes in-node 2v and out-node 2v+1 joined by a unit arc, so at
    most one path may use v. Node 0 feeds every source, node 1 drains every
    target. Sink arcs exist for every vertex with capacity 0 and are opened
    per query, so one network serves every target set.
    """

    def __init__(self, n: int, succ: dict[int, list[int]], sources) -> None:
        size = 2 * (n + 1)
        self.size = size
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap0: list[int] = []
        self.sink_arc: dict[int, int] = {}
        for v in range(1, n + 1):
            self.sink_arc[v] = self._arc(2 * v + 1, 1, 0)
        for v in range(1, n + 1):
            self._arc(2 * v, 2 * v + 1, 1)
            for w in succ.get(v, ()):
                self._arc(2 * v + 1, 2 * w, 1)
        for s in sources:
            self._arc(0, 2 * s, 1)

    def _arc(self, a: int, b: int, c: int) -> int:
        e = len(self.to)
        self.adj[a].append(e)
        self.to.append(b)
        self.cap0.append(c)
        self.adj[b].append(e + 1)
        self.to.append(a)
        self.cap0.append(0)
        return e

    def count(self, targets) -> int:
        """Maximum number of vertex-disjoint source-to-target paths."""
        cap = self.cap0[:]
        for t in targets:
            cap[self.sink_arc[t]] = 1
        want = len(targets)
        flow = 0
        while flow < want and self._augment(cap):
            flow += 1
        return flow

    def _augment(self, cap: list[int]) -> bool:
        adj, to = self.adj, self.to
        seen = bytearray(self.size)
        seen[0] = 1
        nodes = [0]
        pos = [0]
        via: list[int] = []
        while nodes:
            a = nodes[-1]
            arcs = adj[a]
            i = pos[-1]
            while i < len(arcs):
                e = arcs[i]
                i += 1
                b = to[e]
                if cap[e] and not seen[b]:
                    break
            else:
                nodes.pop()
                pos.pop()
                if via:
                    via.pop()
                continue
            pos[-1] = i
            via.append(e)
            if b == 1:
                for e in via:
                    cap[e] -= 1
                    cap[e ^ 1] += 1
                return True
            seen[b] = 1
            nodes.append(b)
            pos.append(0)
        return False


class RefModel:
    """A model document read independently of dynetid.modelfile / dynetid.model."""

    def __init__(self, doc: dict) -> None:
        self.L = L = doc["L"]
        self.modules = {(m["from"], m["to"]): m["status"] for m in doc["modules"]}
        columns = doc.get("noise", {}).get("columns", [])
        self.p = len(columns)
        self.excited = frozenset(doc["excited"])
        param_cols = [c for c in columns if c and all(e["status"] == "param" for e in c)]
        self.noise_vertices = [L + k + 1 for k in range(len(param_cols))]
        self.noise_driven = frozenset(
            c[0]["row"] for c in columns if len(c) == 1 and c[0]["status"] == "known"
        )
        self.n = L + len(param_cols)
        self.param_edges = {e for e, s in self.modules.items() if s == "param"}
        self.edges = set(self.modules)
        for k, c in enumerate(param_cols):
            for e in c:
                self.edges.add((L + k + 1, e["row"]))
                self.param_edges.add((L + k + 1, e["row"]))
        self.succ: dict[int, list[int]] = {}
        self.param_in: dict[int, list[int]] = {j: [] for j in range(1, L + 1)}
        has_in = set()
        for t, h in sorted(self.edges):
            self.succ.setdefault(t, []).append(h)
            has_in.add(h)
        for t, h in self.param_edges:
            self.param_in[h].append(t)
        self.sources = sum(1 for v in range(1, self.n + 1) if v not in has_in)
        self.noise_stim = frozenset(self.noise_vertices) | self.noise_driven

    def path_counts(self, stimulated) -> list[tuple[int, int]]:
        """(required, achieved) for every internal vertex, in vertex order."""
        net = FlowNet(self.n, self.succ, stimulated)
        out = []
        for j in range(1, self.L + 1):
            targets = self.param_in[j]
            out.append((len(targets), net.count(targets) if targets else 0))
        return out

    def lower_bound(self) -> int:
        max_in = max((len(t) for t in self.param_in.values()), default=0)
        return max(0, max(self.sources, max_in) - self.p)

    def oracle(self, stimulated) -> bool | None:
        """Exhaustive verdict from dynetid.oracle, or None when over its budget."""
        from dynetid.graph import DiGraph
        from dynetid.model import ExtendedGraph
        from dynetid.oracle import BudgetExceeded, OracleBudget, brute_identifiability

        eg = ExtendedGraph(
            graph=DiGraph(frozenset(range(1, self.n + 1)), frozenset(self.edges)),
            L=self.L,
            noise_vertices=frozenset(self.noise_vertices),
            noise_driven=self.noise_driven,
            stimulated=frozenset(stimulated),
            parameterized_edges=frozenset(self.param_edges),
            p0=self.p - len(self.noise_vertices),
        )
        try:
            return brute_identifiability(eg, OracleBudget(max_vertices=12, max_edges=24))
        except BudgetExceeded:
            return None


def _pseudotree_roots(edges: list[tuple[int, int]]) -> list[int] | None:
    """Roots of a pseudotree (vertices reaching all others), or None if not one."""
    vs = sorted({v for e in edges for v in e})
    if len(vs) < 2 or len(set(edges)) != len(edges):
        return None
    indeg = {v: 0 for v in vs}
    succ: dict[int, list[int]] = {v: [] for v in vs}
    und: dict[int, list[int]] = {v: [] for v in vs}
    for t, h in edges:
        if t == h:
            return None
        indeg[h] += 1
        succ[t].append(h)
        und[t].append(h)
        und[h].append(t)
    if max(indeg.values()) > 1 or len(_reach(und, vs[0])) != len(vs):
        return None
    return [v for v in vs if len(_reach(succ, v)) == len(vs)]


def _reach(adj: dict[int, list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


class Checker:
    """Checks one report at a time; `tree_counts` cross-checks commands run on one model."""

    def __init__(self) -> None:
        self.refs: dict[str, RefModel] = {}
        self.tree_counts: dict[str, set[int]] = {}
        self.oracle_checked = 0
        self.oracle_skipped = 0

    def ref(self, name: str, doc: dict) -> RefModel:
        if name not in self.refs:
            self.refs[name] = RefModel(doc)
        return self.refs[name]

    def check(self, op, model, file_bytes: bytes, exit_code: int, report_bytes: bytes) -> list[str]:
        try:
            report = json.loads(report_bytes)
        except ValueError:
            return ["report is not JSON"]
        problems = []
        if exit_code not in op.expect_exit:
            problems.append(f"exit {exit_code}, expected one of {list(op.expect_exit)}")
        if report.get("command") != op.command:
            problems.append(f"command field {report.get('command')!r}")
        if report.get("input_digest") != hashlib.sha256(file_bytes).hexdigest():
            problems.append("input_digest is not the sha256 of the file")
        result = report.get("result")
        if not isinstance(result, dict):
            return problems + ["result is not an object"]
        if op.expect_violations or exit_code == 2:
            return problems + self._violations(op, result)
        try:
            handler = getattr(self, "_" + op.command.replace("-", "_"))
            return problems + handler(op, self.ref(op.model, model.doc), result, exit_code)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return problems + [f"malformed result: {type(exc).__name__}: {exc}"]

    def _violations(self, op, result: dict) -> list[str]:
        problems = []
        if result.get("ok") is not False:
            problems.append("result.ok should be false")
        got = sorted(result.get("violations", []))
        if got == sorted(part for v in op.expect_violations for part in v.split("; ")) != sorted(
            op.expect_violations
        ):
            problems.append(SPLIT_VIOLATIONS)
        elif got != sorted(op.expect_violations):
            problems.append(f"violations {got} != planted {sorted(op.expect_violations)}")
        return problems

    def _validate(self, op, ref: RefModel, result: dict, exit_code: int) -> list[str]:
        if result != {"ok": True, "violations": []}:
            return [f"valid model reported as {result}"]
        return []

    def _check(self, op, ref: RefModel, result: dict, exit_code: int) -> list[str]:
        problems = []
        counts = ref.path_counts(ref.excited | ref.noise_stim)
        rows = result["per_vertex"]
        if len(rows) != ref.L:
            return [f"{len(rows)} per_vertex rows for L={ref.L}"]
        for j, (row, (req, ach)) in enumerate(zip(rows, counts), start=1):
            if (row["vertex"], row["required"], row["achieved"]) != (j, req, ach):
                problems.append(
                    f"vertex {j}: report {row['vertex']},{row['required']},{row['achieved']}"
                    f" != reference {j},{req},{ach}"
                )
        failing = [j for j, (req, ach) in enumerate(counts, start=1) if req != ach]
        if result["failing"] != failing:
            problems.append(f"failing {result['failing']} != reference {failing}")
        if result["identifiable"] != (not failing):
            problems.append("identifiable verdict contradicts the path counts")
        if exit_code != (0 if not failing else 3):
            problems.append(f"exit {exit_code} contradicts the verdict")
        if ref.L <= ORACLE_MAX_L:
            problems += self._oracle(ref, ref.excited | ref.noise_stim, not failing)
        return problems

    def _oracle(self, ref: RefModel, stimulated, expected: bool) -> list[str]:
        verdict = ref.oracle(stimulated)
        if verdict is None:
            self.oracle_skipped += 1
            return []
        self.oracle_checked += 1
        return [] if verdict == expected else [f"oracle verdict {verdict} != {expected}"]

    def _cover(self, op, ref: RefModel, result: dict, exit_code: int) -> list[str]:
        problems = []
        trees = result["trees"]
        if result["tree_count"] != len(trees):
            problems.append("tree_count differs from the number of trees")
        covered: set = set()
        tails: set = set()
        for k, tree in enumerate(trees, start=1):
            edges = [tuple(e) for e in tree["edges"]]
            if tree["index"] != k:
                problems.append(f"tree {k} has index {tree['index']}")
            roots = _pseudotree_roots(edges)
            if roots is None:
                problems.append(f"tree {k} is not a pseudotree")
            elif roots != tree["roots"]:
                problems.append(f"tree {k} roots {tree['roots']} != {roots}")
            if covered & set(edges):
                problems.append(f"tree {k} shares an edge with an earlier tree")
            if tails & {t for t, _ in edges}:
                problems.append(f"tree {k} shares an out-edge vertex with an earlier tree")
            covered |= set(edges)
            tails |= {t for t, _ in edges}
        if covered != ref.param_edges:
            problems.append(
                f"covering misses {len(ref.param_edges - covered)} parameterized edges"
                f" and adds {len(covered - ref.param_edges)} others"
            )
        n = len({t for t, _ in ref.param_edges})
        if len(result["trace"]) != n - len(trees):
            problems.append(f"trace has {len(result['trace'])} merges for {n} -> {len(trees)} trees")
        for i, j in result["trace"]:
            if not (1 <= i <= n and 1 <= j <= n and i != j):
                problems.append(f"trace step ({i}, {j}) is out of range for {n} trees")
            n -= 1
        self.tree_counts.setdefault(op.model, set()).add(len(trees))
        return problems

    def _bounds(self, op, ref: RefModel, result: dict, exit_code: int) -> list[str]:
        problems = []
        size = result["covering_size"]
        self.tree_counts.setdefault(op.model, set()).add(size)
        expect = {
            "lower": ref.lower_bound(),
            "upper": size - ref.p,
            "covering_size": size,
            "noise_channels": ref.p,
        }
        if result != expect:
            problems.append(f"bounds {result} != {expect}")
        if len(self.tree_counts[op.model]) > 1:
            problems.append(f"commands disagree on the tree count: {sorted(self.tree_counts[op.model])}")
        return problems

    def _allocate(self, op, ref: RefModel, result: dict, exit_code: int) -> list[str]:
        problems = self._selection(result, "excited", ref.L)
        excited = set(result["excited"])
        counts = ref.path_counts(excited | ref.noise_stim)
        bad = [j for j, (req, ach) in enumerate(counts, start=1) if req != ach]
        if bad:
            problems.append(f"excited set leaves vertices {bad[:10]} unidentified")
        tree_count = result["tree_count"]
        self.tree_counts.setdefault(op.model, set()).add(tree_count)
        expect = {"lower": ref.lower_bound(), "upper": tree_count - ref.p}
        if result["bounds"] != expect:
            problems.append(f"bounds {result['bounds']} != {expect}")
        if len(self.tree_counts[op.model]) > 1:
            problems.append(f"commands disagree on the tree count: {sorted(self.tree_counts[op.model])}")
        if ref.L <= ORACLE_MAX_L:
            problems += self._oracle(ref, excited | ref.noise_stim, True)
        return problems

    def _allocate_measurements(self, op, ref: RefModel, result: dict, exit_code: int) -> list[str]:
        problems = self._selection(result, "measured", ref.L)
        pred: dict[int, list[int]] = {}
        out: dict[int, list[int]] = {j: [] for j in range(1, ref.L + 1)}
        for t, h in sorted(ref.edges):
            pred.setdefault(h, []).append(t)
            out[t].append(h)
        net = FlowNet(ref.L, pred, result["measured"])
        bad = [j for j in range(1, ref.L + 1) if out[j] and net.count(out[j]) != len(out[j])]
        if bad:
            problems.append(f"measured set leaves vertices {bad[:10]} unidentified")
        sinks = sum(1 for j in range(1, ref.L + 1) if not out[j])
        lower = max(sinks, max((len(o) for o in out.values()), default=0))
        expect = {"lower": lower, "upper": result["anti_tree_count"]}
        if result["bounds"] != expect:
            problems.append(f"bounds {result['bounds']} != {expect}")
        return problems

    @staticmethod
    def _selection(result: dict, key: str, L: int) -> list[str]:
        problems = []
        chosen = result[key]
        if chosen != sorted(set(chosen)) or not all(1 <= v <= L for v in chosen):
            problems.append(f"{key} is not a sorted set of internal vertices")
        if set(chosen) & set(result["pruned"]):
            problems.append(f"{key} and pruned overlap")
        if result["verified"] is not True or "reason" in result:
            problems.append("selection is not verified")
        return problems
