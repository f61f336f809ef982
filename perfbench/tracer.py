"""Span tracer for the traced benchmark run.

Wraps the public functions of each dynetid layer at every binding across the
loaded `dynetid.*` modules (callers import these functions by name, so
patching the defining module alone would miss them). Each call records a
span: function, start, end, parent span and op id, plus one small value
taken from its arguments or result for the counters. Spans stay in memory
until `write` dumps them; `layer_metrics` derives the per-layer metrics.

A function that no longer exists is listed in `absent` and its metrics are
left out, so a later refactor does not break the benchmark.
"""

from __future__ import annotations

import sys
import time

# (module, function) -> function that extracts the counter value of a call.
TRACED = {
    ("cli", "main"): None,
    ("modelfile", "parse_model"): None,
    ("model", "validate"): None,
    ("model", "build_extended_graph"): None,
    ("graph", "max_vertex_disjoint_paths"): lambda args, result: result,
    ("identifiability", "check_generic_identifiability"): None,
    ("identifiability", "check_with_excitations"): None,
    ("identifiability", "excitation_bounds"): None,
    ("pseudotree", "initial_covering"): lambda args, result: len(result.trees),
    ("pseudotree", "algorithm1_merge"): lambda args, result: len(result[0].trees),
    ("pseudotree", "char_matrix"): None,
    ("pseudotree", "reduce"): None,
    ("pseudotree", "is_mergeable"): lambda args, result: int(result),
    ("pseudotree", "merge_trees"): None,
    ("allocation", "allocate"): None,
    ("allocation", "prune"): lambda args, result: (len(args[1]), len(result.pruned)),
    ("dual", "select_measurements"): None,
    ("dual", "measurement_bounds"): None,
}

LAYERS = ("cli", "modelfile", "model", "graph", "identifiability", "pseudotree", "allocation", "dual")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self.spans: list = []  # (fid, start, end, parent, op, value)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items()) if name.startswith("dynetid.")]
        for (mod_name, fn_name), extract in TRACED.items():
            mod = sys.modules.get(f"dynetid.{mod_name}")
            orig = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(orig):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            fid = len(self.names)
            self.names.append(f"{mod_name}.{fn_name}")
            wrapper = self._wrap(orig, fid, extract)
            for m in mods + [sys.modules["dynetid"]]:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def _wrap(self, fn, fid: int, extract):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, start, end, parent, self.op, None)
            if extract is not None:
                spans[idx] = (fid, start, end, parent, self.op, extract(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\tvalue\n")
            for k, (fid, start, end, parent, op, value) in enumerate(self.spans):
                fh.write(f"{k}\t{self.names[fid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\t{value}\n")

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics over spans[first:last], one pass of the op list."""
        spans = self.spans
        name = self.names
        child_time: dict[int, float] = {}
        for k in range(first, last):
            fid, start, end, parent, op, value = spans[k]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        value_sum: dict[str, float] = {}
        check_under_prune: int = 0
        fallback_ops: set[int] = set()
        prune_ops: set[int] = set()
        for k in range(first, last):
            fid, start, end, parent, op, value = spans[k]
            n = name[fid]
            dur = end - start
            calls[n] = calls.get(n, 0) + 1
            self_time[n] = self_time.get(n, 0.0) + dur - child_time.get(k, 0.0)
            parent_name = name[spans[parent][0]] if parent >= 0 else ""
            if parent_name != n:
                total[n] = total.get(n, 0.0) + dur
            if n == "allocation.prune" and value is not None:
                trials, kept_pruned = value
                value_sum["prune.trials"] = value_sum.get("prune.trials", 0) + trials
                value_sum["prune.kept"] = value_sum.get("prune.kept", 0) + kept_pruned
                if parent_name == "allocation.allocate":
                    prune_ops.add(op)
            elif value is not None:
                value_sum[n] = value_sum.get(n, 0) + value
            if n == "identifiability.check_with_excitations":
                if parent_name == "allocation.prune":
                    check_under_prune += 1
                elif parent_name == "allocation.allocate":
                    fallback_ops.add(op)

        present = set(self.names)
        out: dict[str, float] = {}

        def put(metric: str, fns: tuple[str, ...], value) -> None:
            if all(f in present for f in fns):
                out[metric] = value

        def s(*fns: str) -> float:
            return sum(total.get(f, 0.0) for f in fns)

        def c(*fns: str) -> int:
            return sum(calls.get(f, 0) for f in fns)

        op_time = s("cli.main")
        put("cli.main.self_s", ("cli.main",), self_time.get("cli.main", 0.0))
        for f in ("modelfile.parse_model", "model.validate", "model.build_extended_graph",
                  "graph.max_vertex_disjoint_paths", "pseudotree.algorithm1_merge",
                  "pseudotree.char_matrix", "pseudotree.reduce", "allocation.prune"):
            put(f + ".s", (f,), s(f))
            put(f + ".calls", (f,), c(f))
        put("graph.paths_found", ("graph.max_vertex_disjoint_paths",),
            value_sum.get("graph.max_vertex_disjoint_paths", 0))
        checks = ("identifiability.check_generic_identifiability",
                  "identifiability.check_with_excitations")
        put("identifiability.check.s", checks, s(*checks))
        put("identifiability.check.calls", checks, c(*checks))
        put("identifiability.excitation_bounds.s", ("identifiability.excitation_bounds",),
            s("identifiability.excitation_bounds"))
        put("pseudotree.algorithm1_merge.self_s", ("pseudotree.algorithm1_merge",),
            self_time.get("pseudotree.algorithm1_merge", 0.0))
        put("pseudotree.is_mergeable.calls", ("pseudotree.is_mergeable",), c("pseudotree.is_mergeable"))
        put("pseudotree.is_mergeable.hit_ratio", ("pseudotree.is_mergeable",),
            value_sum.get("pseudotree.is_mergeable", 0) / max(1, c("pseudotree.is_mergeable")))
        put("pseudotree.merge_trees.calls", ("pseudotree.merge_trees",), c("pseudotree.merge_trees"))
        put("pseudotree.trees_initial", ("pseudotree.initial_covering",),
            value_sum.get("pseudotree.initial_covering", 0))
        put("pseudotree.trees_final", ("pseudotree.algorithm1_merge",),
            value_sum.get("pseudotree.algorithm1_merge", 0))
        prunes = c("allocation.prune")
        rollbacks = check_under_prune - prunes
        put("allocation.prune.trials", ("allocation.prune",), value_sum.get("prune.trials", 0))
        put("allocation.prune.removed", ("allocation.prune",), value_sum.get("prune.kept", 0) + rollbacks)
        put("allocation.prune.rollbacks", ("allocation.prune", *checks), rollbacks)
        put("allocation.fallback_ops", ("allocation.allocate", "allocation.prune", *checks),
            len(fallback_ops & prune_ops))
        put("dual.select_measurements.s", ("dual.select_measurements",), s("dual.select_measurements"))
        put("dual.measurement_bounds.s", ("dual.measurement_bounds",), s("dual.measurement_bounds"))
        for layer in LAYERS:
            own = sum(v for f, v in self_time.items() if f.split(".")[0] == layer)
            out[f"share.{layer}"] = own / op_time if op_time else 0.0
        return out
