"""Command-line front end.

Reports are fully deterministic: no timestamps, no absolute paths, stable
key order, so repeated runs on the same input are byte-identical. All
diagnostics go to stderr; the report goes to stdout or --out. A JSON
report is exactly json.dumps(report, indent=2) plus a newline, written
by _indented in one pass (before Python 3.13, json.dumps runs its
pure-Python encoder whenever an indent is given).

main loads the model, runs the command and builds the report envelope
({"command", "input_digest", "result"}) in one place; every error exit is
mapped there too. A command only computes its result payload and exit code.

Exit codes: 0 ok, 1 unreadable or malformed input, 2 invalid model,
3 not identifiable, 4 no verified allocation, 5 oracle budget exceeded,
6 oracle disagreement.
"""

from __future__ import annotations

import argparse
import colorsys
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from dynetid.allocation import AllocationResult, allocate
from dynetid.dual import select_measurements
from dynetid.identifiability import check_generic_identifiability, excitation_bounds
from dynetid.model import (
    ExtendedGraph,
    InvalidModelError,
    ModelSet,
    build_extended_graph,
    extended_in_neighbors,
    validate,
)
from dynetid.modelfile import ModelFileError, input_digest, parse_model
from dynetid.oracle import (
    BudgetExceeded,
    OracleBudget,
    brute_disjoint_paths,
    brute_min_covering,
)
from dynetid.pseudotree import Covering, algorithm1_merge

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NOT_IDENTIFIABLE = 3
EXIT_UNSATISFIABLE = 4
EXIT_BUDGET = 5
EXIT_DISAGREEMENT = 6


# ---- report plumbing ----


def _render_text(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, val in value.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(value)}")
    return lines


_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _indented(value: Any, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) for an acyclic value, with each line
    break written as pad (a newline and the value's own indentation).

    Types are tested exactly: a subclass, a float, a tuple, an empty
    container or a non-str key goes to json.dumps, whose every "\\n" is a
    line break (it escapes newlines in strings), so replacing them with pad
    re-indents its output exactly. "%d" would print True as 1, so a row
    template takes only exact ints.
    """
    kind = type(value)
    write = _SCALARS.get(kind)
    if write is not None:
        return write(value)
    inner = pad + "  "
    sep = "," + inner
    if kind is list and value:
        first = value[0]
        if type(first) is dict and first and all(type(k) is str for k in first):
            keys = tuple(first)
            rows = [tuple(r.values()) for r in value if type(r) is dict and tuple(r) == keys]
            if len(rows) == len(value) and all(type(x) is int for row in rows for x in row):
                deeper = inner + "  "
                fields = f",{deeper}".join(
                    f"{encode_basestring_ascii(k).replace('%', '%%')}: %d" for k in keys
                )
                row = f"{{{deeper}{fields}{inner}}}"
                return f"[{inner}{sep.join([row % r for r in rows])}{pad}]"
        return f"[{inner}{sep.join([_indented(x, inner) for x in value])}{pad}]"
    if kind is dict and value and all(type(k) is str for k in value):
        items = sep.join([
            f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in value.items()
        ])
        return f"{{{inner}{items}{pad}}}"
    return json.dumps(value, indent=2).replace("\n", pad)


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = _indented(report) + "\n"
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args: argparse.Namespace) -> tuple[ModelSet, str]:
    with open(args.model, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"not valid UTF-8: {exc}") from exc
    return parse_model(text), input_digest(data)


# ---- DOT export ----


def _palette(n: int) -> list[str]:
    colors: list[str] = []
    seen: set[str] = set()
    for k in range(n):
        r, g, b = colorsys.hsv_to_rgb(k / n, 0.65, 0.85)
        color = "#{:02x}{:02x}{:02x}".format(round(r * 255), round(g * 255), round(b * 255))
        while color in seen:  # hue collisions after rounding
            color = "#{:06x}".format((int(color[1:], 16) + 1) % 0x1000000)
        seen.add(color)
        colors.append(color)
    return colors


def covering_to_dot(eg: ExtendedGraph, covering: Covering) -> str:
    lines = ["digraph covering {"]
    for v in eg.graph.sorted_vertices():
        if v in eg.noise_vertices:
            lines.append(f"  {v} [style=dashed];")
        else:
            lines.append(f"  {v};")
    colors = _palette(len(covering.trees))
    covered: set = set()
    for k, tree in enumerate(covering.trees):
        for a, b in sorted(tree.edges):
            lines.append(f'  {a} -> {b} [color="{colors[k]}"];')
        covered |= tree.edges
    for a, b in sorted(eg.graph.edges - covered):
        lines.append(f"  {a} -> {b} [style=dotted];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---- commands ----


class _UsageError(Exception):
    """A command-line value the parser accepts but the command cannot use."""


def _cmd_check(eg: ExtendedGraph, args: argparse.Namespace) -> tuple[dict, int]:
    rep = check_generic_identifiability(eg)
    result = {
        "identifiable": rep.identifiable,
        "per_vertex": [
            {"vertex": c.vertex, "required": c.required, "achieved": c.achieved}
            for c in rep.per_vertex
        ],
        "failing": list(rep.failing_vertices),
    }
    return result, EXIT_OK if rep.identifiable else EXIT_NOT_IDENTIFIABLE


def _covering_payload(covering: Covering) -> list[dict]:
    return [
        {
            "index": k,
            "roots": sorted(t.roots),
            "edges": [list(e) for e in sorted(t.edges)],
        }
        for k, t in enumerate(covering.trees, start=1)
    ]


def _cmd_cover(eg: ExtendedGraph, args: argparse.Namespace) -> tuple[dict, int]:
    covering, trace = algorithm1_merge(eg)
    if args.emit_dot:
        with open(args.emit_dot, "w", encoding="utf-8") as fh:
            fh.write(covering_to_dot(eg, covering))
    result = {
        "tree_count": len(covering.trees),
        "trace": [list(step) for step in trace],
        "trees": _covering_payload(covering),
    }
    return result, EXIT_OK


def _selection_payload(
    result: AllocationResult, chosen: str, count: str, noun: str
) -> tuple[dict, int]:
    """Report of either selection; chosen and count name its keys."""
    lower, upper = result.bounds
    payload = {
        chosen: list(result.excited),
        "pruned": list(result.pruned),
        "verified": result.verified,
        "bounds": {"lower": lower, "upper": upper},
        count: len(result.covering_used.trees),
    }
    if not result.verified:
        payload["reason"] = f"no {noun} set passed verification"
    return payload, EXIT_OK if result.verified else EXIT_UNSATISFIABLE


def _cmd_allocate(eg: ExtendedGraph, args: argparse.Namespace) -> tuple[dict, int]:
    return _selection_payload(allocate(eg), "excited", "tree_count", "excitation")


def _cmd_allocate_measurements(eg: ExtendedGraph, args: argparse.Namespace) -> tuple[dict, int]:
    return _selection_payload(
        select_measurements(eg), "measured", "anti_tree_count", "measurement"
    )


def _cmd_bounds(eg: ExtendedGraph, args: argparse.Namespace) -> tuple[dict, int]:
    covering, _ = algorithm1_merge(eg)
    lower, upper = excitation_bounds(eg, covering)
    result = {
        "lower": lower,
        "upper": upper,
        "covering_size": len(covering.trees),
        "noise_channels": eg.p,
    }
    return result, EXIT_OK


def _cmd_oracle_compare(eg: ExtendedGraph, args: argparse.Namespace) -> tuple[dict, int]:
    if args.budget < 1:
        raise _UsageError("--budget must be at least 1")
    budget = OracleBudget(
        max_vertices=args.budget, max_edges=max(0, 2 * args.budget - 2)
    )
    heuristic_size = len(algorithm1_merge(eg)[0].trees)
    kappa, _ = brute_min_covering(eg.graph, eg.parameterized_edges, budget)
    rep = check_generic_identifiability(eg)
    brute = [
        brute_disjoint_paths(
            eg.graph, eg.stimulated, extended_in_neighbors(eg, c.vertex), budget
        )
        if c.required
        else 0
        for c in rep.per_vertex
    ]
    checks = list(zip(rep.per_vertex, brute))
    paths = [{"vertex": c.vertex, "flow": c.achieved, "brute": b} for c, b in checks]
    paths_agree = all(c.achieved == b for c, b in checks)
    identifiable_flow = rep.identifiable
    identifiable_brute = all(b == c.required for c, b in checks)
    agree = paths_agree and kappa <= heuristic_size
    result = {
        "kappa_oracle": kappa,
        "heuristic_size": heuristic_size,
        "paths": paths,
        "paths_agree": paths_agree,
        "identifiable_flow": identifiable_flow,
        "identifiable_brute": identifiable_brute,
        "agree": agree,
    }
    return result, EXIT_OK if agree else EXIT_DISAGREEMENT


# Every subcommand in --help order: its handler and its help line.
_COMMANDS = {
    "validate": (None, "check the structural rules"),
    "check": (_cmd_check, "decide generic identifiability"),
    "cover": (_cmd_cover, "compute a disjoint pseudotree covering"),
    "allocate": (_cmd_allocate, "choose excitation vertices"),
    "allocate-measurements": (_cmd_allocate_measurements, "choose measured vertices (p = 0)"),
    "bounds": (_cmd_bounds, "report excitation count bounds"),
    "oracle-compare": (_cmd_oracle_compare, "cross-check against brute force"),
}


def _run(args: argparse.Namespace, m: ModelSet) -> tuple[dict, int]:
    """Validate the model once, then run the command on it.

    validate reads only the rules, so it has no handler and never builds
    the extended graph. Any other command that meets an invalid model,
    including one outside the measurement-selection setting, reports the
    violations instead.
    """
    handler = _COMMANDS[args.command][0]
    if handler is None:
        violations = validate(m)
    else:
        try:
            return handler(build_extended_graph(m), args)
        except InvalidModelError as exc:
            violations = exc.violations
    return {"ok": not violations, "violations": list(violations)}, (
        EXIT_INVALID if violations else EXIT_OK
    )


# ---- entry point ----


@functools.cache  # one parser per process; parse_args gives each call a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynetid",
        description="Identifiability analysis and signal allocation for dynamic networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="path to a model JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        if name == "cover":
            p.add_argument("--emit-dot", default=None, help="also write a colored DOT file")
        elif name == "oracle-compare":
            p.add_argument("--budget", type=int, default=7, help="max vertices for the oracle")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        m, digest = _load(args)
        result, code = _run(args, m)
        _emit({"command": args.command, "input_digest": digest, "result": result}, args)
    except (OSError, ModelFileError, _UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"oracle budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    return code


if __name__ == "__main__":
    raise SystemExit(main())
