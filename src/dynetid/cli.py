"""Command-line front end.

Reports are fully deterministic: no timestamps, no absolute paths, stable
key order, so repeated runs on the same input are byte-identical. All
diagnostics go to stderr; the report goes to stdout or --out.

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


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
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


_HANDLERS = {
    "check": _cmd_check,
    "cover": _cmd_cover,
    "allocate": _cmd_allocate,
    "allocate-measurements": _cmd_allocate_measurements,
    "bounds": _cmd_bounds,
    "oracle-compare": _cmd_oracle_compare,
}


def _run(args: argparse.Namespace, m: ModelSet) -> tuple[dict, int]:
    """Validate the model once, then run the command on it.

    validate reads only the rules, so it never builds the extended graph.
    Any other command that meets an invalid model, including one outside
    the measurement-selection setting, reports the violations instead.
    """
    if args.command == "validate":
        violations = validate(m).violations
    else:
        try:
            return _HANDLERS[args.command](build_extended_graph(m), args)
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="path to a model JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    common(sub.add_parser("validate", help="check the structural rules"))
    common(sub.add_parser("check", help="decide generic identifiability"))
    cover = sub.add_parser("cover", help="compute a disjoint pseudotree covering")
    common(cover)
    cover.add_argument("--emit-dot", default=None, help="also write a colored DOT file")
    common(sub.add_parser("allocate", help="choose excitation vertices"))
    common(sub.add_parser("allocate-measurements", help="choose measured vertices (p = 0)"))
    common(sub.add_parser("bounds", help="report excitation count bounds"))
    oracle = sub.add_parser("oracle-compare", help="cross-check against brute force")
    common(oracle)
    oracle.add_argument("--budget", type=int, default=7, help="max vertices for the oracle")
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
