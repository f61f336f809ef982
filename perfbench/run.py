"""Seeded end-to-end benchmark of the dynetid command line, run in-process.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

Writes the workload's model files under perfbench/_work, then calls
`dynetid.cli.main([command, model, "--out", report])` over the workload's
fixed op list, one pass after another, for about --seconds seconds. Every
report is checked by perfbench/reference.py, which shares no code with the
program. The last stdout line is one JSON object: {correct, attempted,
failed, metrics}. With --trace 0 the metrics are the end-to-end ones. With
--trace 1 about a third of the time runs untraced, the rest under
perfbench/tracer.py, and the metrics are the per-layer ones plus the
tracing overhead (traced minus untraced pass time); spans are written to
perfbench/_out.

Every time is scaled to a machine of fixed speed: perfbench/calibrate.py
times a fixed pure-Python task between chunks of ops (about a tenth of the
op time), and each chunk's op times are divided by how much slower than
nominal that task ran around the chunk. The unscaled times and each pass's
median slowdown are recorded in perfbench/_out/result-*.json.

End-to-end metrics, all from untraced passes:
  setup_s      median over SETUP_REPEATS of: import dynetid afresh, generate
               and encode the workload's files (writing them is not timed:
               it is file-system bound, varies up to fivefold between runs
               on a shared host, and no change to the program can move it)
  wall_s       one pass over the op list, each op at its median over the
               run's passes (at its fastest pass on workloads.FASTEST_PASS)
  op_p50_s     the median op's latency, each op taken as for wall_s
  peak_rss_mb  ru_maxrss of this process (one workload per process)
  ok_share     ops that passed every check / ops attempted
op_tail_s, excited_total, measured_total and failed_share are printed where
the workload has them and recorded in perfbench/_out/result-*.json.

Single process, single thread, standard library only. Exits 2 without a
result when the program's sources (src/dynetid) are not next to perfbench.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# Op time whose calibration share is timed before and after each set-up:
# set-up is short, so this asks for more calibration samples than it alone would.
SETUP_CAL_S = 0.25
UNTRACED_SHARE = 0.35  # of --seconds, in a --trace 1 run
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

# Defects of the program at the commit this benchmark was written against.
# An op that fails in exactly one of these ways counts as failed (so it
# lowers ok_share) but does not make the run incorrect; any other failure does.
KNOWN_DEFECTS = {
    "deep-feedthrough-recursion": "model._has_cycle recurses once per vertex of a feedthrough"
    " chain, so validate raises RecursionError on chains deeper than the recursion limit",
    "split-dual-violations": "cli splits InvalidDualModelError's message at '; ', which also"
    " occurs inside each known-module violation, so the report lists message fragments",
}


def known_defect(op: workloads.Op, model: workloads.Model, problems: list[str]) -> str | None:
    if problems == [reference.SPLIT_VIOLATIONS] and op.command == "allocate-measurements":
        return "split-dual-violations"
    if (len(problems) == 1 and problems[0].startswith("RecursionError")
            and model.note.startswith("feedthrough chain")):
        return "deep-feedthrough-recursion"
    return None


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "ratio"
    return "count"


class Harness:
    """A workload's files on disk plus the op loop that runs them."""

    def __init__(self, workload: workloads.Workload, work: Path, files: dict[str, bytes]) -> None:
        import dynetid.cli

        self.cli = dynetid.cli
        self.w = workload
        self.files = files
        self.first: dict | None = None
        self.cal = calibrate.Calibrator()
        self.argv = []
        self.outs = []
        for k, op in enumerate(workload.ops):
            out = work / f"op{k:04d}.out.json"
            self.outs.append(out)
            self.argv.append([op.command, str(work / f"{op.model}.json"), "--out", str(out)])

    def run_pass(self, trace: tracer.Tracer | None = None) -> dict:
        """One pass over the op list: per-op latency, unscaled and scaled by
        the slowdown timed around its chunk, exit code or error, and the
        report bytes (first pass) or the ops whose exit code or bytes differ
        from the first pass (later passes)."""
        for out in self.outs:
            out.unlink(missing_ok=True)
        latencies, scaled, slowdowns, outcomes = [], [], [], []
        sink = io.StringIO()
        cal = self.cal
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            cal.slowdown(calibrate.CHUNK_S)
            chunk = 0.0
            for k, argv in enumerate(self.argv):
                if trace is not None:
                    trace.op = k
                t0 = time.perf_counter()
                try:
                    outcome = self.cli.main(argv)
                except (Exception, SystemExit) as exc:  # a crash is a result to record, not to stop on
                    outcome = f"{type(exc).__name__}: {str(exc)[:160]}"
                dt = time.perf_counter() - t0
                latencies.append(dt)
                outcomes.append(outcome)
                chunk += dt
                if chunk >= calibrate.CHUNK_S or k == len(self.argv) - 1:
                    slowdown = cal.slowdown(chunk)
                    slowdowns.append(slowdown)
                    scaled += [x / slowdown for x in latencies[len(scaled):]]
                    chunk = 0.0
            elapsed = time.perf_counter() - start
        reports = [out.read_bytes() if out.exists() else None for out in self.outs]
        p = {
            "elapsed": elapsed,
            "slowdown": statistics.median(slowdowns),
            "raw": latencies,
            "lat": scaled,
            "wall": sum(scaled),
            "outcomes": outcomes,
        }
        if self.first is None:
            p["reports"] = reports
            self.first = p
        else:
            # Keep which ops differ from the first pass, not every pass's reports,
            # so memory does not grow with the number of passes.
            first = self.first
            p["differs"] = [
                k for k, r in enumerate(reports)
                if (outcomes[k], r) != (first["outcomes"][k], first["reports"][k])
            ]
        return p

    def run_for(self, seconds: float, trace: tracer.Tracer | None = None) -> list[dict]:
        """Whole passes until the next one would overrun `seconds`; at least one."""
        passes = []
        start = time.perf_counter()
        while True:
            first_span = len(trace.spans) if trace is not None else 0
            p = self.run_pass(trace)
            if trace is not None:
                p["spans"] = (first_span, len(trace.spans))
            passes.append(p)
            typical = statistics.median(q["elapsed"] for q in passes)
            if time.perf_counter() - start + typical > seconds:
                return passes


def setup(name: str, seed: int, work: Path) -> tuple[workloads.Workload, dict[str, bytes], list[float], list[str]]:
    """Import dynetid afresh, then generate and encode the model files;
    SETUP_REPEATS times, each scaled by the slowdown timed around it. The
    bytes must repeat. Then write the files."""
    times, problems, files = [], [], None
    cal = calibrate.Calibrator()
    for _ in range(SETUP_REPEATS):
        cal.slowdown(SETUP_CAL_S)
        for mod in [m for m in sys.modules if m == "dynetid" or m.startswith("dynetid.")]:
            del sys.modules[mod]
        t0 = time.perf_counter()
        importlib.import_module("dynetid.cli")
        w = workloads.build(name, seed)
        blobs = {m.name: workloads.encode(m.doc) for m in w.models.values()}
        dt = time.perf_counter() - t0
        times.append(dt / cal.slowdown(SETUP_CAL_S))
        if files is not None and blobs != files:
            problems.append("the generator gave different bytes for the same seed")
        files = blobs
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for model_name, data in files.items():
        (work / f"{model_name}.json").write_bytes(data)
    return w, files, times, problems


def check_outputs(h: Harness, passes: list[dict]) -> tuple[reference.Checker, int, list[str], list[str]]:
    """Check every op's first-pass report with the reference checker; every
    later pass must repeat the first byte for byte. Returns (the checker,
    failing ops per pass, known-defect lines, other problem lines)."""
    checker = reference.Checker()
    first = passes[0]
    failing, known, other = 0, [], []
    for k, op in enumerate(h.w.ops):
        model = h.w.models[op.model]
        outcome, report = first["outcomes"][k], first["reports"][k]
        if isinstance(outcome, str):
            problems = [outcome]
        elif report is None:
            problems = [f"exit {outcome} without a report"]
        else:
            problems = checker.check(op, model, h.files[op.model], outcome, report)
        for n, p in enumerate(passes[1:], start=1):
            if k in p["differs"]:
                problems.append(f"pass {n}{' (traced)' if 'spans' in p else ''} differs from pass 0")
        if not problems:
            continue
        failing += 1
        line = f"op {k} {op.command} {op.model}: {'; '.join(problems)[:400]}"
        defect = known_defect(op, model, problems)
        if defect:
            known.append(f"[{defect}] {line}")
        else:
            other.append(line)
    return checker, failing, known, other


def tail(latencies: list[float]) -> tuple[float, float, int] | None:
    """Highest listed percentile with at least 10 ops beyond it: (percentile, seconds, beyond)."""
    lat = sorted(latencies)
    n = len(lat)
    for p in TAIL_PERCENTILES:
        idx = max(0, math.ceil(p / 100 * n) - 1)
        if n - idx - 1 >= 10:
            return p, lat[idx], n - idx - 1
    return None


def selection_total(h: Harness, first: dict, command: str, key: str) -> int | None:
    total, seen = 0, False
    for k, op in enumerate(h.w.ops):
        if op.command == command and first["outcomes"][k] == 0:
            total += len(json.loads(first["reports"][k])["result"][key])
            seen = True
    return total if seen else None


def run(args: argparse.Namespace, work: Path) -> int:
    w, files, setup_times, problems = setup(args.workload, args.seed, work)
    import dynetid

    if not Path(dynetid.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported dynetid from {dynetid.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    h = Harness(w, work, files)

    tr = None
    traced: list[dict] = []
    if args.trace:
        plain = h.run_for(args.seconds * UNTRACED_SHARE)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = h.run_for(args.seconds * (1 - UNTRACED_SHARE), tr)
        finally:
            tr.uninstall()
    else:
        plain = h.run_for(args.seconds)

    t0 = time.perf_counter()
    checker, failing, known, other = check_outputs(h, plain + traced)
    check_s = time.perf_counter() - t0
    other = problems + other
    n_ops = len(w.ops)
    attempted = n_ops * (len(plain) + len(traced))
    failed = failing * (len(plain) + len(traced))
    lat = [x for p in plain for x in p["lat"]]
    t = tail(lat)
    # Each op over the run's passes, after scaling for the machine's speed
    # around each chunk of ops.
    per_op = min if args.workload in workloads.FASTEST_PASS else statistics.median
    best = [per_op(p["lat"][k] for p in plain) for k in range(n_ops)]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(best),
        "op_p50_s": statistics.median(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (attempted - failed) / attempted,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced), "ops_per_pass": n_ops},
        "slowdowns": [p["slowdown"] for p in plain + traced],
        "unscaled_wall_s": statistics.median(sum(p["raw"]) for p in plain),
        "op_seconds": {"unscaled": [p["raw"] for p in plain], "scaled": [p["lat"] for p in plain]},
        "end_to_end": end_to_end,
        "op_samples": len(lat),
        "op_tail_s": None if t is None else {"value": t[1], "percentile": t[0], "beyond": t[2]},
        "excited_total": selection_total(h, plain[0], "allocate", "excited"),
        "measured_total": selection_total(h, plain[0], "allocate-measurements", "measured"),
        "failed_share": failed / attempted,
        "known_defects": known,
        "known_defect_causes": {d: cause for d, cause in KNOWN_DEFECTS.items() if any(f"[{d}]" in k for k in known)},
        "defects": other,
        "oracle_verdicts": checker.oracle_checked,
        "oracle_over_budget": checker.oracle_skipped,
        "check_s": check_s,
    }

    say = print
    say(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(plain)} untraced + {len(traced)} traced passes of {n_ops} ops")
    say(f"  setup_s        {end_to_end['setup_s']:.4f} s  (median of {SETUP_REPEATS} imports + generations)")
    say(f"  wall_s         {end_to_end['wall_s']:.4f} s  (one pass, each op's {per_op.__name__} over {len(plain)} passes;"
        f" unscaled {detail['unscaled_wall_s']:.4f} s)")
    say(f"  op_p50_s       {end_to_end['op_p50_s']:.5f} s  (median op, n={n_ops} ops x {len(plain)} passes)")
    say(f"  slowdown       {' '.join(f'{x:.2f}' for x in detail['slowdowns'])}  (calibration task vs nominal, per pass)")
    if t:
        say(f"  op_tail_s      {t[1]:.5f} s  (p{t[0]:g}, n={len(lat)}, {t[2]} ops beyond)")
    else:
        say(f"  op_tail_s      not reported: {len(lat)} ops leave no percentile with 10 beyond it")
    say(f"  peak_rss_mb    {end_to_end['peak_rss_mb']:.1f} MB")
    for name in ("excited_total", "measured_total"):
        say(f"  {name:<14} {'n/a' if detail[name] is None else detail[name]} count")
    say(f"  failed_share   {detail['failed_share']:.4f} ratio  ({failed}/{attempted})")
    say(f"  ok_share       {end_to_end['ok_share']:.4f} ratio")
    say(f"  checked        {n_ops} reports in {check_s:.2f} s; oracle verdicts {checker.oracle_checked}"
        f" ({checker.oracle_skipped} over its budget)")
    for line in known:
        say(f"  known defect   {line}")
    for line in other:
        say(f"  DEFECT         {line}")

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    if tr is None:
        metrics = end_to_end
        units = END_TO_END_UNITS
    else:
        layer = [tr.layer_metrics(*p["spans"]) for p in traced]
        metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
        metrics["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - statistics.median(
            p["wall"] for p in plain
        )
        units = {name: per_layer_unit(name) for name in metrics}
        detail["per_layer"] = metrics
        detail["absent"] = tr.absent
        tr.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        say("  per-layer (median of traced passes):")
        for name, value in metrics.items():
            say(f"    {name:<40} {value:.6g} {units[name]}")
        for name in tr.absent:
            say(f"    {name:<40} absent")
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": not other,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dynetid" / "cli.py").is_file():
        print(f"error: the program's sources are missing: {SRC / 'dynetid'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
