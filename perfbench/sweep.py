"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --workloads design check --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-10 --trace-seeds 1-2 --json perfbench/baseline.json

Runs `perfbench/run.py` once per (workload, seed), one process at a time,
untraced for --seeds and traced for --trace-seeds. For each metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the quartile
spread as a share of the median, and checks the traced layer shares against
what each workload is meant to stress. With --json the summary is also
written to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# The layers that should hold at least 90 % of op time on each workload.
DESIGN_SHARES = {
    "check": ("graph",),
    "design": ("pseudotree", "graph"),
    "validate-large": ("model", "modelfile", "cli"),
}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads((HERE / "_out" / f"result-{name}-seed{seed}-trace{trace}.json").read_text())
    detail["result"] = result
    print(f"{name} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                     if not k.startswith(("share.", "pseudotree.", "allocation.", "model")))[:300],
          flush=True)
    return detail


def summarise(name: str, plain: list[dict], traced: list[dict]) -> dict:
    out: dict = {
        "correct": all(r["result"]["correct"] for r in plain + traced),
        "end_to_end": {m: summary([r["end_to_end"][m] for r in plain]) for m in plain[0]["end_to_end"]},
        "ops_per_pass": plain[0]["passes"]["ops_per_pass"],
        "passes": summary([r["passes"]["untraced"] for r in plain]),
        "unscaled_wall_s": summary([r["unscaled_wall_s"] for r in plain]),
        "slowdown": summary([statistics.median(r["slowdowns"]) for r in plain]),
        "op_samples": summary([r["op_samples"] for r in plain]),
        "failed_share": summary([r["failed_share"] for r in plain]),
        "known_defects_per_pass": len(plain[0]["known_defects"]),
        "known_defects": plain[0]["known_defects"],
        "known_defect_causes": plain[0]["known_defect_causes"],
        "defects": sorted({d for r in plain + traced for d in r["defects"]}),
    }
    for key in ("excited_total", "measured_total"):
        if plain[0][key] is not None:
            out[key] = summary([r[key] for r in plain])
    tails = [r["op_tail_s"] for r in plain if r["op_tail_s"] is not None]
    if len(tails) == len(plain):
        out["op_tail_s"] = summary([t["value"] for t in tails])
        out["op_tail_s"]["percentile"] = min(t["percentile"] for t in tails)
    if traced:
        layer = {m: summary([r["per_layer"][m] for r in traced]) for m in traced[0]["per_layer"]}
        out["per_layer"] = {m: s["median"] for m, s in layer.items() if not m.startswith("share.")}
        out["layer_shares"] = {m[len("share."):]: s["median"] for m, s in layer.items() if m.startswith("share.")}
        if name in DESIGN_SHARES:
            layers = DESIGN_SHARES[name]
            share = sum(out["layer_shares"][x] for x in layers)
            out["design_share"] = {"layers": list(layers), "share": share, "meets_90_percent": share >= 0.9}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace-seeds", type=seeds, default=[])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    report: dict = {
        "command": "python3 perfbench/sweep.py " + " ".join(sys.argv[1:]),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "trace_seeds": args.trace_seeds,
        "workloads": {},
    }
    for name in args.workloads:
        plain = [run_one(name, s, args.seconds, 0) for s in args.seeds]
        traced = [run_one(name, s, args.seconds, 1) for s in args.trace_seeds]
        s = summarise(name, plain, traced)
        report["workloads"][name] = s
        for metric, st in s["end_to_end"].items():
            print(f"  {name:<15} {metric:<12} median {st['median']:.5g}  q1 {st['q1']:.5g}"
                  f"  q3 {st['q3']:.5g}  spread {100 * st['spread']:.2f}%")
        if "design_share" in s:
            d = s["design_share"]
            print(f"  {name:<15} share of {'+'.join(d['layers'])}: {100 * d['share']:.1f}%"
                  f" ({'meets' if d['meets_90_percent'] else 'MISSES'} the 90% design)")
        for line in s["defects"]:
            print(f"  {name:<15} DEFECT {line}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
