"""Tests of the benchmark itself: seeded inputs, the checker, the tracer."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dynetid import cli  # noqa: E402


def _files(w: workloads.Workload) -> dict[str, bytes]:
    return {m.name: workloads.encode(m.doc) for m in w.models.values()}


def test_same_seed_gives_same_file_bytes():
    for name in workloads.WORKLOADS:
        first = _files(workloads.build(name, 7))
        assert first == _files(workloads.build(name, 7)), name
        assert first != _files(workloads.build(name, 8)), name


def _run_op(tmp_path: Path, op: workloads.Op, model: workloads.Model):
    path = tmp_path / f"{model.name}.json"
    data = workloads.encode(model.doc)
    path.write_bytes(data)
    out = tmp_path / f"{model.name}.{op.command}.out.json"
    code = cli.main([op.command, str(path), "--out", str(out)])
    return data, code, json.loads(out.read_bytes())


def _diamond(excited: list[int]) -> workloads.Model:
    # Vertex 4 needs two disjoint paths into {2, 3}; 1 has no in-edges, so
    # every identifying excitation set holds 1 and one of 2 or 3.
    edges = [(1, 2), (1, 3), (2, 4), (3, 4)]
    return workloads.Model("diamond", workloads._doc(4, edges, excited=excited))


def test_checker_flags_a_dropped_excited_vertex(tmp_path):
    model = _diamond([])
    op = workloads.Op("allocate", model.name, (0,))
    data, code, report = _run_op(tmp_path, op, model)
    checker = reference.Checker()
    assert checker.check(op, model, data, code, json.dumps(report).encode()) == []
    assert len(report["result"]["excited"]) == 2
    for dropped in report["result"]["excited"]:
        bad = json.loads(json.dumps(report))
        bad["result"]["excited"].remove(dropped)
        problems = reference.Checker().check(op, model, data, code, json.dumps(bad).encode())
        assert any("unidentified" in p for p in problems), dropped


def test_checker_flags_achieved_off_by_one(tmp_path):
    model = _diamond([1, 2])
    op = workloads.Op("check", model.name, (0, 3))
    data, code, report = _run_op(tmp_path, op, model)
    assert reference.Checker().check(op, model, data, code, json.dumps(report).encode()) == []
    for k in range(len(report["result"]["per_vertex"])):
        bad = json.loads(json.dumps(report))
        bad["result"]["per_vertex"][k]["achieved"] += 1
        problems = reference.Checker().check(op, model, data, code, json.dumps(bad).encode())
        assert any(f"vertex {k + 1}:" in p for p in problems), k


def test_reference_flow_matches_exhaustive_packing():
    from dynetid.graph import DiGraph
    from dynetid.oracle import brute_disjoint_paths

    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 6)
        edges = workloads._random_edges(rng, n, rng.randint(0, min(10, n * (n - 1))))
        sources = rng.sample(range(1, n + 1), rng.randint(0, n))
        targets = rng.sample(range(1, n + 1), rng.randint(1, n))
        succ: dict[int, list[int]] = {}
        for t, h in edges:
            succ.setdefault(t, []).append(h)
        got = reference.FlowNet(n, succ, sources).count(targets)
        g = DiGraph.of(range(1, n + 1), edges)
        assert got == brute_disjoint_paths(g, sources, targets), (edges, sources, targets)


def test_traced_run_changes_no_report_byte(tmp_path):
    w = workloads.build("batch-small", 1)
    w.ops = w.ops[:60]
    files = _files(w)
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_bytes(data)
    h = run.Harness(w, tmp_path, files)
    plain = h.run_pass()
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = h.run_pass(tr)
    finally:
        tr.uninstall()
    assert not hasattr(cli.main, "__wrapped__")
    assert tr.absent == []
    assert all(plain["reports"])
    # Every op is scaled once, by the slowdown timed around its chunk.
    assert len(plain["lat"]) == len(plain["raw"]) == len(w.ops)
    assert all(x > 0 for x in plain["lat"]) and plain["slowdown"] > 0
    assert traced["outcomes"] == plain["outcomes"]
    assert traced["differs"] == []
    metrics = tr.layer_metrics(0, len(tr.spans))
    assert metrics["cli.main.self_s"] > 0
    assert metrics["graph.max_vertex_disjoint_paths.calls"] > 0
    assert metrics["pseudotree.trees_final"] <= metrics["pseudotree.trees_initial"]
    assert abs(sum(v for k, v in metrics.items() if k.startswith("share.")) - 1) < 1e-6
