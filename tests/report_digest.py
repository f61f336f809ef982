"""Two SHA-256 lines over benchmark-workload runs, for byte checks.

    python3 tests/report_digest.py [--src DIR] [SEED ...]

Builds each perfbench workload at each seed (default 1 2) with
perfbench/workloads.py, writes its model files to a temporary directory and
runs every op in this process through dynetid.cli.main with --out. The
first line gives the op count and a SHA-256 over (workload, seed, op index,
exit code, report bytes, stdout, stderr), with the temporary directory
masked.

The second line covers malformed input, which no workload op reaches: at
each seed it breaks one field of MALFORMED_PER_SEED workload model files,
drawn with tests/malformed.py, runs `validate` on each and hashes (seed,
index, exit code, stdout, stderr) the same way. It pins the bytes of the
parser's error messages.

Two trees with the same lines gave the same bytes on every run, so compare
the lines of a change against its parent's (--src picks the dynetid
sources), or the lines of one tree under two PYTHONHASHSEED values.

Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MASK = b"<tmp>"
MALFORMED_PER_SEED = 100


def _field(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


def digest(src: Path, seeds: list[int]) -> list[str]:
    sys.path[:0] = [str(src), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import malformed
    import workloads
    from dynetid import cli

    with tempfile.TemporaryDirectory() as tmp:
        tmp_bytes = tmp.encode()

        def run(argv: list[str]) -> tuple[int, bytes, bytes]:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            return code, stdout.getvalue().encode(), stderr.getvalue().encode()

        def record(h, *fields: bytes) -> None:
            for data in fields:
                _field(h, data.replace(tmp_bytes, MASK))

        ops = hashlib.sha256()
        count = 0
        pools: dict[int, list] = {seed: [] for seed in seeds}
        for name in workloads.WORKLOADS:
            for seed in seeds:
                w = workloads.build(name, seed)
                pools[seed].extend(w.models.values())
                work = Path(tmp, f"{name}-{seed}")
                work.mkdir()
                for model in w.models.values():
                    (work / f"{model.name}.json").write_bytes(workloads.encode(model.doc))
                for k, op in enumerate(w.ops):
                    out = work / f"op{k:04d}.out.json"
                    argv = [op.command, str(work / f"{op.model}.json"), "--out", str(out)]
                    code, stdout, stderr = run(argv)
                    report = out.read_bytes() if out.exists() else b""
                    record(ops, f"{name}\0{seed}\0{k}\0{code}".encode(), report, stdout, stderr)
                    count += 1

        bad = hashlib.sha256()
        path = Path(tmp, "malformed.json")
        for seed in seeds:
            rng = random.Random(f"malformed/{seed}")
            for k in range(MALFORMED_PER_SEED):
                doc = json.loads(workloads.encode(rng.choice(pools[seed]).doc))
                doc = malformed.mutate(doc, rng, rng.choice(malformed.kinds_of(doc)))
                path.write_bytes(workloads.encode(doc))
                code, stdout, stderr = run(["validate", str(path)])
                record(bad, f"{seed}\0{k}\0{code}".encode(), stdout, stderr)

    return [
        f"{count} ops sha256 {ops.hexdigest()}",
        f"{MALFORMED_PER_SEED * len(seeds)} malformed sha256 {bad.hexdigest()}",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the dynetid package")
    args = parser.parse_args(argv)
    for line in digest(args.src.resolve(), args.seeds):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
