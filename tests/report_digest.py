"""One SHA-256 over every benchmark workload's reports, for byte checks.

    python3 tests/report_digest.py [--src DIR] [SEED ...]

Builds each perfbench workload at each seed (default 1 2) with
perfbench/workloads.py, writes its model files to a temporary directory and
runs every op in this process through dynetid.cli.main with --out. It
prints one line: the op count and a SHA-256 over (workload, seed, op index,
exit code, report bytes, stdout, stderr), with the temporary directory
masked. Two trees with the same line gave the same bytes on every op, so
compare the line of a change against its parent's (--src picks the
dynetid sources), or the line of one tree under two PYTHONHASHSEED values.

Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MASK = b"<tmp>"


def _field(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


def digest(src: Path, seeds: list[int]) -> tuple[int, str]:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads
    from dynetid import cli

    h = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp_bytes = tmp.encode()
        for name in workloads.WORKLOADS:
            for seed in seeds:
                w = workloads.build(name, seed)
                work = Path(tmp, f"{name}-{seed}")
                work.mkdir()
                for model in w.models.values():
                    (work / f"{model.name}.json").write_bytes(workloads.encode(model.doc))
                for k, op in enumerate(w.ops):
                    out = work / f"op{k:04d}.out.json"
                    argv = [op.command, str(work / f"{op.model}.json"), "--out", str(out)]
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = cli.main(argv)
                    report = out.read_bytes() if out.exists() else b""
                    for data in (
                        f"{name}\0{seed}\0{k}\0{code}".encode(),
                        report,
                        stdout.getvalue().encode(),
                        stderr.getvalue().encode(),
                    ):
                        _field(h, data.replace(tmp_bytes, MASK))
                    count += 1
    return count, h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the dynetid package")
    args = parser.parse_args(argv)
    count, hexdigest = digest(args.src.resolve(), args.seeds)
    print(f"{count} ops sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
