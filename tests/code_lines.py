"""Line counts of the dynetid modules: total, docstring and code lines.

    python3 tests/code_lines.py [--src DIR]

Code lines are the non-blank lines that are neither inside a docstring (of
the module, a class or a function, found with ast) nor a comment on their
own. One row per module in DIR/dynetid (default: src next to this file's
directory), then their sums. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """(total, docstring, code) lines of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    doc = _docstring_lines(ast.parse(text))
    code = sum(
        1
        for k, line in enumerate(lines, start=1)
        if k not in doc and line.strip() and not line.lstrip().startswith("#")
    )
    return len(lines), len(doc), code


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    args = ap.parse_args()
    sums = [0, 0, 0]
    print(f"{'module':<22}{'total':>7}{'doc':>7}{'code':>7}")
    for path in sorted((args.src / "dynetid").glob("*.py")):
        row = count(path)
        sums = [a + b for a, b in zip(sums, row)]
        print(f"{path.name:<22}{row[0]:>7}{row[1]:>7}{row[2]:>7}")
    print(f"{'sum':<22}{sums[0]:>7}{sums[1]:>7}{sums[2]:>7}")


if __name__ == "__main__":
    main()
