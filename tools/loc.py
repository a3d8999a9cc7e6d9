"""Line counts of the package, the figure the line budget is kept in.

Usage, from the root of the repository:

    python3 tools/loc.py [DIR]

For each module under DIR (default `src/spincalc`), and in total, it
prints the lines, the docstring lines and the rest.  A docstring is the
string literal that opens the body of a module, class or function, as
`ast.get_docstring` finds it; every line of it counts, its quotes
included.  Any other string literal is code.

Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> int:
    """The number of lines the docstrings of `source` span."""
    lines = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines += doc.end_lineno - doc.lineno + 1
    return lines


def count(path: Path) -> tuple[int, int]:
    """(lines, docstring lines) of the module at `path`."""
    source = path.read_text()
    return len(source.splitlines()), docstring_lines(source)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/spincalc")
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'doc':>7}{'rest':>7}")
    for name, lines, doc in rows:
        print(f"{name:<16}{lines:>7}{doc:>7}{lines - doc:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
