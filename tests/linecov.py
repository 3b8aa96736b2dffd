"""Statements of ``src/speclab`` that a pytest run never executes.

``coverage`` is not a dependency, so this traces line events itself: it starts
``sys.settrace`` (and ``threading.settrace``), answering only frames whose
code lives in ``src/speclab``, runs ``pytest.main`` in this process, and then
prints each statement no traced line belongs to as ``file:line source``.
Docstrings, ``def``, ``class``, imports, ``global`` and the ``try:`` line are
not listed, since none of them runs as a line of its own; a compound
statement counts by its header, a simple one by any of its lines.

Only this process is traced. Tests that start a subprocess, such as the
import-boundary tests and ``tests/coldstart.py``, run code that is not seen,
so a statement that only they reach is listed too.

Arguments go to pytest unchanged. From the root of the checkout:

    python tests/linecov.py                      # the whole suite
    python tests/linecov.py tests/test_graph.py  # one file
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "speclab"

# statements that compile to no line event of their own
_SILENT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal, ast.Try)


def statements(path: Path) -> dict[int, range]:
    """First line of each listed statement of a module -> the lines that show it ran."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, _SILENT):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or a bare constant
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return found


def main(args: list[str]) -> int:
    prefix, executed, inside = str(PACKAGE) + "/", set(), {}

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code not in inside:
            inside[code] = code.co_filename.startswith(prefix)
        if inside[code]:
            executed.add((code.co_filename, frame.f_lineno))
            return local
        return None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, span in sorted(statements(path).items()):
            if not any((str(path), line) in executed for line in span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first} {lines[first - 1].strip()}")
    print(f"{missed} statements never executed", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
