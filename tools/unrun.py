"""List the statements of src/difftower that no tier-1 test runs.

Runs pytest in this process under sys.settrace, recording line events in
src/difftower only, and prints one `path:line` per statement that has
bytecode but never ran.  A statement counts as run when any line it spans
(its header lines, for a compound statement) ran.  Code reached only in a
subprocess, such as the CLI's `__main__` guard, is not seen.  Needs only
the standard library and pytest:

    python tools/unrun.py                 # tier-1: tests/ and bench/
    python tools/unrun.py tests/test_tower.py

Extra arguments go to pytest.  Tests with time limits may fail under the
tracer; the list is printed either way.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "difftower"


def _statement_of_line(tree: ast.AST) -> dict:
    """line -> first line of the innermost statement spanning it.  Parents
    are visited before children, so a body statement claims its own lines
    and a compound statement keeps its header."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            for line in range(first, node.end_lineno + 1):
                owner[line] = node.lineno
    return owner


def _code_lines(code) -> set:
    """Every line that some instruction of code, or of a nested code
    object, is attributed to."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _trace(executed: dict):
    prefix = str(PACKAGE) + "/"

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = executed.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local
    return tracer


def main(argv) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    executed: dict = {}
    tracer = _trace(executed)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              *(argv or [str(ROOT / "tests"),
                                         str(ROOT / "bench")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        owner = _statement_of_line(ast.parse(source))
        runnable = {owner[line] for line in
                    _code_lines(compile(source, str(path), "exec"))
                    if line in owner}
        ran = {owner[line] for line in executed.get(str(path), ())
               if line in owner}
        for line in sorted(runnable - ran):
            print(f"{path.relative_to(ROOT)}:{line}")
    print(f"pytest exit status {int(status)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
