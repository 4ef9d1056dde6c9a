"""The library reads no process environment: only cli.py reads os.environ,
and nothing writes it, so no run can change a later run's state."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "difftower"

ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
WRITERS = {"pop", "popitem", "clear", "update", "setdefault"}


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def env_uses(source: str) -> list:
    """Lines that name os.environ or an os environment function."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                a.name in ENV_NAMES for a in node.names):
            out.append(node.lineno)
    return sorted(out)


def env_writes(source: str) -> list:
    """Lines that assign to, delete from or mutate os.environ, or call
    os.putenv/os.unsetenv."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = node.targets if hasattr(node, "targets") else [node.target]
            if any(_is_environ(t) or (isinstance(t, ast.Subscript)
                                      and _is_environ(t.value))
                   for t in targets):
                out.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            if (f.attr in WRITERS and _is_environ(f.value)) or (
                    f.attr in ("putenv", "unsetenv")
                    and isinstance(f.value, ast.Name) and f.value.id == "os"):
                out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_library_reads_no_environment(path):
    assert env_uses(path.read_text(encoding="utf-8")) == []


def test_cli_only_reads_the_environment():
    assert env_writes((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_checker_flags_environment_access():
    source = ("import os\n"
              "from os import getenv\n"
              "a = os.environ.get('X')\n"
              "os.environ['X'] = '1'\n"
              "os.environ.pop('X', None)\n"
              "del os.environ['X']\n"
              "os.putenv('X', '1')\n"
              "b = os.getcwd()\n")
    assert env_uses(source) == [2, 3, 4, 5, 6, 7]
    assert env_writes(source) == [4, 5, 6, 7]
