"""No module reads the process environment, the CLI included, so a run's
output depends only on its arguments and files and no run can change a
later run's state."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "difftower"

ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_reads_no_environment(path):
    assert env_uses(path.read_text(encoding="utf-8")) == []


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
