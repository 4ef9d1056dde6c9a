"""Every name a difftower module imports is used in that module, and every
module imports on its own."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "difftower"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exempt |= {e.value for e in ast.walk(node.value)
                       if isinstance(e, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exempt)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from typing import List, Optional\n"
              "__all__ = ['Optional']\n"
              "def f(x: List) -> None:\n"
              "    return os.getcwd()\n")
    assert unused_imports(source) == ["system (line 2)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_alone(path):
    # a fresh interpreter, so an import cycle (ansatz and ratint import
    # each other) cannot lean on a module some earlier import loaded
    module = "difftower" if path.stem == "__init__" else f"difftower.{path.stem}"
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["ansatz", "structure", "tower"])
def test_key_layout_stays_in_ratfun(module):
    # only ratfun knows the packed exponent keys
    namespace = vars(importlib.import_module(f"difftower.{module}"))
    assert not ({"_pack", "_unit", "_MASK", "_S", "_W", "_LIMIT"}
                & namespace.keys())
