"""Every import in the package's modules is used by the module that makes it.

Read with the stdlib ``ast`` module only: a name bound by ``import`` or
``from ... import`` (``from __future__`` aside) must appear as a name
somewhere in the same module, annotations included.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qchoice"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, each as ``name (line N)``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import math\n", ["math (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nx: np.ndarray\n", []),
    ("from . import _checks, errors\n_checks.real\n", ["errors (line 1)"]),
    ("from __future__ import annotations\n", []),
])
def test_the_check_finds_unused_names(source, unused):
    assert unused_imports(source) == unused
