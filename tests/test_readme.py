"""The ```python examples of README.md run and print what their comments
say, and its `module.name` references name what the package holds."""
from __future__ import annotations

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import qchoice

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def run(block: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    return out.getvalue().splitlines()


def print_comments(block: str) -> list[str]:
    return [
        line.split("#", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]


def test_blocks_found():
    assert len(BLOCKS) == 2


def test_quick_start_prints_what_its_comments_say():
    printed = run(BLOCKS[0])
    assert printed == ["(Fraction(13, 20), Fraction(7, 20))", "True"]
    comments = print_comments(BLOCKS[0])
    assert len(comments) == len(printed)
    for text, comment in zip(printed, comments):
        assert comment.startswith(text), (text, comment)


def test_quantum_example_prints_a_split_that_adds_up():
    assert print_comments(BLOCKS[1]) == ["p == f + q to 1e-12, enforced"]
    (line,) = run(BLOCKS[1])
    p, f, q = (float(x) for x in line.split())
    assert abs(p - (f + q)) <= 1e-12


def test_module_references_resolve():
    modules = {m.name for m in pkgutil.iter_modules(qchoice.__path__)}
    references = [
        (module, name)
        for module, name in re.findall(r"`(\w+)\.(\w+)`", TEXT)
        if module in modules
    ]
    assert references
    missing = [
        f"{module}.{name}"
        for module, name in references
        if not hasattr(importlib.import_module(f"qchoice.{module}"), name)
    ]
    assert missing == []
