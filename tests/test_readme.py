"""The ```python examples of README.md run and print what their comments say."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


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
