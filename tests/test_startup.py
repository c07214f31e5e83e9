"""Startup: ``import qchoice.cli``, ``predict`` and ``attraction-set`` load no
numpy, and the commands that need it (``simulate``, ``verify``) load it on
demand.  Each case runs in a fresh interpreter, since this test process
has numpy loaded already."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

GENERATED = """\
name: generated
prospects:
  - id: a
    utility: 3
  - id: b
    utility: 5
  - id: c
    utility: 1.5
attractiveness_rank: [c, a, b]
empirical:
  - {id: a, frequency: 0.3}
  - {id: b, frequency: 0.5}
  - {id: c, frequency: 0.2}
config:
  alpha: 1.5
  utility_kind: power
  utility_exponent: 0.5
"""


def fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter with the package on its path."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); from qchoice.cli import main; "
    return subprocess.run(
        [sys.executable, "-c", prelude + code], cwd=cwd, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("argv", [
    None,
    ["predict", "frogs", "--format", "record"],
    ["predict", "generated.exp"],
    ["attraction-set", "1"],
    ["attraction-set", "7", "--format", "record"],
    ["attraction-set", "5000"],
], ids=["import", "predict-bundled", "predict-file", "ladder-1", "ladder-7", "ladder-5000"])
def test_no_numpy_without_need(argv, tmp_path):
    (tmp_path / "generated.exp").write_text(GENERATED, encoding="utf-8")
    run = "" if argv is None else f"assert main({argv!r}) == 0; "
    done = fresh(run + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_numpy_on_demand(tmp_path):
    code = (
        "assert 'numpy' not in sys.modules\n"
        "for argv in (['verify', 'entropy', '--samples', '1000'], ['simulate', '--sweep-steps', '3']):\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy' in sys.modules\n"
    )
    done = fresh(code, tmp_path)
    assert done.returncode == 0, done.stderr
    assert "suite entropy:" in done.stdout and "-> PASS" in done.stdout
    assert "decoherence sweep" in done.stdout
