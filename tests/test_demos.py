"""Every script under ``demos/`` runs to completion and prints its golden stdout."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_SPEC = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)
GOLDEN = {
    entry["demo"]: entry
    for entry in json.loads(golden.MANIFEST.read_text(encoding="utf-8"))["entries"]
    if "demo" in entry
}


def test_all_demos_found():
    assert [demo.name for demo in DEMOS] == [
        "attraction_quantization.py",
        "decoy_prediction.py",
        "noninformative_priors.py",
        "quantum_interference.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    result = golden.run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert golden.stored(result.stdout) == GOLDEN[demo.name]["stdout"]
