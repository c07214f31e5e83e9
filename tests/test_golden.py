"""Every invocation of ``tests/golden/manifest.json`` prints what it stores.

The manifest is written by ``tools/golden.py --write``; the demos' stdout
is checked in ``test_demos.py``, which already runs them.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_SPEC = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

MANIFEST = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
INVOCATIONS = [entry for entry in MANIFEST["entries"] if "argv" in entry]


def test_written_under_these_versions():
    assert golden.versions() == MANIFEST["versions"], (
        f"manifest written under {MANIFEST['versions']}, running under {golden.versions()}"
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The ``decoy-corpus`` files, and the masked argv of every invocation."""
    path = tmp_path_factory.mktemp("golden")
    return path, [[golden.mask(a, path) for a in argv] for argv in golden.invocations(path)]


def test_invocations_are_the_manifests(workdir):
    assert workdir[1] == [entry["argv"] for entry in INVOCATIONS]


@pytest.mark.parametrize("entry", INVOCATIONS, ids=lambda entry: " ".join(entry["argv"]))
def test_invocation_output_unchanged(entry, workdir):
    path = workdir[0]
    argv = [a.replace(golden.WORKDIR, str(path)) for a in entry["argv"]]
    assert golden.run_cli(argv, path) == entry
