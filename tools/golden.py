"""Golden outputs of the command line and the demos, kept in one manifest.

Usage, from the root of a qchoice checkout::

    PYTHONPATH=src python3 tools/golden.py --write

``tests/golden/manifest.json`` maps each invocation of ``qchoice`` (run in
process through ``main(argv)``) to its exit code, stdout and stderr, and
each script under ``demos/`` to its stdout.  A text under ``INLINE_LIMIT``
bytes is stored in full, so a failing test shows a diff; a longer one as
its sha256 and length.  Two things vary from run to run and are masked:
the ``run at`` timestamp of a ``predict`` table, and the directory the
``decoy-corpus`` files of ``perfbench/workloads.py`` (seed 1) are written
to.  The manifest records the Python, numpy and PyYAML versions it was
written under; ``tests/test_golden.py`` checks every entry and the
versions.  A change that means to alter an output regenerates the
manifest and names every changed invocation (``git diff`` shows them).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from qchoice.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: Texts up to this many UTF-8 bytes are stored in full.
INLINE_LIMIT = 4096
WORKDIR = "<workdir>"
DECOY_SEED = 1

_RUN_AT = re.compile(r"^run at .*$", re.M)

#: Invocations that need no generated input files.
FIXED = (
    *(
        ["predict", study, "--format", fmt]
        for study in ("microwave", "frogs")
        for fmt in ("record", "csv", "table")
    ),
    *(
        ["attraction-set", n, "--format", fmt]
        for n in ("1", "77", "5000")
        for fmt in ("record", "table")
    ),
    *(
        ["verify", suite, "--format", fmt]
        for suite in ("quarter-law", "gaps", "entropy", "quantum-identity")
        for fmt in ("record", "table")
    ),
    *(
        ["simulate", *args, "--format", fmt]
        for args in ((), ("--dims", "8,8", "--sweep-steps", "50"))
        for fmt in ("record", "table")
    ),
)


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "pyyaml": yaml.__version__}


def _workloads():
    """``perfbench/workloads.py``, which uses only the standard library."""
    spec = importlib.util.spec_from_file_location("golden_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def invocations(workdir: Path) -> list[list[str]]:
    """``FIXED``, then every distinct command of the ``decoy-corpus``
    workload, its files written to ``workdir``: the pass in order, then
    the known defects."""
    workload = _workloads().build("decoy-corpus", DECOY_SEED, workdir)
    argvs = [list(argv) for argv in FIXED]
    for command in (*workload.commands, *workload.known_defects):
        if list(command.argv) not in argvs:
            argvs.append(list(command.argv))
    return argvs


def mask(text: str, workdir: Path) -> str:
    text = text.replace(str(workdir), WORKDIR)
    return _RUN_AT.sub("run at <masked>", text)


def stored(text: str) -> dict:
    raw = text.encode("utf-8", "surrogatepass")
    if len(raw) <= INLINE_LIMIT:
        return {"text": text}
    return {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}


def run_cli(argv: list[str], workdir: Path) -> dict:
    """Exit code, stdout and stderr of ``main(argv)``, masked and stored."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return {
        "argv": [mask(a, workdir) for a in argv],
        "exit": code,
        "stdout": stored(mask(out.getvalue(), workdir)),
        "stderr": stored(mask(err.getvalue(), workdir)),
    }


def run_demo(path: Path) -> subprocess.CompletedProcess:
    """The demo run as a script, with this checkout's ``src`` on the path."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )


def collect() -> list[dict]:
    """Every entry of the manifest, in its order, from the code as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        entries = [run_cli(argv, Path(tmp)) for argv in invocations(Path(tmp))]
    for path in DEMOS:
        result = run_demo(path)
        entries.append({"demo": path.name, "exit": result.returncode, "stdout": stored(result.stdout)})
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", required=True, help=f"rewrite {MANIFEST.relative_to(ROOT)}"
    )
    parser.parse_args(argv)
    entries = collect()
    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    manifest = {"versions": versions(), "entries": entries}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
