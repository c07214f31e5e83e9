"""Alternating base/change benchmark pairs, summarised into ``BENCH_<label>.json``.

Usage, from the root of a qchoice git checkout::

    python3 tools/bench_pairs.py --base c523ce4 --label pr8 [--pairs 10] \\
        [--workload theory-checks ...]

REV is extracted with ``git archive`` under ``.bench_work/`` (local git, no
network) and removed again at the end.  Pair ``i`` runs
this tree's ``perfbench/run.py --trace 0`` with seed ``901 + i`` once in
each tree, for the ``run_seconds`` of ``BENCHMARK.json``, the working
directory set to that tree so the package comes from its ``src/``; even
pairs run the base first, odd pairs the change, so drift of the
machine's speed falls on both sides alike.

For each workload and end-to-end metric of ``BENCHMARK.json`` the file
holds the base and change medians, the base inter-quartile range, the
pairs the change won, the ratio of the medians, the metric's bound and a
verdict:

- ``unresolved``: the base runs spread wider than the bound (IQR above
  ``bound * |base median|``) and the two sides' runs overlap, so neither
  a gain nor a regression can be told from noise;
- ``regression``: the change median is worse than the base median by more
  than the bound, or the change failed a larger share of commands;
- ``gain``: the change won at least nine pairs in ten and its median is
  better by more than the base IQR;
- ``within noise``: anything else.

Beside those go, for both trees, the src line count, its count of code
lines (``code_lines``: no blank, comment or docstring line), ``len(qchoice.__all__)``,
the cold-start cost a user pays (``predict_cold_s``: the median wall time
of 15 fresh interpreters each running ``predict frogs --format record``
through ``main``, the trees alternating run by run), the benchmark's
provenance line, the outcome counts and wall time of the tier-1 suite
(``tier1``: ``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``) and of the benchmark's own tests
(``perfbench_tests``: ``python -m pytest -q perfbench/tests``), each run
once per tree after the pairs, and,
per workload, the ``trace.replay_mismatches`` and failed commands of one
traced pass (``run.py --seed 1 --seconds 5 --trace 1``): whether the
replay still reproduces what the command line printed.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIRST_SEED = 901
#: Length of the one traced pass per workload and tree.
TRACE_SECONDS = 5
#: Share of pairs the change must win for a ``gain``.
GAIN_WIN_SHARE = 0.9
#: Fresh interpreters behind each tree's ``predict_cold_s``.
COLD_RUNS = 15
COLD_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); from qchoice.cli import main; "
    "main(['predict', 'frogs', '--format', 'record'])"
)


def median(values: list[float]) -> float:
    return statistics.median(values)


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(base: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change is strictly better than the base."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    base_med, change_med = median(base), median(change)
    separated = min(change) > max(base) or max(change) < min(base)
    if iqr(base) > bound * abs(base_med) and not separated:
        return "unresolved"
    if sign * (change_med - base_med) < -bound * abs(base_med):
        return "regression"
    enough_wins = wins(base, change, better) >= math.ceil(GAIN_WIN_SHARE * len(base))
    if enough_wins and sign * (change_med - base_med) > iqr(base):
        return "gain"
    return "within noise"


def summarize(base_runs: list[dict], change_runs: list[dict], metrics: list[dict]) -> dict:
    """One workload's row from the paired ``run.py`` results, in pair order."""
    row = {}
    for spec in metrics:
        name = spec["name"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        base_med, change_med = median(base), median(change)
        row[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": base,
            "change": change,
            "base_median": base_med,
            "change_median": change_med,
            "base_iqr": iqr(base),
            "wins": wins(base, change, spec["better"]),
            "pairs": len(base),
            "ratio": change_med / base_med if base_med else None,
            "bound": spec["bound"],
            "verdict": verdict(base, change, spec["better"], spec["bound"]),
        }
    failed = {
        side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        for side, runs in (("base", base_runs), ("change", change_runs))
    }
    row["failed_ratio"] = dict(failed, verdict="regression" if failed["change"] > failed["base"] else "ok")
    return row


def _run_py(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> subprocess.CompletedProcess:
    """This checkout's ``run.py`` run in ``tree``, so the package comes from its ``src/``."""
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """``run.py``'s result line and its provenance line."""
    done = _run_py(tree, workload, seed, seconds, trace=0)
    done.check_returncode()
    lines = done.stdout.splitlines()
    provenance = next(line for line in lines if line.startswith("provenance "))
    return json.loads(lines[-1]), json.loads(provenance.removeprefix("provenance "))


def code_lines(text: str) -> int:
    """Lines of the Python source ``text`` that hold a token of code: not
    blank, not only a comment, and not part of a docstring (a string that
    opens a module, class or function body)."""
    docstrings = {
        (body[0].lineno, body[0].col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and (body := node.body) and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    }
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip and not (tok.type == tokenize.STRING and tok.start in docstrings):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def tree_facts(tree: Path) -> dict:
    """The src line count, its ``code_lines`` and the size of ``qchoice.__all__``."""
    texts = [p.read_text(encoding="utf-8") for p in (tree / "src" / "qchoice").glob("*.py")]
    src_lines = sum(len(text.splitlines()) for text in texts)
    src_code_lines = sum(map(code_lines, texts))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import qchoice; print(len(qchoice.__all__))"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return {"src_lines": src_lines, "src_code_lines": src_code_lines, "all_names": int(done.stdout)}


def cold_start(trees: dict[str, Path], runs: int = COLD_RUNS) -> dict[str, float]:
    """Per tree, the median wall seconds of ``runs`` fresh interpreters
    running ``COLD_SNIPPET`` in it; run ``i`` goes through the trees in
    order for even ``i`` and in reverse for odd ``i``."""
    times: dict[str, list[float]] = {side: [] for side in trees}
    for i in range(runs):
        for side in list(trees)[:: 1 if i % 2 == 0 else -1]:
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", COLD_SNIPPET], cwd=trees[side], check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            times[side].append(time.perf_counter() - start)
    return {side: median(t) for side, t in times.items()}


def parse_pytest_summary(output: str) -> dict:
    """Outcome counts and wall seconds from the last line of pytest's output,
    e.g. ``{"passed": 452, "warnings": 5, "seconds": 27.45}`` from
    ``452 passed, 5 warnings in 27.45s``."""
    lines = output.strip().splitlines()
    found = re.fullmatch(r"=*\s*(.*?) in ([0-9.]+)s(?: \([0-9:]+\))?\s*=*", lines[-1] if lines else "")
    if found is None:
        raise ValueError(f"no pytest summary line in {output[-200:]!r}")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", found[1])}
    return dict(counts, seconds=float(found[2]))


def parse_traced_result(output: str) -> dict:
    """``trace.replay_mismatches`` and the failed and attempted command counts
    from the last line of ``run.py --trace 1``'s output, its result line."""
    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        return {
            "replay_mismatches": result["metrics"]["trace.replay_mismatches"]["value"],
            "failed": result["failed"],
            "attempted": result["attempted"],
        }
    except (IndexError, KeyError, TypeError, ValueError):
        raise ValueError(f"no traced result line in {output[-200:]!r}") from None


def traced(tree: Path, workload: str) -> dict:
    """``parse_traced_result`` of one traced pass of ``workload`` in ``tree``."""
    return parse_traced_result(_run_py(tree, workload, 1, TRACE_SECONDS, trace=1).stdout)


def pytest_summary(tree: Path, *args: str) -> dict:
    """``parse_pytest_summary`` of ``python -m pytest -q *args`` run in ``tree``
    with ``PYTHONPATH=src``."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *args],
        cwd=tree, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH="src"),
    )
    return parse_pytest_summary(done.stdout)


def suites(tree: Path) -> dict:
    """The outcome of the tier-1 suite and of the benchmark's own tests in ``tree``."""
    return {
        "tier1": pytest_summary(tree, "--continue-on-collection-errors"),
        "perfbench_tests": pytest_summary(tree, "perfbench/tests"),
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    base_tree = ROOT / ".bench_work" / f"base-{base_rev[:12]}"
    shutil.rmtree(base_tree, ignore_errors=True)
    archive = subprocess.run(["git", "archive", base_rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(base_tree, filter="data")
    try:
        sides = {"base": base_tree, "change": ROOT}
        runs = {w: {"base": [], "change": []} for w in workloads}
        provenance = {}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for w in workloads:
                for side in order:
                    result, prov = _run(sides[side], w, FIRST_SEED + i, seconds)
                    provenance.setdefault(side, prov)
                    runs[w][side].append(result)
                    value = result["metrics"]["cmds_per_s"]["value"]
                    print(f"pair {i + 1}/{args.pairs} {w} {side}: cmds_per_s {value:.1f}", file=sys.stderr)
        cold = cold_start(sides)
        facts = {
            side: dict(
                tree_facts(tree), predict_cold_s=cold[side],
                **suites(tree), traced={w: traced(tree, w) for w in workloads},
            )
            for side, tree in sides.items()
        }
    finally:
        shutil.rmtree(base_tree)

    report = {
        "label": args.label,
        "base": base_rev,
        "change": {"head": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain", "--", "src"))},
        "pairs": args.pairs,
        "seeds": [FIRST_SEED + i for i in range(args.pairs)],
        "seconds": seconds,
        "order": "even pairs run the base first, odd pairs the change",
        "trees": {side: dict(facts[side], provenance=provenance[side]) for side in facts},
        "workloads": {
            w: summarize(runs[w]["base"], runs[w]["change"], bench["end_to_end"]) for w in workloads
        },
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for w, row in report["workloads"].items():
        for name, m in row.items():
            if name != "failed_ratio":
                print(f"{w:<14} {name:<12} {m['base_median']:>10.4g} -> {m['change_median']:<10.4g} "
                      f"wins {m['wins']}/{m['pairs']}  {m['verdict']}")
    for side, tree in report["trees"].items():
        print(f"cold predict {side}: {tree['predict_cold_s'] * 1000:.0f} ms, "
              f"src {tree['src_lines']} lines ({tree['src_code_lines']} of code), __all__ {tree['all_names']} names")
        print(f"tier-1 {side}: {tree['tier1']}")
        print(f"perfbench tests {side}: {tree['perfbench_tests']}")
        print(f"traced {side}: {tree['traced']}")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
