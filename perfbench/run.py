"""Benchmark of the ``qchoice`` command line, run in process through ``main(argv)``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload decoy-corpus --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
replay and prints the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with
provenance and every failure, goes to ``.bench_work/``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORK = Path(".bench_work")
#: Fewest fresh-interpreter imports behind one setup_s median.
SETUP_SPAWNS = 7
IMPORT_SNIPPET = "import sys; sys.path.insert(0, 'src'); import qchoice.cli"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed passes repeat until this is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> dict[str, str]:
    # Before numpy is imported, so one thread does the BLAS work and the
    # numbers measure the program rather than the scheduler.
    pins = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    os.environ.update(pins)
    return pins


def _setup_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing ``qchoice.cli``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET], cwd=root, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() or None


def _provenance(root: Path, args, pins: dict[str, str]) -> dict:
    import numpy
    import yaml

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_pin": pins,
        "load": "closed loop, one client, in process",
    }


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _run_defects(runner, workload, judge_fn) -> dict[str, str | None]:
    """Run the known-defect inputs once; map each shape to its failure, or None once fixed."""
    return {
        command.spec["shape"]: judge_fn(command, runner.run(command.argv))
        for command in workload.known_defects
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qchoice" / "cli.py").is_file():
        print("error: run from the root of a qchoice checkout (src/qchoice/cli.py not found)", file=sys.stderr)
        return 2
    pins = _pin_threads()
    sys.path.insert(0, str(root / "src"))

    import workloads
    from harness import Judge, Runner, judge, run_pass
    from qchoice.cli import main as cli_main

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    provenance = _provenance(root, args, pins)
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(cli_main)
        verdicts = Judge()
        commands = workload.commands

        if args.trace:
            import replay

        warm = run_pass(runner, commands, verdicts)
        untraced, traced, tracers, setup = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            untraced.append(run_pass(runner, commands, verdicts))
            if args.trace:
                tracer = replay.Tracer()
                traced.append(run_pass(runner, commands, verdicts, after=lambda i, c, o, t=tracer: replay.replay(t, i, c, o)))
                tracers.append(tracer)
            else:
                # Spread over the run, so that the median sees the same
                # machine conditions as the timed passes.
                setup.append(_setup_seconds(root))
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while not args.trace and len(setup) < SETUP_SPAWNS:
            setup.append(_setup_seconds(root))
        defects = _run_defects(runner, workload, judge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = untraced + traced
    attempted = sum(len(p.seconds) for p in timed)
    failures = [(n, i, reason) for n, p in enumerate([warm] + timed) for i, reason in p.failures.items()]
    failed = sum(len(p.failures) for p in timed)
    correct = not failures
    samples = [s for p in untraced for s in p.seconds]

    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
        f"commands per pass {len(commands)}; timed passes: {len(untraced)} untraced, {len(traced)} traced",
        f"provenance {json.dumps(provenance, sort_keys=True)}",
    ]
    if args.trace == 0:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "cmds_per_s": (len(samples) / sum(samples), "1/s"),
            "cmd_p50_ms": (_percentile(samples, 50) * 1e3, "ms"),
            "cmd_p90_ms": (_percentile(samples, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        lines.append(f"latency samples {len(samples)} ({len(untraced)} passes x {len(commands)} commands)")
        lines.append(f"setup_s over {len(setup)} spawns: {', '.join(f'{s:.4f}' for s in setup)}")
    else:
        metrics = _layer_metrics(tracers, untraced, traced, defects)
    lines += [f"  {name:<30} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  {'failed_ratio':<30} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    for shape, reason in defects.items():
        lines.append(f"known defect {shape}: {'fails: ' + reason if reason else 'handled'}")
    for n, i, reason in failures[:20]:
        where = "warm-up" if n == 0 else f"pass {n}"
        lines.append(f"FAILED {where} command {i} [{commands[i].label}] {' '.join(commands[i].argv)}: {reason}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    detail = dict(
        result, provenance=provenance, failed_ratio=failed / attempted,
        known_defects=defects, failures=[list(f) for f in failures],
        commands_per_pass=len(commands), latency_samples=len(samples), setup_spawns_s=setup,
        pass_seconds=[p.seconds for p in untraced],
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if tracers:
        replay.write_spans(tracers, WORK / f"spans-{args.workload}.jsonl")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _layer_metrics(tracers, untraced, traced, defects) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, averaged over the traced passes."""
    import replay

    per_pass = [replay.span_metrics(t) for t in tracers]
    mean = {name: statistics.fmean(p[name] for p in per_pass) for name in per_pass[0]}
    untraced_s = statistics.fmean(sum(p.seconds) for p in untraced)
    traced_s = statistics.fmean(sum(p.seconds) for p in traced)
    metrics: dict[str, tuple[float, str]] = {}
    for name in replay.SPAN_TOTALS.keys() | replay.SPAN_SELF.keys():
        metrics[name] = (mean[name], "s")
    for name in replay.COUNTS:
        metrics[name] = (mean[name], "count")
    metrics["decision.clamped_ratio"] = (mean["decision.clamped_ratio"], "ratio")
    metrics["attraction.mc_samples_per_s"] = (mean["attraction.mc_samples_per_s"], "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1, "ratio")
    # Replayed top-level work is cli.main minus its self time.
    metrics["trace.replayed_ratio"] = (1 - mean["cli.self_s"] / mean["cli.main_s"], "ratio")
    metrics["cli.known_defects_failed"] = (sum(r is not None for r in defects.values()), "count")
    return dict(sorted(metrics.items()))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a crash of the benchmark prints no result line
        import traceback

        traceback.print_exc()
        sys.exit(1)
