"""Command line for predictions, attraction ladders, self-checks and sweeps.

Exit codes: 0 on success, 1 on validation or parse errors (including
usage errors), 2 when a verification suite runs but misses its target.
"""
from __future__ import annotations

import datetime as _dt
import math
from pathlib import Path
from typing import Callable

import click

from . import _checks
from .attraction import _ladder, gap_and_top
from .decision import PredictionReport, regularity_verdict
from .errors import ExperimentFormatError, QChoiceError, ValidationError, VerificationFailure
from .experiments import (
    ExperimentFile,
    RunRecord,
    _report_columns,
    bundled_experiment_text,
    input_digest,
    list_bundled_experiments,
    parse_experiment,
    read_experiment_text,
    run_prediction,
)

#: Most prospects ``attraction-set`` builds a ladder for: the record of
#: 10**6 takes 1.4 to 2.1 s and a 250 MB peak on a 2-CPU container, and
#: both grow linearly in N.
MAX_PROSPECTS = 1_000_000
#: Most damping levels one ``simulate`` sweep holds: the record of 10,000 levels at
#: dims (64,1) takes about 3 s and a 215 MB peak on a 2-CPU container, growing linearly.
MAX_SWEEP_STEPS = 10_000
#: Most ``--samples`` each ``verify`` suite takes (the library sets no
#: bound): 4.5 to 5.9 s at each cap, with a peak under 80 MB, on a 2-CPU
#: container.  Its keys are ``verify.SUITE_NAMES``, in order, so the command
#: line names the suites without importing ``verify`` and numpy.
MAX_SAMPLES = {"quarter-law": 500_000_000, "gaps": 30_000_000, "entropy": 1_000_000, "quantum-identity": 70_000}


def _fmt_rational(value: float, exact: str | None) -> str:
    """Decimal rendering of a number given its ``float`` and, for a Fraction,
    its ``str`` (else ``None``), shown alongside when it is not whole."""
    if exact is None:
        return f"{value:.6g}"
    return exact if "/" not in exact else f"{value:.6g} ({exact})"


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")


def _emit(record: RunRecord, table: Callable[[], str], fmt: str, out: str | None) -> None:
    """Print ``record`` in ``fmt``; ``table()`` builds the text of "table"
    and is called for that format only.  The JSON is rendered once."""
    text = record.to_json() if out or fmt == "record" else None
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise QChoiceError(f"cannot write run record {out}: {exc}") from exc
    if fmt == "table":
        click.echo(table())
    elif fmt == "record":
        click.echo(text, nl=False)
    else:
        click.echo(record.to_csv(), nl=False)


def _format_option(*formats: str):
    """``--format`` over ``formats``: "table" is text for people, "record"
    the JSON run record, "csv" one row per prospect of a prediction."""
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(formats),
        default="table",
        show_default=True,
        help="stdout format; 'record' is the JSON run record",
    )


def _nonempty_out(ctx: click.Context, param: click.Parameter, out: str | None) -> str | None:
    """Refuse an empty ``--out`` while the options are read, before the
    command's work: ``Path('')`` is ``.``, so the option names no file."""
    if out == "":
        raise QChoiceError("cannot write run record: --out is empty")
    return out


_out_option = click.option(
    "--out",
    default=None,
    metavar="FILE",
    callback=_nonempty_out,
    help="also write the machine-readable run record (JSON) to this path",
)


@click.group()
def cli() -> None:
    """Choice probabilities split into utility and attraction factors."""


def _prediction_table(exp: ExperimentFile, report: PredictionReport, digest: str, created: str) -> str:
    lines = [f"experiment: {exp.name}   [{digest[:19]}]"]
    columns, summary = _report_columns(report)
    lines.append(f"{'prospect':<14}" + "".join(f" {head:>{w}}" for (_, head, w), _ in columns))
    for k, pid in enumerate(report.prospect_ids):
        lines.append(
            f"{pid:<14}" + "".join(f" {_fmt_rational(c[k], t[k]):>{w}}" for (_, _, w), (c, t) in columns)
        )
    if summary is not None:
        (high, mean), (high_text, mean_text) = summary
        lines.append(
            f"max |error| {_fmt_rational(high, high_text)}   "
            f"mean |error| {_fmt_rational(mean, mean_text)}"
        )
    check = regularity_verdict(report.utility_factors, report.probabilities)
    if check.tie:
        lines.append("regularity: tied maximum, no reversal claimed")
    elif check.reversal:
        winner = report.prospect_ids[check.favored_overall]
        runner = report.prospect_ids[check.favored_by_utility]
        lines.append(
            f"regularity violated: {winner} overtakes the utility leader {runner}"
        )
    else:
        lines.append("regularity: utility leader keeps the lead")
    if report.clamping_applied:
        lines.append("note: attraction values were clamped to stay within bounds")
    lines.append(f"run at {created}")
    return "\n".join(lines)


@cli.command()
@click.argument("experiment_file")
@_format_option("table", "record", "csv")
@_out_option
def predict(experiment_file: str, fmt: str, out: str | None) -> None:
    """Predict choice probabilities for an experiment description.

    EXPERIMENT_FILE is a path to a .exp file, or the name of a bundled
    experiment (see data files shipped with the package).
    """
    path = Path(experiment_file)
    if experiment_file and path.exists():  # ``Path('')`` is ``.``
        text = read_experiment_text(path)
        source = str(path)
    else:
        stem = experiment_file.removesuffix(".exp")
        bundled = {name.removesuffix(".exp") for name in list_bundled_experiments()}
        if stem in bundled:
            text = bundled_experiment_text(stem)
            source = f"bundled:{stem}"
        else:
            raise ExperimentFormatError(
                f"{experiment_file!r} is neither a file nor a bundled experiment "
                f"(bundled: {', '.join(sorted(bundled))})"
            )
    exp = parse_experiment(text, source=source)
    report = run_prediction(exp)
    digest = input_digest(text)
    record = RunRecord(
        command=f"predict {experiment_file}",
        input_digest=digest,
        seeds=(),
        report=report,
    )
    _emit(record, lambda: _prediction_table(exp, report, digest, _now()), fmt, out)


@cli.command("attraction-set")
@click.argument("n_prospects", type=int)
@_format_option("table", "record")
@_out_option
def attraction_set(n_prospects: int, fmt: str, out: str | None) -> None:
    """Print the quantized attraction ladder for N_PROSPECTS prospects."""
    n = _checks.count(
        n_prospects, what="prospect count", minimum=1, maximum=MAX_PROSPECTS
    )
    stats = _ladder_statistics(n)
    record = RunRecord(
        command=f"attraction-set {n}",
        input_digest=None,
        seeds=(),
        statistics=stats,
    )
    _emit(record, lambda: _ladder_table(stats), fmt, out)


def _ladder_statistics(n: int) -> dict:
    """The record of the ``n``-prospect ladder.  Each rung's float and its
    reduced text are ``float()`` and ``str()`` of its Fraction, computed
    from its integer numerator with one division and one ``gcd``; the
    ``n // 2`` rungs below zero mirror the top ones."""
    scale, den = _ladder(n)
    top = [scale * m for m in range(n - 1, -1, -2)]
    floats = [a / den for a in top]
    exact = [str(a // g) if (g := math.gcd(a, den)) == den else f"{a // g}/{den // g}" for a in top]
    values = floats + [-v for v in reversed(floats[: n // 2])]
    values_exact = exact + ["-" + t for t in reversed(exact[: n // 2])]
    delta = gap_and_top(n)[0]
    return {
        "n_prospects": n,
        "values": values,
        "values_exact": values_exact,
        "delta": float(delta),
        "delta_exact": str(delta),
        "q_max": values[0],
        "q_max_exact": values_exact[0],
    }


def _ladder_table(stats: dict) -> str:
    n = stats["n_prospects"]
    lines = [f"quantized attraction ladder for {n} prospects"]
    lines.append(f"{'rank':<6} {'value':>24}")
    for k, (value, exact) in enumerate(zip(stats["values"], stats["values_exact"]), start=1):
        lines.append(f"{k:<6} {_fmt_rational(value, exact):>24}")
    lines.append(
        f"gap {_fmt_rational(stats['delta'], stats['delta_exact'])}   "
        f"top {_fmt_rational(stats['q_max'], stats['q_max_exact'])}   "
        f"mean magnitude {'1/4' if n > 1 else '0'}"
    )
    return "\n".join(lines)


@cli.command()
@click.argument("suite", type=click.Choice(tuple(MAX_SAMPLES)))
@click.option(
    "--samples",
    type=int,
    default=None,
    help="sampling effort of the suite, at most "
    + ", ".join(f"{cap} for {name}" for name, cap in MAX_SAMPLES.items()),
)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_format_option("table", "record")
@_out_option
def verify(suite: str, samples: int | None, seed: int, fmt: str, out: str | None) -> None:
    """Run a self-check suite; exits 2 if it misses its target."""
    from . import verify as verify_mod

    if samples is not None and samples > MAX_SAMPLES[suite]:
        raise ValidationError(f"--samples must be <= {MAX_SAMPLES[suite]} for {suite}, got {samples}")
    result = verify_mod.run_suite(suite, samples=samples, seed=seed)
    verdict = "PASS" if result.passed else "FAIL"
    stats = dict(result.statistics)
    stats["passed"] = result.passed
    record = RunRecord(
        command=f"verify {suite}",
        input_digest=None,
        seeds=(seed,),
        statistics=stats,
    )
    _emit(record, lambda: f"suite {result.suite}: {result.summary} -> {verdict}", fmt, out)
    if not result.passed:
        raise VerificationFailure(f"suite {result.suite}: {result.summary}")


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--dims expects 'A,B', got {text!r}")
    try:
        n_dim, b_dim = (int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--dims expects two integers, got {text!r}") from None
    return n_dim, b_dim


@cli.command()
@click.option("--dims", default="4,3", show_default=True, help="choice,inconclusive dimensions")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option(
    "--sweep-steps",
    type=int,
    default=5,
    show_default=True,
    help=f"number of damping levels from 0 to 1 (2 to {MAX_SWEEP_STEPS})",
)
@_format_option("table", "record")
@_out_option
def simulate(dims: str, seed: int, sweep_steps: int, fmt: str, out: str | None) -> None:
    """Random strategic state: probability split under a decoherence sweep."""
    import numpy as np

    from . import quantum

    _checks.count(sweep_steps, what="--sweep-steps", minimum=2, maximum=MAX_SWEEP_STEPS)
    n_dim, b_dim = _checks.register(_parse_dims(dims))
    rng = _checks.rng(seed)
    rho = quantum.random_density_operator(n_dim * b_dim, rng)
    b = quantum.sample_inconclusive(b_dim, rng)
    levels = np.linspace(0.0, 1.0, sweep_steps)

    sweep = []
    for chunk in quantum.stacks(sweep_steps, n_dim * b_dim):
        p_raw, f_raw, _ = quantum.split(quantum.decohere_levels(rho, levels[chunk]), b, (n_dim, b_dim))
        p, f, q = quantum.normalize(p_raw, f_raw)
        columns = {"damping": levels[chunk], "p": p, "f": f, "q": q, "max_abs_q": np.abs(q).max(axis=1)}
        sweep += [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    stats = {
        "dims": [n_dim, b_dim],
        "seed": int(seed),
        "sweep_steps": int(sweep_steps),
        "sweep": sweep,
    }
    record = RunRecord(
        command=f"simulate --dims {n_dim},{b_dim} --sweep-steps {sweep_steps}",
        input_digest=None,
        seeds=(seed,),
        statistics=stats,
    )
    _emit(record, lambda: _sweep_table(stats), fmt, out)


def _sweep_table(stats: dict) -> str:
    n_dim = stats["dims"][0]
    lines = [
        f"decoherence sweep   dims=({n_dim},{stats['dims'][1]}) seed={stats['seed']}",
        f"{'damping':<10} {'p (normalized)':<{9 * n_dim + 2}} {'max |q|':>12}",
    ]
    for row in stats["sweep"]:
        p_text = " ".join(f"{x:8.5f}" for x in row["p"])
        lines.append(f"{row['damping']:<10.3f} {p_text:<{9 * n_dim + 2}} {row['max_abs_q']:12.3e}")
    lines.append("interference dies off linearly; at damping 1 only f survives")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except VerificationFailure as exc:
        click.echo(f"verification failed: {exc}", err=True)
        return 2
    except QChoiceError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
