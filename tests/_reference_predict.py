"""The ``predict`` path as it was before it ran on integer numerators, kept
verbatim as the reference that ``test_predict_reference.py`` compares against.

Each function below is a copy of the one of the same name in the module
named above it, from the commit before that change (``to_csv`` was a
``RunRecord`` method).  The names they call resolve here to these copies:
``_checks`` is the current module with its changed functions replaced by
their copies, and ``utility_factors_gains``/``_losses`` are the former
one-line wrappers of ``_factors``.  Everything else they call is
imported unchanged.  This file is not a test module; pytest collects none
of it.
"""
from __future__ import annotations

import dataclasses
import math
import reprlib
import types
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from numbers import Rational, Real
from typing import Sequence

import yaml

from qchoice import _checks as _current_checks
from qchoice._checks import SUM_TOL, column, number_text, python_value, total
from qchoice.attraction import quantized_attraction_set
from qchoice.decision import ChoiceSet, PredictionReport, regularity_verdict
from qchoice.errors import (
    DegenerateSetError,
    ExperimentFormatError,
    InfeasibleBoundsError,
    SignDomainError,
    ValidationError,
)
from qchoice.experiments import (
    _COLUMNS,
    _CONFIG_FIELDS,
    _MAX_LITERAL_EXPONENT,
    _PROSPECT_FIELDS,
    _TOP_LEVEL_FIELDS,
    ExperimentFile,
    _known_fields,
    _literal,
    _nonempty_text,
    _out_of_range,
)
from qchoice.utility import UtilityFunction, _power, _regime


# _checks.py
def real(value, *, what: str):
    """``value`` if it is a real number (not ``bool``) that is a finite double;
    a numpy scalar comes back as the Python number it holds (``python_value``).

    numpy is looked up in ``sys.modules``, never imported: a numpy scalar
    cannot exist before numpy is, so a command that needs no numpy (such
    as ``predict``) starts without it.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an exact value beyond the double range
        raise ValidationError(f"{what} is too large for floating point") from None
    if not finite:
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return python_value(value)


# _checks.py
def reals(values, *, what: str) -> tuple:
    """``values`` (a ``column``) as a non-empty tuple of ``real`` numbers."""
    values = tuple([real(v, what=what) for v in column(values, what=what)])
    if len(values) == 0:
        raise ValidationError(f"need at least one {what}")
    return values


# _checks.py
def positive(value, *, what: str):
    """``real(value)``, which must be > 0."""
    if (checked := real(value, what=what)) <= 0:
        raise ValidationError(f"{what} must be positive, got {value!r}")
    return checked


# _checks.py
def distribution(values, *, what: str = "utility factor", plural: str = "utility factors") -> tuple:
    """``reals(values)``, each in [0, 1] and summing to 1 with ``SUM_TOL``
    slack: utility factors or choice probabilities.  ``what`` names one
    value in the messages, ``plural`` all of them."""
    values = reals(values, what=what)
    for v in values:
        if not -SUM_TOL <= float(v) <= 1.0 + SUM_TOL:
            raise ValidationError(f"{what} {v!r} outside [0, 1]")
    check_sum(values, 1.0, what=plural)
    return values


# _checks.py
def sum_deviation(values, target) -> tuple:
    """Total of ``values`` and its distance from ``target``.

    Exact for a ``Fraction`` total, so rational inputs right on a
    tolerance are not pushed over it by float rounding.
    """
    got = total(values)
    if isinstance(got, Fraction):
        return got, abs(got - Fraction(target))
    return got, abs(float(got) - target)


# _checks.py
def check_sum(values, target, *, what: str, tol: float = SUM_TOL) -> None:
    got, deviation = sum_deviation(values, target)
    if deviation > tol:
        raise ValidationError(
            f"{what} must sum to {target} within {tol:.0e}, got {number_text(got)}"
        )


# _checks.py
def trusted(cls, **values):
    """A frozen dataclass ``cls`` built without ``__post_init__``, for values
    valid by construction; fields left out take their defaults."""
    obj = object.__new__(cls)
    for field in dataclasses.fields(cls):
        object.__setattr__(obj, field.name, values.get(field.name, field.default))
    return obj


#: ``_checks`` as the copies above call it.
_checks = types.SimpleNamespace(**{
    **vars(_current_checks),
    **{name: globals()[name] for name in ("real", "reals", "positive", "distribution", "sum_deviation", "check_sum", "trusted")},
})


# experiments.py
def _construct_exact(loader: yaml.Loader, node: yaml.Node) -> Fraction:
    try:
        value = Decimal(node.value.strip().replace("_", ""))
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():  # ``!!float inf`` gets here
        raise ExperimentFormatError(f"unsupported {_literal(node)}")
    # Checked before the Fraction exists: ``1e30000000`` would otherwise
    # cost a 30-million-digit power of ten.
    if (
        value.adjusted() > _MAX_LITERAL_EXPONENT
        or value.as_tuple().exponent < -_MAX_LITERAL_EXPONENT
    ):
        raise _out_of_range(node)
    return Fraction(value)


# experiments.py
def _require_number(value, *, field: str):
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ExperimentFormatError(f"{field} must be a number, got {reprlib.repr(value)}")
    return Fraction(value)


# experiments.py
def _settings(config: dict, source: str, **keys: str) -> dict:
    """``{name: value}`` for each ``name=key`` whose ``key`` the ``config``
    gives, its value a positive number; names left out keep their defaults."""
    settings = {}
    for name, key in keys.items():
        if key in config:
            settings[name] = _require_number(config[key], field=f"{source}: config.{key}")
            if settings[name] <= 0:
                raise ExperimentFormatError(f"{source}: config.{key} must be positive")
    return settings


# experiments.py
def _experiment(doc, source: str) -> ExperimentFile:
    if not isinstance(doc, dict):
        raise ExperimentFormatError(f"{source}: top level must be a mapping")
    _known_fields(doc, _TOP_LEVEL_FIELDS, f"{source}:")
    name = _nonempty_text(doc.get("name"), f"{source}: field 'name'")

    prospects = doc.get("prospects")
    if not isinstance(prospects, list) or len(prospects) == 0:
        raise ExperimentFormatError(
            f"{source}: field 'prospects' must be a non-empty list"
        )
    # Prospect id -> its utility or f, in file order; ``kind`` names which.
    values: dict[str, Fraction] = {}
    kind: str | None = None
    for k, entry in enumerate(prospects):
        where = f"{source}: prospects[{k}]"
        if not isinstance(entry, dict):
            raise ExperimentFormatError(f"{where} must be a mapping")
        _known_fields(entry, _PROSPECT_FIELDS, f"{where} has")
        pid = _nonempty_text(entry.get("id"), f"{where}.id")
        if pid in values:
            raise ExperimentFormatError(f"{source}: duplicate prospect id {pid!r}")
        if ("utility" in entry) == ("f" in entry):
            raise ExperimentFormatError(
                f"{where} must carry exactly one of 'utility' or 'f'"
            )
        field = "utility" if "utility" in entry else "f"
        kind = kind or field
        if field != kind:
            raise ExperimentFormatError(
                f"{source}: prospects mix 'utility' and 'f' entries; use one kind"
            )
        value = _require_number(entry[field], field=f"{where}.{field}")
        if field == "f" and not 0 <= value <= 1:
            raise ExperimentFormatError(f"{where}.f must lie in [0, 1], got {value}")
        values[pid] = value
    if kind == "f":
        total, deviation = _checks.sum_deviation(values.values(), 1)
        if deviation > _checks.SUM_TOL:
            raise ExperimentFormatError(
                f"{source}: prospect 'f' values must sum to 1, got {float(total)!r}"
            )

    rank = doc.get("attractiveness_rank")
    if not isinstance(rank, list) or sorted(str(r) for r in rank) != sorted(values):
        raise ExperimentFormatError(
            f"{source}: field 'attractiveness_rank' must list every prospect id "
            f"exactly once, got {reprlib.repr(rank)}"
        )
    rank = [str(r) for r in rank]

    empirical_doc = doc.get("empirical")
    empirical: tuple | None = None
    if empirical_doc is not None:
        if not isinstance(empirical_doc, list):
            raise ExperimentFormatError(f"{source}: field 'empirical' must be a list")
        freq_by_id: dict[str, Fraction] = {}
        for k, entry in enumerate(empirical_doc):
            where = f"{source}: empirical[{k}]"
            if not isinstance(entry, dict) or set(entry) != {"id", "frequency"}:
                raise ExperimentFormatError(
                    f"{where} must be a mapping with fields 'id' and 'frequency'"
                )
            pid = entry["id"]
            # Prospect ids are strings: nothing else matches, and a list would not hash.
            if not isinstance(pid, str) or pid not in values:
                raise ExperimentFormatError(
                    f"{where}.id {reprlib.repr(pid)} does not match any prospect"
                )
            if pid in freq_by_id:
                raise ExperimentFormatError(f"{source}: duplicate empirical id {pid!r}")
            value = _require_number(entry["frequency"], field=f"{where}.frequency")
            high = 1 + _checks.EMPIRICAL_SUM_TOL  # no larger value passes the sum check
            if not 0 <= value <= high:
                raise ExperimentFormatError(f"{where}.frequency must be >= 0 and <= {high}")
            freq_by_id[pid] = value
        missing = [pid for pid in values if pid not in freq_by_id]
        if missing:
            raise ExperimentFormatError(
                f"{source}: empirical frequencies missing for {reprlib.repr(missing)}"
            )
        total, deviation = _checks.sum_deviation(freq_by_id.values(), 1)
        if deviation > _checks.EMPIRICAL_SUM_TOL:
            raise ExperimentFormatError(
                f"{source}: empirical frequencies must sum to 1 within "
                f"{_checks.EMPIRICAL_SUM_TOL}, got {float(total)!r}"
            )
        empirical = tuple(freq_by_id[pid] for pid in values)

    settings = {}  # ``ExperimentFile`` holds the defaults
    config = doc.get("config")
    if config is not None:
        if not isinstance(config, dict):
            raise ExperimentFormatError(f"{source}: field 'config' must be a mapping")
        _known_fields(config, _CONFIG_FIELDS, f"{source}: config has")
        settings = _settings(config, source, alpha="alpha", gamma="gamma")
        util_kind = config.get("utility_kind", "linear")
        if util_kind not in ("linear", "power"):
            raise ExperimentFormatError(
                f"{source}: config.utility_kind must be 'linear' or 'power', "
                f"got {reprlib.repr(util_kind)}"
            )
        if util_kind == "power":
            exponent = _settings(config, source, exponent="utility_exponent")
            settings["utility"] = UtilityFunction(**exponent)
        elif "utility_exponent" in config:
            raise ExperimentFormatError(
                f"{source}: config.utility_exponent requires utility_kind: power"
            )

    given = tuple(values.values())
    return ExperimentFile(
        name=name.strip(),
        prospect_ids=tuple(values),
        utilities=given if kind == "utility" else None,
        utility_factors=given if kind == "f" else None,
        attractiveness_rank=tuple(rank),
        empirical=empirical,
        **settings,
    )


# experiments.py
def derive_utility_factors(experiment: ExperimentFile) -> list:
    """Utility factors of an experiment: as given, or derived from utilities.

    Derivation applies the configured utility function to each raw value
    and dispatches on sign — the gains rule when all transformed
    utilities are non-negative, the losses rule when all are strictly
    negative.  Mixed signs fit neither rule and raise.
    """
    if experiment.utility_factors is not None:
        return list(experiment.utility_factors)
    transformed = [experiment.utility(u) for u in experiment.utilities]
    if all(u >= 0 for u in transformed):
        return utility_factors_gains(transformed, experiment.alpha)
    if all(u < 0 for u in transformed):
        return utility_factors_losses(transformed, experiment.gamma)
    raise SignDomainError(
        f"experiment {experiment.name!r} mixes gain and loss utilities; "
        "split it into sign-homogeneous prospect sets"
    )


# utility.py
def _factors(utilities: Sequence, exponent: Real, *, gains: bool) -> list:
    """Both factor rules: ``|U_n| ** e`` over its total, ``e`` being
    ``exponent`` for gains and ``-exponent`` for losses.  A float total
    past the double range raises ``ValidationError``; a total of zero,
    which only weights that underflow floating point leave, raises
    ``DegenerateSetError``."""
    rule = "gains" if gains else "losses"
    values = _checks.reals(utilities, what="utility")
    exponent = _checks.positive(exponent, what="alpha" if gains else "gamma")
    _regime(values, gains=gains, what="rule")
    if gains and all(u == 0 for u in values):
        raise DegenerateSetError(
            "all utilities are zero; the gains rule cannot rank them"
        )
    e = exponent if gains else -exponent
    # ``abs`` also gives a zero utility the weight +0.0, never -0.0.
    weights = [_power(abs(u), e, what=f"a {rule} weight") for u in values]
    try:
        total = sum(weights)
    except OverflowError:  # a float weight plus an exact one beyond the double range
        total = math.inf
    if not isinstance(total, Rational) and not math.isfinite(total):
        raise ValidationError(f"the sum of the {rule} weights overflows floating point")
    if total == 0:
        raise DegenerateSetError(
            f"every {rule} weight underflows floating point to zero; "
            "the rule cannot rank the utilities"
        )
    return [w / total for w in weights]


def utility_factors_gains(utilities, alpha=1):
    return _factors(utilities, alpha, gains=True)


def utility_factors_losses(utilities, gamma=1):
    return _factors(utilities, gamma, gains=False)


# decision.py
def _clip_to_bounds(f: Sequence, q: list) -> tuple[list, bool]:
    """``enforce_bounds`` on checked inputs; may adjust ``q`` in place.

    The output needs no check: each value ends inside its bounds (clamped
    onto one, or tested against both in the final round), and the loop
    stops only once ``|sum(q)| <= min(RESIDUAL_EPS * N, SUM_TOL)``, or
    within ``SUM_TOL`` once every value is pinned.

    When every ``f`` and ``q`` is a ``Fraction``, the rounds run on integer
    numerators over one common denominator ``den``, which grows where a
    share is not a whole numerator, and the Fractions are built once at
    the end: the same values as ``Fraction`` arithmetic, without a
    reduction per operation.  Any other input keeps its own arithmetic.
    """
    n = len(f)
    exact = all(type(v) is Fraction for v in f) and all(type(v) is Fraction for v in q)
    den = 1
    if exact:
        numerators, den = _checks.over_lcm([*f, *q])
        f, q = numerators[:n], numerators[n:]
    lo = [-x for x in f]
    hi = [den - x for x in f]
    free = range(n)  # indices not yet pinned to a bound, in index order
    eps = min(_checks.RESIDUAL_EPS * n, _checks.SUM_TOL)

    for _ in range(n + 2):
        still_free = []
        for i in free:
            if q[i] < lo[i]:
                q[i] = lo[i]
            elif q[i] > hi[i]:
                q[i] = hi[i]
            else:
                still_free.append(i)
        free = still_free
        residual = -_checks.total(q)
        off = Fraction(residual, den) if exact else residual
        # ``f`` was accepted with its sum up to ``SUM_TOL`` off 1, so a
        # fully pinned ``q`` may miss zero by as much.
        if abs(off) <= (eps if free else _checks.SUM_TOL):
            return ([Fraction(v, den) for v in q] if exact else q), len(free) < n
        if not free:
            raise InfeasibleBoundsError(
                f"all {n} attraction values are pinned at their bounds but the "
                f"sum misses zero by {float(off)!r}"
            )
        if exact:
            # residual / (den * m) as a whole numerator: scale by m / gcd.
            scale = len(free) // math.gcd(residual, len(free))
            if scale > 1:
                den *= scale
                for values in (q, lo, hi):
                    values[:] = [v * scale for v in values]
            share = residual * scale // len(free)
        else:
            share = residual / len(free)
        for i in free:
            q[i] = q[i] + share
    raise InfeasibleBoundsError(
        "bounds enforcement did not settle; inputs violate the "
        "probability constraints in an unrecoverable way"
    )


# decision.py
def compose_probabilities(choice_set: ChoiceSet) -> PredictionReport:
    """Predict ``p = f + q`` with the quantized ladder assigned by rank.

    The most attractive prospect receives the top rung of the ladder for
    ``N`` prospects, the next one the second rung, and so on; the values
    are then clipped into their admissible ranges (zero sum preserved).

    ``choice_set`` checked ``f``, the clipping guarantees ``q`` and so
    ``p`` in [0, 1]; only ``sum(p) = 1`` is checked, as float factors at
    the ``SUM_TOL`` edge can push ``sum(f) + sum(q)`` just past it.
    """
    ladder = quantized_attraction_set(choice_set.n_prospects).values
    rung_of = {pid: ladder[k] for k, pid in enumerate(choice_set.attractiveness_rank)}
    f = choice_set.utility_factors
    q, clamped = _clip_to_bounds(f, [rung_of[pid] for pid in choice_set.prospect_ids])
    report = _checks.trusted(
        PredictionReport,
        prospect_ids=choice_set.prospect_ids,
        utility_factors=f,
        attraction_factors=tuple(q),
        clamping_applied=clamped,
    )
    _checks.check_sum(report.probabilities, 1.0, what="probabilities")
    return report


# experiments.py
def _number_fields(prefix: str, value) -> list[tuple[str, object]]:
    fields: list[tuple[str, object]] = [(prefix, float(value))]
    if isinstance(value, Fraction):
        fields.append((f"{prefix}_exact", str(value)))
    return fields


# experiments.py
def _report_columns(report: PredictionReport) -> list[tuple]:
    """``(column, values)`` for each of the ``_COLUMNS`` that ``report`` has."""
    values = [report.utility_factors, report.attraction_factors, report.probabilities]
    if report.empirical is not None:
        values += [report.empirical, report.abs_errors]
    return list(zip(_COLUMNS, values))


# experiments.py
def _report_payload(report: PredictionReport) -> dict:
    columns = _report_columns(report)
    rows = []
    for k, pid in enumerate(report.prospect_ids):
        row: dict[str, object] = {"id": pid}
        for (key, _, _), values in columns:
            row.update(_number_fields(key, values[k]))
        rows.append(row)
    payload: dict[str, object] = {
        "prospects": rows,
        "clamping_applied": report.clamping_applied,
    }
    if report.empirical is not None:
        payload["max_abs_error"] = float(report.max_abs_error)
        payload["mean_abs_error"] = float(report.mean_abs_error)
    return payload


# experiments.py
def to_csv(self) -> str:
    if self.report is None:
        raise ExperimentFormatError(
            f"command {self.command!r} produced no per-prospect table; "
            "csv output needs one (use the record format)"
        )
    columns = _report_columns(self.report)
    blanks = [""] * (len(_COLUMNS) - len(columns))
    lines = [",".join(["id", *(key for key, _, _ in _COLUMNS)])]
    for k, pid in enumerate(self.report.prospect_ids):
        lines.append(",".join([pid, *(repr(float(c[k])) for _, c in columns), *blanks]))
    return "\n".join(lines) + "\n"


# cli.py
def _fmt_number(value) -> str:
    """Decimal rendering, with the exact rational alongside when available."""
    if isinstance(value, Fraction):
        return _fmt_rational(float(value), str(value))
    return f"{float(value):.6g}"


# cli.py
def _fmt_rational(value: float, exact: str) -> str:
    """``_fmt_number`` of a Fraction, given its ``float`` and its ``str``."""
    return exact if "/" not in exact else f"{value:.6g} ({exact})"


# cli.py
def _prediction_table(exp: ExperimentFile, report: PredictionReport, digest: str, created: str) -> str:
    lines = [f"experiment: {exp.name}   [{digest[:19]}]"]
    columns = _report_columns(report)
    lines.append(f"{'prospect':<14}" + "".join(f" {head:>{w}}" for (_, head, w), _ in columns))
    for k, pid in enumerate(report.prospect_ids):
        lines.append(f"{pid:<14}" + "".join(f" {_fmt_number(c[k]):>{w}}" for (_, _, w), c in columns))
    if report.empirical is not None:
        lines.append(
            f"max |error| {_fmt_number(report.max_abs_error)}   "
            f"mean |error| {_fmt_number(report.mean_abs_error)}"
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
