"""Experiment descriptions on disk, and deterministic run records.

An experiment file (``.exp``) is a small YAML document describing one
choice experiment::

    name: my-study
    prospects:            # either 'utility' on every entry, or 'f' on every
      - id: target        # entry -- never a mixture
        f: 0.4
      - id: competitor
        f: 0.6
    attractiveness_rank: [target, competitor]   # most attractive first
    empirical:            # optional observed frequencies, one per prospect
      - id: target
        frequency: 0.61
      - id: competitor
        frequency: 0.39
    config:               # optional; shown with the defaults
      alpha: 1
      gamma: 1
      utility_kind: linear      # or: power  (+ utility_exponent)

Numeric literals are parsed exactly — ``0.4`` becomes the rational 2/5,
not the nearest binary double — so downstream predictions on file input
are exact rational arithmetic end to end.

``RunRecord`` captures one command invocation.  Its machine-readable
forms (JSON, CSV) are byte-deterministic: the same file, flags and seed
always serialize identically, so records can be diffed; the wall-clock
timestamp appears only in the human-readable table of ``predict``.
"""
from __future__ import annotations

import hashlib
import math
import re
import reprlib
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from pathlib import Path

import yaml

from . import _checks
from .decision import (
    ChoiceSet,
    PredictionReport,
    _choice_columns,
    _frequencies,
    _scored,
    compose_probabilities,
)
from .errors import ExperimentFormatError, SignDomainError, ValidationError
from .utility import (
    LINEAR_UTILITY,
    UtilityFunction,
    utility_factors_gains,
    utility_factors_losses,
)

_TOP_LEVEL_FIELDS = {"name", "prospects", "attractiveness_rank", "empirical", "config"}
_PROSPECT_FIELDS = {"id", "utility", "f"}
_CONFIG_FIELDS = {"alpha", "gamma", "utility_kind", "utility_exponent"}
#: A report's per-prospect columns in CSV and ``predict`` table order: record
#: key, table heading and width.  The last two need ``empirical``.
_COLUMNS = (("f", "f", 16), ("q", "q", 16), ("p", "p", 16),
            ("p_exp", "observed", 12), ("abs_error", "|err|", 12))


# libyaml's scanner where PyYAML was built with it; the resolvers and
# constructors below are Python-level and run the same on either.
class _ExactNumberLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that turns YAML float literals into exact Fractions and
    refuses numeric literals beyond ``_MAX_LITERAL_EXPONENT``."""


#: Largest decimal exponent, either sign, of any digit of a numeric
#: literal.  Far outside the double range (about 1e-324 to 1e308), yet
#: every exact value within it stays cheap to build and to print.
_MAX_LITERAL_EXPONENT = 1000


def _literal(node: yaml.Node) -> str:
    return f"numeric literal {reprlib.repr(node.value)} at line {node.start_mark.line + 1}"


def _out_of_range(node: yaml.Node) -> ExperimentFormatError:
    return ExperimentFormatError(
        f"{_literal(node)} has a decimal exponent beyond ±{_MAX_LITERAL_EXPONENT}"
    )


def _construct_exact(loader: yaml.Loader, node: yaml.Node) -> Fraction:
    """``Fraction(Decimal(text))`` of a float literal's text, refused when it
    is not finite or has a digit past ``_MAX_LITERAL_EXPONENT``."""
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


def _construct_int(loader: yaml.Loader, node: yaml.Node) -> int:
    if len(node.value.strip().lstrip("+-").replace("_", "")) > _MAX_LITERAL_EXPONENT + 1:
        raise _out_of_range(node)
    return loader.construct_yaml_int(node)


_ExactNumberLoader.add_constructor("tag:yaml.org,2002:float", _construct_exact)
_ExactNumberLoader.add_constructor("tag:yaml.org,2002:int", _construct_int)
# YAML 1.2 floats that the 1.1 resolver leaves as strings: an exponent
# with no dot in the mantissa (``1e-3``, ``2E3``) or with no sign
# (``1.0e400``).  Integers, ``.inf`` and ``.nan`` keep their own rules.
_ExactNumberLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


@dataclass(frozen=True)
class ExperimentFile:
    """One parsed experiment description.

    Exactly one of ``utilities`` / ``utility_factors`` is set, matching
    which key the prospects carried.  ``empirical`` is aligned with
    ``prospect_ids`` or ``None``.  A file built by hand passes ``ChoiceSet``'s
    rules and the frequency rule, its ``name`` is a non-empty ``str`` and its
    ``alpha`` and ``gamma`` pass ``_checks.positive``; ``parse_experiment``
    builds what it checked.
    """

    name: str
    prospect_ids: tuple[str, ...]
    utilities: tuple | None
    utility_factors: tuple | None
    attractiveness_rank: tuple[str, ...]
    empirical: tuple | None = None
    alpha: Fraction = Fraction(1)
    gamma: Fraction = Fraction(1)
    utility: UtilityFunction = LINEAR_UTILITY

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValidationError(f"experiment name must be a non-empty string, got {reprlib.repr(self.name)}")
        if (self.utilities is None) == (self.utility_factors is None):
            raise ExperimentFormatError(
                "exactly one of utilities/utility_factors must be present"
            )
        kind = "utility_factors" if self.utilities is None else "utilities"
        rules = {} if self.utilities is None else {
            "check": lambda values: _checks.column(values, what="utility"), "plural": "utilities"
        }
        ids, values, rank = _choice_columns(
            self.prospect_ids, getattr(self, kind), self.attractiveness_rank, **rules
        )
        if not isinstance(self.utility, UtilityFunction):
            raise ValidationError(f"utility must be a UtilityFunction, got {reprlib.repr(self.utility)}")
        empirical = None if self.empirical is None else _frequencies(self.empirical, len(ids))
        exponents = {k: _checks.positive(getattr(self, k), what=k) for k in ("alpha", "gamma")}
        self.__dict__.update(
            prospect_ids=ids, attractiveness_rank=rank, empirical=empirical, **exponents, **{kind: values}
        )


def _require_number(value, *, field: str) -> Fraction:
    """A number of the document as a ``Fraction``: the reader builds each
    float literal as one, and an integer becomes one here."""
    if type(value) is Fraction:
        return value
    if type(value) is not int:  # ``bool`` is not a number here
        raise ExperimentFormatError(f"{field} must be a number, got {reprlib.repr(value)}")
    return Fraction(value)


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


def parse_experiment(text: str, *, source: str = "<string>") -> ExperimentFile:
    """Parse experiment YAML; errors name the offending field and line."""
    if not isinstance(text, str):
        raise ExperimentFormatError(f"{source}: experiment text must be a str, got {type(text).__name__}")
    try:
        return _experiment(_load(text, source), source)
    except RecursionError:  # ``str`` of a value nested hundreds of levels deep
        raise ExperimentFormatError(f"{source}: values are nested too deeply") from None


def _load(text: str, source: str):
    try:
        return _document(text)
    except ExperimentFormatError as exc:
        raise ExperimentFormatError(f"{source}: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            detail = f"line {mark.line + 1}: {getattr(exc, 'problem', exc)}"
        else:  # a ``ReaderError`` carries its position on a second line
            detail = " ".join(str(exc).split())
        raise ExperimentFormatError(f"{source}: invalid YAML ({detail})") from exc
    except UnicodeEncodeError as exc:  # libyaml reads UTF-8; a lone surrogate has none
        raise ExperimentFormatError(
            f"{source}: invalid YAML (position {exc.start}: {exc.reason})"
        ) from None
    except (ValueError, LookupError, AttributeError):
        # PyYAML's own constructors on an explicit tag they cannot build,
        # e.g. ``!!bool maybe`` or ``!!timestamp soon``.
        raise ExperimentFormatError(
            f"{source}: invalid YAML (a value does not fit its explicit tag)"
        ) from None


_TAG = "tag:yaml.org,2002:"
_STR, _INT, _FLOAT, _SEQ, _MAP = (_TAG + t for t in ("str", "int", "float", "seq", "map"))


def _document(text: str):
    """``yaml.load(text, Loader=_ExactNumberLoader)``.  Text with no ``&`` has
    no anchor, so no alias: it is composed once and built by ``_plain``.
    Any other text, and any fault on the way, goes to ``yaml.load`` whole,
    so aliases, rare tags and the fault reported are PyYAML's own."""
    if "&" not in text:
        loader = _ExactNumberLoader(text)
        try:
            node = loader.get_single_node()
            return None if node is None else _plain(loader, node)
        except Exception:  # ``yaml.load`` below reports it, or builds what ``_plain`` refused
            pass
        finally:
            loader.dispose()
    return yaml.load(text, Loader=_ExactNumberLoader)


def _plain(loader: yaml.Loader, node: yaml.Node):
    """``loader.construct_object(node)`` for str, int and float scalars in
    plain sequences and mappings; any other node raises ``TypeError``."""
    kind = type(node)
    if kind is yaml.ScalarNode:
        if node.tag == _STR:
            return node.value
        if node.tag == _INT:
            return _construct_int(loader, node)
        if node.tag == _FLOAT:
            return _construct_exact(loader, node)
    elif kind is yaml.SequenceNode and node.tag == _SEQ:
        return [_plain(loader, child) for child in node.value]
    elif kind is yaml.MappingNode and node.tag == _MAP:
        return {_plain(loader, k): _plain(loader, v) for k, v in node.value}
    raise TypeError(f"no plain construction for {node.tag}")


def _known_fields(mapping: dict, allowed, prefix: str) -> None:
    # Keys may be any YAML scalar (null, numbers, dates), so sort their text.
    extra = sorted(str(k) for k in mapping if k not in allowed)
    if extra:
        raise ExperimentFormatError(f"{prefix} unknown field(s) {reprlib.repr(extra)}")


def _nonempty_text(value, what: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ExperimentFormatError(f"{what} must be a non-empty string")
    return value


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
        if field == "f" and not 0 <= value.numerator <= value.denominator:
            raise ExperimentFormatError(f"{where}.f must lie in [0, 1], got {value}")
        values[pid] = value
    if kind == "f":
        total, deviation = _checks.sum_deviation(values.values(), 1)
        if deviation > _checks.SUM_TOL:
            raise ExperimentFormatError(
                f"{source}: prospect 'f' values must sum to 1, got {float(total)!r}"
            )

    rank = doc.get("attractiveness_rank")
    if (
        not isinstance(rank, list)
        or not all(isinstance(r, str) for r in rank)
        or sorted(rank) != sorted(values)
    ):
        raise ExperimentFormatError(
            f"{source}: field 'attractiveness_rank' must list every prospect id "
            f"exactly once, got {reprlib.repr(rank)}"
        )

    empirical_doc = doc.get("empirical")
    empirical: tuple | None = None
    if empirical_doc is not None:
        if not isinstance(empirical_doc, list):
            raise ExperimentFormatError(f"{source}: field 'empirical' must be a list")
        freq_by_id: dict[str, Fraction] = {}
        high = 1 + _checks.EMPIRICAL_SUM_TOL  # no larger value passes the sum check
        high_num, high_den = high.as_integer_ratio()
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
            if not 0 <= value.numerator * high_den <= high_num * value.denominator:
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
    return _checks.trusted(
        ExperimentFile,
        name=name.strip(),
        prospect_ids=tuple(values),
        utilities=given if kind == "utility" else None,
        utility_factors=given if kind == "f" else None,
        attractiveness_rank=tuple(rank),
        empirical=empirical,
        **settings,
    )


def read_experiment_text(path: str | Path) -> str:
    """Text of one ``.exp`` file; an unreadable or non-UTF-8 file raises
    ``ExperimentFormatError``."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ExperimentFormatError(f"cannot read experiment file {p}: {exc}") from exc


def list_bundled_experiments() -> list[str]:
    """Names of the experiment files shipped with the package."""
    data = resources.files(__package__).joinpath("data")
    return sorted(
        entry.name for entry in data.iterdir() if entry.name.endswith(".exp")
    )


def bundled_experiment_text(name: str) -> str:
    """Raw text of a bundled experiment (``'frogs'`` or ``'frogs.exp'``)."""
    filename = name if name.endswith(".exp") else f"{name}.exp"
    data = resources.files(__package__).joinpath("data", filename)
    try:
        return data.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError) as exc:
        raise ExperimentFormatError(
            f"no bundled experiment named {name!r}; available: "
            f"{', '.join(list_bundled_experiments())}"
        ) from exc


def bundled_experiment(name: str) -> ExperimentFile:
    return parse_experiment(bundled_experiment_text(name), source=f"bundled:{name}")


def derive_utility_factors(experiment: ExperimentFile) -> list:
    """Utility factors of an experiment: as given, or derived from utilities.

    Derivation applies the configured utility function to each raw value
    and dispatches on sign in one pass: the first transformed utility picks
    the gains rule (>= 0) or the losses rule (< 0), whose sign check finds
    any other sign.  Mixed signs fit neither rule and raise.
    """
    if not isinstance(experiment, ExperimentFile):
        raise ValidationError(f"experiment must be an ExperimentFile, got {reprlib.repr(experiment)}")
    if experiment.utility_factors is not None:
        return list(experiment.utility_factors)
    transformed = [experiment.utility(u) for u in experiment.utilities]
    gains = not transformed or transformed[0] >= 0  # the gains rule refuses an empty column
    rule = utility_factors_gains if gains else utility_factors_losses
    try:
        return rule(transformed, experiment.alpha if gains else experiment.gamma)
    except SignDomainError:
        raise SignDomainError(
            f"experiment {experiment.name!r} mixes gain and loss utilities; "
            "split it into sign-homogeneous prospect sets"
        ) from None


def run_prediction(experiment: ExperimentFile) -> PredictionReport:
    """Full pipeline for one experiment file: factors, attraction, scoring.
    The file was checked where it was built and derived factors are valid
    by construction, so the choice set and the scores are built unchecked."""
    factors = derive_utility_factors(experiment)
    choice_set = _checks.trusted(
        ChoiceSet,
        prospect_ids=experiment.prospect_ids,
        utility_factors=tuple(factors),
        attractiveness_rank=experiment.attractiveness_rank,
    )
    report = compose_probabilities(choice_set)
    if experiment.empirical is not None:
        report = _scored(report, experiment.empirical)
    return report


def input_digest(data: bytes | str) -> str:
    """Stable content digest used to tie run records to their input."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _texts(values) -> tuple[list[float], list]:
    """``float`` of each value and ``str`` of each ``Fraction`` (else ``None``)."""
    return [float(v) for v in values], [str(v) if isinstance(v, Fraction) else None for v in values]


def _report_columns(report: PredictionReport) -> tuple[list[tuple], tuple | None]:
    """``(column, (floats, texts))`` for each of the ``_COLUMNS`` that ``report``
    has (``_texts``), and the ``(floats, texts)`` of its max and mean error,
    ``None`` without ``empirical``."""
    columns, summary = [report.utility_factors, report.attraction_factors, report.probabilities], None
    if report.empirical is not None:
        columns += [report.empirical, report.abs_errors]
        summary = _texts([report.max_abs_error, report.mean_abs_error])
    return list(zip(_COLUMNS, [_texts(c) for c in columns])), summary


def _report_payload(report: PredictionReport) -> dict:
    columns, summary = _report_columns(report)
    rows = [{"id": pid} for pid in report.prospect_ids]
    for (key, _, _), (floats, texts) in columns:
        for row, value, text in zip(rows, floats, texts):
            row[key] = value
            if text is not None:
                row[f"{key}_exact"] = text
    payload: dict[str, object] = {"prospects": rows, "clamping_applied": report.clamping_applied}
    if summary is not None:
        payload["max_abs_error"], payload["mean_abs_error"] = summary[0]
    return payload


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, each ``"`` doubled, when it holds a
    comma, a quote, CR or LF (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value, pad: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, default=float)``, nested
    at indent ``pad``, byte for byte for every value a record holds (dict
    keys must be ``str``), without the pure-Python encoder ``indent`` selects."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sep.join(f"{_json_str(k)}: {_json(v, inner)}" for k, v in sorted(value.items()))
        return f"{{\n{inner}{items}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return f"[\n{inner}{_json_items(value, sep, inner)}\n{pad}]"
    return _json(float(value), pad)


def _json_items(values, sep: str, pad: str) -> str:
    """The elements of a non-empty list joined by ``sep``; sweep rows
    (``_json_rows``) and an all-``float`` list in one join.  A float list
    equal to its reversed negation, as a ladder is, renders its first half
    and middle only: the rest mirrors them (``t[1:]`` or ``"-" + t``, exact
    for non-zero floats, so zeros off the middle take the plain join)."""
    if type(values[0]) is dict:
        text = _json_rows(values, sep, pad)
        if text is not None:
            return text
    elif set(map(type, values)) == {float}:
        h = len(values) // 2
        half = values[:h]
        if h and 0.0 not in half and values[len(values) - h :] == [-v for v in reversed(half)]:
            texts = list(map(float.__repr__, values[: len(values) - h]))
            text = sep.join(texts + [t[1:] if t[0] == "-" else "-" + t for t in reversed(texts[:h])])
        else:
            text = sep.join(map(float.__repr__, values))
        if "n" not in text:  # no nan or inf: a finite repr has no "n"
            return text
    return sep.join(_json(v, pad) for v in values)


def _json_rows(rows: list, sep: str, pad: str) -> str | None:
    """Dicts that share one key set, each value a ``float`` or a non-empty
    ``float`` list of the one length the key has in every row, as the rows
    of a ``simulate`` sweep are: one row text built from the first row, with
    a ``%s`` per float, filled for every row at once.  ``None``, for the
    plain path, on any other list or a non-finite value; types decide, by
    ``type()``, so a row with a ``str`` (a ``predict`` report's) is declined
    at the first row."""
    first = rows[0]
    if not first or not set(map(type, first.values())) <= {float, list}:
        return None
    if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(first)}:
        return None
    keys = sorted(first)
    inner = pad + "  "
    deep = ",\n" + inner + "  "
    fields, groups = [], []
    for key in keys:
        try:
            column = list(map(itemgetter(key), rows))
        except KeyError:
            return None
        kinds = set(map(type, column))
        if kinds == {float}:
            fields.append("%s")
            groups.append(zip(column))
            continue
        width = len(column[0]) if kinds == {list} else 0
        if not width or set(map(len, column)) != {width}:
            return None
        floats = list(chain.from_iterable(column))
        if set(map(type, floats)) != {float}:
            return None
        fields.append(f"[{deep[1:]}{deep.join(['%s'] * width)}\n{inner}]")
        groups.append(zip(*[iter(floats)] * width))
    values = list(chain.from_iterable(chain.from_iterable(zip(*groups))))
    if not math.isfinite(sum(values)):  # a nan or inf; an overflowing sum only costs the plain path
        return None
    heads = (_json_str(k).replace("%", "%%") for k in keys)
    row = f"{{\n{inner}" + f",\n{inner}".join(f"{h}: {f}" for h, f in zip(heads, fields)) + f"\n{pad}}}"
    return sep.join([row] * len(rows)) % tuple(map(float.__repr__, values))


@dataclass(frozen=True)
class RunRecord:
    """One command invocation with its deterministic payload.

    The serializations depend on nothing but input and flags, so identical
    invocations produce byte-identical JSON and CSV.  ``statistics`` is a
    JSON-ready dict; a value JSON has no form for, such as a ``Fraction``,
    is written as its ``float``.
    """

    command: str
    input_digest: str | None
    seeds: tuple[int, ...]
    report: PredictionReport | None = None
    statistics: dict | None = None

    def to_json(self) -> str:
        payload: dict[str, object] = {
            "command": self.command,
            "input_digest": self.input_digest,
            "seeds": list(self.seeds),
        }
        if self.report is not None:
            payload["report"] = _report_payload(self.report)
        if self.statistics is not None:
            payload["statistics"] = self.statistics
        return _json(payload) + "\n"

    def to_csv(self) -> str:
        if self.report is None:
            raise ExperimentFormatError(
                f"command {self.command!r} produced no per-prospect table; "
                "csv output needs one (use the record format)"
            )
        columns, _ = _report_columns(self.report)
        blanks = [""] * (len(_COLUMNS) - len(columns))
        lines = [",".join(["id", *(key for key, _, _ in _COLUMNS)])]
        for k, pid in enumerate(self.report.prospect_ids):
            lines.append(",".join([_csv_field(pid), *(repr(c[k]) for _, (c, _) in columns), *blanks]))
        return "\n".join(lines) + "\n"
