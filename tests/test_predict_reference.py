"""The ``predict`` path on integer numerators against its former self.

``_reference_predict`` keeps, verbatim, the functions the path ran before
``f``, ``q`` and ``p`` travelled as integer numerators over one
denominator: the literal reader, the field checks, the factor rule, the
composition and clipping, and the three renderers.  Over generated
``.exp`` files, narrow and wide, valid and mutated, both paths must give
the same ``ExperimentFile``, the same report (values and their types),
byte-identical record, CSV and table text, or the same error with the
same text.
"""
from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import _reference_predict as ref
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_experiments import decoy_file, mutated_experiment, wide_decoy_file, wide_decoy_text

from qchoice import _checks, cli, experiments
from qchoice.decision import ChoiceSet, compose_probabilities, score_against_empirical
from qchoice.errors import ExperimentFormatError, QChoiceError
from qchoice.experiments import (
    RunRecord,
    bundled_experiment_text,
    input_digest,
    list_bundled_experiments,
    parse_experiment,
    run_prediction,
)
from qchoice.utility import _factors

F = Fraction
FLOAT_TAG = "tag:yaml.org,2002:float"
CREATED = "2016-01-01T00:00:00+00:00"


def reference_parse(text: str, source: str = "<string>"):
    """``parse_experiment`` with the former literal reader and field checks."""
    with (
        mock.patch.object(experiments, "_construct_exact", ref._construct_exact),
        mock.patch.dict(experiments._ExactNumberLoader.yaml_constructors, {FLOAT_TAG: ref._construct_exact}),
    ):
        try:
            return ref._experiment(experiments._load(text, source), source)
        except RecursionError:
            raise ExperimentFormatError(f"{source}: values are nested too deeply") from None


def reference_run(experiment):
    """``run_prediction`` with the former factor rule and composition."""
    factors = ref.derive_utility_factors(experiment)
    choice_set = ChoiceSet(
        prospect_ids=experiment.prospect_ids,
        utility_factors=tuple(factors),
        attractiveness_rank=experiment.attractiveness_rank,
    )
    report = ref.compose_probabilities(choice_set)
    if experiment.empirical is not None:
        report = score_against_empirical(report, experiment.empirical)
    return report


def reference_json(record: RunRecord) -> str:
    with mock.patch.object(experiments, "_report_payload", ref._report_payload):
        return record.to_json()


CURRENT = (parse_experiment, run_prediction, RunRecord.to_json, RunRecord.to_csv, cli._prediction_table)
REFERENCE = (reference_parse, reference_run, reference_json, ref.to_csv, ref._prediction_table)


def outcome(text: str, path) -> list:
    """The parsed file, the report and its three renderings through ``path``,
    as far as they get, then the error's class and text."""
    parse, run, to_json, to_csv, table = path
    got: list = []
    try:
        exp = parse(text)
        got.append(repr(exp))
        report = run(exp)
    except QChoiceError as exc:
        return got + [type(exc).__name__, str(exc)]
    record = RunRecord(command="predict x.exp", input_digest=input_digest(text), seeds=(), report=report)
    return got + [
        repr(report),
        repr(report.probabilities),
        to_json(record),
        to_csv(record),
        table(exp, report, record.input_digest, CREATED),
    ]


def assert_same(text: str) -> list:
    """``outcome`` on both paths, which must agree but for the two intended
    changes: a rank entry that is not a string is refused, and an id with a
    comma, a quote, CR or LF is quoted in the CSV."""
    current, reference = outcome(text, CURRENT), outcome(text, REFERENCE)
    if current != reference:
        rank = _document(text).get("attractiveness_rank")
        if isinstance(rank, list) and not all(isinstance(r, str) for r in rank):
            assert len(current) == 2
            assert "field 'attractiveness_rank' must list every prospect id exactly once" in current[1]
            return current
        ids = "".join(parse_experiment(text).prospect_ids) if len(current) == 6 else ""
        if any(c in ids for c in ',"\r\n'):
            current, reference = current[:4] + current[5:], reference[:4] + reference[5:]
    assert current == reference
    return current


def _document(text: str) -> dict:
    try:
        doc = experiments._document(text)
    except Exception:
        return {}
    return doc if isinstance(doc, dict) else {}


@pytest.mark.parametrize("name", list_bundled_experiments())
def test_bundled_studies(name):
    assert len(assert_same(bundled_experiment_text(name))) == 6


def edge(f: str, frequencies: str = "", config: str = "") -> str:
    """Two prospects ``a`` and ``b`` with the ``f`` (or utility) and
    frequency values given, each a comma-separated pair."""
    key, _, values = f.partition("=")
    one, two = values.split(",")
    text = f"name: edge\nprospects:\n  - {{id: a, {key}: {one}}}\n  - {{id: b, {key}: {two}}}\n"
    text += "attractiveness_rank: [b, a]\n"
    if frequencies:
        x, y = frequencies.split(",")
        text += f"empirical:\n  - {{id: a, frequency: {x}}}\n  - {{id: b, frequency: {y}}}\n"
    return text + (f"config: {{{config}}}\n" if config else "")


EDGES = [
    edge("f=0.0,1.0"), edge("f=1.0000000005,-0.0"), edge("f=1.1,-0.1"), edge("f=0.5,0.5000000011"),
    edge("f=0.95,0.049999999"), edge("f=1e-1000,1"), edge("f=1,0", "1.01,0"), edge("f=1,0", "1.02,0"),
    edge("f=1,0", "1.0200000001,0"), edge("f=1,0", "-0.0,1"), edge("f=1,0", "0.5,0.49"),
    edge("utility=1e308,1e308"), edge("utility=1e400,1"), edge("utility=-1e-400,-2", config="gamma: 2"),
    edge("utility=0,0"), edge("utility=0,3", config="alpha: 3"), edge("utility=-1,2"),
    edge("utility=2e200,1", config="utility_kind: power, utility_exponent: 2"),
    edge("utility=1.3e154,1", config="utility_kind: power, utility_exponent: 2"),
    edge("utility=2,3", config="alpha: 0.5"), edge("utility=-2,-3", config="gamma: 1.5"),
]


@pytest.mark.parametrize("text", EDGES)
def test_edges(text):
    assert_same(text)


@settings(max_examples=150, deadline=None)
@given(decoy_file())
def test_decoy_files(text):
    assert_same(text)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_decoy_file())
def test_wide_decoy_files(text):
    assert_same(text)


def test_wide_decoy_files_reach_every_path():
    # Clamped exact reports, reports whose f and q share a denominator past
    # 64 bits, float reports and scored reports all occur among the wide files.
    found = {"clamped exact": 0, "wide denominator": 0, "float": 0, "scored": 0}
    rng = random.Random(2016)
    for _ in range(40):
        text = wide_decoy_text(rng)
        record = assert_same(text)[3]
        found["clamped exact"] += '"clamping_applied": true' in record and '"f_exact"' in record
        report = run_prediction(parse_experiment(text))
        values = report.utility_factors + report.attraction_factors
        if all(type(v) is F for v in values):
            found["wide denominator"] += _checks.over_lcm(values)[1].bit_length() > 64
        found["float"] += '"f_exact"' not in record
        found["scored"] += '"max_abs_error"' in record
    assert min(found.values()) >= 3, found


@settings(max_examples=150, deadline=None)
@given(mutated_experiment())
def test_mutated_files(data):
    assert_same(data.decode("utf-8", errors="replace"))


class Node:
    """What ``_construct_exact`` reads of a YAML scalar node."""

    def __init__(self, value: str) -> None:
        self.value = value
        self.start_mark = type("Mark", (), {"line": 0})()


def construct(construct_exact, text: str):
    try:
        value = construct_exact(None, Node(text))
    except ExperimentFormatError as exc:
        return "error", str(exc)
    return type(value), value


LITERALS = [
    "0.1", "-0.0", "+.5", "1.", "1.e5", ".e5", ".", "", "e5", "1e", "1.2.3", "1:30.5",
    ".inf", "-.inf", ".nan", "nan", "Infinity", "sNaN", "0x1p3", " 1.5 ", "1 .5", "1_000.000_1",
    "1e1000", "1e1001", "9.99e1000", "0.0e1001", "0e1000", "0e1001", "1e-1000", "1e-1001",
    "0.1e-999", "0.01e-999", "1" * 1001, "1" * 1002, "1" * 1001 + ".5", "0" * 5000 + ".5",
    "0." + "0" * 999 + "1", "0." + "0" * 1000 + "1", "1e" + "9" * 5000, "1e000000000000000005",
    "1e99999999999999999999999", "1e-99999999999999999999", "0.00001e1000000000000000000",
    "123456e999999999999999999", "٣.٥", "٠" * 2000 + "٥", "１２",
]


@pytest.mark.parametrize("text", LITERALS)
def test_literals(text):
    assert construct(experiments._construct_exact, text) == construct(ref._construct_exact, text)


@settings(max_examples=400, deadline=None)
@given(st.text("0123456789.eE+-_ ٣", max_size=12))
def test_drawn_literals(text):
    assert construct(experiments._construct_exact, text) == construct(ref._construct_exact, text)


def run(function, *args, **kwargs):
    """``function``'s result (with each value's type) or its error."""
    try:
        result = function(*args, **kwargs)
    except QChoiceError as exc:
        return type(exc).__name__, str(exc)
    return [(type(v), v) for v in result] if isinstance(result, (list, tuple)) else result


exact_values = st.one_of(
    st.fractions(max_denominator=10**6),
    st.integers(-(10**6), 10**6).map(F),
    st.sampled_from([F(0), F(1, 10**400), F(-1, 10**400), F(10**300), F(-(10**308) * 2), F(2**512), F(3, 2**600)]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(exact_values, min_size=1, max_size=8),
    st.sampled_from([1, 2, 3, F(1), F(2), F(5)]),
    st.booleans(),
)
def test_factor_rule(utilities, exponent, gains):
    assert run(_factors, utilities, exponent, gains=gains) == run(
        ref._factors, utilities, exponent, gains=gains
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(exact_values, st.floats(-2, 2), st.integers(-3, 3)), min_size=0, max_size=6))
def test_column_checks(values):
    for new, old in [(_checks.reals, ref.reals), (_checks.distribution, ref.distribution)]:
        what = {"what": "utility factor"} if new is _checks.reals else {}
        assert run(new, values, **what) == run(old, values, **what)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.randoms(use_true_random=False), st.booleans())
def test_composition(n, rng, as_floats):
    # Shares down to zero, so the least attractive prospects are clamped.
    weights = [rng.choice([0, 1, rng.randint(1, 10**6)]) for _ in range(n)]
    if not any(weights):
        weights[0] = 1
    f = [F(w, sum(weights)) for w in weights]
    ids = tuple(f"p{k}" for k in range(n))
    choice_set = ChoiceSet(ids, tuple(float(v) for v in f) if as_floats else tuple(f), tuple(rng.sample(ids, n)))

    def composed(compose):
        try:
            report = compose(choice_set)
        except QChoiceError as exc:
            return type(exc).__name__, str(exc)
        return repr(report), repr(report.probabilities)

    assert composed(compose_probabilities) == composed(ref.compose_probabilities)
