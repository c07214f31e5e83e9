"""The column rule: every sequence argument of the decision layer and the
utility rules is any iterable but a mapping, one value per prospect, and
numpy scalars in it are computed on as the Python numbers they hold."""
from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchoice import (
    ChoiceSet,
    PredictionReport,
    QChoiceError,
    ValidationError,
    enforce_bounds,
    information_functional_gains,
    information_functional_losses,
    predict_decoy,
    regularity_violation_check,
    score_against_empirical,
    utility_factors_gains,
    utility_factors_losses,
)


def ids(n):
    return tuple("abc"[:n])


def uniform(n):
    return (F(1, max(n, 1)),) * n


def zeros(n):
    return (F(0),) * n


# One entry per column argument: the call with ``col`` in that place and
# the other arguments valid for ``n`` prospects.
COLUMNS = {
    "ChoiceSet.utility_factors": lambda col, n: ChoiceSet(ids(n), col, ids(n)),
    "PredictionReport.utility_factors": lambda col, n: PredictionReport(ids(n), col, zeros(n), False),
    "PredictionReport.attraction_factors":
        lambda col, n: PredictionReport(ids(n), uniform(n), col, False),
    "PredictionReport.empirical":
        lambda col, n: PredictionReport(ids(n), uniform(n), zeros(n), False, col),
    "enforce_bounds.utility_factors": lambda col, n: enforce_bounds(col, zeros(n)),
    "enforce_bounds.attraction_factors": lambda col, n: enforce_bounds(uniform(n), col),
    "regularity_violation_check.utility_factors":
        lambda col, n: regularity_violation_check(col, uniform(n)),
    "regularity_violation_check.probabilities":
        lambda col, n: regularity_violation_check(uniform(n), col),
    "score_against_empirical.empirical":
        lambda col, n: score_against_empirical(predict_decoy(uniform(n), range(n)), col),
    "predict_decoy.f_no_decoy": lambda col, n: predict_decoy(col, range(n)),
    "predict_decoy.decoy_target_rank": lambda col, n: predict_decoy(uniform(n), col),
    "utility_factors_gains": lambda col, n: utility_factors_gains(col),
    "utility_factors_losses": lambda col, n: utility_factors_losses(col),
    "information_functional_gains.factors":
        lambda col, n: information_functional_gains(col, (1, 2, 3)[:n]),
    "information_functional_gains.utilities":
        lambda col, n: information_functional_gains(uniform(n), col),
    "information_functional_losses.factors":
        lambda col, n: information_functional_losses(col, (-1, -2, -3)[:n]),
    "information_functional_losses.utilities":
        lambda col, n: information_functional_losses(uniform(n), col),
}

POOL = [0, 1, 2, -1, 0.5, 0.25, 0.75, -0.25, -0.5, 0.1, 0.2, 0.3, 0.7]
# Columns that sum to 1 or 0, so valid calls are drawn as often as refusals.
SUMMED = [[1], [0.5, 0.5], [0.25, 0.75], [1, 0], [0.2, 0.3, 0.5], [0.5, 0.25, 0.25],
          [0], [0.25, -0.25], [-0.5, 0.5], [0.1, 0.2, -0.3], [2, 1, 0]]
HOSTILE = [None, 5, {0: F(1, 2), 1: F(1, 2)}, [[F(1, 2), F(1, 2)], F(1, 2)]]


def typed(value):
    """``value`` as nested (type, repr) pairs, so equal outcomes agree in
    type as well as in value, a float to the last bit."""
    if dataclasses.is_dataclass(value):
        return type(value), [typed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return type(value), [typed(v) for v in value]
    return type(value), repr(value)


def outcome(call):
    try:
        return typed(call())
    except QChoiceError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(COLUMNS)),
    dtype=st.sampled_from([np.float32, np.float64, np.int64]),
    values=st.one_of(st.lists(st.sampled_from(POOL), max_size=3), st.sampled_from(SUMMED)),
    hostile=st.sampled_from(HOSTILE),
)
def test_numpy_columns_act_as_their_items_and_hostile_columns_are_refused(
    name, dtype, values, hostile
):
    build = COLUMNS[name]
    if name == "predict_decoy.decoy_target_rank":
        # Rank entries are indices: ``_checks.count`` names a float entry
        # as given, so only integer columns have the same refusal text.
        dtype = np.int64
    column = [dtype(v) for v in values]
    assert outcome(lambda: build(column, len(column))) == outcome(
        lambda: build([v.item() for v in column], len(column))
    )
    if hostile is None and name == "PredictionReport.empirical":
        return  # a report without observed frequencies
    with pytest.raises(ValidationError):
        build(hostile, 2)


@pytest.mark.parametrize("call", [
    lambda: ChoiceSet(None, (1,), ("a",)),
    lambda: ChoiceSet(("a",), None, ("a",)),
    lambda: ChoiceSet(("a",), (1,), None),
    lambda: PredictionReport(None, None, None, False),
    lambda: enforce_bounds(None, None),
    lambda: regularity_violation_check(None, None),
    lambda: score_against_empirical(predict_decoy((1,), (0,)), None),
    lambda: predict_decoy(None, [0]),
    lambda: predict_decoy((1,), None),
    lambda: predict_decoy((1,), (0,), prospect_ids=5),
    lambda: utility_factors_gains(None),
    lambda: utility_factors_gains(5),
    lambda: information_functional_gains(None, [1]),
], ids=["cs-ids", "cs-factors", "cs-rank", "report", "bounds", "regularity", "score",
        "decoy-f", "decoy-rank", "decoy-ids", "gains-none", "gains-5", "functional"])
def test_a_non_iterable_column_is_refused(call):
    with pytest.raises(ValidationError, match="column must be a sequence, got"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ChoiceSet(("a", "b"), {0.25: 0, 0.75: 1}, ("a", "b")),
    lambda: ChoiceSet({"a": 1, "b": 2}, (0.5, 0.5), ("a", "b")),
    lambda: PredictionReport(("a",), (1,), {0: 0}, False),
    lambda: utility_factors_gains({2: "x", 3: "y"}),
    lambda: predict_decoy((0.5, 0.5), {0: "a", 1: "b"}),
], ids=["cs-factors", "cs-ids", "report-q", "gains", "decoy-rank"])
def test_a_mapping_column_is_refused(call):
    # Iterating a mapping reads its keys, which could pass for the values.
    with pytest.raises(ValidationError, match="column must be a sequence, not a mapping$"):
        call()


@pytest.mark.parametrize("factors", [
    (F(1, 4), F(3, 4)),
    [F(1, 4), F(3, 4)],
    (v for v in (F(1, 4), F(3, 4))),
    np.array([0.25, 0.75]),
], ids=["tuple", "list", "generator", "array"])
def test_any_iterable_but_a_mapping_is_a_column(factors):
    report = predict_decoy(factors, iter([0, 1]), prospect_ids=iter(["t", "c"]))
    assert report.prospect_ids == ("t", "c") and report.utility_factors == (0.25, 0.75)
    assert report.probabilities == (0.5, 0.5)
