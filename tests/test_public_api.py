"""The public surface: ``qchoice.__all__`` is pinned, and every name resolves.

The parameters of the functions that lost an option, and the fields of
``RunRecord``, ``PredictionReport`` and ``RegularityCheck``, are pinned
too, so re-adding one is a deliberate API change.
"""
from __future__ import annotations

import dataclasses
import inspect
import sys

import pytest

import qchoice

PUBLIC_NAMES = [
    "AttractionSet",
    "ChoiceSet",
    "DegenerateSetError",
    "DensityOperator",
    "EventOperator",
    "ExperimentFile",
    "ExperimentFormatError",
    "InfeasibleBoundsError",
    "NormalizationError",
    "PredictionReport",
    "ProbabilityTriple",
    "Prospect",
    "QChoiceError",
    "RegularityCheck",
    "RunRecord",
    "SignDomainError",
    "SuiteResult",
    "UtilityFunction",
    "ValidationError",
    "VerificationFailure",
    "attraction_gap",
    "attraction_qmax",
    "bundled_experiment",
    "bundled_experiment_text",
    "compose_probabilities",
    "decohere",
    "derive_utility_factors",
    "enforce_bounds",
    "information_functional_gains",
    "information_functional_losses",
    "input_digest",
    "list_bundled_experiments",
    "normalize_prospect_set",
    "ordered_uniform_gap_check",
    "parse_experiment",
    "predict_decoy",
    "prospect_probability",
    "prospect_projector",
    "prospect_state",
    "quantized_attraction_set",
    "quarter_law_check",
    "random_density_operator",
    "regularity_violation_check",
    "run_prediction",
    "run_suite",
    "sample_inconclusive",
    "score_against_empirical",
    "utility_factors_gains",
    "utility_factors_losses",
    "verify_entropy",
    "verify_gaps",
    "verify_quantum_identity",
    "verify_quarter_law",
]


def test_all_is_pinned_and_resolves():
    assert len(PUBLIC_NAMES) == 53
    assert sorted(qchoice.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qchoice, name) is not None, name


def test_names_resolve_on_first_access():
    # The package imports each name's submodule only when the name is used.
    assert set(qchoice.__all__) <= set(dir(qchoice))
    namespace: dict = {}
    exec("from qchoice import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = namespace[name]
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert value.__module__.startswith("qchoice."), name
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        qchoice.nothing


PINNED_PARAMETERS = {
    "random_density_operator": ["dim", "seed"],
    "information_functional_gains": ["factors", "utilities", "lam", "alpha"],
    "information_functional_losses": ["factors", "utilities", "lam", "gamma"],
    "score_against_empirical": ["report", "empirical"],
}


def test_parameters_are_pinned():
    for name, expected in PINNED_PARAMETERS.items():
        assert list(inspect.signature(getattr(qchoice, name)).parameters) == expected, name


def test_run_record_fields_are_pinned():
    fields = [field.name for field in dataclasses.fields(qchoice.RunRecord)]
    assert fields == ["command", "input_digest", "seeds", "report", "statistics"]


def test_ladder_is_its_values():
    # The gap and top rung are ``attraction_gap`` and ``attraction_qmax``.
    fields = [field.name for field in dataclasses.fields(qchoice.AttractionSet)]
    assert fields == ["values"]
    for name in ("delta", "q_max", "as_floats", "n_prospects"):
        assert not hasattr(qchoice.AttractionSet, name), name


def test_report_fields_are_pinned():
    # ``probabilities``, the error columns and ``reversal`` are derived.
    fields = [field.name for field in dataclasses.fields(qchoice.PredictionReport)]
    assert fields == [
        "prospect_ids", "utility_factors", "attraction_factors", "clamping_applied", "empirical"
    ]
    fields = [field.name for field in dataclasses.fields(qchoice.RegularityCheck)]
    assert fields == ["tie", "favored_by_utility", "favored_overall"]
    assert not hasattr(qchoice.RegularityCheck, "__bool__")


def test_utility_function_is_its_exponent():
    fields = [field.name for field in dataclasses.fields(qchoice.UtilityFunction)]
    assert fields == ["exponent"]
    assert qchoice.UtilityFunction() == qchoice.UtilityFunction(1)
