"""The public surface: ``qchoice.__all__`` is pinned, and every name resolves."""
from __future__ import annotations

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
    "LINEAR_UTILITY",
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
    "asymptotic_attraction",
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
    "load_experiment",
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
    assert len(PUBLIC_NAMES) == 56
    assert sorted(qchoice.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(qchoice, name) is not None, name
