"""Choice probabilities as utility factors plus interference attraction.

A small calculus for composite-event choice probabilities: quantum-style
states and prospect operators whose probabilities decompose as
``p = f + q``; non-informative-prior rules fixing the utility factors
``f`` from expected utilities; the quarter law and quantized ladders
fixing the attraction factors ``q``; and a decoy-effect predictor that
puts the pieces together and scores them against observed frequencies.
"""
from __future__ import annotations

from .attraction import (
    AttractionSet,
    attraction_gap,
    attraction_qmax,
    ordered_uniform_gap_check,
    quantized_attraction_set,
    quarter_law_check,
)
from .decision import (
    ChoiceSet,
    PredictionReport,
    RegularityCheck,
    compose_probabilities,
    enforce_bounds,
    predict_decoy,
    regularity_violation_check,
    score_against_empirical,
)
from .errors import (
    DegenerateSetError,
    ExperimentFormatError,
    InfeasibleBoundsError,
    NormalizationError,
    QChoiceError,
    SignDomainError,
    ValidationError,
    VerificationFailure,
)
from .experiments import (
    ExperimentFile,
    RunRecord,
    bundled_experiment,
    bundled_experiment_text,
    derive_utility_factors,
    input_digest,
    list_bundled_experiments,
    parse_experiment,
    run_prediction,
)
from .quantum import (
    DensityOperator,
    EventOperator,
    ProbabilityTriple,
    Prospect,
    decohere,
    normalize_prospect_set,
    prospect_probability,
    prospect_projector,
    prospect_state,
    random_density_operator,
    sample_inconclusive,
)
from .utility import (
    LINEAR_UTILITY,
    UtilityFunction,
    information_functional_gains,
    information_functional_losses,
    utility_factors_gains,
    utility_factors_losses,
)
from .verify import (
    SuiteResult,
    run_suite,
    verify_entropy,
    verify_gaps,
    verify_quantum_identity,
    verify_quarter_law,
)

__version__ = "0.1.0"

__all__ = [
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
