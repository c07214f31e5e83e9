"""Choice probabilities as utility factors plus interference attraction.

A small calculus for composite-event choice probabilities: quantum-style
states and prospect operators whose probabilities decompose as
``p = f + q``; non-informative-prior rules fixing the utility factors
``f`` from expected utilities; the quarter law and quantized ladders
fixing the attraction factors ``q``; and a decoy-effect predictor that
puts the pieces together and scores them against observed frequencies.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.  A name is imported
#: on first access (PEP 562), so ``import qchoice.cli`` and ``predict``
#: load no numpy: only ``quantum``, ``verify`` and the Monte Carlo kernels
#: import it.
_SUBMODULE = {
    "AttractionSet": "attraction",
    "ChoiceSet": "decision",
    "DegenerateSetError": "errors",
    "DensityOperator": "quantum",
    "EventOperator": "quantum",
    "ExperimentFile": "experiments",
    "ExperimentFormatError": "errors",
    "InfeasibleBoundsError": "errors",
    "LINEAR_UTILITY": "utility",
    "NormalizationError": "errors",
    "PredictionReport": "decision",
    "ProbabilityTriple": "quantum",
    "Prospect": "quantum",
    "QChoiceError": "errors",
    "RegularityCheck": "decision",
    "RunRecord": "experiments",
    "SignDomainError": "errors",
    "SuiteResult": "verify",
    "UtilityFunction": "utility",
    "ValidationError": "errors",
    "VerificationFailure": "errors",
    "attraction_gap": "attraction",
    "attraction_qmax": "attraction",
    "bundled_experiment": "experiments",
    "bundled_experiment_text": "experiments",
    "compose_probabilities": "decision",
    "decohere": "quantum",
    "derive_utility_factors": "experiments",
    "enforce_bounds": "decision",
    "information_functional_gains": "utility",
    "information_functional_losses": "utility",
    "input_digest": "experiments",
    "list_bundled_experiments": "experiments",
    "normalize_prospect_set": "quantum",
    "ordered_uniform_gap_check": "attraction",
    "parse_experiment": "experiments",
    "predict_decoy": "decision",
    "prospect_probability": "quantum",
    "prospect_projector": "quantum",
    "prospect_state": "quantum",
    "quantized_attraction_set": "attraction",
    "quarter_law_check": "attraction",
    "random_density_operator": "quantum",
    "regularity_violation_check": "decision",
    "run_prediction": "experiments",
    "run_suite": "verify",
    "sample_inconclusive": "quantum",
    "score_against_empirical": "decision",
    "utility_factors_gains": "utility",
    "utility_factors_losses": "utility",
    "verify_entropy": "verify",
    "verify_gaps": "verify",
    "verify_quantum_identity": "verify",
    "verify_quarter_law": "verify",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
