"""Direct tests of the self-check suites (the CLI layer has its own)."""
from __future__ import annotations

import numpy as np
import pytest

from qchoice import (
    ValidationError,
    run_suite,
    verify_entropy,
    verify_gaps,
    verify_quantum_identity,
    verify_quarter_law,
)


class TestQuarterLaw:
    def test_full_size_run_passes(self):
        result = verify_quarter_law(1_000_000, seed=0)
        assert result.passed is True
        assert result.statistics["deviation"] < 5e-3
        assert result.statistics["estimate"] == pytest.approx(0.25, abs=5e-3)

    def test_tiny_run_fails_honestly(self):
        result = verify_quarter_law(4, seed=0)
        assert result.passed is False
        assert result.statistics["deviation"] > 5e-3
        assert "1/4" in result.summary

    def test_deterministic(self):
        a = verify_quarter_law(10_000, seed=3)
        b = verify_quarter_law(10_000, seed=3)
        assert a.statistics["estimate"] == b.statistics["estimate"]

    def test_generator_seed_refused_before_drawing(self):
        # The record holds the seed, so it must be an integer.
        with pytest.raises(ValidationError, match="^seed must be an integer"):
            verify_quarter_law(100, seed=np.random.default_rng(1))


class TestGaps:
    def test_spread_within_tolerance(self):
        result = verify_gaps(50_000, seed=0)
        assert result.passed is True
        assert result.statistics["spread"] < 3e-3
        assert len(result.statistics["mean_gaps"]) == 4
        assert result.statistics["expected_gap"] == pytest.approx(1 / 6)

    def test_other_prospect_count(self):
        result = verify_gaps(20_000, seed=1, n_prospects=3)
        assert result.passed is True
        assert result.statistics["expected_gap"] == pytest.approx(1 / 4)

    def test_generator_seed_refused_before_drawing(self):
        with pytest.raises(ValidationError, match="^seed must be an integer"):
            verify_gaps(100, seed=np.random.default_rng(1))


class TestEntropy:
    def test_closed_forms_are_minimizers(self):
        result = verify_entropy(perturbations=500, seed=0, vectors=5)
        assert result.passed is True
        assert result.statistics["worst_margin"] >= -1e-9
        assert result.statistics["unit_exponent_reduction_exact"] is True

    def test_one_vector_and_one_perturbation_run(self):
        # The least run each count allows: 0 is refused, 1 is not.
        result = verify_entropy(perturbations=1, seed=0, vectors=1)
        assert result.statistics["perturbations"] == 1
        assert result.statistics["vectors_per_regime"] == 1
        assert result.passed is True

    def test_rejects_empty_run(self):
        with pytest.raises(ValidationError):
            verify_entropy(perturbations=0)
        with pytest.raises(ValidationError):
            verify_entropy(vectors=0)

    def test_generator_seed_refused_before_drawing(self):
        with pytest.raises(ValidationError, match="^seed must be an integer"):
            verify_entropy(50, seed=np.random.default_rng(1))


class TestQuantumIdentity:
    def test_split_and_trace_rule_agree(self):
        result = verify_quantum_identity(draws=50, seed=0)
        assert result.passed is True
        stats = result.statistics
        assert stats["max_split_defect"] < 1e-12
        assert stats["max_trace_rule_deviation"] < 1e-12
        assert stats["max_q_sum_defect"] < 1e-12

    def test_rejects_zero_draws(self):
        with pytest.raises(ValidationError, match="draw count"):
            verify_quantum_identity(draws=0)

    def test_rejects_a_malformed_register(self):
        with pytest.raises(ValidationError, match="^choice dimension must be >= 1, got -2$"):
            verify_quantum_identity(3, 0, (-2, -3))

    def test_generator_seed_refused_before_drawing(self):
        with pytest.raises(ValidationError, match="^seed must be an integer"):
            verify_quantum_identity(50, seed=np.random.default_rng(1))


class TestRunSuite:
    def test_dispatch_by_name(self):
        result = run_suite("quarter-law", samples=10_000, seed=0)
        assert result.suite == "quarter-law"
        assert result.statistics["samples"] == 10_000

    def test_samples_maps_to_each_knob(self):
        assert run_suite("gaps", samples=5_000).statistics["samples"] == 5_000
        assert run_suite("entropy", samples=100).statistics["perturbations"] == 100
        assert run_suite("quantum-identity", samples=10).statistics["draws"] == 10

    def test_unknown_suite(self):
        with pytest.raises(ValidationError, match="unknown verification suite"):
            run_suite("coin-flip")
