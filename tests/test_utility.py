"""Tests for utility functions, factor rules, and the information functionals."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchoice import (
    DegenerateSetError,
    LINEAR_UTILITY,
    SignDomainError,
    UtilityFunction,
    ValidationError,
    information_functional_gains,
    information_functional_losses,
    utility_factors_gains,
    utility_factors_losses,
)

F = Fraction


class TestUtilityFunction:
    def test_linear_passes_exact_values_through(self):
        assert LINEAR_UTILITY(F(2, 5)) == F(2, 5)
        assert LINEAR_UTILITY(-3) == -3

    def test_power_preserves_sign(self):
        u = UtilityFunction.power(2)
        assert u(3) == 9
        assert u(-3) == -9
        assert u(0) == 0

    def test_power_fractional_exponent(self):
        u = UtilityFunction.power(0.5)
        assert u(4) == pytest.approx(2.0)
        assert u(-4) == pytest.approx(-2.0)

    def test_rejects_bad_kind_and_exponent(self):
        with pytest.raises(ValidationError):
            UtilityFunction(kind="log")
        with pytest.raises(ValidationError):
            UtilityFunction.power(0)
        with pytest.raises(ValidationError):
            UtilityFunction.power(-1)


class TestGainsFactors:
    def test_equal_utilities_split_evenly(self):
        assert utility_factors_gains([F(1), F(1), F(1)]) == [F(1, 3)] * 3

    def test_simple_ratio(self):
        assert utility_factors_gains([F(1), F(3)]) == [F(1, 4), F(3, 4)]

    def test_exponent_two_exact(self):
        # U = (1, 2, 4), alpha = 2 -> weights (1, 4, 16) / 21.
        got = utility_factors_gains([F(1), F(2), F(4)], alpha=2)
        assert got == [F(1, 21), F(4, 21), F(16, 21)]

    def test_zero_utility_gets_zero_factor(self):
        assert utility_factors_gains([F(0), F(2)]) == [F(0), F(1)]

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSetError):
            utility_factors_gains([0, 0, 0])

    def test_negative_utility_rejected(self):
        with pytest.raises(SignDomainError):
            utility_factors_gains([1.0, -2.0])

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValidationError):
            utility_factors_gains([1.0, 2.0], alpha=0)
        with pytest.raises(ValidationError, match="real number"):
            utility_factors_gains([1.0, 2.0], alpha=True)

    def test_non_numbers_rejected(self):
        for utilities in ([True, 1], ["1", "2"], [None]):
            with pytest.raises(ValidationError, match="real number"):
                utility_factors_gains(utilities)

    def test_out_of_range_values_and_powers_rejected(self):
        with pytest.raises(ValidationError, match="too large"):
            utility_factors_gains([F(10) ** 400, 1])
        with pytest.raises(ValidationError, match="overflows"):
            utility_factors_gains([1e300, 1.0], alpha=2.5)
        with pytest.raises(ValidationError, match="overflows"):
            utility_factors_losses([-1e-300, -1.0], gamma=2.5)
        with pytest.raises(ValidationError, match="overflows"):
            UtilityFunction.power(2.5)(1e300)
        # Exact powers this large would never finish; they are refused.
        with pytest.raises(ValidationError, match="overflows"):
            UtilityFunction.power(F(10) ** 300)(F(3))
        with pytest.raises(ValidationError, match="overflows"):
            utility_factors_gains([F(1, 3), F(2)], alpha=10**9)
        with pytest.raises(ValidationError, match="overflows"):
            utility_factors_losses([F(-3), F(-2)], gamma=F(10) ** 300)
        assert utility_factors_gains([F(3), F(2)], alpha=600)[1] == F(2**600, 3**600 + 2**600)
        assert utility_factors_gains([F(1, 10**100), F(1)], alpha=2)[0] == F(1, 10**200 + 1)
        with pytest.raises(ValidationError, match="overflows"):
            utility_factors_gains([F(1, 10**400), F(1)], alpha=2)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            utility_factors_gains([])

    def test_unit_alpha_matches_plain_ratio_exactly(self):
        u = [0.7, 1.9, 0.3, 4.2]
        assert utility_factors_gains(u, 1) == [x / sum(u) for x in u]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=6),
        st.floats(0.1, 3.0),
        st.floats(0.1, 50.0),
    )
    def test_scale_invariance(self, utilities, alpha, scale):
        base = utility_factors_gains(utilities, alpha)
        scaled = utility_factors_gains([scale * u for u in utilities], alpha)
        assert scaled == pytest.approx(base, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=6, unique=True),
        st.floats(0.2, 3.0),
    )
    def test_monotone_in_utility(self, utilities, alpha):
        f = utility_factors_gains(utilities, alpha)
        for i in range(len(utilities)):
            for j in range(len(utilities)):
                if utilities[i] > utilities[j]:
                    assert f[i] >= f[j]
                    if utilities[i] > utilities[j] * (1 + 1e-9):
                        assert f[i] > f[j]  # strict once clearly separated

    def test_sums_to_one(self):
        f = utility_factors_gains([0.3, 1.7, 2.9], alpha=1.4)
        assert sum(f) == pytest.approx(1.0, abs=1e-12)


class TestLossesFactors:
    def test_equal_losses_split_evenly(self):
        assert utility_factors_losses([F(-2), F(-2)]) == [F(1, 2)] * 2

    def test_smaller_loss_gets_larger_factor(self):
        # |U| = (1, 3): weights (1, 1/3) -> (3/4, 1/4).
        assert utility_factors_losses([F(-1), F(-3)]) == [F(3, 4), F(1, 4)]

    def test_exponent_two_exact(self):
        got = utility_factors_losses([F(-1), F(-2), F(-4)], gamma=2)
        assert got == [F(16, 21), F(4, 21), F(1, 21)]

    def test_zero_rejected(self):
        with pytest.raises(SignDomainError):
            utility_factors_losses([-1.0, 0.0])

    def test_mixed_sign_rejected(self):
        with pytest.raises(SignDomainError):
            utility_factors_losses([-1.0, 2.0])
        with pytest.raises(SignDomainError):
            utility_factors_gains([-1.0, 2.0])

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValidationError):
            utility_factors_losses([-1.0, -2.0], gamma=-1)

    def test_small_gamma_approaches_uniform(self):
        f = utility_factors_losses([-1.0, -5.0, -25.0], gamma=1e-6)
        assert f == pytest.approx([1 / 3] * 3, abs=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=6, unique=True),
        st.floats(0.2, 3.0),
    )
    def test_antitone_in_loss_magnitude(self, magnitudes, gamma):
        f = utility_factors_losses([-m for m in magnitudes], gamma)
        for i in range(len(magnitudes)):
            for j in range(len(magnitudes)):
                if magnitudes[i] < magnitudes[j]:  # smaller loss
                    assert f[i] >= f[j]
                    if magnitudes[i] * (1 + 1e-9) < magnitudes[j]:
                        assert f[i] > f[j]  # strict once clearly separated

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=6),
        st.floats(0.1, 3.0),
        st.floats(0.1, 50.0),
    )
    def test_scale_invariance(self, magnitudes, gamma, scale):
        base = utility_factors_losses([-m for m in magnitudes], gamma)
        scaled = utility_factors_losses([-scale * m for m in magnitudes], gamma)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestInformationFunctionals:
    def test_gains_uniform_unit_utilities(self):
        # Entropy term only: 2 * (1/2 ln 1/2) = -ln 2.
        value = information_functional_gains([0.5, 0.5], [1, 1])
        assert value == pytest.approx(-math.log(2), abs=1e-12)

    def test_gains_log_penalty_term(self):
        # U = (1, e): penalties (0, -1); value = -ln2 + (0.5*0 + 0.5*(-1)).
        value = information_functional_gains([0.5, 0.5], [1.0, math.e])
        assert value == pytest.approx(-math.log(2) - 0.5, abs=1e-12)

    def test_losses_penalty_enters_with_opposite_sign(self):
        value = information_functional_losses([0.5, 0.5], [-1.0, -math.e])
        assert value == pytest.approx(-math.log(2) + 0.5, abs=1e-12)

    def test_multiplier_term(self):
        # sum f = 1/2, so lam = 2 contributes 2 * (-1/2) = -1.
        base = information_functional_gains([0.25, 0.25], [1, 1])
        shifted = information_functional_gains([0.25, 0.25], [1, 1], lam=2.0)
        assert shifted - base == pytest.approx(-1.0, abs=1e-12)

    def test_baseline_shifts_value_not_minimizer(self):
        f = utility_factors_gains([1.0, 3.0], alpha=1.5)
        a = information_functional_gains(f, [1.0, 3.0], alpha=1.5, baseline=0.0)
        b = information_functional_gains(f, [1.0, 3.0], alpha=1.5, baseline=2.0)
        assert a - b == pytest.approx(1.5 * 2.0, abs=1e-12)

    def test_exact_utility_below_the_double_range(self):
        # float(1/10**400) is 0.0; its logarithm used to raise "math domain error".
        tiny = F(1, 10**400)
        log_tiny = -math.log(10**400)
        gains = information_functional_gains([0.5, 0.5], [tiny, 1])
        assert gains == pytest.approx(-math.log(2) - 0.5 * log_tiny, rel=1e-15)
        losses = information_functional_losses([0.5, 0.5], [-tiny, -1])
        assert losses == pytest.approx(-math.log(2) + 0.5 * log_tiny, rel=1e-15)

    def test_zero_utility_with_weight_is_infinite(self):
        assert information_functional_gains([0.5, 0.5], [0, 1]) == math.inf

    def test_zero_utility_with_zero_weight_is_silent(self):
        assert information_functional_gains([0.0, 1.0], [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_times_log_zero_is_zero(self):
        value = information_functional_gains([0.0, 1.0], [1, 1])
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_factor(self):
        with pytest.raises(ValidationError):
            information_functional_gains([-0.1, 1.1], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            information_functional_gains([0.5, 0.5], [1, 2, 3])

    def test_gains_rejects_negative_utility(self):
        with pytest.raises(SignDomainError):
            information_functional_gains([0.5, 0.5], [1, -1])

    def test_losses_rejects_non_negative_utility(self):
        with pytest.raises(SignDomainError):
            information_functional_losses([0.5, 0.5], [-1, 0])

    def test_gains_minimizer_beats_perturbations(self):
        rng = np.random.default_rng(0)
        utilities = [0.4, 1.3, 2.6]
        alpha = 1.7
        f_star = utility_factors_gains(utilities, alpha)
        best = information_functional_gains(f_star, utilities, alpha=alpha)
        for _ in range(500):
            f = rng.dirichlet(np.ones(3))
            value = information_functional_gains(list(f), utilities, alpha=alpha)
            assert value >= best - 1e-9

    def test_losses_minimizer_beats_perturbations(self):
        rng = np.random.default_rng(1)
        utilities = [-0.4, -1.3, -2.6]
        gamma = 0.8
        f_star = utility_factors_losses(utilities, gamma)
        best = information_functional_losses(f_star, utilities, gamma=gamma)
        for _ in range(500):
            f = rng.dirichlet(np.ones(3))
            value = information_functional_losses(list(f), utilities, gamma=gamma)
            assert value >= best - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_minimizer_stationary_under_small_shifts(self, seed):
        # Move mass epsilon between two coordinates: value cannot drop.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        utilities = list(rng.uniform(0.2, 4.0, n))
        alpha = float(rng.uniform(0.3, 2.0))
        f_star = utility_factors_gains(utilities, alpha)
        best = information_functional_gains(f_star, utilities, alpha=alpha)
        eps = 1e-4
        i, j = 0, n - 1
        shifted = list(f_star)
        shift = min(eps, shifted[i])
        shifted[i] -= shift
        shifted[j] += shift
        assert information_functional_gains(shifted, utilities, alpha=alpha) >= best - 1e-12
