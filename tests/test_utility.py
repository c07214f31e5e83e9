"""Tests for utility functions, factor rules, and the information functionals."""
from __future__ import annotations

import math
import numbers
from fractions import Fraction
from numbers import Rational, Real
from typing import Sequence

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
    _checks,
)
from qchoice.utility import _log_magnitude, _power, _xlogx

F = Fraction


class _Underflowing:
    """A positive real that is 0.0 as a float and has no ``as_integer_ratio``."""

    def __float__(self):
        return 0.0

    def __lt__(self, other):
        return other > 0

    def __eq__(self, other):
        return False

    __hash__ = object.__hash__


numbers.Real.register(_Underflowing)


class TestUtilityFunction:
    def test_linear_passes_exact_values_through(self):
        assert LINEAR_UTILITY(F(2, 5)) == F(2, 5)
        assert LINEAR_UTILITY(-3) == -3

    def test_power_preserves_sign(self):
        u = UtilityFunction(2)
        assert u(3) == 9
        assert u(-3) == -9
        assert u(0) == 0

    def test_power_fractional_exponent(self):
        u = UtilityFunction(0.5)
        assert u(4) == pytest.approx(2.0)
        assert u(-4) == pytest.approx(-2.0)

    def test_exponent_one_is_linear(self):
        u = UtilityFunction(F(1))
        assert u == LINEAR_UTILITY
        assert u(F(2, 5)) == F(2, 5) and u(-3) == -3

    def test_rejects_bad_kind_and_exponent(self):
        # The exponent is the only field: a kind is no longer accepted.
        with pytest.raises(TypeError):
            UtilityFunction(kind="log")
        with pytest.raises(TypeError):
            UtilityFunction("linear", 5)
        with pytest.raises(ValidationError, match="real number"):
            UtilityFunction("linear")
        with pytest.raises(ValidationError):
            UtilityFunction(0)
        with pytest.raises(ValidationError):
            UtilityFunction(-1)


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

    @pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0)])
    @pytest.mark.parametrize("alpha", [1, 2, 3, 0.5, F(3, 2)])
    def test_negative_zero_utility_gets_positive_zero_factor(self, zero, alpha):
        got = utility_factors_gains([zero, 1.0], alpha)
        assert got == [0.0, 1.0] and math.copysign(1.0, got[0]) == 1.0

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
            UtilityFunction(2.5)(1e300)
        # Exact powers this large would never finish; they are refused.
        with pytest.raises(ValidationError, match="overflows"):
            UtilityFunction(F(10) ** 300)(F(3))
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

    def test_underflowed_exact_utility_keeps_its_weight(self):
        # float(1/10**400) is 0.0, whose power used to give the weight 0.0.
        f = utility_factors_gains([F(1, 10**400), F(1)], F(1, 2))
        assert f[0] == pytest.approx(1e-200, rel=1e-12, abs=0) and f[1] == 1.0
        # A base that float keeps takes float(base) ** exponent, as before.
        assert utility_factors_gains([F(1, 3), F(2, 3)], F(1, 2)) == [
            w / (float(F(1, 3)) ** 0.5 + float(F(2, 3)) ** 0.5)
            for w in (float(F(1, 3)) ** 0.5, float(F(2, 3)) ** 0.5)
        ]

    def test_underflowing_weights_rejected(self):
        tiny = [F(1, 10**1000), F(2, 10**1000)]
        with pytest.raises(DegenerateSetError, match="underflows"):
            utility_factors_gains(tiny, alpha=F(1, 2))

    def test_weight_total_past_the_double_range_rejected(self):
        # Each weight is finite; their float sum is not.
        with pytest.raises(ValidationError, match="sum of the gains weights overflows floating point"):
            utility_factors_gains([1e308, 1e308])
        with pytest.raises(ValidationError, match="sum of the losses weights overflows floating point"):
            utility_factors_losses([-1e-308, -1e-308, -1e-320])
        # An exact total is left alone, however far past the double range.
        assert utility_factors_gains([F(2) ** 1023] * 4) == [F(1, 4)] * 4
        assert utility_factors_gains([F(2) ** 512] * 2, alpha=2) == [F(1, 2)] * 2

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

    def test_underflowing_weights_rejected(self):
        with pytest.raises(DegenerateSetError, match="underflows"):
            utility_factors_losses([-F(10**300)] * 2, F(3, 2))

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

    def test_underflowed_exact_utility_keeps_its_weight(self):
        # float(1/10**400) is 0.0, and 0.0 ** -0.5 used to be refused as an
        # overflow; the weight 10**200 is finite and is taken from log2.
        f = utility_factors_losses([F(-1, 10**400), -2], F(1, 2))
        assert f[0] == 1.0
        assert f[1] == pytest.approx(2**-0.5 / 1e200, rel=1e-12, abs=0)
        with pytest.raises(ValidationError, match="a losses weight overflows floating point"):
            utility_factors_losses([F(-1, 10**4000), -2], F(1, 2))

    def test_float_weight_plus_an_exact_one_past_the_double_range_rejected(self):
        # ``1 / 1`` is the float 1.0, and adding it to 10**900 overflows.
        with pytest.raises(ValidationError) as exc:
            utility_factors_losses([-1, F(-1, 10**900)], 1)
        assert str(exc.value) == "the sum of the losses weights overflows floating point"


class TestUnitExponents:
    """Exponent 1 (and -1 for losses) leaves each utility as it is."""

    @pytest.mark.parametrize("exponent", [1, F(1), 1.0])
    def test_exact_shares_stay_exact(self, exponent):
        gains = utility_factors_gains([F(1), F(3)], exponent)
        losses = utility_factors_losses([F(-1), F(-3)], exponent)
        assert gains == [F(1, 4), F(3, 4)] and losses == [F(3, 4), F(1, 4)]
        assert all(type(x) is F for x in gains + losses)

    @pytest.mark.parametrize("exponent", [1, F(1), 1.0])
    def test_float_shares_stay_float(self, exponent):
        gains = utility_factors_gains([1.0, 3.0], exponent)
        losses = utility_factors_losses([-1.0, -3.0], exponent)
        assert gains == [0.25, 0.75] and losses == [0.75, 0.25]
        assert all(type(x) is float for x in gains + losses)

    @pytest.mark.parametrize("exponent", [1, F(1)])
    def test_int_shares_divide_into_floats(self, exponent):
        gains = utility_factors_gains([1, 3], exponent)
        losses = utility_factors_losses([-1, -3], exponent)
        assert gains == [0.25, 0.75] and losses == [0.75, 0.25]
        assert all(type(x) is float for x in gains + losses)

    def test_tiny_exact_utilities_accepted(self):
        tiny = F(1, 10**900)
        assert utility_factors_gains([tiny, F(1)]) == [F(1, 10**900 + 1), F(10**900, 10**900 + 1)]
        assert utility_factors_losses([-tiny, F(-1)]) == [F(10**900, 10**900 + 1), F(1, 10**900 + 1)]


def _payoff_utility(exponent, payoff):
    return UtilityFunction(exponent)(payoff)


class TestNumpyScalars:
    """A numpy scalar is computed on as the Python number it holds, never in
    numpy's fixed-width arithmetic."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("call, numpy_args, python_args", [
        (utility_factors_gains, ([np.int64(2**62)] * 2, 1), ([2**62] * 2, 1)),
        (utility_factors_gains, ([np.uint8(200), np.uint8(1)], 2), ([200, 1], 2)),
        (_payoff_utility, (2, np.int64(10**10)), (2, 10**10)),
        (_payoff_utility, (np.int64(3), np.int64(-10**10)), (3, -10**10)),
        (utility_factors_losses, ([np.int64(-10**10), np.int64(-1)], 2), ([-10**10, -1], 2)),
        (utility_factors_gains, ([np.float64(1e308), 1.0], 2.5), ([1e308, 1.0], 2.5)),
        (utility_factors_gains, ([np.float32(0.5), 1.0], np.float64(0.5)), ([0.5, 1.0], 0.5)),
    ], ids=["int64-sum", "uint8-power", "int64-payoff", "int64-exponent", "int64-losses",
            "float64-overflow", "float-exponent"])
    def test_results_match_python_numbers(self, call, numpy_args, python_args):
        assert _outcome(call, *numpy_args) == _outcome(call, *python_args)

    @settings(max_examples=100, deadline=None)
    @given(
        gains=st.booleans(),
        magnitudes=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5),
        exponent=st.integers(1, 4),
    )
    def test_int64_utilities_match_python_ints(self, gains, magnitudes, exponent):
        rule = utility_factors_gains if gains else utility_factors_losses
        utilities = magnitudes if gains else [-m - 1 for m in magnitudes]
        as_int64 = [np.int64(u) for u in utilities]
        assert _outcome(rule, as_int64, np.int64(exponent)) == _outcome(rule, utilities, exponent)


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

    def test_exact_utility_below_the_double_range(self):
        # float(1/10**400) is 0.0; its logarithm used to raise "math domain error".
        tiny = F(1, 10**400)
        log_tiny = -math.log(10**400)
        gains = information_functional_gains([0.5, 0.5], [tiny, 1])
        assert gains == pytest.approx(-math.log(2) - 0.5 * log_tiny, rel=1e-15)
        losses = information_functional_losses([0.5, 0.5], [-tiny, -1])
        assert losses == pytest.approx(-math.log(2) + 0.5 * log_tiny, rel=1e-15)

    @pytest.mark.skipif(
        np.longdouble("1e-4000") == 0, reason="long double has the range of a double here"
    )
    def test_inexact_utility_below_the_double_range(self):
        # float(np.longdouble('1e-4000')) is 0.0; its logarithm used to
        # raise "math domain error".
        tiny = np.longdouble("1e-4000")
        log_tiny = -4000 * math.log(10)
        gains = information_functional_gains([0.5, 0.5], [tiny, 1])
        assert gains == pytest.approx(-math.log(2) - 0.5 * log_tiny, rel=1e-9)
        losses = information_functional_losses([0.5, 0.5], [-tiny, -1])
        assert losses == pytest.approx(-math.log(2) + 0.5 * log_tiny, rel=1e-9)

    def test_underflowing_real_without_an_exact_ratio(self):
        with pytest.raises(ValidationError, match="no exact ratio"):
            information_functional_gains([0.5, 0.5], [_Underflowing(), 1])

    @pytest.mark.parametrize(
        "lam, weight, what, rule",
        [
            ("x", 1.0, "lam", "a real number, got 'x'"),
            (True, 1.0, "lam", "a real number, got True"),
            (0.0, None, "{exponent}", "a real number, got None"),
            (0.0, math.inf, "{exponent}", "finite, got inf"),
        ],
    )
    def test_multiplier_and_exponent_must_be_real(self, lam, weight, what, rule):
        for functional, exponent, utility in (
            (information_functional_gains, "alpha", 1),
            (information_functional_losses, "gamma", -1),
        ):
            with pytest.raises(ValidationError, match=f"^{what.format(exponent=exponent)} must be {rule}$"):
                functional([1], [utility], lam, weight)

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


# The four public functions as they were before gains and losses shared one
# implementation, kept verbatim (with the two helpers they called) as the
# reference the differential tests below compare against.
def _reference_utility_factors_gains(utilities: Sequence, alpha: Real = 1) -> list:
    """Closed-form utility factors for non-negative expected utilities.

    ``f_n = U_n**alpha / sum_m U_m**alpha`` with ``alpha > 0``.  A zero
    utility yields a zero factor; an all-zero family carries no signal
    and is rejected, as is any negative utility (use the losses rule) and
    a family whose weights all underflow to zero (``DegenerateSetError``).
    Exact inputs stay exact when ``alpha`` is 1 or a positive integer.
    """
    values = _checks.reals(utilities, what="utility")
    _checks.positive(alpha, what="alpha")
    for u in values:
        if u < 0:
            raise SignDomainError(
                f"gains rule needs non-negative utilities, got {u!r}"
            )
    if all(u == 0 for u in values):
        raise DegenerateSetError(
            "all utilities are zero; the gains rule cannot rank them"
        )
    weights = [_power(u, alpha, what="a gains weight") for u in values]
    return _reference_shares(weights, "gains")


def _reference_utility_factors_losses(utilities: Sequence, gamma: Real = 1) -> list:
    """Closed-form utility factors for strictly negative expected utilities.

    ``f_n = |U_n|**(-gamma) / sum_m |U_m|**(-gamma)`` with ``gamma > 0``:
    the smallest loss in magnitude receives the largest factor.  Any
    non-negative utility is rejected — mixed-sign families fit neither
    rule and are not silently split — and so is a family whose weights
    all underflow to zero (``DegenerateSetError``).
    """
    values = _checks.reals(utilities, what="utility")
    _checks.positive(gamma, what="gamma")
    for u in values:
        if u >= 0:
            raise SignDomainError(
                f"losses rule needs strictly negative utilities, got {u!r}"
            )
    weights = [_power(abs(u), -gamma, what="a losses weight") for u in values]
    return _reference_shares(weights, "losses")


def _reference_shares(weights: list, rule: str) -> list:
    """Each weight over their total.  A float total past the double range
    raises ``ValidationError``; a total of zero, which only weights that
    underflow floating point leave, raises ``DegenerateSetError``."""
    total = sum(weights)
    if not isinstance(total, Rational) and not math.isfinite(total):
        raise ValidationError(f"the sum of the {rule} weights overflows floating point")
    if total == 0:
        raise DegenerateSetError(
            f"every {rule} weight underflows floating point to zero; "
            "the rule cannot rank the utilities"
        )
    return [w / total for w in weights]


def _reference_functional_inputs(factors: Sequence, utilities: Sequence) -> tuple[list[float], tuple]:
    f = [float(x) for x in _checks.reals(factors, what="factor")]
    values = _checks.reals(utilities, what="utility")
    if len(f) != len(values):
        raise ValidationError(f"factor/utility length mismatch: {len(f)} vs {len(values)}")
    for x in f:
        if x < 0.0:
            raise ValidationError(f"factors must be non-negative, got {x!r}")
    return f, values


def _reference_information_functional_gains(
    factors: Sequence,
    utilities: Sequence,
    lam: float = 0.0,
    alpha: float = 1.0,
) -> float:
    """Information functional whose minimizer is the gains factor rule.

    ``sum f ln f + lam * (sum f - 1) + alpha * sum f * L`` with
    log-penalties ``L_n = -ln U_n``.  A zero utility carries an infinite
    penalty: if its factor is positive the functional is ``math.inf``,
    while a zero factor silences the term.
    """
    lam = float(_checks.real(lam, what="lam"))
    alpha = float(_checks.real(alpha, what="alpha"))
    f, values = _reference_functional_inputs(factors, utilities)
    for u in values:
        if u < 0:
            raise SignDomainError(
                f"gains functional needs non-negative utilities, got {u!r}"
            )
    penalty = 0.0
    for f_n, u in zip(f, values):
        if u == 0:
            if f_n > 0.0:
                return math.inf
            continue  # 0 weight on an infinite penalty contributes nothing
        penalty += f_n * (-_log_magnitude(u))
    entropy = sum(_xlogx(f_n) for f_n in f)
    return entropy + lam * (sum(f) - 1.0) + alpha * penalty


def _reference_information_functional_losses(
    factors: Sequence,
    utilities: Sequence,
    lam: float = 0.0,
    gamma: float = 1.0,
) -> float:
    """Information functional whose minimizer is the losses factor rule.

    Same structure as the gains functional but the log-penalty term
    enters with the opposite sign,
    ``sum f ln f + lam * (sum f - 1) - gamma * sum f * L``
    with ``L_n = -ln |U_n|``, which is what flips the minimizer to
    ``f_n`` proportional to ``|U_n| ** -gamma``.
    """
    lam = float(_checks.real(lam, what="lam"))
    gamma = float(_checks.real(gamma, what="gamma"))
    f, values = _reference_functional_inputs(factors, utilities)
    for u in values:
        if u >= 0:
            raise SignDomainError(
                f"losses functional needs strictly negative utilities, got {u!r}"
            )
    penalty = sum(f_n * (-_log_magnitude(u)) for f_n, u in zip(f, values))
    entropy = sum(_xlogx(f_n) for f_n in f)
    return entropy + lam * (sum(f) - 1.0) + gamma * (0.0 - penalty)


def _bits(value):
    """``value`` as its type and, for a float (numpy's included), ``float.hex``,
    which tells ``-0.0`` from ``0.0`` and equal hex means equal value."""
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return type(value), value.hex() if isinstance(value, float) else value


def _outcome(function, *args):
    """What ``function`` returns, as ``_bits``, or its exception's class and text."""
    try:
        return _bits(function(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _as_now(outcome, rule):
    """A reference ``outcome`` as the ``rule`` gives it now.  Each ``-0.0`` factor reads
    ``0.0``: the gains rule gives a zero utility the factor ``+0.0``, where it used to
    keep the sign of ``-0.0``.  A raw ``OverflowError``, from adding a float weight to an
    exact one beyond the double range, is the rule's ``ValidationError``."""
    if isinstance(outcome, list):
        return [(t, "0x0.0p+0" if bits == "-0x0.0p+0" else bits) for t, bits in outcome]
    if outcome[0] is OverflowError:
        return ValidationError, f"the sum of the {rule} weights overflows floating point"
    return outcome


_MAGNITUDES = st.one_of(
    st.integers(0, 10**6),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
    st.floats(0.0, 1e308),
    # Zero, below the double range, beyond it, and next to its ends.
    st.sampled_from([0, F(0), 0.0, F(1, 10**900), F(3, 10**400), F(10**400), F(10**309, 7),
                     5e-324, 1e-308, 1e308, 1.7e308, F(1, 3)]),
)
_EXPONENTS = st.one_of(
    st.integers(1, 8),
    st.fractions(min_value=F(1, 10), max_value=5, max_denominator=20),
    st.floats(0.05, 5.0),
    # Unit, large and refused exponents.
    st.sampled_from([1, F(1), 1.0, 600, 10**9, F(10) ** 300, 1e300, 0, -1, F(-1, 2), -2.5,
                     True, math.inf, math.nan, None, "1"]),
)
_LAMS = st.one_of(
    st.floats(-1e6, 1e6),
    st.integers(-10, 10),
    st.fractions(min_value=-10, max_value=10, max_denominator=100),
    st.sampled_from([0.0, 1e308, -1e308, F(10**400), True, math.nan, None, "x"]),
)
_FACTORS = st.one_of(
    st.floats(0.0, 1.0),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
    st.sampled_from([0.0, -0.0, 1.0, 0, 1, 5e-324, -0.1, F(-1, 10), 2.5, None]),
)


@st.composite
def _utilities(draw):
    """1 to 5 utilities of one sign regime, or mixed: ints, Fractions, floats
    and ``np.float64``s, zeros (``-0.0`` too) among them."""
    regime = draw(st.sampled_from(["gains", "losses", "mixed"]))
    values = []
    for _ in range(draw(st.integers(1, 5))):
        u = draw(_MAGNITUDES)
        if isinstance(u, float) and draw(st.booleans()):
            u = np.float64(u)
        if regime == "losses" or draw(st.booleans()) and (regime == "mixed" or u == 0):
            u = -u
        values.append(u)
    return values


@pytest.mark.parametrize("new, reference", [
    (utility_factors_gains, _reference_utility_factors_gains),
    (utility_factors_losses, _reference_utility_factors_losses),
])
@settings(max_examples=200, deadline=None)
@given(utilities=_utilities(), exponent=_EXPONENTS)
def test_factor_rules_match_the_reference(new, reference, utilities, exponent):
    rule = "gains" if new is utility_factors_gains else "losses"
    got = _outcome(new, list(utilities), exponent)
    assert got == _as_now(_outcome(reference, list(utilities), exponent), rule)


@pytest.mark.parametrize("new, reference", [
    (information_functional_gains, _reference_information_functional_gains),
    (information_functional_losses, _reference_information_functional_losses),
])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), utilities=_utilities(), lam=_LAMS, exponent=_EXPONENTS)
def test_functionals_match_the_reference(new, reference, data, utilities, lam, exponent):
    n = len(utilities) + data.draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    factors = data.draw(st.lists(_FACTORS, min_size=n, max_size=n))
    args = (factors, list(utilities), lam, exponent)
    assert _outcome(new, *args) == _outcome(reference, *args)
