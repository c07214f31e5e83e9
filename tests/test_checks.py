"""Tests for the shared checks: the exact ``total``, overflow-safe messages,
``count`` and the seed rule."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchoice import ValidationError, _checks, random_density_operator, sample_inconclusive
from qchoice.attraction import ordered_uniform_gap_check, quarter_law_check
from qchoice.verify import verify_entropy

F = Fraction

_NUMBERS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestTotal:
    @given(st.lists(_NUMBERS, max_size=12))
    def test_matches_sum_in_value_and_type(self, values):
        got, want = _checks.total(values), sum(values)
        assert type(got) is type(want)
        assert got == want

    @settings(max_examples=50)
    @given(st.lists(st.fractions(max_denominator=10**12), max_size=20))
    def test_fractions_stay_exact(self, values):
        got = _checks.total(iter(values))
        assert type(got) is (Fraction if values else int)
        assert got == sum(values)

    def test_float_rounding_is_the_builtin_sums(self):
        # Left to right, 1e16 + 1 rounds back to 1e16; an exact sum gives 1.
        assert _checks.total([1e16, 1.0, -1e16]) == 0.0
        assert _checks.total([1e16, F(1), -1e16]) == 0.0


class TestNumberText:
    def test_finite_values_print_as_floats(self):
        assert _checks.number_text(F(1, 3)) == repr(1 / 3)
        assert _checks.number_text(7) == "7.0"

    def test_values_beyond_the_double_range_do_not_overflow(self):
        assert _checks.number_text(F(10) ** 308 * 2) == "2.000000e+308"
        assert _checks.number_text(-(10**5000) // 3) == "-3.333333e+4999"


class TestCheckSum:
    def test_sum_message_survives_a_total_beyond_double_range(self):
        # Each weight is a finite double, their sum is not: the message
        # used to raise OverflowError from float(total).
        with pytest.raises(ValidationError, match=r"got 2\.000000e\+308"):
            _checks.check_sum((F(10) ** 308, F(10) ** 308), 1, what="weights")


class TestCount:
    def test_bounds_are_inclusive(self):
        assert _checks.count(2, what="n", minimum=2, maximum=5) == 2
        assert _checks.count(5, what="n", minimum=2, maximum=5) == 5

    def test_above_maximum(self):
        with pytest.raises(ValidationError, match=r"^n must be <= 5, got 6$"):
            _checks.count(6, what="n", minimum=2, maximum=5)

    def test_no_maximum_by_default(self):
        assert _checks.count(10**30, what="n") == 10**30


class TestReal:
    @pytest.mark.parametrize("value, expected", [
        (np.int64(2**62), 2**62),
        (np.uint8(200), 200),
        (np.float64(0.1), 0.1),
        (np.float32(0.5), 0.5),
    ])
    def test_numpy_scalars_come_back_as_python_numbers(self, value, expected):
        for got in (_checks.real(value, what="x"), _checks.positive(value, what="x"),
                    *_checks.reals([value], what="x")):
            assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize("value", [3, -2.5, Fraction(1, 3)])
    def test_other_values_come_back_unchanged(self, value):
        assert _checks.real(value, what="x") is value
        assert _checks.reals([value], what="x")[0] is value

    def test_refusals_name_the_value_given(self):
        with pytest.raises(ValidationError, match=r"^x must be positive, got np.float64\(-1.0\)$"):
            _checks.positive(np.float64(-1.0), what="x")


class TestSeeds:
    """Every library stream takes its seed through ``_checks.rng``."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: random_density_operator(4, -1), "seed must be >= 0, got -1"),
            (lambda: sample_inconclusive(3, "x"), "seed must be an integer, got 'x'"),
            (lambda: quarter_law_check(10, seed=1.5), "seed must be an integer, got 1.5"),
            (lambda: ordered_uniform_gap_check(3, 10, seed=True), "seed must be an integer, got True"),
            (lambda: verify_entropy(10, seed=None, vectors=1), "seed must be an integer, got None"),
        ],
        ids=["negative", "text", "float", "bool", "none"],
    )
    def test_bad_seed_refused(self, call, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            call()

    def test_integers_and_generators_accepted(self):
        assert quarter_law_check(50, np.int64(3)) == quarter_law_check(50, 3)
        rng = np.random.default_rng(3)
        assert _checks.rng(rng) is rng
        assert quarter_law_check(50, np.random.default_rng(3)) == quarter_law_check(50, 3)
