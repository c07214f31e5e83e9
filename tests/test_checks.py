"""Tests for the shared checks: the exact ``total`` and overflow-safe messages."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchoice import ValidationError, _checks

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
