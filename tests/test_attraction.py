"""Tests for the quarter law, gap statistics, and quantized attraction ladders."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchoice import (
    AttractionSet,
    ValidationError,
    asymptotic_attraction,
    attraction_gap,
    attraction_qmax,
    ordered_uniform_gap_check,
    quantized_attraction_set,
    quarter_law_check,
)

F = Fraction

# The exact ladders for small N, frozen.
LADDER_CATALOGUE = {
    2: [F(1, 4), F(-1, 4)],
    3: [F(3, 8), F(0), F(-3, 8)],
    4: [F(3, 8), F(1, 8), F(-1, 8), F(-3, 8)],
    5: [F(5, 12), F(5, 24), F(0), F(-5, 24), F(-5, 12)],
}


class TestClosedForms:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, F(1, 2)), (3, F(3, 8)), (4, F(1, 4)), (5, F(5, 24)), (6, F(1, 6)), (7, F(7, 48))],
    )
    def test_gap(self, n, expected):
        assert attraction_gap(n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(2, F(1, 4)), (3, F(3, 8)), (4, F(3, 8)), (5, F(5, 12)), (6, F(5, 12)), (7, F(7, 16))],
    )
    def test_qmax(self, n, expected):
        assert attraction_qmax(n) == expected

    def test_gap_parity_formulas(self):
        for n in range(2, 101):
            if n % 2 == 0:
                assert attraction_gap(n) == F(1, n)
            else:
                assert attraction_gap(n) == F(n, n * n - 1)

    def test_qmax_parity_formulas(self):
        for n in range(2, 101):
            if n % 2 == 0:
                assert attraction_qmax(n) == F(n - 1, 2 * n)
            else:
                assert attraction_qmax(n) == F(n, 2 * (n + 1))

    def test_qmax_is_half_span(self):
        # q_max = (N - 1) * delta / 2 ties top, gap and size together.
        for n in range(2, 201):
            assert attraction_qmax(n) == (n - 1) * attraction_gap(n) / 2

    def test_below_two_rejected(self):
        with pytest.raises(ValidationError):
            attraction_gap(1)
        with pytest.raises(ValidationError):
            attraction_qmax(1)


class TestQuantizedLadder:
    @pytest.mark.parametrize("n", sorted(LADDER_CATALOGUE))
    def test_catalogue(self, n):
        assert list(quantized_attraction_set(n).values) == LADDER_CATALOGUE[n]

    def test_single_prospect_degenerate(self):
        ladder = quantized_attraction_set(1)
        assert ladder.values == (F(0),)
        assert ladder.delta == 0
        assert ladder.q_max == 0

    def test_consistent_with_closed_forms(self):
        for n in range(2, 60):
            ladder = quantized_attraction_set(n)
            assert ladder.delta == attraction_gap(n)
            assert ladder.q_max == attraction_qmax(n)
            assert ladder.values[0] == ladder.q_max

    def test_mean_magnitude_is_quarter(self):
        for n in range(2, 60):
            values = quantized_attraction_set(n).values
            assert sum(abs(v) for v in values) / n == F(1, 4)

    def test_antisymmetry(self):
        for n in range(2, 60):
            values = quantized_attraction_set(n).values
            for k in range(n):
                assert values[k] == -values[n - 1 - k]

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValidationError):
            quantized_attraction_set(0)
        with pytest.raises(ValidationError):
            quantized_attraction_set(-2)

    def test_rejects_non_integer_count(self):
        with pytest.raises(ValidationError):
            quantized_attraction_set(2.5)
        with pytest.raises(ValidationError):
            quantized_attraction_set(True)

    def test_as_floats(self):
        floats = quantized_attraction_set(2).as_floats()
        assert floats.tolist() == [0.25, -0.25]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 400))
    def test_ladder_properties(self, n):
        ladder = quantized_attraction_set(n)
        values = ladder.values
        assert len(values) == n
        assert all(a > b for a, b in zip(values, values[1:]))
        assert sum(values) == 0
        assert values[0] <= F(1, 2)  # ladders never leave the admissible range


class TestAttractionSetValidation:
    def test_accepts_valid_ladder(self):
        AttractionSet((F(1, 4), F(-1, 4)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2000))
    def test_closed_form_ladders_pass_full_validation(self, n):
        # quantized_attraction_set skips the check; the closed forms must
        # still satisfy every rule a caller-built ladder is held to.
        ladder = quantized_attraction_set(n)
        assert AttractionSet(ladder.values) == ladder

    def test_rejects_floats(self):
        with pytest.raises(ValidationError, match="exact"):
            AttractionSet((0.25, -0.25))

    def test_rejects_wrong_mean_magnitude(self):
        # Equal gaps and zero sum, but mean |q| = 1/3.
        with pytest.raises(ValidationError, match="1/4"):
            AttractionSet((F(1, 2), F(0), F(-1, 2)))

    def test_rejects_uneven_spacing(self):
        with pytest.raises(ValidationError, match="equally spaced"):
            AttractionSet((F(3, 8), F(1, 8), F(-4, 8)))

    def test_rejects_ascending(self):
        with pytest.raises(ValidationError, match="descending"):
            AttractionSet((F(-1, 4), F(1, 4)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match=r"\[-1, 1\]"):
            AttractionSet((F(3, 2), F(1, 2), F(-1, 2), F(-3, 2)))

    def test_rejects_nonzero_single_value(self):
        with pytest.raises(ValidationError):
            AttractionSet((F(1, 4),))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            AttractionSet(())


class TestAsymptoticLadder:
    def test_even_n_exact_match(self):
        # For even N the large-N formula reproduces the ladder identically.
        for n in (2, 4, 10, 50):
            ladder = quantized_attraction_set(n)
            for rank in range(1, n + 1):
                assert asymptotic_attraction(n, rank) == pytest.approx(
                    float(ladder.values[rank - 1]), abs=1e-15
                )

    def test_odd_n_within_one_over_n(self):
        for n in (3, 5, 21, 99):
            ladder = quantized_attraction_set(n)
            for rank in range(1, n + 1):
                err = abs(asymptotic_attraction(n, rank) - float(ladder.values[rank - 1]))
                assert err < 1.0 / n

    def test_large_n_top_value(self):
        assert asymptotic_attraction(1000, 1) == pytest.approx(0.4995)

    def test_rank_validated(self):
        with pytest.raises(ValidationError):
            asymptotic_attraction(5, 0)
        with pytest.raises(ValidationError):
            asymptotic_attraction(5, 6)
        with pytest.raises(ValidationError):
            asymptotic_attraction(1, 1)


class TestQuarterLaw:
    def test_estimate_near_quarter(self):
        assert quarter_law_check(100_000, seed=0) == pytest.approx(0.25, abs=0.01)

    def test_deterministic_per_seed(self):
        assert quarter_law_check(1000, seed=5) == quarter_law_check(1000, seed=5)
        assert quarter_law_check(1000, seed=5) != quarter_law_check(1000, seed=6)

    def test_chunked_equals_unchunked(self, monkeypatch):
        import qchoice.attraction as mod

        full = quarter_law_check(30_000, seed=9)
        monkeypatch.setattr(mod, "_CHUNK_TARGET", 7_000)
        assert quarter_law_check(30_000, seed=9) == pytest.approx(full, abs=1e-12)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValidationError):
            quarter_law_check(0)


class TestOrderedUniformGaps:
    def test_two_draws_mean_gap_is_third(self):
        # E[max - min] of two uniforms = 1/3.
        gaps = ordered_uniform_gap_check(2, 200_000, seed=0)
        assert gaps.shape == (1,)
        assert gaps[0] == pytest.approx(1 / 3, abs=5e-3)

    def test_five_draws_equidistant(self):
        gaps = ordered_uniform_gap_check(5, 100_000, seed=0)
        assert gaps.shape == (4,)
        assert gaps == pytest.approx([1 / 6] * 4, abs=5e-3)

    def test_chunked_path(self):
        # n = 25 forces several chunks at the default chunk target.
        gaps = ordered_uniform_gap_check(25, 100_000, seed=0)
        assert gaps == pytest.approx([1 / 26] * 24, abs=2e-3)

    def test_deterministic(self):
        a = ordered_uniform_gap_check(4, 5000, seed=11)
        b = ordered_uniform_gap_check(4, 5000, seed=11)
        assert np.array_equal(a, b)

    def test_validates_inputs(self):
        with pytest.raises(ValidationError):
            ordered_uniform_gap_check(1, 100)
        with pytest.raises(ValidationError):
            ordered_uniform_gap_check(3, 0)
