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
    attraction_gap,
    attraction_qmax,
    ordered_uniform_gap_check,
    quantized_attraction_set,
    quarter_law_check,
)
from qchoice import cli
from qchoice.attraction import gap_and_top

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
        assert gap_and_top(1) == (0, 0)

    def test_consistent_with_closed_forms(self):
        for n in range(2, 60):
            values = quantized_attraction_set(n).values
            assert {a - b for a, b in zip(values, values[1:])} == {attraction_gap(n)}
            assert values[0] == attraction_qmax(n)
            assert gap_and_top(n) == (attraction_gap(n), attraction_qmax(n))

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
        assert cli._ladder_statistics(2)["values"] == [0.25, -0.25]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 2000))
    def test_ladder_properties(self, n):
        ladder = quantized_attraction_set(n)
        values = ladder.values
        gap = attraction_gap(n)
        assert len(values) == n
        assert all(a - b == gap for a, b in zip(values, values[1:]))
        assert sum(values) == 0
        assert sum(abs(v) for v in values) == F(n, 4)
        assert values[0] <= F(1, 2)  # ladders never leave the admissible range


def float_bits(values) -> bytes:
    """The IEEE bytes of ``values``, so ``0.0`` and ``-0.0`` differ."""
    return np.asarray(values, dtype=np.float64).tobytes()


def reference(n: int, k: int) -> Fraction:
    """Rung ``k`` (0-based) from the public closed forms, not the record's numerators."""
    return F(0) if n == 1 else attraction_qmax(n) - k * attraction_gap(n)


def sample_rungs(n: int) -> list[int]:
    """Every rung of a short ladder; else both ends, the middle and a spread."""
    if n <= 64:
        return list(range(n))
    mid = n // 2
    return sorted({*range(4), *range(mid - 2, mid + 3), *range(n - 4, n), *range(0, n, n // 16)})


class TestNumeratorPathMatchesFractions:
    """The record's floats and texts come from the integer numerators; they
    must equal ``float(v)`` and ``str(v)`` of the Fraction ladder."""

    @staticmethod
    def check_record(n, rungs):
        stats = cli._ladder_statistics(n)
        assert len(stats["values"]) == len(stats["values_exact"]) == n
        expected = [reference(n, k) for k in rungs]
        got = [stats["values"][k] for k in rungs]
        assert float_bits(got) == float_bits([float(v) for v in expected])
        assert [stats["values_exact"][k] for k in rungs] == [str(v) for v in expected]
        gap, top = reference(n, 0) - reference(n, 1), reference(n, 0)
        assert float_bits([stats["delta"], stats["q_max"]]) == float_bits([float(gap), float(top)])
        assert (stats["delta_exact"], stats["q_max_exact"]) == (str(gap), str(top))

    def test_record_every_n_up_to_3000(self):
        for n in range(1, 3001):
            self.check_record(n, sample_rungs(n))

    def test_largest_ladder(self):
        # The largest odd N has the largest numerators and denominator,
        # and they sit at the ends; the middle rung is zero.
        self.check_record(cli.MAX_PROSPECTS - 1, sample_rungs(cli.MAX_PROSPECTS - 1))

    @settings(max_examples=3, deadline=None)
    @given(n=st.integers(3001, cli.MAX_PROSPECTS), data=st.data())
    def test_drawn_n_up_to_the_cap(self, n, data):
        drawn = data.draw(st.lists(st.integers(0, n - 1), max_size=50))
        self.check_record(n, sorted({*sample_rungs(n), *drawn}))

    def test_as_floats_every_n_up_to_1000(self):
        for n in range(1, 1001):
            values = quantized_attraction_set(n).values
            floats = cli._ladder_statistics(n)["values"]
            assert float_bits(floats) == float_bits([float(v) for v in values])
            gap = values[0] - values[1] if n > 1 else F(0)
            assert gap_and_top(n) == (gap, values[0])

    @pytest.mark.parametrize("n", [4999, 5000, 50001])
    def test_as_floats_long_ladders(self, n):
        rungs = sample_rungs(n)
        floats = cli._ladder_statistics(n)["values"]
        assert float_bits([floats[k] for k in rungs]) == float_bits([float(reference(n, k)) for k in rungs])


class TestAttractionSetValidation:
    def test_accepts_valid_ladder(self):
        AttractionSet((F(1, 4), F(-1, 4)))

    def test_rejects_floats(self):
        with pytest.raises(ValidationError, match="exact"):
            AttractionSet((0.25, -0.25))
        with pytest.raises(ValidationError, match="exact"):
            AttractionSet((np.float32(0.25), np.float32(-0.25)))

    @pytest.mark.parametrize(
        "values", [("0",), (False,), ("1/4", "-1/4"), (True, F(-1, 4)), (None,)]
    )
    def test_rejects_strings_and_bools(self, values):
        with pytest.raises(ValidationError, match="real number"):
            AttractionSet(values)

    @pytest.mark.parametrize("values, detail", [
        (None, "got None"), (5, "got 5"), ({F(0): 1}, "not a mapping"),
    ])
    def test_rejects_what_is_not_a_column(self, values, detail):
        with pytest.raises(ValidationError, match=f"attraction value column must be a sequence, {detail}"):
            AttractionSet(values)

    def test_takes_any_iterable(self):
        assert AttractionSet(iter([F(1, 4), F(-1, 4)])).values == (F(1, 4), F(-1, 4))

    def test_rejects_wrong_mean_magnitude(self):
        # Equal gaps and zero sum, but mean |q| = 1/3.
        with pytest.raises(ValidationError, match="quantized ladder for N = 3"):
            AttractionSet((F(1, 2), F(0), F(-1, 2)))

    def test_rejects_uneven_spacing(self):
        with pytest.raises(ValidationError, match="quantized ladder for N = 3"):
            AttractionSet((F(3, 8), F(1, 8), F(-4, 8)))

    def test_rejects_ascending(self):
        with pytest.raises(ValidationError, match="quantized ladder for N = 2"):
            AttractionSet((F(-1, 4), F(1, 4)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="quantized ladder for N = 4"):
            AttractionSet((F(3, 2), F(1, 2), F(-1, 2), F(-3, 2)))

    def test_rejects_nonzero_single_value(self):
        with pytest.raises(ValidationError, match="quantized ladder for N = 1"):
            AttractionSet((F(1, 4),))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            AttractionSet(())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 2000), st.data())
    def test_rejects_one_rung_moved(self, n, data):
        # The closed-form ladder over its shared denominator, one rung
        # nudged by a single unit of it.
        den = 2 * n if n % 2 == 0 else 2 * (n * n - 1)
        values = list(quantized_attraction_set(n).values)
        k = data.draw(st.integers(0, n - 1))
        values[k] += data.draw(st.sampled_from([F(1, den), F(-1, den)]))
        with pytest.raises(ValidationError, match=f"quantized ladder for N = {n}"):
            AttractionSet(tuple(values))


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
