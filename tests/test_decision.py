"""Tests for the decoy pipeline: composition, bounds, scoring, regularity."""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qchoice import (
    ChoiceSet,
    InfeasibleBoundsError,
    QChoiceError,
    PredictionReport,
    ValidationError,
    compose_probabilities,
    enforce_bounds,
    predict_decoy,
    quantized_attraction_set,
    regularity_violation_check,
    score_against_empirical,
)
from qchoice import _checks
from qchoice.decision import _clip_to_bounds

F = Fraction


def thirds():
    return (F(1, 3), F(1, 3), F(1, 3))


class TestChoiceSet:
    def test_valid(self):
        cs = ChoiceSet(("A", "B"), (F(2, 5), F(3, 5)), ("A", "B"))
        assert cs.n_prospects == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            ChoiceSet(("A", "A"), (F(1, 2), F(1, 2)), ("A", "A"))

    def test_rank_must_be_permutation(self):
        with pytest.raises(ValidationError, match="permutation"):
            ChoiceSet(("A", "B"), (F(1, 2), F(1, 2)), ("A", "C"))
        with pytest.raises(ValidationError, match="permutation"):
            ChoiceSet(("A", "B"), (F(1, 2), F(1, 2)), ("A",))

    def test_factors_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            ChoiceSet(("A", "B"), (F(1, 2), F(1, 4)), ("A", "B"))

    def test_factor_range_checked(self):
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            ChoiceSet(("A", "B"), (F(3, 2), F(-1, 2)), ("A", "B"))
        for factors in ((True, False), ("0.5", "0.5"), (None, 1)):
            with pytest.raises(ValidationError, match="real number"):
                ChoiceSet(("A", "B"), factors, ("A", "B"))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="utility factors"):
            ChoiceSet(("A", "B"), (F(1),), ("A", "B"))


class TestEnforceBounds:
    def test_within_bounds_passthrough(self):
        q, clamped = enforce_bounds((F(1, 2), F(1, 2)), (F(1, 4), F(-1, 4)))
        assert q == [F(1, 4), F(-1, 4)]
        assert clamped is False

    def test_two_prospect_symmetric_clamp(self):
        # f = (9/10, 1/10): both rungs overshoot and pin at (1/10, -1/10).
        q, clamped = enforce_bounds((F(9, 10), F(1, 10)), (F(1, 4), F(-1, 4)))
        assert q == [F(1, 10), F(-1, 10)]
        assert clamped is True

    def test_three_prospect_redistribution(self):
        # Uniform f with the 3-ladder: only the bottom rung violates
        # (-3/8 < -1/3); the excess -1/24 splits between the free two.
        q, clamped = enforce_bounds(thirds(), quantized_attraction_set(3).values)
        assert q == [F(17, 48), F(-1, 48), F(-1, 3)]
        assert sum(q) == 0
        assert clamped is True

    def test_idempotent(self):
        f = (F(9, 10), F(1, 10))
        once, _ = enforce_bounds(f, (F(1, 4), F(-1, 4)))
        twice, clamped = enforce_bounds(f, tuple(once))
        assert twice == once
        assert clamped is False

    def test_zero_attraction_untouched(self):
        q, clamped = enforce_bounds((F(1, 4), F(3, 4)), (F(0), F(0)))
        assert q == [F(0), F(0)]
        assert clamped is False

    def test_single_prospect(self):
        q, clamped = enforce_bounds((F(1),), (F(0),))
        assert q == [F(0)] and clamped is False

    def test_attraction_sum_must_be_zero(self):
        with pytest.raises(ValidationError, match="sum to 0"):
            enforce_bounds((F(1, 2), F(1, 2)), (F(1, 4), F(1, 4)))

    def test_factor_sum_must_be_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            enforce_bounds((F(1, 2), F(1, 4)), (F(0), F(0)))

    def test_rejects_bool_and_strings(self):
        with pytest.raises(ValidationError, match="real number"):
            enforce_bounds((True, False), (F(0), F(0)))
        with pytest.raises(ValidationError, match="real number"):
            enforce_bounds((F(1, 2), F(1, 2)), (False, False))
        with pytest.raises(ValidationError, match="real number"):
            enforce_bounds((F(1, 2), F(1, 2)), ("0", "0"))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="^1 prospects but 2 attraction factors$"):
            enforce_bounds((F(1),), (F(0), F(0)))

    # Only all-Fraction inputs run on integer numerators; int, float and
    # mixed inputs keep their own arithmetic, and so their output types.
    def test_int_inputs_keep_the_old_loop(self):
        q, clamped = enforce_bounds((1, 0), (1, -1))
        assert q == [0, 0] and [type(v) for v in q] == [int, int] and clamped is True

    def test_float_inputs_keep_the_old_loop(self):
        q, clamped = enforce_bounds((0.9, 0.1), (0.25, -0.25))
        assert [v.hex() for v in q] == [(1 - 0.9).hex(), (-0.1).hex()] and clamped is True

    def test_mixed_inputs_keep_the_old_loop(self):
        q, clamped = enforce_bounds((F(9, 10), 0.1), (F(1, 4), F(-1, 4)))
        assert q == [F(1, 10), -0.1] and [type(v) for v in q] == [F, float] and clamped is True

    def test_result_respects_bounds(self):
        f = (F(19, 20), F(1, 40), F(1, 40))
        q, clamped = enforce_bounds(f, quantized_attraction_set(3).values)
        assert clamped is True
        assert sum(q) == 0
        for f_n, q_n in zip(f, q):
            assert -f_n <= q_n <= 1 - f_n

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_random_cases_stay_feasible_and_idempotent(self, n, seed):
        import random

        rng = random.Random(seed)
        weights = [rng.randint(1, 30) for _ in range(n)]
        total = sum(weights)
        f = tuple(F(w, total) for w in weights)
        ladder = list(quantized_attraction_set(n).values)
        rng.shuffle(ladder)
        q, _ = enforce_bounds(f, tuple(ladder))
        assert sum(q) == 0
        for f_n, q_n in zip(f, q):
            assert -f_n <= q_n <= 1 - f_n
        again, clamped = enforce_bounds(f, tuple(q))
        assert again == q
        assert clamped is False


class TestComposeProbabilities:
    def test_two_prospect_exact(self):
        cs = ChoiceSet(("target", "competitor"), (F(2, 5), F(3, 5)), ("target", "competitor"))
        report = compose_probabilities(cs)
        assert report.probabilities == (F(13, 20), F(7, 20))
        assert report.attraction_factors == (F(1, 4), F(-1, 4))
        assert report.clamping_applied is False

    def test_even_split_exact(self):
        cs = ChoiceSet(("A", "B"), (F(1, 2), F(1, 2)), ("A", "B"))
        report = compose_probabilities(cs)
        assert report.probabilities == (F(3, 4), F(1, 4))

    def test_rank_controls_assignment(self):
        cs = ChoiceSet(("A", "B"), (F(1, 2), F(1, 2)), ("B", "A"))
        report = compose_probabilities(cs)
        assert report.probabilities == (F(1, 4), F(3, 4))

    def test_three_prospect_with_clamping(self):
        cs = ChoiceSet(("A", "B", "C"), thirds(), ("A", "B", "C"))
        report = compose_probabilities(cs)
        assert report.clamping_applied is True
        # 1/3 + (17/48, -1/48, -16/48) = (11/16, 5/16, 0)
        assert report.probabilities == (F(11, 16), F(5, 16), F(0))

    def test_probabilities_sum_to_one_exactly(self):
        cs = ChoiceSet(("A", "B", "C", "D"), (F(1, 8), F(1, 8), F(1, 4), F(1, 2)), ("D", "C", "B", "A"))
        report = compose_probabilities(cs)
        assert sum(report.probabilities) == 1
        assert sum(report.attraction_factors) == 0


class TestPredictDecoy:
    def test_microwave_numbers(self):
        report = predict_decoy((F(2, 5), F(3, 5)), (0, 1), prospect_ids=("target", "competitor"))
        assert report.probabilities == (F(13, 20), F(7, 20))

    def test_frog_numbers(self):
        report = predict_decoy((F(7, 20), F(13, 20)), (0, 1))
        assert report.probabilities == (F(3, 5), F(2, 5))

    def test_default_ids(self):
        report = predict_decoy((F(1, 2), F(1, 2)), (0, 1))
        assert report.prospect_ids == ("P1", "P2")

    def test_rank_by_id(self):
        report = predict_decoy((F(1, 2), F(1, 2)), ("B", "A"), prospect_ids=("A", "B"))
        assert report.probabilities == (F(1, 4), F(3, 4))

    def test_decoy_as_explicit_third_prospect(self):
        # A decoy retaining real choice share is just a third prospect.
        report = predict_decoy((F(2, 5), F(1, 2), F(1, 10)), (0, 1, 2))
        assert report.n_prospects == 3
        assert sum(report.probabilities) == 1

    def test_rank_index_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            predict_decoy((F(1, 2), F(1, 2)), (0, 2))

    def test_rank_rejects_bool(self):
        with pytest.raises(ValidationError, match="ids or indices"):
            predict_decoy((F(1, 2), F(1, 2)), (True, False))
        with pytest.raises(ValidationError, match="ids or indices"):
            predict_decoy((F(1, 2), F(1, 2)), (0.0, 1.0))
        with pytest.raises(ValidationError, match="real number"):
            predict_decoy([True, False], (0, 1))

    def test_numpy_integer_indices(self):
        expected = predict_decoy((F(2, 5), F(3, 5)), (1, 0))
        assert predict_decoy((F(2, 5), F(3, 5)), np.array([1, 0])) == expected


class TestScoreAgainstEmpirical:
    def _report(self):
        return predict_decoy((F(2, 5), F(3, 5)), (0, 1), prospect_ids=("t", "c"))

    def test_exact_errors(self):
        scored = score_against_empirical(self._report(), (F(61, 100), F(39, 100)))
        assert scored.abs_errors == (F(1, 25), F(1, 25))
        assert scored.max_abs_error == F(1, 25)
        assert scored.mean_abs_error == F(1, 25)

    def test_perfect_match(self):
        report = predict_decoy((F(7, 20), F(13, 20)), (0, 1))
        scored = score_against_empirical(report, (F(3, 5), F(2, 5)))
        assert scored.max_abs_error == 0

    def test_mapping_rejected(self):
        # Iterating a mapping reads its keys, which with int keys would
        # pass for frequencies.
        with pytest.raises(ValidationError, match="not a mapping"):
            score_against_empirical(self._report(), {"c": F(39, 100), "t": F(61, 100)})
        with pytest.raises(ValidationError, match="not a mapping"):
            score_against_empirical(self._report(), {0: "t", 1: "c"})

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            score_against_empirical(self._report(), (F(1),))

    def test_sum_tolerance_two_percent(self):
        # 0.98 total is allowed; 0.9 is not.
        score_against_empirical(self._report(), (F(49, 100), F(49, 100)))
        with pytest.raises(ValidationError, match="sum to 1"):
            score_against_empirical(self._report(), (F(45, 100), F(45, 100)))

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            score_against_empirical(self._report(), (F(11, 10), F(-1, 10)))
        with pytest.raises(ValidationError, match="real number"):
            score_against_empirical(self._report(), (True, False))
        with pytest.raises(ValidationError, match="real number"):
            score_against_empirical(self._report(), ("0.5", "0.5"))

    def test_original_report_untouched(self):
        report = self._report()
        score_against_empirical(report, (F(61, 100), F(39, 100)))
        assert report.empirical is None and report.abs_errors is None


class TestRegularityCheck:
    def test_reversal_detected(self):
        check = regularity_violation_check((F(2, 5), F(3, 5)), (F(13, 20), F(7, 20)))
        assert check.reversal is True
        assert check.favored_by_utility == 1
        assert check.favored_overall == 0

    def test_no_reversal_when_order_kept(self):
        check = regularity_violation_check((F(1, 5), F(4, 5)), (F(2, 5), F(3, 5)))
        assert check.reversal is False

    def test_tie_flag_blocks_reversal(self):
        check = regularity_violation_check((F(2, 5), F(3, 5)), (F(1, 2), F(1, 2)))
        assert check.reversal is False
        assert check.tie is True

    def test_identical_vectors(self):
        check = regularity_violation_check((F(2, 5), F(3, 5)), (F(2, 5), F(3, 5)))
        assert check.reversal is False and check.tie is False

    def test_validates_sums(self):
        with pytest.raises(ValidationError):
            regularity_violation_check((F(2, 5), F(2, 5)), (F(1, 2), F(1, 2)))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            regularity_violation_check((F(1),), (F(1, 2), F(1, 2)))


class TestReversalThreshold:
    def test_reversal_iff_minority_factor_above_quarter(self):
        # Two prospects, decoy targets the utility minority: the prediction
        # flips the order exactly when the minority factor exceeds 1/4.
        for k in range(1, 48):
            f_minor = F(k, 96)
            if f_minor == F(1, 4):
                continue
            report = predict_decoy((f_minor, 1 - f_minor), (0, 1))
            check = regularity_violation_check(report.utility_factors, report.probabilities)
            assert check.reversal is (f_minor > F(1, 4)), f_minor

    def test_exact_quarter_is_tie(self):
        report = predict_decoy((F(1, 4), F(3, 4)), (0, 1))
        assert report.probabilities == (F(1, 2), F(1, 2))
        check = regularity_violation_check(report.utility_factors, report.probabilities)
        assert check.tie is True and check.reversal is False

    def test_no_clamp_window(self):
        # With two prospects both ladder bounds reduce to the same
        # condition: the +1/4 rung fits iff the target factor is <= 3/4.
        for k, expect_clamp in (
            (F(1, 20), False),
            (F(1, 4), False),
            (F(3, 4), False),
            (F(4, 5), True),
            (F(19, 20), True),
        ):
            report = predict_decoy((k, 1 - k), (0, 1))
            assert report.clamping_applied is expect_clamp, k


class TestPredictionReport:
    def test_sum_invariants_enforced(self):
        # p = f + q = (5/4, -1/4) leaves [0, 1].
        with pytest.raises(ValidationError):
            PredictionReport(
                prospect_ids=("A", "B"),
                utility_factors=(F(1, 2), F(1, 2)),
                attraction_factors=(F(3, 4), F(-3, 4)),
                clamping_applied=False,
            )

    def test_attraction_must_sum_to_zero(self):
        with pytest.raises(ValidationError):
            PredictionReport(
                prospect_ids=("A", "B"),
                utility_factors=(F(1, 2), F(1, 2)),
                attraction_factors=(F(1, 4), F(1, 4)),
                clamping_applied=False,
            )

    @pytest.mark.parametrize("q", [("x", "y"), (True, -1), (None, 0)])
    def test_attraction_factors_must_be_real(self, q):
        with pytest.raises(ValidationError, match="attraction factor must be a real number"):
            PredictionReport(("A", "B"), (0, 1), q, False)

    def test_empirical_length_checked(self):
        with pytest.raises(ValidationError, match="empirical"):
            PredictionReport(
                prospect_ids=("A", "B"),
                utility_factors=(F(1, 2), F(1, 2)),
                attraction_factors=(F(1, 4), F(-1, 4)),
                clamping_applied=False,
                empirical=(F(1),),
            )

    @pytest.mark.parametrize(
        "empirical, match",
        [
            ((F(11, 10), F(-1, 10)), "negative"),
            ({0: F(1, 2), 1: F(1, 2)}, "not a mapping"),
            ((F(45, 100), F(45, 100)), "sum to 1"),
            (("0.5", "0.5"), "real number"),
        ],
    )
    def test_empirical_checked_where_it_enters(self, empirical, match):
        with pytest.raises(ValidationError, match=match):
            PredictionReport(
                prospect_ids=("A", "B"),
                utility_factors=(F(1, 2), F(1, 2)),
                attraction_factors=(F(1, 4), F(-1, 4)),
                clamping_applied=False,
                empirical=empirical,
            )

    def test_derived_columns_are_not_fields(self):
        with pytest.raises(TypeError):
            PredictionReport(
                prospect_ids=("A", "B"),
                utility_factors=(F(1, 2), F(1, 2)),
                attraction_factors=(F(1, 4), F(-1, 4)),
                probabilities=(F(1, 2), F(1, 2)),
                clamping_applied=False,
                abs_errors=(7, 7),
                max_abs_error="x",
                mean_abs_error=7,
            )

    def test_constructor_derives_what_the_builders_give(self):
        built = score_against_empirical(
            predict_decoy((F(2, 5), F(3, 5)), (0, 1)), (F(61, 100), F(39, 100))
        )
        direct = PredictionReport(
            prospect_ids=("P1", "P2"),
            utility_factors=(F(2, 5), F(3, 5)),
            attraction_factors=(F(1, 4), F(-1, 4)),
            clamping_applied=False,
            empirical=[F(61, 100), F(39, 100)],
        )
        assert direct == built
        for name in ("probabilities", "abs_errors", "max_abs_error", "mean_abs_error"):
            assert getattr(direct, name) == getattr(built, name), name
        assert direct.empirical == (F(61, 100), F(39, 100))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 7),
        st.integers(0, 10_000),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 10_000)),
    )
    def test_derived_columns_follow_f_q_and_empirical(self, n, seed, exact, emp_seed):
        import random

        rng = random.Random(seed)
        weights = [rng.randint(1, 20) for _ in range(n)]
        f = [F(w, sum(weights)) for w in weights]
        if not exact:
            f = [float(x) for x in f]
        ids = tuple(f"P{k}" for k in range(n))
        rank = list(ids)
        rng.shuffle(rank)
        report = compose_probabilities(ChoiceSet(ids, tuple(f), tuple(rank)))
        assert report.probabilities == tuple(
            a + b for a, b in zip(report.utility_factors, report.attraction_factors)
        )
        assert report.abs_errors is None and report.max_abs_error is None
        assert report.mean_abs_error is None
        with pytest.raises(TypeError):
            PredictionReport(
                prospect_ids=ids,
                utility_factors=report.utility_factors,
                attraction_factors=report.attraction_factors,
                clamping_applied=report.clamping_applied,
                probabilities=report.probabilities,
            )
        if emp_seed is None:
            return
        emp_rng = random.Random(emp_seed)
        counts = [emp_rng.randint(0, 9) for _ in range(n)]
        counts[0] += 1
        e = [F(c, sum(counts)) for c in counts]
        if not exact:
            e = [float(x) for x in e]
        scored = score_against_empirical(report, e)
        errors = tuple(abs(p - x) for p, x in zip(scored.probabilities, e))
        assert scored.probabilities == report.probabilities
        assert scored.empirical == tuple(e)
        assert scored.abs_errors == errors
        assert scored.max_abs_error == max(errors)
        assert scored.mean_abs_error == sum(errors) / n

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10_000))
    def test_composition_invariants(self, n, seed):
        import random

        rng = random.Random(seed)
        weights = [rng.randint(1, 20) for _ in range(n)]
        f = tuple(F(w, sum(weights)) for w in weights)
        ids = tuple(f"P{k}" for k in range(n))
        rank = list(ids)
        rng.shuffle(rank)
        report = compose_probabilities(ChoiceSet(ids, f, tuple(rank)))
        assert sum(report.probabilities) == 1
        assert sum(report.attraction_factors) == 0
        assert all(0 <= p <= 1 for p in report.probabilities)
        if not report.clamping_applied:
            assert sorted(report.attraction_factors) == sorted(
                quantized_attraction_set(n).values
            )


def _revalidated(report: PredictionReport) -> PredictionReport:
    """The same report, built through the validating constructor."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return PredictionReport(**fields)


class TestTrustedReports:
    """Reports built without re-validation pass the validating constructor."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=8),
        st.booleans(),
        st.sampled_from([0, 1, -1]),
        st.randoms(use_true_random=False),
    )
    def test_compose_and_score_reports_revalidate(self, weights, exact, edge, rng):
        n = len(weights)
        total = sum(weights)
        if exact:
            f = [F(w, total) for w in weights]
            f[-1] += edge * F(1, 10**9)
        else:
            f = [w / total for w in weights]
            f[-1] += edge * 1e-9
        ids = tuple(f"P{k}" for k in range(n))
        rank = list(ids)
        rng.shuffle(rank)
        try:
            report = compose_probabilities(ChoiceSet(ids, tuple(f), tuple(rank)))
        except QChoiceError:
            assume(False)  # rejected inputs build no report
        assert _revalidated(report) == report
        counts = [rng.randint(0, 9) for _ in range(n)]
        assume(sum(counts) > 0)
        freqs = [F(c, sum(counts)) for c in counts]
        if not exact:
            freqs = [float(x) for x in freqs]
        scored = score_against_empirical(report, freqs)
        assert _revalidated(scored) == scored


def test_pinned_values_within_the_sum_tolerance_are_accepted():
    # ChoiceSet accepts these factors (they sum to 1 within 1e-9); every
    # attraction value ends pinned and sum(q) misses zero by exactly 1e-9.
    f = (F(95, 100), F(49999999, 10**9))
    q, clamped = enforce_bounds(f, [F(1, 4), F(-1, 4)])
    assert q == [F(1, 20), -f[1]] and clamped
    report = predict_decoy(f, [0, 1])
    assert report.probabilities == (1, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: ChoiceSet((), (), ()), "need at least one utility factor"),
    (lambda: PredictionReport(("A", "B"), (F(1),), (F(0),), False),
     "2 prospects but 1 utility factors"),
    (lambda: PredictionReport((), (), (), False), "need at least one utility factor"),
    (lambda: enforce_bounds([], []), "need at least one utility factor"),
    (lambda: regularity_violation_check([], []), "need at least one utility factor"),
], ids=["choice-set", "report-unequal", "report-empty", "bounds", "regularity"])
def test_empty_and_unequal_columns_are_refused(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert type(exc.value) is ValidationError and str(exc.value) == message


def test_float32_factors_are_judged_as_the_floats_they_hold():
    # ``np.float32`` values are checked and clipped as the Python floats
    # they hold, whose sum is 1.5e-8 off 1: refused, as those floats are.
    f = [np.float32(0.1), np.float32(0.1), np.float32(0.8)]
    q = [np.float32(-0.3), np.float32(0.3), np.float32(0.0)]
    message = "utility factors must sum to 1.0 within 1e-09, got 1.0000000149011612"
    for factors, attractions in ((f, q), ([v.item() for v in f], [v.item() for v in q])):
        with pytest.raises(ValidationError) as exc:
            enforce_bounds(factors, attractions)
        assert type(exc.value) is ValidationError and str(exc.value) == message
    f = [np.float32(0.4083911), np.float32(0.34472623), np.float32(0.24688269)]
    for factors in (f, [v.item() for v in f]):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ChoiceSet(("a", "b", "c"), factors, ("a", "b", "c"))


def test_a_bounds_loop_that_does_not_settle_is_refused(monkeypatch):
    # With no residual tolerance, float rounding leaves a residue after
    # every redistribution and no new value is pinned: the rounds, the
    # loop's safety bound, run out.
    monkeypatch.setattr(_checks, "RESIDUAL_EPS", 0.0)
    with pytest.raises(InfeasibleBoundsError) as exc:
        enforce_bounds([0.0, 0.1, 0.9], [0.4, -0.4, 0.0])
    assert str(exc.value) == (
        "bounds enforcement did not settle; inputs violate the "
        "probability constraints in an unrecoverable way"
    )


def test_infeasible_error_is_exported():
    # Factors accepted within SUM_TOL of 1 leave a fully pinned q at most
    # SUM_TOL off zero, and that is accepted (test above); the infeasible
    # path needs a larger miss, which the public constructors reject.
    # The type stays part of the contract.
    assert issubclass(InfeasibleBoundsError, Exception)


# The bounds loop as it stood when it kept a ``pinned`` list and a
# ``clamped_any`` flag, verbatim but for its name: the reference that the
# one-free-list loop must match bit for bit.
def _reference_clip(f: Sequence, q: list) -> tuple[list, bool]:
    """``enforce_bounds`` on checked inputs; adjusts ``q`` in place.

    The output needs no check: each value ends inside its bounds (clamped
    onto one, or tested against both in the final round), and the loop
    stops only once ``|sum(q)| <= min(RESIDUAL_EPS * N, SUM_TOL)``, or
    within ``SUM_TOL`` once every value is pinned.
    """
    n = len(f)
    lo = [-x for x in f]
    hi = [1 - x for x in f]
    pinned = [False] * n
    clamped_any = False
    eps = min(_checks.RESIDUAL_EPS * n, _checks.SUM_TOL)

    for _ in range(n + 2):
        for i in range(n):
            if pinned[i]:
                continue
            if q[i] < lo[i]:
                q[i] = lo[i]
                pinned[i] = True
                clamped_any = True
            elif q[i] > hi[i]:
                q[i] = hi[i]
                pinned[i] = True
                clamped_any = True
        residual = -_checks.total(q)
        if abs(residual) <= eps:
            return q, clamped_any
        free = [i for i in range(n) if not pinned[i]]
        if not free:
            # ``f`` was accepted with its sum up to ``SUM_TOL`` off 1, so a
            # fully pinned ``q`` may miss zero by as much.
            if abs(residual) <= _checks.SUM_TOL:
                return q, clamped_any
            raise InfeasibleBoundsError(
                f"all {n} attraction values are pinned at their bounds but the "
                f"sum misses zero by {float(residual)!r}"
            )
        share = residual / len(free)
        for i in free:
            q[i] = q[i] + share
    raise InfeasibleBoundsError(
        "bounds enforcement did not settle; inputs violate the "
        "probability constraints in an unrecoverable way"
    )


def _clip_outcome(clip, f, q):
    """What ``clip`` makes of copies of ``f`` and ``q``: every value of ``q``
    (a float by its bits) and the flag, or the exception's class and text."""
    try:
        out, clamped = clip(list(f), list(q))
    except Exception as exc:
        return type(exc), str(exc)
    return [v.hex() if isinstance(v, float) else (type(v), v) for v in out], type(clamped), clamped


def _random_clip_input(rng):
    """Factors with zeros, ones and sums up to 2 * ``SUM_TOL`` off 1, exact
    (a quarter of them over large, mostly coprime denominators) or float,
    and attraction values that are a shuffled ladder, a random zero-sum
    vector or values right on a bound.  Sets of 40 and 120 prospects with
    skewed factors take several rounds."""
    n = rng.choice([1, 2, 2, 3, 3, 4, 5, 6, 8, 13, 40, 120])
    weights = [rng.choice([0, 1, rng.randint(1, 60)]) for _ in range(n)]
    if not any(weights) or rng.random() < 0.1:
        weights = [0] * n
        weights[rng.randrange(n)] = 1
    if rng.random() < 0.25:
        raw = [F(w * rng.randint(1, 10**6), rng.randint(10**6, 10**12)) for w in weights]
        whole = sum(raw)
        f = [r / whole for r in raw]
    else:
        f = [F(w, sum(weights)) for w in weights]
    exact = rng.random() < 0.5
    if not exact:
        f = [float(x) for x in f]
    edge = rng.choice([0, 0, 0, 1, -1, F(1, 2), F(-1, 2), 2, -2])
    k = rng.randrange(n)
    f[k] += edge * F(1, 10**9) if exact else float(edge) * _checks.SUM_TOL
    shape = rng.choice(["ladder", "zero-sum", "on-bound"])
    if shape == "ladder":
        q = list(quantized_attraction_set(n).values)
        rng.shuffle(q)
    elif shape == "zero-sum":
        raw = [F(rng.randint(-120, 120), rng.choice([7, 10, 100])) for _ in range(n)]
        mean = sum(raw) / n
        q = [r - mean for r in raw]
    else:
        q = [rng.choice([-x, 1 - x, 0 * x]) for x in f]
        q[rng.randrange(n)] -= sum(q)
    if not exact and rng.random() < 0.7:
        q = [float(v) for v in q]  # otherwise exact rungs meet float factors
    return f, q


def test_stop_decisions_are_exact():
    # Every value pinned, the sum off by just over ``SUM_TOL``: as a float
    # the residual rounds to ``SUM_TOL`` and would pass.
    e = F(_checks.SUM_TOL) + F(1, 10**30)
    f, q = [F(1, 2), F(1, 2) - e], [F(1), F(-1)]
    outcome = _clip_outcome(_clip_to_bounds, f, q)
    assert outcome == _clip_outcome(_reference_clip, f, q)
    assert outcome[0] is InfeasibleBoundsError


def test_clipping_matches_the_reference_loop_bit_for_bit():
    import random

    rng = random.Random(20161)
    outcomes = {"raised": 0, "clamped": 0, "untouched": 0, "exact, 3+ rounds": 0, "large denominators": 0}
    rounds = []  # the reference totals ``q`` once per round
    total = _checks.total
    with mock.patch.object(_checks, "total", lambda values: rounds.append(1) or total(values)):
        for _ in range(2000):
            f, q = _random_clip_input(rng)
            new = _clip_outcome(_clip_to_bounds, f, q)
            rounds.clear()
            assert new == _clip_outcome(_reference_clip, f, q), (f, q)
            if len(new) == 2:
                outcomes["raised"] += 1
            else:
                outcomes["clamped" if new[2] else "untouched"] += 1
            if all(type(v) is F for v in f + q):
                outcomes["exact, 3+ rounds"] += len(rounds) >= 3
                outcomes["large denominators"] += max(v.denominator for v in f) > 10**12
    assert min(outcomes.values()) >= 30, outcomes
