"""Composite choice prediction: utility factors plus quantized attraction.

The pipeline is deliberately small.  Given utility factors ``f`` for N
competing prospects and a ranking of the prospects by attractiveness,
each prospect receives the matching rung of the quantized attraction
ladder (most attractive gets the top rung), the values are clipped into
their admissible ranges while keeping their zero sum, and the predicted
choice probabilities are ``p = f + q``.  A regularity check then asks
whether attraction overturned the utility ordering — the signature of a
decoy effect.

All arithmetic is plain scalar Python: feed ``Fraction`` utility factors
in and the predictions come out as exact rationals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import _checks
from .attraction import quantized_attraction_set
from .errors import InfeasibleBoundsError, ValidationError


@dataclass(frozen=True)
class ChoiceSet:
    """N competing prospects: ids, utility factors, attractiveness ranking.

    ``attractiveness_rank`` lists the prospect ids from most to least
    attractive and must be a permutation of ``prospect_ids``.
    """

    prospect_ids: tuple[str, ...]
    utility_factors: tuple
    attractiveness_rank: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = _ids(self.prospect_ids, what="prospect id")
        if len(set(ids)) != len(ids):
            raise ValidationError(f"prospect ids must be unique, got {ids}")
        factors = _checks.distribution(self.utility_factors)
        _checks.per_prospect(factors, len(ids), plural="utility factors")
        rank = _ids(self.attractiveness_rank, what="rank entry")
        if sorted(rank) != sorted(ids):
            raise ValidationError(
                f"attractiveness rank {rank} is not a permutation of ids {ids}"
            )
        object.__setattr__(self, "prospect_ids", ids)
        object.__setattr__(self, "utility_factors", factors)
        object.__setattr__(self, "attractiveness_rank", rank)

    @property
    def n_prospects(self) -> int:
        return len(self.prospect_ids)


@dataclass(frozen=True)
class PredictionReport:
    """Predicted choice probabilities with their additive decomposition.

    Per prospect (aligned tuples): utility factor ``f`` and attraction
    ``q`` after bounds enforcement, plus the observed frequencies in
    ``empirical`` once ``score_against_empirical`` attached them.  The
    rest is derived, each on first use: ``probabilities`` is ``p = f + q``,
    ``abs_errors`` is ``|p - e|`` per prospect, and ``max_abs_error`` and
    ``mean_abs_error`` summarize it; the three error attributes are
    ``None`` without ``empirical``.
    """

    prospect_ids: tuple[str, ...]
    utility_factors: tuple
    attraction_factors: tuple
    clamping_applied: bool
    empirical: tuple | None = None

    def __post_init__(self) -> None:
        ids = _ids(self.prospect_ids, what="prospect id")
        f = _checks.distribution(self.utility_factors)
        q = _checks.zero_sum(self.attraction_factors)
        _checks.per_prospect(f, len(ids), plural="utility factors")
        _checks.per_prospect(q, len(ids), plural="attraction factors")
        object.__setattr__(self, "prospect_ids", ids)
        object.__setattr__(self, "utility_factors", f)
        object.__setattr__(self, "attraction_factors", q)
        _checks.distribution(self.probabilities, what="probability", plural="probabilities")
        if self.empirical is not None:
            object.__setattr__(self, "empirical", _frequencies(self.empirical, len(ids)))

    @property
    def n_prospects(self) -> int:
        return len(self.prospect_ids)

    @cached_property
    def probabilities(self) -> tuple:
        return tuple(f_n + q_n for f_n, q_n in zip(self.utility_factors, self.attraction_factors))

    @cached_property
    def abs_errors(self) -> tuple | None:
        if self.empirical is None:
            return None
        return tuple(abs(p - e) for p, e in zip(self.probabilities, self.empirical))

    @cached_property
    def max_abs_error(self):
        return None if self.abs_errors is None else max(self.abs_errors)

    @cached_property
    def mean_abs_error(self):
        errors = self.abs_errors
        return None if errors is None else _checks.total(errors) / len(errors)


def _ids(values, *, what: str) -> tuple[str, ...]:
    return tuple([str(i) for i in _checks.column(values, what=what)])


def _frequencies(empirical, n: int) -> tuple:
    """``n`` observed frequencies (``_checks.reals``), each >= 0, summing to 1 within 2e-2."""
    freqs = _checks.reals(empirical, what="empirical frequency")
    _checks.per_prospect(freqs, n, plural="empirical values")
    for v in freqs:
        if v < 0:
            raise ValidationError(f"empirical frequency {v!r} is negative")
    _checks.check_sum(
        freqs, 1.0, what="empirical frequencies", tol=_checks.EMPIRICAL_SUM_TOL
    )
    return freqs


@dataclass(frozen=True)
class RegularityCheck:
    """Outcome of comparing the utility leader against the overall leader.

    ``reversal``, derived, is True when attraction strictly overturned the
    utility ordering: no ``tie`` and the two leaders differ.  Ties at
    either argmax are never counted as reversals; they set ``tie``
    instead.
    """

    tie: bool
    favored_by_utility: int
    favored_overall: int

    @property
    def reversal(self) -> bool:
        return not self.tie and self.favored_by_utility != self.favored_overall


def enforce_bounds(
    utility_factors: Sequence,
    attraction_factors: Sequence,
) -> tuple[list, bool]:
    """Clip attraction values into ``[-f_n, 1 - f_n]`` keeping a zero sum.

    Out-of-range values are clamped to the violated bound and the
    leftover is redistributed in equal shares over the prospects that
    were not clamped; the cycle repeats if the redistribution pushes a
    new value out of range.  Already-admissible inputs pass through
    unchanged (the procedure is idempotent).  Returns the adjusted
    values and a flag telling whether any clamping happened.  Raises
    ``InfeasibleBoundsError`` when every value is pinned and the sum
    still misses zero by more than the tolerance ``f`` was accepted under.
    """
    f = _checks.distribution(utility_factors)
    q = _checks.zero_sum(attraction_factors)
    _checks.per_prospect(q, len(f), plural="attraction factors")
    return _clip_to_bounds(f, list(q))


def _clip_to_bounds(f: Sequence, q: list) -> tuple[list, bool]:
    """``enforce_bounds`` on checked inputs; may adjust ``q`` in place.

    The output needs no check: each value ends inside its bounds (clamped
    onto one, or tested against both in the final round), and the loop
    stops only once ``|sum(q)| <= min(RESIDUAL_EPS * N, SUM_TOL)``, or
    within ``SUM_TOL`` once every value is pinned.

    When every ``f`` and ``q`` is a ``Fraction``, the rounds run on integer
    numerators over one common denominator ``den``, which grows where a
    share is not a whole numerator, and the Fractions are built once at
    the end: the same values as ``Fraction`` arithmetic, without a
    reduction per operation.  Any other input keeps its own arithmetic.
    """
    n = len(f)
    exact = all(type(v) is Fraction for v in f) and all(type(v) is Fraction for v in q)
    den = 1
    if exact:
        numerators, den = _checks.over_lcm([*f, *q])
        f, q = numerators[:n], numerators[n:]
    lo = [-x for x in f]
    hi = [den - x for x in f]
    free = range(n)  # indices not yet pinned to a bound, in index order
    eps = min(_checks.RESIDUAL_EPS * n, _checks.SUM_TOL)

    for _ in range(n + 2):
        still_free = []
        for i in free:
            if q[i] < lo[i]:
                q[i] = lo[i]
            elif q[i] > hi[i]:
                q[i] = hi[i]
            else:
                still_free.append(i)
        free = still_free
        residual = -_checks.total(q)
        off = Fraction(residual, den) if exact else residual
        # ``f`` was accepted with its sum up to ``SUM_TOL`` off 1, so a
        # fully pinned ``q`` may miss zero by as much.
        if abs(off) <= (eps if free else _checks.SUM_TOL):
            return ([Fraction(v, den) for v in q] if exact else q), len(free) < n
        if not free:
            raise InfeasibleBoundsError(
                f"all {n} attraction values are pinned at their bounds but the "
                f"sum misses zero by {float(off)!r}"
            )
        if exact:
            # residual / (den * m) as a whole numerator: scale by m / gcd.
            scale = len(free) // math.gcd(residual, len(free))
            if scale > 1:
                den *= scale
                for values in (q, lo, hi):
                    values[:] = [v * scale for v in values]
            share = residual * scale // len(free)
        else:
            share = residual / len(free)
        for i in free:
            q[i] = q[i] + share
    raise InfeasibleBoundsError(
        "bounds enforcement did not settle; inputs violate the "
        "probability constraints in an unrecoverable way"
    )


def compose_probabilities(choice_set: ChoiceSet) -> PredictionReport:
    """Predict ``p = f + q`` with the quantized ladder assigned by rank.

    The most attractive prospect receives the top rung of the ladder for
    ``N`` prospects, the next one the second rung, and so on; the values
    are then clipped into their admissible ranges (zero sum preserved).

    ``choice_set`` checked ``f``, the clipping guarantees ``q`` and so
    ``p`` in [0, 1]; only ``sum(p) = 1`` is checked, as float factors at
    the ``SUM_TOL`` edge can push ``sum(f) + sum(q)`` just past it.
    """
    ladder = quantized_attraction_set(choice_set.n_prospects).values
    rung_of = {pid: ladder[k] for k, pid in enumerate(choice_set.attractiveness_rank)}
    f = choice_set.utility_factors
    q, clamped = _clip_to_bounds(f, [rung_of[pid] for pid in choice_set.prospect_ids])
    report = _checks.trusted(
        PredictionReport,
        prospect_ids=choice_set.prospect_ids,
        utility_factors=f,
        attraction_factors=tuple(q),
        clamping_applied=clamped,
    )
    _checks.check_sum(report.probabilities, 1.0, what="probabilities")
    return report


def predict_decoy(
    f_no_decoy: Sequence,
    decoy_target_rank: Sequence,
    prospect_ids: Sequence[str] | None = None,
) -> PredictionReport:
    """Predict how a decoy shifts choice among the competing prospects.

    ``f_no_decoy`` holds the utility factors of the *competing*
    prospects only — the decoy, being strictly dominated, is assumed to
    draw (essentially) no choices itself and enters purely through
    ``decoy_target_rank``: the attractiveness ordering it induces, most
    attractive first, given as ids (strings) or as 0-based integer
    positions into ``f_no_decoy``.  To model a decoy that retains
    genuine choice share, include it as a prospect of its own with its
    utility factor and rank.
    """
    f = _checks.column(f_no_decoy, what="utility factor")
    if prospect_ids is None:
        ids = tuple(f"P{k + 1}" for k in range(len(f)))
    else:
        ids = _ids(prospect_ids, what="prospect id")
    rank: list[str] = []
    for item in _checks.column(decoy_target_rank, what="rank entry"):
        if isinstance(item, str):
            rank.append(item)
            continue
        k = _checks.count(item, what="rank entry (one of the ids or indices)")
        if k >= len(ids):
            raise ValidationError(f"rank index {k} out of range for {len(ids)} prospects")
        rank.append(ids[k])
    choice_set = ChoiceSet(
        prospect_ids=ids, utility_factors=f, attractiveness_rank=tuple(rank)
    )
    return compose_probabilities(choice_set)


def score_against_empirical(
    report: PredictionReport,
    empirical: Sequence,
) -> PredictionReport:
    """A copy of ``report`` with the observed choice frequencies attached.

    ``empirical`` is a sequence aligned with the report's prospects, not
    a mapping.  Frequencies must be non-negative and sum to 1 within 2e-2
    (empirical vectors in the literature are rounded).  The report derives
    the absolute errors from them; exact inputs give exact errors.
    """
    return _checks.trusted(
        PredictionReport,
        prospect_ids=report.prospect_ids,
        utility_factors=report.utility_factors,
        attraction_factors=report.attraction_factors,
        clamping_applied=report.clamping_applied,
        empirical=_frequencies(empirical, report.n_prospects),
    )


def regularity_violation_check(
    utility_factors: Sequence,
    probabilities: Sequence,
) -> RegularityCheck:
    """Did attraction overturn the utility ordering?

    Compares the argmax of the utility factors with the argmax of the
    final probabilities.  A strict difference is a reversal — the
    regularity-axiom violation a decoy produces.  If either vector has
    a tied maximum the comparison is ambiguous: no reversal is claimed
    and the tie is flagged.
    """
    f = _checks.distribution(utility_factors)
    p = _checks.distribution(probabilities, what="probability", plural="probabilities")
    _checks.per_prospect(p, len(f), plural="probabilities")
    return regularity_verdict(f, p)


def regularity_verdict(f: Sequence, p: Sequence) -> RegularityCheck:
    """``regularity_violation_check`` on vectors known to be valid."""
    f_max, p_max = max(f), max(p)
    f_arg, p_arg = f.index(f_max), p.index(p_max)
    tie = sum(1 for v in f if v == f_max) > 1 or sum(1 for v in p if v == p_max) > 1
    return RegularityCheck(tie=tie, favored_by_utility=f_arg, favored_overall=p_arg)
