"""Attraction factors under non-informative priors.

With no information beyond the admissible range, the interference part of
a choice probability is treated as a random variable on [-1, 1] with a
symmetric two-sided density.  Averaging the positive (attracting) side of
that prior gives the quarter law: the typical attraction magnitude is
exactly 1/4.  Imposing, in addition, that the N values attached to N
competing prospects are (a) equally spaced — the expected shape of N
ordered draws from a uniform prior — (b) sum to zero, and (c) keep the
1/4 mean magnitude, pins the whole set down to a unique quantized
ladder.  This module builds those ladders exactly (as rationals), states
their closed-form gap and maximum, and provides Monte Carlo checks of
the two distributional facts behind them.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _checks
from .errors import ValidationError

#: Expected mean attraction magnitude under the non-informative prior.
QUARTER = Fraction(1, 4)

_CHUNK_TARGET = 1_000_000  # keep Monte Carlo scratch arrays around 8 MB


@dataclass(frozen=True)
class AttractionSet:
    """A quantized ladder of attraction values for N competing prospects.

    Values are exact rationals, sorted descending with a constant gap,
    summing to zero, with mean magnitude exactly 1/4 (for N >= 2).  A
    caller's ``AttractionSet(values)`` checks all of that, exactly; the
    closed forms of ``quantized_attraction_set`` guarantee it unchecked.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValidationError("attraction set needs at least one value")
        coerced = []
        for v in self.values:
            if isinstance(v, float):
                raise ValidationError(
                    "attraction sets are exact; pass Fraction or int values, not floats"
                )
            coerced.append(Fraction(v))
        values = tuple(coerced)
        object.__setattr__(self, "values", values)
        n = len(values)
        for v in values:
            if not -1 <= v <= 1:
                raise ValidationError(f"attraction value {v} outside [-1, 1]")
        if n >= 2:
            # Exact checks on integer numerators over a common denominator;
            # plain Fraction arithmetic is needlessly slow for long ladders.
            den = 1
            for v in values:
                den = math.lcm(den, v.denominator)
            nums = [v.numerator * (den // v.denominator) for v in values]
            gap = nums[0] - nums[1]
            if gap <= 0:
                raise ValidationError("attraction values must be strictly descending")
            if any(a - b != gap for a, b in zip(nums, nums[1:])):
                raise ValidationError(
                    "attraction values must be equally spaced in descending order"
                )
            if sum(nums) != 0:
                raise ValidationError("attraction values must sum to zero exactly")
            if 4 * sum(abs(x) for x in nums) != n * den:
                raise ValidationError(
                    f"mean attraction magnitude must be 1/4, got "
                    f"{sum(abs(v) for v in values) / n}"
                )
        else:
            if values[0] != 0:
                raise ValidationError(
                    "a single uncontested prospect carries zero attraction"
                )

    @property
    def n_prospects(self) -> int:
        return len(self.values)

    @property
    def delta(self) -> Fraction:
        """Constant gap between consecutive values (0 for a single prospect)."""
        if len(self.values) < 2:
            return Fraction(0)
        return self.values[0] - self.values[1]

    @property
    def q_max(self) -> Fraction:
        """Largest (most attracting) value of the ladder."""
        return self.values[0]

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.values], dtype=float)


def attraction_gap(n_prospects: int) -> Fraction:
    """Spacing of the quantized attraction ladder for ``n_prospects`` >= 2.

    Exact closed forms: ``1/N`` for even N and ``N/(N^2 - 1)`` for odd N.
    """
    n = _checks.count(n_prospects, what="prospect count", minimum=2)
    if n % 2 == 0:
        return Fraction(1, n)
    return Fraction(n, n * n - 1)


def attraction_qmax(n_prospects: int) -> Fraction:
    """Top of the quantized ladder: ``(N-1)/(2N)`` for even N, ``N/(2(N+1))`` for odd."""
    n = _checks.count(n_prospects, what="prospect count", minimum=2)
    if n % 2 == 0:
        return Fraction(n - 1, 2 * n)
    return Fraction(n, 2 * (n + 1))


def quantized_attraction_set(n_prospects: int) -> AttractionSet:
    """The unique quantized attraction ladder for ``n_prospects`` prospects.

    Values are ``q_max - (k - 1) * delta`` for ``k = 1..N``: descending,
    equally spaced, zero-sum, with mean magnitude exactly 1/4.  A single
    prospect gets the degenerate ladder ``(0,)``.
    """
    n = _checks.count(n_prospects, what="prospect count", minimum=1)
    if n == 1:
        return _checks.trusted(AttractionSet, values=(Fraction(0),))
    # Rung k (0-based) is q_max - k * delta; with the closed forms for the
    # gap and the top this collapses to one numerator per rung over a
    # shared denominator, which keeps long ladders cheap to build.
    if n % 2 == 0:
        scale, den = 1, 2 * n
    else:
        scale, den = n, 2 * (n * n - 1)
    return _checks.trusted(
        AttractionSet,
        values=tuple(Fraction(scale * (n - 1 - 2 * k), den) for k in range(n)),
    )


def asymptotic_attraction(n_prospects: int, rank: int) -> float:
    """Large-N approximation ``1/2 - (2 rank - 1)/(2N)`` to the ladder value.

    ``rank`` counts from 1 (most attracting).  For even N the expression
    reproduces the exact ladder identically; for odd N it deviates by
    less than 1/N.
    """
    n = _checks.count(n_prospects, what="prospect count", minimum=2)
    if not 1 <= rank <= n:
        raise ValidationError(f"rank must lie in [1, {n}], got {rank}")
    return 0.5 - (2 * rank - 1) / (2 * n)


def quarter_law_check(
    samples: int,
    seed: int | np.random.Generator = 0,
) -> float:
    """Monte Carlo estimate of the typical attraction magnitude.

    Draws attraction values from the non-informative prior, uniform on
    [-1, 1], and averages their positive part over *all* draws.  The
    attracting and repelling halves of the prior are mirror images, so
    keeping the positive side at its natural half weight is exactly the
    two-sided average of the attracting branch:  E[max(q, 0)] =
    integral_0^1 q * (1/2) dq = 1/4.  The estimate converges to 0.25.
    """
    samples = _checks.count(samples, what="sample count", minimum=1)
    rng = np.random.default_rng(seed)
    total = 0.0
    for rows in row_chunks(samples, 1):
        draws = rng.uniform(-1.0, 1.0, rows)
        total += float(np.sum(np.maximum(draws, 0.0)))
    return total / samples


def ordered_uniform_gap_check(
    n_prospects: int,
    samples: int,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Mean consecutive gaps of N uniform draws sorted descending.

    Each sample draws ``n_prospects`` independent uniforms on [0, 1] and
    sorts them in descending order; returned is the mean of each of the
    N-1 consecutive differences.  All converge to the common value
    ``1/(N + 1)`` — the equidistance that motivates a constant-gap
    attraction ladder.
    """
    n = _checks.count(n_prospects, what="prospect count", minimum=2)
    samples = _checks.count(samples, what="sample count", minimum=1)
    rng = np.random.default_rng(seed)
    gap_sums = np.zeros(n - 1, dtype=float)
    for rows in row_chunks(samples, n):
        draws = rng.uniform(0.0, 1.0, (rows, n))
        draws.sort(axis=1)
        ordered = draws[:, ::-1]  # descending
        gap_sums += np.sum(ordered[:, :-1] - ordered[:, 1:], axis=0)
    return gap_sums / samples


def row_chunks(rows: int, width: int) -> Iterator[int]:
    """Sizes of consecutive chunks of ``rows`` rows, ``width`` values a row,
    about ``_CHUNK_TARGET`` values (and at least one row) each."""
    per_chunk = max(1, _CHUNK_TARGET // width)
    for start in range(0, rows, per_chunk):
        yield min(per_chunk, rows - start)
