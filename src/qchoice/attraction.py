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

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING

from . import _checks
from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

_CHUNK_TARGET = 1_000_000  # keep Monte Carlo scratch arrays around 8 MB


@dataclass(frozen=True)
class AttractionSet:
    """A quantized ladder of attraction values for N competing prospects.

    Values are exact rationals, sorted descending with a constant gap,
    summing to zero, with mean magnitude exactly 1/4 (for N >= 2); a
    single prospect gets ``(0,)``.  Those rules admit one ladder per N, so
    a caller's ``AttractionSet(values)`` is compared, exactly, with the
    closed form of ``quantized_attraction_set(len(values))``, which is
    built unchecked.  The closed form is ``_ladder``; the gap and top rung
    are ``attraction_gap`` and ``attraction_qmax``.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = _checks.column(self.values, what="attraction value")
        if len(values) < 1:
            raise ValidationError("attraction set needs at least one value")
        for v in values:
            if not isinstance(_checks.real(v, what="attraction value"), Rational):
                raise ValidationError(
                    "attraction sets are exact; pass Fraction or int values, not floats"
                )
        values = tuple(Fraction(v) for v in values)
        object.__setattr__(self, "values", values)
        n = len(values)
        if values != quantized_attraction_set(n).values:
            raise ValidationError(
                f"attraction values are not the quantized ladder for N = {n}: "
                "exact, descending in equal steps, summing to zero, with mean "
                "magnitude 1/4 ((0,) for N = 1)"
            )


def _ladder(n: int) -> tuple[int, int]:
    """``(scale, den)`` for ``n >= 1`` prospects: rung ``k`` (0-based),
    ``q_max - k * delta``, is ``scale * (n - 1 - 2k) / den``, one numerator
    over a shared denominator; a single prospect gets ``(0, 1)``."""
    if n == 1:
        return 0, 1
    if n % 2 == 0:
        return 1, 2 * n
    return n, 2 * (n * n - 1)


def gap_and_top(n: int) -> tuple[Fraction, Fraction]:
    """``(delta, q_max)`` of the ``n``-prospect ladder, ``(0, 0)`` for one."""
    scale, den = _ladder(n)
    return Fraction(2 * scale, den), Fraction(scale * (n - 1), den)


def attraction_gap(n_prospects: int) -> Fraction:
    """Spacing of the quantized attraction ladder for ``n_prospects`` >= 2.

    Exact closed forms: ``1/N`` for even N and ``N/(N^2 - 1)`` for odd N.
    """
    return gap_and_top(_checks.count(n_prospects, what="prospect count", minimum=2))[0]


def attraction_qmax(n_prospects: int) -> Fraction:
    """Top of the quantized ladder: ``(N-1)/(2N)`` for even N, ``N/(2(N+1))`` for odd."""
    return gap_and_top(_checks.count(n_prospects, what="prospect count", minimum=2))[1]


def quantized_attraction_set(n_prospects: int) -> AttractionSet:
    """The unique quantized attraction ladder for ``n_prospects`` prospects.

    Values are ``q_max - (k - 1) * delta`` for ``k = 1..N``: descending,
    equally spaced, zero-sum, with mean magnitude exactly 1/4.  A single
    prospect gets the degenerate ladder ``(0,)``.  The rationals are built
    from the closed form ``_ladder``, with no numpy.
    """
    n = _checks.count(n_prospects, what="prospect count", minimum=1)
    scale, den = _ladder(n)
    return _checks.trusted(
        AttractionSet, values=tuple(Fraction(scale * k, den) for k in range(n - 1, -n, -2))
    )


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
    import numpy as np

    samples = _checks.count(samples, what="sample count", minimum=1)
    rng = _checks.rng(seed)
    total = 0.0
    for chunk in _checks.chunks(samples, _CHUNK_TARGET):
        draws = rng.uniform(-1.0, 1.0, chunk.stop - chunk.start)
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
    import numpy as np

    n = _checks.count(n_prospects, what="prospect count", minimum=2)
    samples = _checks.count(samples, what="sample count", minimum=1)
    rng = _checks.rng(seed)
    gap_sums = np.zeros(n - 1, dtype=float)
    for chunk in _checks.chunks(samples, _CHUNK_TARGET // n):
        draws = rng.uniform(0.0, 1.0, (chunk.stop - chunk.start, n))
        draws.sort(axis=1)
        ordered = draws[:, ::-1]  # descending
        gap_sums += np.sum(ordered[:, :-1] - ordered[:, 1:], axis=0)
    return gap_sums / samples

