"""Payoff utilities and non-informative-prior utility factors.

The classical part of a choice probability — the utility factor — orders
prospects by expected utility.  When nothing is known about the agent
beyond those utilities, minimizing an information functional (entropy
plus a normalization multiplier plus a log-utility constraint),
``sum f ln f + lam * (sum f - 1) + e * sum f * (-ln |U|)``, fixes the
factors in closed form by one signed-exponent rule,
``f_n`` proportional to ``|U_n| ** e``:

* gains (all utilities non-negative): ``e = alpha``;
* losses (all utilities strictly negative): ``e = -gamma`` — the *least
  bad* option gets the largest factor.

The public gains and losses functions name the regime; ``_factors`` and
``_functional`` are its one implementation.  Both exponents default to
1, which reduces the gains rule to simple ratio-of-utilities weighting.
``Fraction`` utilities give exact factors at an integer exponent (the
``.exp`` reader reads every number as one); ``int`` utilities divide as
Python ints do, into floats, and a numpy scalar is computed on as the
Python number it holds.  The functionals are evaluated in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational, Real
from typing import Sequence

from . import _checks
from .errors import DegenerateSetError, SignDomainError, ValidationError


def _power(base, exponent, *, what: str):
    """``base ** exponent``: ``base`` at exponent 1 and ``1 / base`` at -1, with no size
    guard; otherwise ``ValidationError`` if a float result overflows (or divides by zero),
    or if an exact one, which could take unbounded time to build, passes 2 ** +-1024.
    A fractional power of a positive exact base whose ``float`` underflows to 0.0 is
    taken as ``2 ** (exponent * log2(base))``, so its weight is kept.  (Callers pass
    bases that ``_checks.real`` accepted, whose ``float`` does not overflow.)"""
    if exponent == 1:
        return base
    if exponent == -1:
        return 1 / base
    if isinstance(base, Rational) and base != 0:
        bits = math.log2(abs(base.numerator)) - math.log2(base.denominator)
        if isinstance(exponent, Rational) and exponent.denominator == 1:
            if abs(exponent * bits) > 1024:
                raise ValidationError(f"{what} overflows floating point")
        elif base > 0 and float(base) == 0.0:
            base, exponent = 2.0, float(exponent) * bits
    try:
        return base ** exponent
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(f"{what} overflows floating point") from None


@dataclass(frozen=True)
class UtilityFunction:
    """Utility of a single payoff: ``sign(x) * |x| ** exponent``.

    The exponent is a positive real; the sign is kept, so gains stay gains
    and losses stay losses.  Exponent 1, the default, is the linear
    utility: each checked payoff comes back as it is, exact inputs exact.
    Another exponent maps a zero payoff to ``0`` and raises
    ``ValidationError`` where the power overflows floating point.
    """

    exponent: Real = 1

    def __post_init__(self) -> None:
        exponent = _checks.positive(self.exponent, what="utility exponent")
        object.__setattr__(self, "exponent", exponent)

    def __call__(self, x):
        x = _checks.real(x, what="payoff")
        if self.exponent == 1:
            return x
        if x == 0:
            return 0
        magnitude = _power(abs(x), self.exponent, what=f"utility of payoff {x!r}")
        return magnitude if x > 0 else -magnitude


LINEAR_UTILITY = UtilityFunction()


def utility_factors_gains(utilities: Sequence, alpha: Real = 1) -> list:
    """Closed-form utility factors for non-negative expected utilities.

    ``f_n = U_n**alpha / sum_m U_m**alpha`` with ``alpha > 0``.  A zero
    utility yields a zero factor; an all-zero family carries no signal
    and is rejected, as is any negative utility (use the losses rule) and
    a family whose weights all underflow to zero (``DegenerateSetError``).
    ``Fraction`` utilities stay exact at an integer ``alpha``; ``int`` ones divide into floats.
    """
    return _factors(utilities, alpha, gains=True)


def utility_factors_losses(utilities: Sequence, gamma: Real = 1) -> list:
    """Closed-form utility factors for strictly negative expected utilities.

    ``f_n = |U_n|**(-gamma) / sum_m |U_m|**(-gamma)`` with ``gamma > 0``:
    the smallest loss in magnitude receives the largest factor.  Any
    non-negative utility is rejected — mixed-sign families fit neither
    rule and are not silently split — and so is a family whose weights
    all underflow to zero (``DegenerateSetError``).
    """
    return _factors(utilities, gamma, gains=False)


def _regime(values: tuple, *, gains: bool, what: str) -> None:
    """Each utility is >= 0 for gains and < 0 for losses, else
    ``SignDomainError``; ``what`` is "rule" or "functional"."""
    for u in values:
        if (u < 0) if gains else (u >= 0):
            raise SignDomainError(
                f"{'gains' if gains else 'losses'} {what} needs "
                f"{'non-negative' if gains else 'strictly negative'} utilities, got {u!r}"
            )


def _factors(utilities: Sequence, exponent: Real, *, gains: bool) -> list:
    """Both factor rules: ``|U_n| ** e`` over its total, ``e`` being
    ``exponent`` for gains and ``-exponent`` for losses.  A float total
    past the double range raises ``ValidationError``; a total of zero,
    which only weights that underflow floating point leave, raises
    ``DegenerateSetError``."""
    rule = "gains" if gains else "losses"
    values = _checks.reals(utilities, what="utility")
    exponent = _checks.positive(exponent, what="alpha" if gains else "gamma")
    _regime(values, gains=gains, what="rule")
    if gains and all(u == 0 for u in values):
        raise DegenerateSetError(
            "all utilities are zero; the gains rule cannot rank them"
        )
    e = exponent if gains else -exponent
    # ``abs`` also gives a zero utility the weight +0.0, never -0.0.
    weights = [_power(abs(u), e, what=f"a {rule} weight") for u in values]
    try:
        total = sum(weights)
    except OverflowError:  # a float weight plus an exact one beyond the double range
        total = math.inf
    if not isinstance(total, Rational) and not math.isfinite(total):
        raise ValidationError(f"the sum of the {rule} weights overflows floating point")
    if total == 0:
        raise DegenerateSetError(
            f"every {rule} weight underflows floating point to zero; "
            "the rule cannot rank the utilities"
        )
    return [w / total for w in weights]


def _log_magnitude(u) -> float:
    """``ln |u|`` of a non-zero utility, through ``float(u)``.

    A ``u`` that underflows to 0.0 as a float takes the logarithm of the
    numerator and denominator of ``u.as_integer_ratio()`` instead; a real
    without that method raises ``ValidationError``.  Only there: elsewhere
    that form can differ from ``math.log(float(u))`` in the last bit.
    """
    magnitude = abs(float(u))
    if magnitude != 0.0:
        return math.log(magnitude)
    try:
        n, d = u.as_integer_ratio()
    except AttributeError:
        raise ValidationError(
            f"utility {u!r} underflows floating point and has no exact ratio"
        ) from None
    return math.log(abs(n)) - math.log(d)


def _xlogx(value: float) -> float:
    # 0 * log 0 -> 0 by continuity.
    if value == 0.0:
        return 0.0
    return value * math.log(value)


def information_functional_gains(
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
    return _functional(factors, utilities, lam, alpha, gains=True)


def information_functional_losses(
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
    return _functional(factors, utilities, lam, gamma, gains=False)


def _functional(factors: Sequence, utilities: Sequence, lam, exponent, *, gains: bool) -> float:
    """Both functionals: ``sum f ln f + lam * (sum f - 1) + e * sum f * L``,
    ``e`` being ``exponent`` for gains and ``-exponent`` for losses."""
    lam = float(_checks.real(lam, what="lam"))
    exponent = float(_checks.real(exponent, what="alpha" if gains else "gamma"))
    f = [float(x) for x in _checks.reals(factors, what="factor")]
    values = _checks.reals(utilities, what="utility")
    if len(f) != len(values):
        raise ValidationError(f"factor/utility length mismatch: {len(f)} vs {len(values)}")
    for x in f:
        if x < 0.0:
            raise ValidationError(f"factors must be non-negative, got {x!r}")
    _regime(values, gains=gains, what="functional")
    penalty = 0.0
    for f_n, u in zip(f, values):
        if u == 0:  # only gains admit a zero utility
            if f_n > 0.0:
                return math.inf
            continue  # 0 weight on an infinite penalty contributes nothing
        penalty += f_n * (-_log_magnitude(u))
    entropy = sum(_xlogx(f_n) for f_n in f)
    return entropy + lam * (sum(f) - 1.0) + (exponent if gains else -exponent) * penalty
