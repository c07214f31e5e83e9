"""Payoff utilities and non-informative-prior utility factors.

The classical part of a choice probability — the utility factor — orders
prospects by expected utility.  When nothing is known about the agent
beyond those utilities, minimizing an information functional (entropy
plus a normalization multiplier plus a log-utility constraint) fixes the
factors in closed form:

* gains (all utilities non-negative): ``f_n`` proportional to ``U_n ** alpha``;
* losses (all utilities strictly negative): ``f_n`` proportional to
  ``|U_n| ** -gamma`` — the *least bad* option gets the largest factor.

Both exponents default to 1, which reduces the gains rule to simple
ratio-of-utilities weighting.  Exact inputs (ints, Fractions) pass
through exactly when the exponent is 1 or an integer; the functionals
themselves are evaluated in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational, Real
from typing import Sequence

from . import _checks
from .errors import DegenerateSetError, SignDomainError, ValidationError


def _power(base, exponent, *, what: str):
    """``base ** exponent``; ``ValidationError`` if a float result overflows, or
    if an exact one, which could take unbounded time to build, passes 2 ** +-1024."""
    if isinstance(base, Rational) and base != 0 and isinstance(exponent, Rational):
        bits = math.log2(abs(base.numerator)) - math.log2(base.denominator)
        if exponent.denominator == 1 and abs(exponent * bits) > 1024:
            raise ValidationError(f"{what} overflows floating point")
    try:
        return base ** exponent
    except OverflowError:
        raise ValidationError(f"{what} overflows floating point") from None


@dataclass(frozen=True)
class UtilityFunction:
    """Utility of a single payoff: linear, or sign-preserving power.

    ``power`` applies ``sign(x) * |x| ** exponent``, keeping gains gains
    and losses losses for any positive exponent.
    """

    kind: str = "linear"
    exponent: Real = 1

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "power"):
            raise ValidationError(
                f"utility kind must be 'linear' or 'power', got {self.kind!r}"
            )
        _checks.real(self.exponent, what="utility exponent")
        if self.exponent <= 0:
            raise ValidationError(
                f"utility exponent must be positive, got {self.exponent!r}"
            )

    def __call__(self, x):
        _checks.real(x, what="payoff")
        if self.kind == "linear":
            return x
        if x == 0:
            return 0
        magnitude = _power(abs(x), self.exponent, what=f"utility of payoff {x!r}")
        return magnitude if x > 0 else -magnitude

    @classmethod
    def linear(cls) -> "UtilityFunction":
        return cls(kind="linear")

    @classmethod
    def power(cls, exponent: Real) -> "UtilityFunction":
        return cls(kind="power", exponent=exponent)


LINEAR_UTILITY = UtilityFunction.linear()


def utility_factors_gains(utilities: Sequence, alpha: Real = 1) -> list:
    """Closed-form utility factors for non-negative expected utilities.

    ``f_n = U_n**alpha / sum_m U_m**alpha`` with ``alpha > 0``.  A zero
    utility yields a zero factor; an all-zero family carries no signal
    and is rejected, as is any negative utility (use the losses rule).
    Exact inputs stay exact when ``alpha`` is 1 or a positive integer.
    """
    values = _checks.reals(utilities, what="utility")
    _checks.real(alpha, what="alpha")
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha!r}")
    for u in values:
        if u < 0:
            raise SignDomainError(
                f"gains rule needs non-negative utilities, got {u!r}"
            )
    if all(u == 0 for u in values):
        raise DegenerateSetError(
            "all utilities are zero; the gains rule cannot rank them"
        )
    if alpha == 1:
        weights = list(values)
    else:
        weights = [_power(u, alpha, what="a gains weight") for u in values]
    total = sum(weights)
    return [w / total for w in weights]


def utility_factors_losses(utilities: Sequence, gamma: Real = 1) -> list:
    """Closed-form utility factors for strictly negative expected utilities.

    ``f_n = |U_n|**(-gamma) / sum_m |U_m|**(-gamma)`` with ``gamma > 0``:
    the smallest loss in magnitude receives the largest factor.  Any
    non-negative utility is rejected — mixed-sign families fit neither
    rule and are not silently split.
    """
    values = _checks.reals(utilities, what="utility")
    _checks.real(gamma, what="gamma")
    if gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma!r}")
    for u in values:
        if u >= 0:
            raise SignDomainError(
                f"losses rule needs strictly negative utilities, got {u!r}"
            )
    if gamma == 1:
        weights = [1 / abs(u) for u in values]
    else:
        weights = [_power(abs(u), -gamma, what="a losses weight") for u in values]
    total = sum(weights)
    return [w / total for w in weights]


def _log_magnitude(u) -> float:
    """``ln |u|`` of a non-zero utility, through ``float(u)``.

    An exact ``u`` that underflows to 0.0 as a float takes the logarithm
    of its numerator and denominator instead.  Only there: elsewhere that
    form can differ from ``math.log(float(u))`` in the last bit.
    """
    magnitude = abs(float(u))
    if magnitude == 0.0 and isinstance(u, Rational):
        return math.log(abs(u.numerator)) - math.log(u.denominator)
    return math.log(magnitude)


def _xlogx(value: float) -> float:
    # 0 * log 0 -> 0 by continuity.
    if value == 0.0:
        return 0.0
    return value * math.log(value)


def _functional_inputs(factors: Sequence, utilities: Sequence) -> tuple[list[float], tuple]:
    f = [float(x) for x in _checks.reals(factors, what="factor")]
    values = _checks.reals(utilities, what="utility")
    if len(f) != len(values):
        raise ValidationError(f"factor/utility length mismatch: {len(f)} vs {len(values)}")
    for x in f:
        if x < 0.0:
            raise ValidationError(f"factors must be non-negative, got {x!r}")
    return f, values


def information_functional_gains(
    factors: Sequence,
    utilities: Sequence,
    lam: float = 0.0,
    alpha: float = 1.0,
    baseline: float = 0.0,
) -> float:
    """Information functional whose minimizer is the gains factor rule.

    ``sum f ln f + lam * (sum f - 1) + alpha * (sum f * L - baseline)``
    with log-penalties ``L_n = -ln U_n``.  ``baseline`` is the constant
    the log-penalty average is anchored to; it shifts the value but not
    the minimizer, and defaults to 0.  A zero utility carries an infinite
    penalty: if its factor is positive the functional is ``math.inf``,
    while a zero factor silences the term.
    """
    f, values = _functional_inputs(factors, utilities)
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
    return (
        entropy
        + float(lam) * (sum(f) - 1.0)
        + float(alpha) * (penalty - float(baseline))
    )


def information_functional_losses(
    factors: Sequence,
    utilities: Sequence,
    lam: float = 0.0,
    gamma: float = 1.0,
    baseline: float = 0.0,
) -> float:
    """Information functional whose minimizer is the losses factor rule.

    Same structure as the gains functional but the log-penalty term
    enters with the opposite sign,
    ``sum f ln f + lam * (sum f - 1) + gamma * (baseline - sum f * L)``
    with ``L_n = -ln |U_n|``, which is what flips the minimizer to
    ``f_n`` proportional to ``|U_n| ** -gamma``.
    """
    f, values = _functional_inputs(factors, utilities)
    for u in values:
        if u >= 0:
            raise SignDomainError(
                f"losses functional needs strictly negative utilities, got {u!r}"
            )
    penalty = sum(f_n * (-_log_magnitude(u)) for f_n, u in zip(f, values))
    entropy = sum(_xlogx(f_n) for f_n in f)
    return (
        entropy
        + float(lam) * (sum(f) - 1.0)
        + float(gamma) * (float(baseline) - penalty)
    )
