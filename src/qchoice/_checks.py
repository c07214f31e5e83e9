"""The package's one tolerance table, its shared input checks and chunking.

Modules that document a tolerance (``quantum.IDENTITY_TOL``,
``verify.QUARTER_LAW_TOL``, ...) re-export it from here.  Inputs are
checked where they enter, each rule by one helper: ``column`` for every
sequence argument and ``per_prospect`` for its length, ``register`` for
the dimensions of a composite register, ``distribution`` for utility
factors and probabilities, ``zero_sum`` for attraction factors,
``positive`` for exponents and ``rng`` for seeds.  Data the package has
already validated, or built from a closed form, is handed on through
``trusted``.
"""
from __future__ import annotations

import dataclasses
import math
import operator
import reprlib
import sys
from collections.abc import Iterator, Mapping
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from numbers import Real
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

#: Sums to 1 or 0 (factors, probabilities, attractions)
#: and the slack on [0, 1].
SUM_TOL = 1e-9
#: Sums of observed frequencies, which the literature rounds.
EMPIRICAL_SUM_TOL = 2e-2
#: Per-prospect residual at which bounds redistribution stops.
RESIDUAL_EPS = 1e-12
#: Absolute tolerance for Hermitian symmetry of operators.
HERMITIAN_TOL = 1e-12
#: Absolute tolerance for unit trace of density operators.
TRACE_TOL = 1e-12
#: Most negative eigenvalue still accepted as "positive semi-definite".
PSD_EIGENVALUE_SLACK = -1e-10
#: Largest imaginary residue tolerated in a quantity that must be real.
IMAG_TOL = 1e-10
#: Internal consistency tolerance for the p = f + q identity.
IDENTITY_TOL = 1e-12
#: Unit-norm tolerance of pure-state amplitudes.
NORM_TOL = 1e-12
#: Most negative raw probability ``normalize`` clips to zero.
RAW_PROBABILITY_SLACK = 1e-12
#: Targets of the verification suites.
QUARTER_LAW_TOL = 5e-3
GAP_SPREAD_TOL = 3e-3
ENTROPY_MARGIN_TOL = -1e-9


def real(value, *, what: str):
    """``value`` if it is a real number (not ``bool``) that is a finite double;
    a numpy scalar comes back as the Python number it holds (``python_value``).

    numpy is looked up in ``sys.modules``, never imported: a numpy scalar
    cannot exist before numpy is, so a command that needs no numpy (such
    as ``predict``) starts without it.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValidationError(f"{what} must be a real number, got {python_value(value)!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an exact value beyond the double range
        raise ValidationError(f"{what} is too large for floating point") from None
    if not finite:
        raise ValidationError(f"{what} must be finite, got {python_value(value)!r}")
    return python_value(value)


def python_value(value):
    """``value.item()`` for a numpy scalar, ``value`` itself otherwise;
    numpy is only looked up (see ``real``)."""
    numpy = sys.modules.get("numpy")
    return value.item() if numpy is not None and isinstance(value, numpy.generic) else value


def column(values, *, what: str) -> tuple:
    """``values``, any iterable but a mapping (whose iteration would read
    its keys as the values), as a tuple; ``what`` names one value."""
    if isinstance(values, Mapping):
        raise ValidationError(f"{what} column must be a sequence, not a mapping")
    try:
        items = iter(values)
    except TypeError:
        raise ValidationError(f"{what} column must be a sequence, got {reprlib.repr(values)}") from None
    return tuple(items)


def per_prospect(values: tuple, n: int, *, plural: str) -> None:
    """``values`` must hold one value for each of ``n`` prospects."""
    if len(values) != n:
        raise ValidationError(f"{n} prospects but {len(values)} {plural}")


def reals(values, *, what: str) -> tuple:
    """``values`` (a ``column``) as a non-empty tuple of ``real`` numbers.  Of a
    column of ``Fraction``s, ``real`` would refuse only a magnitude past the
    double range: that is checked once, on the largest."""
    values = column(values, what=what)
    if values and all(type(v) is Fraction for v in values):
        numerators, den = over_lcm(values)
        real(Fraction(max(map(abs, numerators)), den), what=what)
        return values
    values = tuple([real(v, what=what) for v in values])
    if len(values) == 0:
        raise ValidationError(f"need at least one {what}")
    return values


def positive(value, *, what: str):
    """``real(value)``, which must be > 0."""
    if (checked := real(value, what=what)) <= 0:
        raise ValidationError(f"{what} must be positive, got {checked!r}")
    return checked


def distribution(values, *, what: str = "utility factor", plural: str = "utility factors") -> tuple:
    """``reals(values)``, each in [0, 1] and summing to 1 with ``SUM_TOL``
    slack: utility factors or choice probabilities.  ``what`` names one
    value in the messages, ``plural`` all of them."""
    values = reals(values, what=what)
    for v in values:
        if not -SUM_TOL <= float(v) <= 1.0 + SUM_TOL:
            raise ValidationError(f"{what} {v!r} outside [0, 1]")
    check_sum(values, 1.0, what=plural)
    return values


def zero_sum(values) -> tuple:
    """``reals(values)`` summing to 0 with ``SUM_TOL`` slack: attraction
    factors."""
    values = reals(values, what="attraction factor")
    check_sum(values, 0.0, what="attraction factors")
    return values


def register(dims, shape=None, *, within: str = "", what: str = "register dimensions") -> tuple[int, int]:
    """``dims`` as ``(n_dim, b_dim)``, the choice and inconclusive dimensions
    of a composite register: two integers >= 1 (``count``).  Given the
    ``shape`` of an operator on the register, named ``within`` in the
    message, it must be ``(n_dim * b_dim,) * 2``; that is checked first.
    """
    try:
        n_dim, b_dim = dims
        fits = shape is None or len(shape) == 2 and shape[0] == shape[1] == n_dim * b_dim
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a pair of integers, got {reprlib.repr(dims)}") from None
    if not fits:
        raise ValidationError(f"{what} {dims} are inconsistent with {within}")
    return (
        count(n_dim, what="choice dimension", minimum=1),
        count(b_dim, what="inconclusive dimension", minimum=1),
    )


def total(values):
    """``sum(values)``, faster when every value is a ``Fraction``.

    Fractions are summed as integer numerators over the ``lcm`` of their
    denominators, with one reduction at the end instead of one per term.
    Any other input goes to the builtin ``sum``, so float totals keep
    their rounding bit for bit.
    """
    values = tuple(values)
    if values and all(isinstance(v, Fraction) for v in values):
        numerators, den = over_lcm(values)
        return Fraction(sum(numerators), den)
    return sum(values)


def over_lcm(fractions) -> tuple[list[int], int]:
    """``fractions`` as integer numerators over ``den``, the ``lcm`` of their
    denominators: ``v == Fraction(numerator, den)`` for each value ``v``."""
    dens = [v.denominator for v in fractions]
    den = math.lcm(*dens)
    return [v.numerator * (den // d) for v, d in zip(fractions, dens)], den


def sum_deviation(values, target) -> tuple:
    """Total of ``values`` and its distance from ``target``.

    Exact for a ``Fraction`` total, so rational inputs right on a
    tolerance are not pushed over it by float rounding.
    """
    got = total(values)
    if isinstance(got, Fraction):
        return got, abs(got - Fraction(target))
    return got, abs(float(got) - target)


def check_sum(values, target, *, what: str, tol: float = SUM_TOL) -> None:
    got, deviation = sum_deviation(values, target)
    if deviation > tol:
        raise ValidationError(
            f"{what} must sum to {target} within {tol:.0e}, got {number_text(got)}"
        )


_WIDE = Context(prec=7, Emax=MAX_EMAX, Emin=MIN_EMIN)


def number_text(value) -> str:
    """``repr(float(value))``, or ``e`` notation for an exact value beyond
    the double range, where ``float`` would raise ``OverflowError``."""
    try:
        return repr(float(value))
    except OverflowError:
        exact = Fraction(value)
        return f"{_WIDE.divide(Decimal(exact.numerator), Decimal(exact.denominator)):.6e}"


def count(value, *, what: str, minimum: int = 0, maximum: int | None = None) -> int:
    """``value`` as an ``int`` >= ``minimum`` (and <= ``maximum`` if given);
    numpy integers pass, ``bool`` does not.  A refused numpy scalar is named
    by the Python number it holds, as ``real`` returns it."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None:
        raise ValidationError(f"{what} must be an integer, got {python_value(value)!r}")
    if n < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {n}")
    if maximum is not None and n > maximum:
        raise ValidationError(f"{what} must be <= {maximum}, got {n}")
    return n


def rng(seed) -> np.random.Generator:
    """The random stream of ``seed``: an integer >= 0 (``count``), or a
    ``np.random.Generator``, which is used as it is."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(count(seed, what="seed"))


def chunks(total: int, size: int) -> Iterator[slice]:
    """Consecutive slices of ``max(1, size)`` items, the last one possibly
    shorter, covering ``range(total)``: how the kernels' callers bound memory."""
    size = max(1, size)
    for start in range(0, total, size):
        yield slice(start, min(start + size, total))


def trusted(cls, **values):
    """A frozen dataclass ``cls`` built without ``__post_init__``, for values
    valid by construction; fields left out take their defaults."""
    obj = object.__new__(cls)
    obj.__dict__.update({field.name: field.default for field in dataclasses.fields(cls)}, **values)
    return obj
