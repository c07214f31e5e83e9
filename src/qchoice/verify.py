"""Statistical and algebraic self-check suites.

Each suite re-derives one of the package's founding facts from scratch —
Monte Carlo where the fact is distributional, exhaustive perturbation
where it is variational, random draws where it is an operator identity —
and reports an honest pass/fail against a fixed tolerance.  The CLI
exposes them under ``verify``; the test suite calls them directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _checks, attraction, quantum, utility
from ._checks import ENTROPY_MARGIN_TOL, GAP_SPREAD_TOL, IDENTITY_TOL, QUARTER_LAW_TOL
from .attraction import ordered_uniform_gap_check, quarter_law_check
from .errors import ValidationError
from .quantum import (
    normalize,
    prospect_projector_stack,
    random_prospect_draws,
    split,
    trace_rule,
)
from .utility import utility_factors_gains, utility_factors_losses

@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one self-check suite."""

    suite: str
    passed: bool
    statistics: dict
    summary: str


def verify_quarter_law(samples: int = 1_000_000, seed: int = 0) -> SuiteResult:
    """Monte Carlo check that the typical attraction magnitude is 1/4."""
    seed = _checks.count(seed, what="seed")  # the record holds it
    estimate = quarter_law_check(samples, seed)
    deviation = abs(estimate - 0.25)
    passed = deviation <= QUARTER_LAW_TOL
    stats = {
        "samples": int(samples),
        "seed": seed,
        "estimate": float(estimate),
        "target": 0.25,
        "tolerance": QUARTER_LAW_TOL,
        "deviation": float(deviation),
    }
    return SuiteResult(
        suite="quarter-law",
        passed=passed,
        statistics=stats,
        summary=(
            f"mean positive attraction {estimate:.6f} vs 1/4 "
            f"(|dev| {deviation:.2e}, tol {QUARTER_LAW_TOL:.0e})"
        ),
    )


def verify_gaps(
    samples: int = 100_000, seed: int = 0, n_prospects: int = 5
) -> SuiteResult:
    """Check that ordered uniform draws have equal mean consecutive gaps."""
    seed = _checks.count(seed, what="seed")  # the record holds it
    gaps = ordered_uniform_gap_check(n_prospects, samples, seed)
    spread = float(np.max(gaps) - np.min(gaps))
    expected = 1.0 / (n_prospects + 1)
    worst = float(np.max(np.abs(gaps - expected)))
    passed = spread <= GAP_SPREAD_TOL
    stats = {
        "n_prospects": int(n_prospects),
        "samples": int(samples),
        "seed": seed,
        "mean_gaps": [float(g) for g in gaps],
        "spread": spread,
        "expected_gap": expected,
        "max_deviation_from_expected": worst,
        "tolerance": GAP_SPREAD_TOL,
    }
    return SuiteResult(
        suite="gaps",
        passed=passed,
        statistics=stats,
        summary=(
            f"{n_prospects - 1} mean gaps within spread {spread:.2e} of each "
            f"other (tol {GAP_SPREAD_TOL:.0e}); expected common value {expected:.4f}"
        ),
    )


def _perturbation_margin(
    rng: np.random.Generator,
    utilities: np.ndarray,
    exponent: float,
    perturbations: int,
    *,
    gains: bool,
) -> float:
    """Worst functional margin of random simplex points over the minimizer.

    Points are drawn in chunks of about ``_CHUNK_TARGET`` values, the same
    points as one large draw.
    """
    f_star = utility._factors(list(utilities), exponent, gains=gains)
    i_star = utility._functional(f_star, list(utilities), 0.0, exponent, gains=gains)
    e = exponent if gains else -exponent
    log_penalty = -np.log(np.abs(utilities))
    least = np.inf
    for chunk in _checks.chunks(perturbations, attraction._CHUNK_TARGET // utilities.size):
        points = rng.dirichlet(np.ones(utilities.size), size=chunk.stop - chunk.start)
        safe = np.where(points > 0.0, points, 1.0)  # 0 * log 0 -> 0
        entropy = np.sum(points * np.log(safe), axis=1)
        values = entropy + e * (points @ log_penalty)
        least = min(least, float(np.min(values)))
    return least - i_star


def verify_entropy(perturbations: int = 10_000, seed: int = 0, vectors: int = 20) -> SuiteResult:
    """Check the closed-form factors minimize their information functionals.

    For random utility vectors in each sign regime, no random simplex
    point may beat the closed form by more than numerical noise; and at
    unit exponents the closed forms must coincide with the plain ratio
    weightings exactly.
    """
    vectors = _checks.count(vectors, what="vector count", minimum=1)
    perturbations = _checks.count(perturbations, what="perturbation count", minimum=1)
    seed = _checks.count(seed, what="seed")  # the record holds it
    rng = _checks.rng(seed)
    worst = np.inf
    for _ in range(vectors):
        n = int(rng.integers(2, 7))
        utilities = rng.uniform(0.2, 5.0, n)
        alpha = float(rng.uniform(0.3, 2.5))
        gamma = float(rng.uniform(0.3, 2.5))
        worst = min(
            worst,
            _perturbation_margin(rng, utilities, alpha, perturbations, gains=True),
            _perturbation_margin(rng, -utilities, gamma, perturbations, gains=False),
        )

    # Unit exponents must reduce to the plain ratio forms, exactly.
    reduction_exact = True
    for _ in range(5):
        n = int(rng.integers(2, 7))
        u = rng.uniform(0.2, 5.0, n)
        gains = utility_factors_gains(list(u), 1)
        ratio = [x / float(np.sum(u)) for x in u]
        reduction_exact &= all(a == b for a, b in zip(gains, ratio))
        losses_f = utility_factors_losses(list(-u), 1)
        inv = [1 / x for x in u]
        ratio_l = [w / sum(inv) for w in inv]
        reduction_exact &= all(a == b for a, b in zip(losses_f, ratio_l))

    passed = worst >= ENTROPY_MARGIN_TOL and reduction_exact
    stats = {
        "vectors_per_regime": int(vectors),
        "perturbations": int(perturbations),
        "seed": seed,
        "worst_margin": float(worst),
        "margin_tolerance": ENTROPY_MARGIN_TOL,
        "unit_exponent_reduction_exact": bool(reduction_exact),
    }
    return SuiteResult(
        suite="entropy",
        passed=passed,
        statistics=stats,
        summary=(
            f"worst perturbation margin {worst:.3e} (must be >= {ENTROPY_MARGIN_TOL:.0e}); "
            f"unit-exponent reduction exact: {reduction_exact}"
        ),
    )


#: Record names of ``verify_quantum_identity``'s worst defects: of ``p = f + q``,
#: of ``p`` against the trace rule, and of the normalized sums of ``p``, ``f`` and ``q``.
_IDENTITY_DEFECTS = ("max_split_defect", "max_trace_rule_deviation",
                     "max_p_sum_defect", "max_f_sum_defect", "max_q_sum_defect")


def verify_quantum_identity(
    draws: int = 1000, seed: int = 0, dims: tuple[int, int] = (4, 3)
) -> SuiteResult:
    """Random-state check of the probability split and its normalization.

    Every draw builds a random density operator and random inconclusive
    amplitudes, then checks |p - (f + q)| for each prospect, agreement
    of p with the independent full-matrix trace rule, and the sums of
    the normalized family (p to 1, f to 1, q to 0).

    Draws come from one random stream, state then amplitudes, in the
    stacks ``quantum.stacks`` sizes by memory (``random_prospect_draws``),
    so the record does not depend on the stack size; each stack takes one
    ``split`` and one ``normalize`` call, and one ``trace_rule`` call per
    choice index.  The trace rule works on the full ``d x d`` projectors,
    not on the choice blocks that ``split`` reads, so the two routes to
    ``p`` stay independent.
    """
    draws = _checks.count(draws, what="draw count", minimum=1)
    n_dim, b_dim = _checks.register(dims)
    seed = _checks.count(seed, what="seed")  # the record holds it
    rng = _checks.rng(seed)
    defects = [0.0] * len(_IDENTITY_DEFECTS)
    for chunk in quantum.stacks(draws, n_dim * b_dim):
        rhos, coeffs = random_prospect_draws(chunk.stop - chunk.start, dims, rng)
        p, f, q = split(rhos, coeffs, dims)
        trace_p = np.stack(
            [trace_rule(rhos, prospect_projector_stack(coeffs, n, dims)) for n in range(n_dim)],
            axis=-1,
        )
        p_n, f_n, q_n = normalize(p, f)
        sums = (p_n.sum(axis=-1) - 1.0, f_n.sum(axis=-1) - 1.0, q_n.sum(axis=-1))
        residues = (p - (f + q), trace_p - p, *sums)
        defects = [max(d, float(np.max(np.abs(r)))) for d, r in zip(defects, residues)]
    worst = max(defects)
    passed = worst < IDENTITY_TOL
    stats = {
        "draws": int(draws),
        "seed": seed,
        "dims": [int(n_dim), int(b_dim)],
        **dict(zip(_IDENTITY_DEFECTS, defects)),
        "tolerance": IDENTITY_TOL,
    }
    return SuiteResult(
        suite="quantum-identity",
        passed=passed,
        statistics=stats,
        summary=(
            f"worst defect {worst:.3e} over {draws} draws at dims {dims} "
            f"(tol {IDENTITY_TOL:.0e})"
        ),
    )


_SUITES = {
    "quarter-law": verify_quarter_law,
    "gaps": verify_gaps,
    "entropy": verify_entropy,
    "quantum-identity": verify_quantum_identity,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, samples: int | None = None, seed: int = 0) -> SuiteResult:
    """Run one named suite; ``samples`` maps to its sampling knob, the
    first parameter, whose own default applies when it is ``None``."""
    suite = _SUITES.get(name)
    if suite is None:
        raise ValidationError(
            f"unknown verification suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    if samples is None:
        return suite(seed=seed)
    return suite(samples, seed)
