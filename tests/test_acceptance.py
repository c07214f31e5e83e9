"""Acceptance gate: every headline capability, at its stated tolerance.

Each test prints a one-line verdict through the ``verdict`` fixture
(which suspends capture, so the lines appear in any pytest run) and
then asserts, so a red gate is loud in both channels.  Runtime bounds
are asserted with ``time.perf_counter``.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from qchoice import (
    Prospect,
    attraction_gap,
    attraction_qmax,
    bundled_experiment,
    decohere,
    enforce_bounds,
    normalize_prospect_set,
    ordered_uniform_gap_check,
    predict_decoy,
    prospect_probability,
    quantized_attraction_set,
    quarter_law_check,
    random_density_operator,
    regularity_violation_check,
    run_prediction,
    sample_inconclusive,
    utility_factors_gains,
    utility_factors_losses,
    verify_entropy,
)

F = Fraction


def test_consumer_goods_decoy_replication(verdict):
    t0 = time.perf_counter()
    report = run_prediction(bundled_experiment("microwave"))
    elapsed = time.perf_counter() - t0
    exact = report.probabilities == (F(13, 20), F(7, 20))
    err_ok = report.max_abs_error == F(1, 25)
    reversal = regularity_violation_check(
        report.utility_factors, report.probabilities
    ).reversal
    ok = exact and err_ok and reversal and elapsed < 1.0
    verdict(
        "consumer-goods decoy replication",
        ok,
        f"p={tuple(map(str, report.probabilities))} max|err|={float(report.max_abs_error)} "
        f"reversal={reversal} ({elapsed:.3f}s)",
    )
    assert exact, report.probabilities
    assert err_ok, report.max_abs_error
    assert reversal
    assert elapsed < 1.0


def test_mate_choice_decoy_replication(verdict):
    t0 = time.perf_counter()
    report = run_prediction(bundled_experiment("frogs"))
    elapsed = time.perf_counter() - t0
    exact = report.probabilities == (F(3, 5), F(2, 5))
    err_ok = report.max_abs_error == 0
    reversal = regularity_violation_check(
        report.utility_factors, report.probabilities
    ).reversal
    ok = exact and err_ok and reversal and elapsed < 1.0
    verdict(
        "mate-choice decoy replication",
        ok,
        f"p={tuple(map(str, report.probabilities))} max|err|={float(report.max_abs_error)} "
        f"reversal={reversal} ({elapsed:.3f}s)",
    )
    assert exact, report.probabilities
    assert err_ok
    assert reversal
    assert elapsed < 1.0


def test_quantized_ladder_catalogue(verdict):
    catalogue = {
        2: (F(1, 4), F(-1, 4)),
        3: (F(3, 8), F(0), F(-3, 8)),
        4: (F(3, 8), F(1, 8), F(-1, 8), F(-3, 8)),
        5: (F(5, 12), F(5, 24), F(0), F(-5, 24), F(-5, 12)),
    }
    t0 = time.perf_counter()
    catalogue_ok = all(
        quantized_attraction_set(n).values == values for n, values in catalogue.items()
    )
    closed_forms_ok = True
    for n in range(2, 101):
        values = quantized_attraction_set(n).values
        # Every consecutive gap and the top rung, read off the ladder itself.
        gaps = {a - b for a, b in zip(values, values[1:])}
        top = values[0]
        if n % 2 == 0:
            delta, q_max = F(1, n), F(n - 1, 2 * n)
        else:
            delta, q_max = F(n, n * n - 1), F(n, 2 * (n + 1))
        closed_forms_ok &= gaps == {delta} and top == q_max
        closed_forms_ok &= attraction_gap(n) == delta and attraction_qmax(n) == q_max
        closed_forms_ok &= q_max == F(n - 1, 1) * delta / 2
    elapsed = time.perf_counter() - t0
    ok = catalogue_ok and closed_forms_ok and elapsed < 5.0
    verdict(
        "quantized attraction ladders",
        ok,
        f"catalogue N=2..5 exact={catalogue_ok}, closed forms N=2..100 "
        f"exact={closed_forms_ok} ({elapsed:.3f}s)",
    )
    assert catalogue_ok
    assert closed_forms_ok
    assert elapsed < 5.0


def test_quarter_law(verdict):
    t0 = time.perf_counter()
    estimate = quarter_law_check(1_000_000, seed=0)
    mc_elapsed = time.perf_counter() - t0
    deviation = abs(estimate - 0.25)
    mc_ok = deviation <= 5e-3 and mc_elapsed < 5.0

    t0 = time.perf_counter()
    exact_ok = all(
        sum(abs(v) for v in quantized_attraction_set(n).values) == F(n, 4)
        for n in range(2, 1001)
    )
    exact_elapsed = time.perf_counter() - t0
    ok = mc_ok and exact_ok and exact_elapsed < 10.0
    verdict(
        "quarter law",
        ok,
        f"MC estimate {estimate:.6f} (|dev| {deviation:.2e} <= 5e-3, {mc_elapsed:.2f}s); "
        f"exact mean |q| = 1/4 for N=2..1000: {exact_ok} ({exact_elapsed:.2f}s)",
    )
    assert deviation <= 5e-3
    assert mc_elapsed < 5.0
    assert exact_ok
    assert exact_elapsed < 10.0


def test_ordered_uniform_gaps(verdict):
    t0 = time.perf_counter()
    gaps = ordered_uniform_gap_check(5, 100_000, seed=0)
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(np.asarray(gaps) - 1 / 6)))
    ok = worst <= 3e-3 and elapsed < 5.0
    verdict(
        "ordered-uniform mean gaps",
        ok,
        f"4 gaps within {worst:.2e} of 1/6 (tol 3e-3) ({elapsed:.2f}s)",
    )
    assert worst <= 3e-3
    assert elapsed < 5.0


def test_probability_split_identity(verdict):
    n_dim, b_dim = 4, 3
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    max_split = 0.0
    max_norm = 0.0
    for _ in range(1000):
        rho = random_density_operator(n_dim * b_dim, rng)
        b = sample_inconclusive(b_dim, rng)
        triples = [
            prospect_probability(rho, Prospect(n, b), (n_dim, b_dim))
            for n in range(n_dim)
        ]
        for t in triples:
            max_split = max(max_split, abs(t.p - (t.f + t.q)))
        family = normalize_prospect_set(triples)
        max_norm = max(
            max_norm,
            abs(sum(t.p for t in family) - 1.0),
            abs(sum(t.f for t in family) - 1.0),
            abs(sum(t.q for t in family)),
        )
    elapsed = time.perf_counter() - t0
    ok = max_split < 1e-12 and max_norm < 1e-12 and elapsed < 10.0
    verdict(
        "probability split identity",
        ok,
        f"1000 random draws at dims (4,3): max |p-(f+q)| = {max_split:.2e}, "
        f"max normalized-sum defect = {max_norm:.2e} (tol 1e-12) ({elapsed:.2f}s)",
    )
    assert max_split < 1e-12
    assert max_norm < 1e-12
    assert elapsed < 10.0


def test_decoherence_kills_interference(verdict):
    n_dim, b_dim = 4, 3
    rng = np.random.default_rng(12)
    rho = random_density_operator(n_dim * b_dim, rng)
    b = sample_inconclusive(b_dim, rng)
    prospects = [Prospect(n, b) for n in range(n_dim)]
    t0 = time.perf_counter()
    levels = np.linspace(0.0, 1.0, 11)
    abs_q = []  # one row per damping level, one column per prospect
    for level in levels:
        damped = decohere(rho, float(level), block_dims=(n_dim, b_dim))
        abs_q.append(
            [
                abs(prospect_probability(damped, pr, (n_dim, b_dim)).q)
                for pr in prospects
            ]
        )
    elapsed = time.perf_counter() - t0
    monotone = all(
        abs_q[k + 1][j] <= abs_q[k][j] + 1e-15
        for k in range(len(levels) - 1)
        for j in range(n_dim)
    )
    end_dead = max(abs_q[-1]) <= 1e-12
    ok = monotone and end_dead and elapsed < 5.0
    verdict(
        "decoherence sweep",
        ok,
        f"per-prospect |q| non-increasing over 11 damping levels: {monotone}; "
        f"max |q| at full damping = {max(abs_q[-1]):.2e} (tol 1e-12) ({elapsed:.2f}s)",
    )
    assert monotone
    assert end_dead
    assert elapsed < 5.0


def test_noninformative_prior_minimization(verdict):
    t0 = time.perf_counter()
    result = verify_entropy(perturbations=10_000, seed=0, vectors=20)
    elapsed = time.perf_counter() - t0
    margin_ok = result.statistics["worst_margin"] >= -1e-9
    reduction_ok = result.statistics["unit_exponent_reduction_exact"]
    ok = margin_ok and reduction_ok and elapsed < 10.0
    verdict(
        "non-informative prior minimization",
        ok,
        f"worst margin over 20 vectors/regime x 10000 perturbations = "
        f"{result.statistics['worst_margin']:.2e} (>= -1e-9); unit-exponent "
        f"reduction exact: {reduction_ok} ({elapsed:.2f}s)",
    )
    assert margin_ok
    assert reduction_ok
    assert elapsed < 10.0


def test_structural_properties(verdict):
    import random

    t0 = time.perf_counter()
    problems: list[str] = []

    # Gains factors are scale invariant, exactly, for rational inputs.
    base = utility_factors_gains([F(2), F(3), F(5)], F(2))
    scaled = utility_factors_gains([F(4), F(6), F(10)], F(2))
    if base != scaled:
        problems.append("gains scale invariance")

    # Monotone in utility, both regimes.
    gains = utility_factors_gains([F(1), F(2), F(7)], F(3, 2))
    if not (gains[0] < gains[1] < gains[2]):
        problems.append("gains monotonicity")
    losses = utility_factors_losses([F(-1), F(-2), F(-7)], F(3, 2))
    if not (losses[0] > losses[1] > losses[2]):
        problems.append("losses monotonicity")

    # Ladder antisymmetry and the top-rung identity, N <= 200.
    for n in range(1, 201):
        values = quantized_attraction_set(n).values
        if tuple(-v for v in reversed(values)) != values:
            problems.append(f"antisymmetry at N={n}")
            break
        if n >= 2 and max(values) != F(n - 1, 1) * attraction_gap(n) / 2:
            problems.append(f"top-rung identity at N={n}")
            break

    # Bound enforcement is idempotent and keeps invariants, random cases.
    rng = random.Random(2026)
    for _ in range(200):
        n = rng.randint(2, 6)
        weights = [rng.randint(1, 25) for _ in range(n)]
        f = tuple(F(w, sum(weights)) for w in weights)
        ladder = list(quantized_attraction_set(n).values)
        rng.shuffle(ladder)
        q, _ = enforce_bounds(f, tuple(ladder))
        if sum(q) != 0 or any(not -fn <= qn <= 1 - fn for fn, qn in zip(f, q)):
            problems.append("bound enforcement invariants")
            break
        again, clamped = enforce_bounds(f, tuple(q))
        if again != q or clamped:
            problems.append("bound enforcement idempotence")
            break

    # Two-prospect reversal happens exactly above the quarter threshold.
    for k in range(1, 48):
        f_minor = F(k, 96)
        report = predict_decoy((f_minor, 1 - f_minor), (0, 1))
        check = regularity_violation_check(report.utility_factors, report.probabilities)
        if f_minor == F(1, 4):
            if not check.tie:
                problems.append("threshold tie at 1/4")
        elif check.reversal is not (f_minor > F(1, 4)):
            problems.append(f"reversal threshold at f={f_minor}")
            break

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    verdict(
        "structural properties",
        ok,
        ("all relations hold" if not problems else "; ".join(problems))
        + f" ({elapsed:.2f}s)",
    )
    assert not problems, problems
    assert elapsed < 10.0
