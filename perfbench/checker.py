"""Independent reference checks of CLI output.

Nothing here imports ``qchoice``.  The expected utility factors and ladder
rungs are recomputed from the generated inputs with ``fractions`` and the
closed forms: gap ``1/N`` (even N) or ``N/(N^2-1)`` (odd N), top rung
``(N-1)/(2N)`` or ``N/(2(N+1))``.  Checks hold for any seed; there are no
golden files.

``check(command, stdout, stderr)`` returns ``None`` when the output is
right, otherwise a one-line reason.
"""
from __future__ import annotations

import hashlib
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

#: Float-path tolerance for identities, factor proportionality and sums.
TOL = 1e-12
#: ``predict`` targets that name a bundled study rather than a file.
BUNDLED_NAMES = ("microwave", "frogs")


class Mismatch(Exception):
    """An output violates a reference property."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def check(command, stdout: str, stderr: str) -> str | None:
    spec = command.spec
    try:
        if spec["kind"] == "error":
            _check_error(stderr)
        elif spec["kind"] == "predict":
            _check_predict(spec, stdout)
        elif spec["kind"] == "attraction-set":
            _check_ladder(spec, stdout)
        elif spec["kind"] == "verify":
            _check_verify(spec, stdout)
        elif spec["kind"] == "simulate":
            _check_simulate(spec, stdout)
        else:
            raise Mismatch(f"no check for command kind {spec['kind']!r}")
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"
    return None


def _check_error(stderr: str) -> None:
    """Exit 1 was already required; the message must be one ``error:`` line.

    Click usage errors print a usage block that ends in an ``Error:`` line;
    those count as handled too.
    """
    lines = stderr.strip().splitlines()
    _require(len(lines) >= 1, "rejected input printed no error message")
    if lines[0].startswith("Usage:"):
        _require(lines[-1].startswith("Error:"), "usage message without an Error: line")
    else:
        _require(len(lines) == 1, f"error message spans {len(lines)} lines")
        _require(lines[0].lower().startswith("error:"), f"not an error: line: {lines[0][:80]!r}")


# --------------------------------------------------------------------------
# predict


def ladder(n: int) -> list[Fraction]:
    """Rungs ``q_max - k*delta`` for ``k = 0..N-1`` from the closed forms."""
    if n == 1:
        return [Fraction(0)]
    if n % 2 == 0:
        delta, q_max = Fraction(1, n), Fraction(n - 1, 2 * n)
    else:
        delta, q_max = Fraction(n, n * n - 1), Fraction(n, 2 * (n + 1))
    return [q_max - k * delta for k in range(n)]


def _exact(literal: str) -> Fraction:
    return Fraction(Decimal(literal))


def reference_factors(spec: dict) -> list:
    """Utility factors from the raw inputs: Fractions when exact, else floats."""
    values = [_exact(v) for v in spec["values"]]
    if spec["key"] == "f":
        return values
    config = spec["config"]
    if config.get("utility_kind") == "power":
        e = _exact(config["utility_exponent"])
        if e.denominator == 1:
            values = [(abs(u) ** int(e)) * (1 if u >= 0 else -1) for u in values]
        else:
            values = [(float(abs(u)) ** float(e)) * (1 if u >= 0 else -1) for u in values]
    if all(u >= 0 for u in values):
        a = _exact(config.get("alpha", "1"))
        weights = [u ** int(a) if a.denominator == 1 else float(u) ** float(a) for u in values]
    else:
        g = _exact(config.get("gamma", "1"))
        if g.denominator == 1:
            weights = [(1 / abs(u)) ** int(g) for u in values]
        else:
            weights = [float(abs(u)) ** -float(g) for u in values]
    total = sum(weights)
    return [w / total for w in weights]


def _close(a, b, tol: float = TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


def _same(a, b, exact: bool) -> bool:
    return a == b if exact else _close(a, b)


def _must_clamp(f: list, rungs: list, exact: bool) -> bool | None:
    """Whether some rung lies outside its bounds ``[-f, 1 - f]``.

    On the float path a rung within 1e-9 of its bound could go either way;
    the answer is then left open (``None``).
    """
    if not exact:
        near = [min(abs(float(r) + float(fn)), abs(float(r) - 1 + float(fn))) < 1e-9 for fn, r in zip(f, rungs)]
        if any(near):
            return None
    return any(r < -fn or r > 1 - fn for fn, r in zip(f, rungs))


def _check_split(f: list, q: list, p: list, rungs: list, clamped: bool, exact: bool) -> None:
    """``p = f + q``, the sums, the bounds, and ``q`` against its rung."""
    n = len(f)
    for k in range(n):
        _require(_same(p[k], f[k] + q[k], exact), f"row {k}: p != f + q")
        _require(q[k] >= -f[k] - (0 if exact else TOL), f"row {k}: q below -f")
        _require(q[k] <= 1 - f[k] + (0 if exact else TOL), f"row {k}: q above 1 - f")
    _require(_same(sum(q), 0, exact), f"sum q = {float(sum(q))!r}")
    _require(_same(sum(p), 1, exact), f"sum p = {float(sum(p))!r}")
    if not clamped:
        for k in range(n):
            _require(_same(q[k], rungs[k], exact), f"row {k}: q off the ladder rung {rungs[k]}")
        return
    # Clamped rows sit on a bound; the rest were shifted by one common share.
    free = [
        k for k in range(n)
        if not (_same(q[k], -f[k], exact) or _same(q[k], 1 - f[k], exact))
    ]
    shifts = [q[k] - rungs[k] for k in free]
    for s in shifts[1:]:
        _require(_same(s, shifts[0], exact), "unclamped rows were shifted by different shares")


def _check_predict(spec: dict, stdout: str) -> None:
    ids, rank = spec["ids"], spec["rank"]
    n = len(ids)
    f_ref = reference_factors(spec)
    exact = all(isinstance(x, Fraction) for x in f_ref)
    steps = ladder(n)
    position = {pid: k for k, pid in enumerate(rank)}
    rungs = [steps[position[pid]] for pid in ids]
    must_clamp = _must_clamp(f_ref, rungs, exact)
    empirical = [_exact(v) for v in spec["empirical"]] if spec.get("empirical") else None
    fmt = spec["fmt"]
    if fmt == "record":
        _check_predict_record(spec, stdout, f_ref, rungs, must_clamp, exact, empirical)
    elif fmt == "csv":
        _check_predict_csv(spec, stdout, f_ref, rungs, must_clamp, empirical)
    else:
        _check_predict_table(spec, stdout, f_ref, rungs, must_clamp, exact, empirical)
    if "out" in spec:
        written = Path(spec["out"]).read_text(encoding="utf-8")
        if fmt == "record":
            _require(written == stdout, "--out file differs from the printed record")
        else:
            _check_predict_record(spec, written, f_ref, rungs, must_clamp, exact, empirical)


def _number(row: dict, key: str, exact: bool):
    """The exact field when the path is exact, else the float field."""
    if exact:
        _require(f"{key}_exact" in row, f"missing {key}_exact on the exact path")
        value = Fraction(row[f"{key}_exact"])
        _require(row[key] == float(value), f"{key} float disagrees with {key}_exact")
        return value
    if f"{key}_exact" in row:
        value = Fraction(row[f"{key}_exact"])
        _require(row[key] == float(value), f"{key} float disagrees with {key}_exact")
    return float(row[key])


def _check_predict_record(spec, text, f_ref, rungs, must_clamp, exact, empirical) -> None:
    payload = json.loads(text)
    _require(payload["command"] == f"predict {spec['target']}", "record names the wrong command")
    _require(payload["seeds"] == [], "predict record carries seeds")
    if spec["target"] not in BUNDLED_NAMES:
        digest = "sha256:" + hashlib.sha256(Path(spec["target"]).read_bytes()).hexdigest()
        _require(payload["input_digest"] == digest, "input digest does not match the file")
    report = payload["report"]
    rows = report["prospects"]
    _require([r["id"] for r in rows] == spec["ids"], "prospect ids out of order")
    clamped = report["clamping_applied"]
    if must_clamp is not None:
        _require(clamped == must_clamp, f"clamping_applied is {clamped}, reference says {must_clamp}")
    f = [_number(r, "f", exact) for r in rows]
    q = [_number(r, "q", exact) for r in rows]
    p = [_number(r, "p", exact) for r in rows]
    for k, (got, ref) in enumerate(zip(f, f_ref)):
        _require(_same(got, ref, exact), f"row {k}: f = {got} but reference gives {ref}")
    _check_split(f, q, p, rungs, clamped, exact)
    if "p_expected" in spec:
        _require([r.get("p_exact") for r in rows] == spec["p_expected"], "bundled study off its exact prediction")
    if empirical is None:
        _require("max_abs_error" not in report, "errors reported without empirical data")
        return
    errors = []
    for k, row in enumerate(rows):
        _require(Fraction(row["p_exp_exact"]) == empirical[k], f"row {k}: p_exp differs from the file")
        err = _number(row, "abs_error", exact)
        _require(_same(err, abs(p[k] - empirical[k]), exact), f"row {k}: abs_error != |p - p_exp|")
        errors.append(err)
    _require(_close(report["max_abs_error"], max(errors)), "max_abs_error is not the largest error")
    _require(_close(report["mean_abs_error"], sum(errors) / len(errors)), "mean_abs_error is not the mean")


def _check_predict_csv(spec, text, f_ref, rungs, must_clamp, empirical) -> None:
    lines = text.splitlines()
    _require(lines[0] == "id,f,q,p,p_exp,abs_error", "csv header changed")
    cells = [line.split(",") for line in lines[1:]]
    _require([c[0] for c in cells] == spec["ids"], "csv ids out of order")
    f = [float(c[1]) for c in cells]
    q = [float(c[2]) for c in cells]
    p = [float(c[3]) for c in cells]
    for k, (got, ref) in enumerate(zip(f, f_ref)):
        _require(_close(got, ref), f"row {k}: f = {got} but reference gives {float(ref)}")
    clamped = any(
        _close(q[k], -f[k]) or _close(q[k], 1 - f[k]) for k in range(len(f))
    ) if must_clamp is None else must_clamp
    _check_split(f, q, p, [float(r) for r in rungs], clamped, exact=False)
    if empirical is not None:
        for k, c in enumerate(cells):
            _require(_close(float(c[4]), empirical[k]), f"row {k}: p_exp differs from the file")
            _require(_close(float(c[5]), abs(p[k] - float(empirical[k]))), f"row {k}: abs_error != |p - p_exp|")
    else:
        _require(all(c[4:] == ["", ""] for c in cells), "csv has error columns without empirical data")


def _check_predict_table(spec, text, f_ref, rungs, must_clamp, exact, empirical) -> None:
    lines = text.splitlines()
    _require(lines[0].startswith(f"experiment: {spec['name']}   ["), "table title names the wrong experiment")
    ids = spec["ids"]
    rows = lines[2 : 2 + len(ids)]
    _require([r.split()[0] for r in rows] == ids, "table rows out of order")
    _require(lines[-1].startswith("run at "), "table lacks its timestamp line")
    note = "note: attraction values were clamped to stay within bounds"
    if must_clamp is not None:
        _require((note in lines) == must_clamp, "clamping note disagrees with the reference")
    if empirical is not None:
        _require(any(line.startswith("max |error| ") for line in lines), "table lacks the error summary")
    if must_clamp is False:
        # Unclamped: p = f + rung, so the regularity verdict is known exactly.
        p_ref = [fn + r for fn, r in zip(f_ref, rungs)]
        f_max, p_max = max(f_ref), max(p_ref)
        tie = f_ref.count(f_max) > 1 or p_ref.count(p_max) > 1
        if tie:
            verdict = "regularity: tied maximum, no reversal claimed"
        elif f_ref.index(f_max) != p_ref.index(p_max):
            verdict = (
                f"regularity violated: {ids[p_ref.index(p_max)]} overtakes the utility "
                f"leader {ids[f_ref.index(f_max)]}"
            )
        else:
            verdict = "regularity: utility leader keeps the lead"
        if exact or not tie:
            _require(verdict in lines, f"regularity verdict should be {verdict!r}")


# --------------------------------------------------------------------------
# attraction-set, verify, simulate


def _check_ladder(spec: dict, stdout: str) -> None:
    payload = json.loads(stdout)
    n = spec["n"]
    _require(payload["command"] == f"attraction-set {n}", "record names the wrong command")
    stats = payload["statistics"]
    _require(stats["n_prospects"] == n, "wrong ladder length")
    values = [Fraction(v) for v in stats["values_exact"]]
    _require(len(values) == n, f"{len(values)} rungs for N = {n}")
    reference = ladder(n)
    _require(values[0] == reference[0], f"top rung {values[0]} != {reference[0]}")
    _require(Fraction(stats["q_max_exact"]) == reference[0], "q_max_exact off the closed form")
    if n > 1:
        gap = reference[0] - reference[1]
        _require(Fraction(stats["delta_exact"]) == gap, "delta_exact off the closed form")
        _require(all(a - b == gap for a, b in zip(values, values[1:])), "gap is not constant")
    _require(sum(values) == 0, "rungs do not sum to zero")
    if n > 1:
        _require(sum(abs(v) for v in values) == Fraction(n, 4), "mean |q| is not exactly 1/4")
    _require(stats["values"] == [float(v) for v in values], "float rungs disagree with the exact ones")


_SAMPLE_FIELD = {
    "quarter-law": "samples",
    "gaps": "samples",
    "entropy": "perturbations",
    "quantum-identity": "draws",
}


def _check_verify(spec: dict, stdout: str) -> None:
    payload = json.loads(stdout)
    _require(payload["command"] == f"verify {spec['suite']}", "record names the wrong command")
    _require(payload["seeds"] == [spec["seed"]], "record carries the wrong seed")
    stats = payload["statistics"]
    _require(stats["passed"] is True, f"suite {spec['suite']} missed its target")
    _require(stats["seed"] == spec["seed"], "suite ran with the wrong seed")
    _require(stats[_SAMPLE_FIELD[spec["suite"]]] == spec["samples"], "suite ran with the wrong effort")


def _check_simulate(spec: dict, stdout: str) -> None:
    payload = json.loads(stdout)
    stats = payload["statistics"]
    _require(stats["dims"] == spec["dims"], "wrong register dimensions")
    _require(stats["seed"] == spec["seed"] and payload["seeds"] == [spec["seed"]], "wrong seed")
    steps = spec["steps"]
    _require(stats["sweep_steps"] == steps and len(stats["sweep"]) == steps, "wrong number of damping levels")
    f0 = stats["sweep"][0]["f"]
    for k, level in enumerate(stats["sweep"]):
        where = f"damping level {k}"
        p, f, q = level["p"], level["f"], level["q"]
        _require(len(p) == len(f) == len(q) == spec["dims"][0], f"{where}: one value per choice")
        _require(_close(level["damping"], k / (steps - 1)), f"{where}: damping off the 0..1 grid")
        _require(_close(sum(p), 1) and _close(sum(f), 1), f"{where}: p or f does not sum to 1")
        _require(_close(sum(q), 0), f"{where}: q does not sum to 0")
        _require(all(_close(a, b + c) for a, b, c in zip(p, f, q)), f"{where}: p != f + q")
        # Decoherence damps only off-diagonal terms: f never moves.
        _require(all(_close(a, b) for a, b in zip(f, f0)), f"{where}: f changed under damping")
        _require(level["max_abs_q"] == max(abs(x) for x in q), f"{where}: max_abs_q is not max |q|")
    _require(stats["sweep"][-1]["max_abs_q"] <= TOL, "interference survives full damping")
