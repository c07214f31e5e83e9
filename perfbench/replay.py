"""Traced replay: per-layer spans measured from outside the package.

For each command of a traced pass, the run records one ``cli.main`` span
around ``main(argv)``.  It then replays the same inputs through the public
functions that command reaches, each call timed as a span whose parent is
the command span (or a layer span, for calls made on a layer's behalf) and
which carries the command's id.  No package module is patched.

Self time of a span is its duration minus the durations of its child
spans.  Two replays stand in for calls a public function makes internally:
``decision.compose`` (``ChoiceSet`` + ``compose_probabilities``) has the
replayed ``attraction.ladder`` and ``decision.enforce_bounds`` calls as
children, so its self time excludes them; and ``cli.main`` has every
top-level replay span as a child, so its self time is the CLI's own work:
click dispatch, rendering, the input digest and the bundle lookup.

``verify entropy`` and ``verify quantum-identity`` are replayed by running
the suite's loop here over the public functions with the suite's own
random stream; each replay's result is compared with the record the CLI
printed, and a disagreement is counted in ``trace.replay_mismatches``.
"""
from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

from qchoice.attraction import ordered_uniform_gap_check, quantized_attraction_set, quarter_law_check
from qchoice.decision import (
    ChoiceSet,
    compose_probabilities,
    enforce_bounds,
    regularity_violation_check,
    score_against_empirical,
)
from qchoice.errors import QChoiceError
from qchoice.experiments import (
    RunRecord,
    bundled_experiment_text,
    derive_utility_factors,
    input_digest,
    parse_experiment,
)
from qchoice.quantum import (
    Prospect,
    decohere,
    normalize_prospect_set,
    prospect_probability,
    prospect_projector,
    random_density_operator,
    sample_inconclusive,
)
from qchoice.utility import (
    information_functional_gains,
    information_functional_losses,
    utility_factors_gains,
    utility_factors_losses,
)
from qchoice.verify import verify_entropy, verify_gaps, verify_quantum_identity

_ns = time.perf_counter_ns


def _default(func, name):
    return inspect.signature(func).parameters[name].default


#: Suite parameters the CLI leaves at their defaults.
GAPS_N = _default(verify_gaps, "n_prospects")
ENTROPY_VECTORS = _default(verify_entropy, "vectors")
IDENTITY_DIMS = _default(verify_quantum_identity, "dims")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        #: ``[command, span_id, parent_id, name, start_ns, end_ns]``
        self.spans: list[list] = []
        self.counts: Counter = Counter()

    def add(self, command: int, parent: int | None, name: str, start: int, end: int) -> int:
        sid = len(self.spans)
        self.spans.append([command, sid, parent, name, start, end])
        return sid

    def open(self, command: int, parent: int | None, name: str) -> int:
        return self.add(command, parent, name, _ns(), 0)

    def close(self, sid: int) -> None:
        self.spans[sid][5] = _ns()

    def call(self, command: int, parent: int, name: str, func, *args, **kwargs):
        sid = self.add(command, parent, name, 0, 0)
        span = self.spans[sid]
        span[4] = _ns()
        try:
            return func(*args, **kwargs)
        finally:
            span[5] = _ns()

    def mismatch(self) -> None:
        self.counts["trace.replay_mismatches"] += 1


def replay(tracer: Tracer, index: int, command, outcome) -> None:
    """Record the ``cli.main`` span of one command, then replay its inputs."""
    root = tracer.add(index, None, "cli.main", outcome.start_ns, outcome.end_ns)
    spec = command.spec
    kind = spec["kind"]
    if command.argv[0] == "predict":
        _predict(tracer, index, root, command, outcome)
    elif kind == "attraction-set":
        _ladder(tracer, index, root, spec["n"])
    elif kind == "simulate":
        _simulate(tracer, index, root, spec, outcome)
    elif kind == "verify":
        _VERIFY[spec["suite"]](tracer, index, root, spec, outcome)


def _ladder(tracer: Tracer, c: int, parent: int, n: int):
    ladder = tracer.call(c, parent, "attraction.ladder", quantized_attraction_set, n)
    tracer.counts["attraction.ladder_calls"] += 1
    tracer.counts["attraction.rungs"] += n
    return ladder


def _predict_text(target: str) -> tuple[str, str] | None:
    """Input text and source name, as ``predict`` resolves them; ``None`` if unreadable."""
    path = Path(target)
    if path.exists():
        try:
            return path.read_text(encoding="utf-8"), str(path)
        except (OSError, UnicodeDecodeError):
            return None
    try:
        stem = target.removesuffix(".exp")
        return bundled_experiment_text(stem), f"bundled:{stem}"
    except QChoiceError:
        return None


def _predict(tracer: Tracer, c: int, root: int, command, outcome) -> None:
    counts = tracer.counts
    target = command.argv[1]
    resolved = _predict_text(target)
    if resolved is None:
        return
    text, source = resolved
    counts["experiments.parse_calls"] += 1
    counts["experiments.parse_bytes"] += len(text.encode("utf-8"))
    try:
        exp = tracer.call(c, root, "experiments.parse", parse_experiment, text, source=source)
    except QChoiceError:
        counts["experiments.parse_errors"] += 1
        return
    counts["utility.factors_calls"] += 1
    try:
        factors = tracer.call(c, root, "utility.factors", derive_utility_factors, exp)
    except QChoiceError:
        return
    counts["utility.float_results"] += any(isinstance(x, float) for x in factors)

    compose = tracer.open(c, root, "decision.compose")
    choice_set = ChoiceSet(
        prospect_ids=exp.prospect_ids,
        utility_factors=tuple(factors),
        attractiveness_rank=exp.attractiveness_rank,
    )
    report = compose_probabilities(choice_set)
    tracer.close(compose)
    n = len(exp.prospect_ids)
    rungs = _ladder(tracer, c, compose, n).values
    position = {pid: k for k, pid in enumerate(exp.attractiveness_rank)}
    q_raw = [rungs[position[pid]] for pid in exp.prospect_ids]
    _, clamped = tracer.call(c, compose, "decision.enforce_bounds", enforce_bounds, factors, q_raw)
    counts["decision.enforce_bounds_calls"] += 1
    counts["decision.clamped"] += clamped

    if exp.empirical is not None:
        report = tracer.call(c, root, "decision.score", score_against_empirical, report, exp.empirical)
    tracer.call(c, root, "decision.regularity", regularity_violation_check, report.utility_factors, report.probabilities)

    fmt = command.spec.get("fmt", "table")
    if fmt == "table" and "out" not in command.spec:
        return
    record = RunRecord(
        command=f"predict {target}", input_digest=input_digest(text), seeds=(), report=report
    )
    render = record.to_csv if fmt == "csv" else record.to_json
    text_out = tracer.call(c, root, "experiments.record", render)
    if fmt in ("csv", "record") and text_out != outcome.stdout and outcome.rc == 0:
        tracer.mismatch()


def _record_stats(outcome) -> dict | None:
    if outcome.rc != 0:
        return None
    return json.loads(outcome.stdout)["statistics"]


def _quarter_law(tracer: Tracer, c: int, root: int, spec: dict, outcome) -> None:
    suite = tracer.open(c, root, "verify.quarter_law")
    estimate = tracer.call(c, suite, "attraction.mc", quarter_law_check, spec["samples"], spec["seed"])
    tracer.close(suite)
    tracer.counts["attraction.mc_samples"] += spec["samples"]
    stats = _record_stats(outcome)
    if stats is not None and stats["estimate"] != estimate:
        tracer.mismatch()


def _gaps(tracer: Tracer, c: int, root: int, spec: dict, outcome) -> None:
    suite = tracer.open(c, root, "verify.gaps")
    gaps = tracer.call(c, suite, "attraction.mc", ordered_uniform_gap_check, GAPS_N, spec["samples"], spec["seed"])
    tracer.close(suite)
    tracer.counts["attraction.mc_samples"] += spec["samples"] * GAPS_N
    stats = _record_stats(outcome)
    if stats is not None and stats["mean_gaps"] != [float(g) for g in gaps]:
        tracer.mismatch()


def _entropy(tracer: Tracer, c: int, root: int, spec: dict, outcome) -> None:
    """The ``verify entropy`` loop over the public factor and functional calls."""
    counts = tracer.counts
    perturbations = spec["samples"]
    suite = tracer.open(c, root, "verify.entropy")
    rng = np.random.default_rng(spec["seed"])

    def margin(utilities, exponent, losses):
        factors_fn = utility_factors_losses if losses else utility_factors_gains
        functional = information_functional_losses if losses else information_functional_gains
        f_star = tracer.call(c, suite, "utility.factors", factors_fn, list(utilities), exponent)
        i_star = tracer.call(c, suite, "utility.functional", functional, f_star, list(utilities), 0.0, exponent)
        counts["utility.factors_calls"] += 1
        counts["utility.functional_calls"] += 1
        log_penalty = -np.log(np.abs(utilities))
        points = rng.dirichlet(np.ones(utilities.size), size=perturbations)
        safe = np.where(points > 0.0, points, 1.0)
        entropy = np.sum(points * np.log(safe), axis=1)
        values = entropy + (-1.0 if losses else 1.0) * exponent * (points @ log_penalty)
        return float(np.min(values) - i_star)

    worst = np.inf
    for _ in range(ENTROPY_VECTORS):
        n = int(rng.integers(2, 7))
        utilities = rng.uniform(0.2, 5.0, n)
        alpha = float(rng.uniform(0.3, 2.5))
        gamma = float(rng.uniform(0.3, 2.5))
        worst = min(worst, margin(utilities, alpha, False), margin(-utilities, gamma, True))
    for _ in range(5):
        n = int(rng.integers(2, 7))
        u = rng.uniform(0.2, 5.0, n)
        tracer.call(c, suite, "utility.factors", utility_factors_gains, list(u), 1)
        tracer.call(c, suite, "utility.factors", utility_factors_losses, list(-u), 1)
        counts["utility.factors_calls"] += 2
    tracer.close(suite)
    stats = _record_stats(outcome)
    if stats is not None and stats["worst_margin"] != worst:
        tracer.mismatch()


def _quantum_identity(tracer: Tracer, c: int, root: int, spec: dict, outcome) -> None:
    """The ``verify quantum-identity`` loop: fresh states, split, trace rule, normalization."""
    counts = tracer.counts
    n_dim, b_dim = IDENTITY_DIMS
    dims = (n_dim, b_dim)
    suite = tracer.open(c, root, "verify.quantum_identity")
    rng = np.random.default_rng(spec["seed"])

    def trace_rule(prospect, rho):
        return prospect_projector(prospect, n_dim, b_dim).expectation(rho)

    worst_trace = 0.0
    for _ in range(spec["samples"]):
        rho = tracer.call(c, suite, "quantum.random_state", random_density_operator, n_dim * b_dim, rng)
        b = tracer.call(c, suite, "quantum.random_state", sample_inconclusive, b_dim, rng)
        prospects = [Prospect(n, b) for n in range(n_dim)]
        triples = [tracer.call(c, suite, "quantum.split", prospect_probability, rho, pr, dims) for pr in prospects]
        for pr, t in zip(prospects, triples):
            p = tracer.call(c, suite, "quantum.trace_rule", trace_rule, pr, rho)
            worst_trace = max(worst_trace, abs(p - t.p))
        tracer.call(c, suite, "quantum.normalize", normalize_prospect_set, triples)
    tracer.close(suite)
    counts["quantum.density_ops"] += spec["samples"]
    counts["quantum.split_calls"] += spec["samples"] * n_dim
    stats = _record_stats(outcome)
    if stats is not None and stats["max_trace_rule_deviation"] != worst_trace:
        tracer.mismatch()


_VERIFY = {
    "quarter-law": _quarter_law,
    "gaps": _gaps,
    "entropy": _entropy,
    "quantum-identity": _quantum_identity,
}


def _simulate(tracer: Tracer, c: int, root: int, spec: dict, outcome) -> None:
    counts = tracer.counts
    n_dim, b_dim = spec["dims"]
    dims = (n_dim, b_dim)
    rng = np.random.default_rng(spec["seed"])
    rho = tracer.call(c, root, "quantum.random_state", random_density_operator, n_dim * b_dim, rng)
    b = tracer.call(c, root, "quantum.random_state", sample_inconclusive, b_dim, rng)
    prospects = [Prospect(n, b) for n in range(n_dim)]
    p_rows = []
    for level in np.linspace(0.0, 1.0, spec["steps"]):
        damped = tracer.call(c, root, "quantum.decohere", decohere, rho, float(level), dims)
        triples = [tracer.call(c, root, "quantum.split", prospect_probability, damped, pr, dims) for pr in prospects]
        family = tracer.call(c, root, "quantum.normalize", normalize_prospect_set, triples)
        p_rows.append([float(t.p) for t in family])
    counts["quantum.density_ops"] += 1 + spec["steps"]
    counts["quantum.split_calls"] += spec["steps"] * n_dim
    stats = _record_stats(outcome)
    if stats is not None and [level["p"] for level in stats["sweep"]] != p_rows:
        tracer.mismatch()


# --------------------------------------------------------------------------
# metrics


#: Per-layer metrics that are summed span durations, by span name.
SPAN_TOTALS = {
    "experiments.parse_s": "experiments.parse",
    "experiments.record_s": "experiments.record",
    "utility.factors_s": "utility.factors",
    "utility.functional_s": "utility.functional",
    "attraction.ladder_s": "attraction.ladder",
    "attraction.mc_s": "attraction.mc",
    "decision.enforce_bounds_s": "decision.enforce_bounds",
    "decision.score_s": "decision.score",
    "decision.regularity_s": "decision.regularity",
    "quantum.random_state_s": "quantum.random_state",
    "quantum.decohere_s": "quantum.decohere",
    "quantum.split_s": "quantum.split",
    "quantum.normalize_s": "quantum.normalize",
    "quantum.trace_rule_s": "quantum.trace_rule",
    "verify.quarter_law_s": "verify.quarter_law",
    "verify.gaps_s": "verify.gaps",
    "verify.entropy_s": "verify.entropy",
    "verify.quantum_identity_s": "verify.quantum_identity",
    "cli.main_s": "cli.main",
}
#: Per-layer metrics that are self times (duration minus children), by span name.
SPAN_SELF = {
    "decision.compose_s": "decision.compose",
    "cli.self_s": "cli.main",
}
COUNTS = (
    "experiments.parse_calls",
    "experiments.parse_errors",
    "experiments.parse_bytes",
    "utility.factors_calls",
    "utility.float_results",
    "utility.functional_calls",
    "attraction.ladder_calls",
    "attraction.rungs",
    "attraction.mc_samples",
    "decision.enforce_bounds_calls",
    "quantum.density_ops",
    "quantum.split_calls",
    "trace.replay_mismatches",
)


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Totals and self times in seconds, and counts, of one traced pass."""
    total: Counter = Counter()
    self_time: Counter = Counter()
    spans = tracer.spans
    for _, _, parent, name, start, end in spans:
        duration = end - start
        total[name] += duration
        self_time[name] += duration
        if parent is not None:
            self_time[spans[parent][3]] -= duration
    out = {metric: total[name] / 1e9 for metric, name in SPAN_TOTALS.items()}
    out.update({metric: self_time[name] / 1e9 for metric, name in SPAN_SELF.items()})
    out.update({name: tracer.counts[name] for name in COUNTS})
    out["decision.clamped_ratio"] = tracer.counts["decision.clamped"] / max(1, tracer.counts["decision.enforce_bounds_calls"])
    out["attraction.mc_samples_per_s"] = (
        tracer.counts["attraction.mc_samples"] / out["attraction.mc_s"] if out["attraction.mc_s"] > 0 else 0.0
    )
    return out


def write_spans(tracers: list[Tracer], path: Path) -> None:
    """Write every span of every traced pass as JSON lines."""
    with path.open("w", encoding="utf-8") as fh:
        for number, tracer in enumerate(tracers):
            for command, sid, parent, name, start, end in tracer.spans:
                fh.write(json.dumps({
                    "pass": number, "command": command, "span": sid, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")
