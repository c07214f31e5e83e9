"""Seeded command lists for the three benchmark workloads.

A workload is a fixed list of ``qchoice`` argv vectors, run in order as one
pass, plus what the checker needs to judge each output.  The seed picks the
content: values, ids, attractiveness orders, suite seeds and the order of the
pass.  The shape is fixed: how many commands of each class a pass holds and
which size stratum each one falls in.  Different seeds therefore cost about
the same, and run-to-run spreads measure the program rather than the draw.

Every workload also carries a few *probe* commands, one minimal command for
each layer it does not target, so that every per-layer span fires on every
workload.  Probes are under 3% of a pass's time.

Generation uses only the standard library and never imports ``qchoice``.
"""
from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("decoy-corpus", "theory-checks", "quantum-sweep")

#: The bundled studies with their inputs and the exact predictions the paper gives.
BUNDLED = {
    "microwave": {
        "name": "microwave-ovens",
        "ids": ["target", "competitor"],
        "key": "f",
        "values": ["0.4", "0.6"],
        "rank": ["target", "competitor"],
        "empirical": ["0.61", "0.39"],
        "p_expected": ["13/20", "7/20"],
    },
    "frogs": {
        "name": "tungara-frogs",
        "ids": ["target", "competitor"],
        "key": "f",
        "values": ["0.35", "0.65"],
        "rank": ["target", "competitor"],
        "empirical": ["0.6", "0.4"],
        "p_expected": ["3/5", "2/5"],
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy.

    ``spec["kind"]`` is ``predict``, ``attraction-set``, ``verify``,
    ``simulate`` or ``error`` (an input that must be rejected with exit 1
    and a one-line message).  ``repeat_of`` names an earlier command of the
    same pass whose stdout this one must reproduce byte for byte.
    """

    argv: tuple[str, ...]
    label: str
    spec: dict = field(default_factory=dict)
    expect_rc: int = 0
    repeat_of: int | None = None


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    #: Inputs the program mishandled at commit 3b8e866.  They run once
    #: per run, outside the timed passes.
    known_defects: tuple[Command, ...] = ()


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's command list, writing its input files to ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    defects: list[Command] = []
    if name == "decoy-corpus":
        gen = _DecoyCorpus(rng, workdir)
        commands, repeats = gen.commands()
        defects = gen.known_defects()
    elif name == "theory-checks":
        commands, repeats = _theory_checks(rng)
    else:
        commands, repeats = _quantum_sweep(rng)
    return Workload(_shuffled_with_repeats(rng, commands, repeats), tuple(defects))


def _shuffled_with_repeats(
    rng: random.Random, commands: list[Command], repeats: list[int]
) -> tuple[Command, ...]:
    """Shuffle the pass, then append a second run of the commands at ``repeats``.

    The generators pick ``repeats`` by size class, not at random over the
    whole pass, so the repeats add about the same cost for every seed.
    """
    order = list(range(len(commands)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    shuffled = [commands[old] for old in order]
    again = [
        Command(commands[i].argv, "repeat", commands[i].spec, commands[i].expect_rc, position[i])
        for i in repeats
    ]
    return tuple(shuffled + again)


def _strata(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """``count`` log-uniform values over [low, high], one per equal-width stratum.

    Each value sits within a quarter stratum of its stratum's centre, so the
    size distribution, and with it the cost, hardly moves with the seed.
    """
    span = math.log(high / low)
    return [
        low * math.exp(span * (k + 0.5 + rng.uniform(-0.25, 0.25)) / count)
        for k in range(count)
    ]


# --------------------------------------------------------------------------
# decoy-corpus


def _decimal(numerator: int, places: int) -> str:
    """``numerator / 10**places`` as a YAML float literal (always with a dot)."""
    sign = "-" if numerator < 0 else ""
    whole, frac = divmod(abs(numerator), 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """``parts`` positive integers summing to ``total``, uniformly drawn."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _qmax(n: int) -> tuple[int, int]:
    """Top rung of the ladder for ``n`` prospects as (numerator, denominator)."""
    return (n - 1, 2 * n) if n % 2 == 0 else (n, 2 * (n + 1))


def exp_text(name, ids, key, values, rank, empirical=None, config=None) -> str:
    """Render one ``.exp`` document."""
    lines = [f"name: {name}", "prospects:"]
    for pid, value in zip(ids, values):
        lines += [f"  - id: {pid}", f"    {key}: {value}"]
    lines.append(f"attractiveness_rank: [{', '.join(rank)}]")
    if empirical is not None:
        lines.append("empirical:")
        for pid, value in zip(ids, empirical):
            lines += [f"  - id: {pid}", f"    frequency: {value}"]
    if config:
        lines.append("config:")
        lines += [f"  {k}: {v}" for k, v in config.items()]
    return "\n".join(lines) + "\n"


class _DecoyCorpus:
    """``predict`` over generated ``.exp`` files.

    Per pass: 2 bundled studies, 80 small files (N = 2..8) across the input
    kinds below, 24 wide files (N = 50..500, one per log stratum), 11 inputs
    that must be rejected, and 5 probes.  The wide share (about a fifth) puts
    p90 in the middle of the wide class and p50 well inside the small one.
    """

    # (kind, count) of small files; counts are fixed, content is seeded.
    SMALL = (
        ("given-f", 10),
        ("given-f-clamped", 8),
        ("given-f-empirical", 8),
        ("linear", 12),
        ("linear-alpha-int", 6),
        ("power-int", 8),
        ("alpha-float", 6),
        ("losses", 6),
        ("losses-gamma-float", 6),
        ("power-float", 6),
        ("utility-empirical", 4),
    )
    WIDE = 24
    FLOAT_EXPONENTS = ("0.5", "0.75", "0.88", "1.5")

    def __init__(self, rng: random.Random, workdir: Path) -> None:
        self.rng = rng
        self.dir = workdir
        self.count = 0

    # -- helpers --------------------------------------------------------

    def _ids(self, n: int) -> list[str]:
        tags = set()
        while len(tags) < n:
            tags.add("".join(self.rng.choices(string.ascii_lowercase + string.digits, k=4)))
        return [f"p{t}" for t in sorted(tags)]

    def _write(self, text: str | bytes) -> str:
        path = self.dir / f"c{self.count:03d}.exp"
        self.count += 1
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        return str(path)

    def _utilities(self, n: int, sign: int = 1, top: int = 200) -> list[str]:
        if self.rng.random() < 0.5:
            return [str(sign * self.rng.randint(1, top)) for _ in range(n)]
        return [_decimal(sign * self.rng.randint(10, 10 * top), 1) for _ in range(n)]

    def _predict(self, label, text, spec, fmt, out=False) -> Command:
        path = self._write(text)
        argv = ["predict", path, "--format", fmt]
        spec = dict(spec, kind="predict", target=path, fmt=fmt)
        if out:
            (self.dir / "out").mkdir(exist_ok=True)
            spec["out"] = str(self.dir / "out" / f"{Path(path).stem}.json")
            argv += ["--out", spec["out"]]
        return Command(tuple(argv), label, spec)

    def _file(self, kind: str, n: int) -> tuple[str, dict]:
        """Text and reference spec of one valid file of the given kind."""
        rng = self.rng
        ids = self._ids(n)
        rank = rng.sample(ids, n)
        config: dict[str, str] = {}
        empirical = None
        key = "utility"
        if kind.startswith("given-f"):
            key = "f"
            places = 4 if n > 8 else rng.choice((2, 3))
            base = 10**places
            if kind == "given-f-clamped":
                # Least attractive prospect below |bottom rung| = q_max: clamped.
                num, den = _qmax(n)
                low = rng.randint(1, max(1, (num * base) // den - 1))
                rest = _composition(rng, base - low, n - 1)
                counts = dict(zip(rank[:-1], rest))
                counts[rank[-1]] = low
                parts = [counts[i] for i in ids]
            else:
                parts = _composition(rng, base, n)
            values = [_decimal(c, places) for c in parts]
        elif kind == "power-int":
            values = self._utilities(n, top=30)
            config = {"utility_kind": "power", "utility_exponent": str(rng.choice((2, 3)))}
        elif kind == "power-float":
            sign = rng.choice((1, -1))
            values = self._utilities(n, sign=sign)
            config = {"utility_kind": "power", "utility_exponent": "0.88"}
            if sign > 0 and rng.random() < 0.5:
                config["alpha"] = rng.choice(self.FLOAT_EXPONENTS)
        elif kind == "linear-alpha-int":
            values = self._utilities(n, top=20)
            config = {"alpha": str(rng.choice((2, 3)))}
        elif kind == "alpha-float":
            values = self._utilities(n)
            config = {"alpha": rng.choice(self.FLOAT_EXPONENTS)}
        elif kind == "losses":
            values = self._utilities(n, sign=-1)
            if rng.random() < 0.5:
                config = {"gamma": "2"}
        elif kind == "losses-gamma-float":
            values = self._utilities(n, sign=-1)
            config = {"gamma": rng.choice(self.FLOAT_EXPONENTS)}
        else:  # linear, utility-empirical
            values = self._utilities(n)
        if kind.endswith("empirical"):
            empirical = [_decimal(c, 2) for c in _composition(rng, 100, n)]
        name = f"{kind}-{self.count:03d}"
        text = exp_text(name, ids, key, values, rank, empirical, config)
        spec = {
            "name": name, "ids": ids, "key": key, "values": values, "rank": rank,
            "empirical": empirical, "config": config,
        }
        return text, spec

    # -- the pass ---------------------------------------------------------

    def commands(self) -> tuple[list[Command], list[int]]:
        rng = self.rng
        out: list[Command] = []
        for study in ("microwave", "frogs"):
            spec = dict(BUNDLED[study], kind="predict", target=study, fmt="record")
            out.append(Command(("predict", study, "--format", "record"), "bundled", spec))

        small = [kind for kind, count in self.SMALL for _ in range(count)]
        formats = ["record"] * 40 + ["csv"] * 20 + ["table"] * 20
        rng.shuffle(formats)
        records = [k for k, f in enumerate(formats) if f == "record"]
        with_out = set(rng.sample(records, 3))
        repeats = [len(out) + k for k in rng.sample(sorted(set(records) - with_out), 4)]
        for k, (kind, fmt) in enumerate(zip(small, formats)):
            text, spec = self._file(kind, rng.randint(2, 8))
            out.append(self._predict(f"small/{kind}", text, spec, fmt, out=k in with_out))

        wide_formats = ["record", "csv", "table"] * (self.WIDE // 3)
        rng.shuffle(wide_formats)
        for k, n in enumerate(_strata(rng, self.WIDE, 50, 500)):
            kind = "given-f" if k % 2 else "linear"
            text, spec = self._file(kind, round(n))
            out.append(self._predict(f"wide/{kind}", text, spec, wide_formats[k]))

        out += self._invalid()
        out += [
            _simulate(rng, 2, 2, 2, "probe"),
            _verify(rng, "quantum-identity", 2, "probe"),
            _verify(rng, "quarter-law", 200_000, "probe"),
            _verify(rng, "gaps", 200_000, "probe"),
            _verify(rng, "entropy", 100, "probe"),
        ]
        return out, repeats

    def _invalid(self) -> list[Command]:
        """Inputs that the program rejects with exit 1 and a one-line error."""
        rng = self.rng
        n = rng.randint(2, 6)
        ids = self._ids(n)
        rank = rng.sample(ids, n)
        parts = _composition(rng, 100, n)
        fs = [_decimal(c, 2) for c in parts]
        over = [_decimal(c, 2) for c in parts[:-1] + [parts[-1] + 5]]
        us = self._utilities(n)
        cases = {
            "f-sum": exp_text("bad", ids, "f", over, rank),
            "f-range": exp_text("bad", ids, "f", ["1.5"] + fs[1:], rank),
            "duplicate-id": exp_text("bad", ids[:-1] + ids[:1], "f", fs, rank),
            "unknown-field": exp_text("bad", ids, "f", fs, rank) + "colour: red\n",
            "mixed-kinds": exp_text("bad", ids, "f", fs, rank).replace("f:", "utility:", 1),
            "bad-yaml": exp_text("bad", ids, "f", fs, rank).replace("]", "", 1),
            "rank-not-permutation": exp_text("bad", ids, "f", fs, rank[:-1]),
            "mixed-sign": exp_text("bad", ids, "utility", ["-" + us[0].lstrip("-")] + us[1:], rank),
            "all-zero": exp_text("bad", ids, "utility", ["0"] * n, rank),
            "alpha-negative": exp_text("bad", ids, "utility", us, rank, config={"alpha": "-1.5"}),
        }
        commands = []
        for shape, text in cases.items():
            path = self._write(text)
            spec = {"kind": "error", "shape": shape}
            commands.append(Command(("predict", path, "--format", "record"), f"invalid/{shape}", spec, 1))
        missing = str(self.dir / "missing.exp")
        commands.append(
            Command(("predict", missing), "invalid/missing-file", {"kind": "error", "shape": "missing-file"}, 1)
        )
        return commands

    def known_defects(self) -> list[Command]:
        """The five input shapes mishandled at commit 3b8e866.

        The first four escape ``main()`` as raw exceptions; the last is a
        valid file (``1e-1`` is a YAML 1.2 float) that is rejected.
        """
        rng = self.rng
        directory = self.dir / "a-directory.exp"
        directory.mkdir(exist_ok=True)
        ids = self._ids(2)
        rank = rng.sample(ids, 2)
        good = self._write(exp_text("ok", ids, "f", ["0.25", "0.75"], rank))
        cases = [
            ("directory", ("predict", str(directory)), {"kind": "error"}),
            ("non-utf8", ("predict", self._write(b"name: caf\xe9\nprospects: []\n")), {"kind": "error"}),
            (
                "out-missing-dir",
                ("predict", good, "--format", "record", "--out", str(self.dir / "no-such-dir" / "run.json")),
                {"kind": "error"},
            ),
            (
                "overflow",
                ("predict", self._write(exp_text(
                    "big", ids, "utility", ["1.0e+400", "2"], rank,
                    config={"utility_kind": "power", "utility_exponent": "0.88"},
                ))),
                {"kind": "error"},
            ),
        ]
        commands = [Command(argv, f"defect/{shape}", dict(spec, shape=shape), 1) for shape, argv, spec in cases]
        values = ["1e-1", "0.9"]
        path = self._write(exp_text("exp-literal", ids, "f", values, rank))
        spec = {
            "kind": "predict", "shape": "exp-literal", "target": path, "fmt": "record",
            "name": "exp-literal", "ids": ids, "key": "f", "values": values, "rank": rank,
            "empirical": None, "config": {},
        }
        commands.append(Command(("predict", path, "--format", "record"), "defect/exp-literal", spec))
        return commands


# --------------------------------------------------------------------------
# theory-checks and quantum-sweep


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _verify(rng: random.Random, suite: str, samples: int, label: str) -> Command:
    seed = _seed(rng)
    argv = ("verify", suite, "--samples", str(samples), "--seed", str(seed), "--format", "record")
    return Command(argv, label, {"kind": "verify", "suite": suite, "samples": samples, "seed": seed})


def _simulate(rng: random.Random, n_dim: int, b_dim: int, steps: int, label: str) -> Command:
    seed = _seed(rng)
    argv = (
        "simulate", "--dims", f"{n_dim},{b_dim}", "--sweep-steps", str(steps),
        "--seed", str(seed), "--format", "record",
    )
    spec = {"kind": "simulate", "dims": [n_dim, b_dim], "steps": steps, "seed": seed}
    return Command(argv, label, spec)


def _bundled_probe() -> Command:
    spec = dict(BUNDLED["frogs"], kind="predict", target="frogs", fmt="record")
    return Command(("predict", "frogs", "--format", "record"), "probe", spec)


def _theory_checks(rng: random.Random) -> tuple[list[Command], list[int]]:
    """96 ladders with N log-uniform over 2..5000, 12 Monte Carlo and functional suites, 3 probes.

    Suite sample counts are fixed and large enough that a miss of the
    suite's own tolerance is a many-sigma event for any seed.
    """
    out = [
        Command(("attraction-set", str(n), "--format", "record"), "ladder", {"kind": "attraction-set", "n": n})
        for n in (min(5000, max(2, round(x))) for x in _strata(rng, 96, 2, 5000))
    ]
    for samples in (200_000, 400_000, 700_000, 1_000_000):
        out.append(_verify(rng, "quarter-law", samples, "suite"))
    for samples in (200_000, 250_000, 300_000, 400_000):
        out.append(_verify(rng, "gaps", samples, "suite"))
    for samples in (1_000, 2_000, 5_000, 10_000):
        out.append(_verify(rng, "entropy", samples, "suite"))
    out += [_bundled_probe(), _simulate(rng, 2, 2, 2, "probe"), _verify(rng, "quantum-identity", 2, "probe")]
    return out, [15, 40, 65, 80]  # ladders of N ~ 7, 54, 420 and 1400


#: Register sizes of the sweep, up to the CLI's composite-dimension cap of 64.
SWEEP_DIMS = ((2, 2), (3, 2), (2, 4), (4, 3), (3, 5), (5, 4), (6, 4), (8, 4), (8, 8))


def _quantum_sweep(rng: random.Random) -> tuple[list[Command], list[int]]:
    """90 sweeps (9 register sizes x 10 strata of 2..50 damping levels), 12 identity suites, 4 probes."""
    out = []
    for n_dim, b_dim in SWEEP_DIMS:
        for k in range(10):
            steps = 2 + int(48 * (k + 0.5 + rng.uniform(-0.25, 0.25)) / 10)
            out.append(_simulate(rng, n_dim, b_dim, steps, "sweep"))
    for draws in (20, 50, 100, 200) * 3:
        out.append(_verify(rng, "quantum-identity", draws, "suite"))
    out += [
        _bundled_probe(),
        _verify(rng, "quarter-law", 200_000, "probe"),
        _verify(rng, "gaps", 200_000, "probe"),
        _verify(rng, "entropy", 100, "probe"),
    ]
    return out, [12, 35, 53, 81]  # one sweep each of dims (3,2), (4,3), (5,4), (8,8)
