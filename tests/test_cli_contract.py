"""The documented exit-code contract of ``main(argv)`` as a property.

Over argv of the four commands, with numbers just past each cap, negative
and non-numeric values, malformed ``--dims``, unknown suites and ``--out``
pointing into a missing directory, at a directory or empty: the exit code is 0,
1 or 2, no traceback is printed, and a refusal (exit 1) prints either one
``error:`` line or click's usage block, which ends in its ``Error:`` line.
Accepted sizes are drawn small, so that no example runs long; the values
right at the caps of N, ``--sweep-steps`` and ``--samples`` are accepted
and take seconds, so only the refusals past them are drawn.
"""
from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchoice import cli
from qchoice.cli import main

VALID = """\
name: demo
prospects:
  - id: a
    f: 0.4
  - id: b
    f: 0.6
attractiveness_rank: [b, a]
"""

BAD_NUMBERS = ["0", "-1", "-7", "x", "1.5", "", "1e3", "0x10", "--"]


def past(cap: int):
    return st.sampled_from([cap + 1, 2 * cap, 10**30]).map(str)


def option(name: str, values):
    """``[name, value]`` or nothing."""
    return st.one_of(st.just([]), st.tuples(st.just(name), values).map(list))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    valid = root / "valid.exp"
    valid.write_text(VALID, encoding="utf-8")
    broken = root / "broken.exp"
    broken.write_text(VALID.replace("]", ""), encoding="utf-8")
    return {
        "valid": str(valid),
        "broken": str(broken),
        "directory": str(root),
        "missing": str(root / "missing.exp"),
        "out": str(root / "run.json"),
        "out_in_missing_dir": str(root / "no-such-dir" / "run.json"),
    }


def argvs(paths: dict):
    fmt = option("--format", st.sampled_from(["table", "record", "csv", "xml"]))
    out = option(
        "--out", st.sampled_from([paths["out"], paths["out_in_missing_dir"], paths["directory"], ""])
    )
    seed = option("--seed", st.one_of(st.integers(0, 5).map(str), st.sampled_from(BAD_NUMBERS)))
    targets = ["microwave", "frogs.exp", "nope", *(paths[k] for k in ("valid", "broken", "directory", "missing"))]
    predict = st.tuples(st.just(["predict"]), st.sampled_from(targets).map(lambda t: [t]), fmt, out)
    ladder = st.tuples(
        st.just(["attraction-set"]),
        st.one_of(st.integers(1, 50).map(str), past(cli.MAX_PROSPECTS), st.sampled_from(BAD_NUMBERS)).map(
            lambda n: [n]
        ),
        fmt,
        out,
    )
    suites = st.sampled_from([*cli.MAX_SAMPLES, "nope", ""])
    verify = suites.flatmap(
        lambda suite: st.tuples(
            st.just(["verify", suite]),
            st.tuples(
                st.just("--samples"),
                st.one_of(
                    st.integers(1, 1000).map(str),
                    past(cli.MAX_SAMPLES.get(suite, 1000)),
                    st.sampled_from(BAD_NUMBERS),
                ),
            ).map(list),
            seed,
            fmt,
            out,
        )
    )
    dims = option(
        "--dims",
        st.sampled_from(["4,3", "2,2", "1,1", "8,8", "9,9", "65,1", "0,3", "-1,2", "4", "4,x", "4,3,2", "", ",", "a,b"]),
    )
    steps = option(
        "--sweep-steps",
        st.one_of(st.integers(2, 20).map(str), past(cli.MAX_SWEEP_STEPS), st.sampled_from(["1", *BAD_NUMBERS])),
    )
    simulate = st.tuples(st.just(["simulate"]), dims, steps, seed, fmt, out)
    command = st.one_of(predict, ladder, verify, simulate)
    # An option left without its value, at the end, is one more usage error.
    tail = st.sampled_from([[], [], [], ["--format"], ["--out"]])
    return st.tuples(command, tail).map(lambda c: [a for part in (*c[0], c[1]) for a in part])


def check_contract(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + stderr, argv
    if code == 1:
        lines = stderr.splitlines()
        one_error_line = len(lines) == 1 and lines[0].startswith("error: ")
        usage_block = bool(lines) and lines[-1].startswith("Error: ") and (
            len(lines) == 1 or lines[0].startswith("Usage: ")
        )
        assert one_error_line or usage_block, (argv, stderr)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_argv_keeps_the_exit_code_contract(paths, data):
    check_contract(data.draw(argvs(paths), label="argv"))
