"""Tests of the benchmark's own parts: generator, checker, failure accounting.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import workloads
from checker import check, ladder, reference_factors
from harness import Judge, Runner, judge, run_pass
from workloads import Command


def _snapshot(workload: workloads.Workload, workdir: Path) -> tuple:
    """Commands and input files, with the work directory factored out."""
    def rel(text):
        return text.replace(str(workdir), "<dir>")

    commands = [
        (tuple(rel(a) for a in c.argv), c.label, rel(json.dumps(c.spec, sort_keys=True)), c.expect_rc, c.repeat_of)
        for c in workload.commands + workload.known_defects
    ]
    files = {
        p.relative_to(workdir).as_posix(): p.read_bytes()
        for p in sorted(workdir.rglob("*")) if p.is_file()
    }
    return commands, files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_byte_deterministic_per_seed(tmp_path, name):
    first = _snapshot(workloads.build(name, 7, tmp_path / "a"), tmp_path / "a")
    again = _snapshot(workloads.build(name, 7, tmp_path / "b"), tmp_path / "b")
    other = _snapshot(workloads.build(name, 8, tmp_path / "c"), tmp_path / "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_pass_has_enough_commands_for_p90(tmp_path, name):
    workload = workloads.build(name, 3, tmp_path)
    assert len(workload.commands) >= 100
    for c in workload.commands:
        if c.repeat_of is not None:
            assert workload.commands[c.repeat_of].argv == c.argv


def _record(spec: dict) -> str:
    """A correct ``predict --format record`` output built from the reference."""
    f = reference_factors(spec)
    steps = ladder(len(f))
    q = [steps[spec["rank"].index(pid)] for pid in spec["ids"]]
    rows = []
    for pid, fn, qn in zip(spec["ids"], f, q):
        row = {"id": pid}
        for key, value in (("f", fn), ("q", qn), ("p", fn + qn)):
            row[key] = float(value)
            row[f"{key}_exact"] = str(value)
        rows.append(row)
    digest = "sha256:" + hashlib.sha256(Path(spec["target"]).read_bytes()).hexdigest()
    payload = {
        "command": f"predict {spec['target']}",
        "input_digest": digest,
        "report": {"clamping_applied": False, "prospects": rows},
        "seeds": [],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.fixture
def predict_command(tmp_path) -> Command:
    # Rungs 3/8, 0, -3/8 by rank; every one stays inside its bounds.
    ids, rank, values = ["a", "b", "c"], ["a", "b", "c"], ["0.25", "0.35", "0.4"]
    path = tmp_path / "three.exp"
    path.write_text(workloads.exp_text("three", ids, "f", values, rank), encoding="utf-8")
    spec = {
        "kind": "predict", "target": str(path), "fmt": "record", "name": "three",
        "ids": ids, "key": "f", "values": values, "rank": rank, "empirical": None, "config": {},
    }
    return Command(("predict", str(path), "--format", "record"), "small/given-f", spec)


def _mutate(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload["report"]["prospects"])
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _shift(row: dict, key: str, delta: Fraction) -> None:
    value = Fraction(row[f"{key}_exact"]) + delta
    row[key], row[f"{key}_exact"] = float(value), str(value)


def test_checker_accepts_the_reference_record(predict_command):
    assert check(predict_command, _record(predict_command.spec), "") is None


def test_checker_rejects_one_mutated_p_exact(predict_command):
    bad = _mutate(_record(predict_command.spec), lambda rows: _shift(rows[0], "p", Fraction(1, 100)))
    assert "p != f + q" in check(predict_command, bad, "")


def test_checker_rejects_an_off_ladder_q(predict_command):
    # Moves share between two rows: sums and p = f + q still hold.
    def edit(rows):
        for row, delta in ((rows[0], Fraction(1, 50)), (rows[1], Fraction(-1, 50))):
            _shift(row, "q", delta)
            _shift(row, "p", delta)

    bad = _mutate(_record(predict_command.spec), edit)
    assert "off the ladder" in check(predict_command, bad, "")


def test_checker_rejects_a_nonzero_sum_q(predict_command):
    def edit(rows):
        _shift(rows[2], "q", Fraction(1, 40))
        _shift(rows[2], "p", Fraction(1, 40))

    bad = _mutate(_record(predict_command.spec), edit)
    assert "sum q" in check(predict_command, bad, "")


def test_checker_requires_a_one_line_error():
    rejected = Command(("predict", "x.exp"), "invalid/x", {"kind": "error"}, expect_rc=1)
    assert check(rejected, "", "error: x.exp: bad input\n") is None
    assert check(rejected, "", "Traceback (most recent call last):\n  ...\nValueError: x\n") is not None


def _boom(argv):
    raise IsADirectoryError(21, "Is a directory")


def test_exception_escaping_main_is_a_failure_not_a_crash():
    runner = Runner(_boom)
    command = Command(("predict", "somewhere"), "invalid/directory", {"kind": "error"}, expect_rc=1)
    outcome = runner.run(command.argv)
    assert outcome.rc is None
    assert outcome.error.startswith("IsADirectoryError")
    assert "escaped main(): IsADirectoryError" in judge(command, outcome)

    result = run_pass(runner, [command, command], Judge())
    assert sorted(result.failures) == [0, 1]
    assert len(result.seconds) == 2


def test_a_repeat_with_different_output_fails():
    outputs = iter(["one", "two"])

    def main(argv):
        print(next(outputs))
        print("error: rejected", file=sys.stderr)
        return 1

    spec = {"kind": "error"}
    commands = [Command(("x",), "invalid/x", spec, 1), Command(("x",), "repeat", spec, 1, repeat_of=0)]
    result = run_pass(Runner(main), commands, Judge())
    assert result.failures == {1: "repeat of command 0 printed different output"}
