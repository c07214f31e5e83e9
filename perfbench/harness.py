"""Run CLI commands in process, time them, and account for failures.

The load is a closed loop: one client issues the next command only after
the previous one returned.  A command fails when an exception escapes
``main()``, when its exit code differs from the expected one, when its
output fails the checker, or when a repeat differs from its original.
"""
from __future__ import annotations

import hashlib
import io
import sys
import time
from dataclasses import dataclass
from typing import Callable

from checker import check


@dataclass(frozen=True)
class Outcome:
    rc: int | None
    stdout: str
    stderr: str
    #: ``"TypeName: message"`` of an exception that escaped ``main()``.
    error: str | None
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Runner:
    """Calls ``main(argv)`` with stdout and stderr captured in memory."""

    def __init__(self, main: Callable[[list[str]], int]) -> None:
        self._main = main
        self._out = io.StringIO()
        self._err = io.StringIO()

    def run(self, argv) -> Outcome:
        out, err = self._out, self._err
        for buf in (out, err):
            buf.seek(0)
            buf.truncate()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        rc = error = None
        start = time.perf_counter_ns()
        try:
            rc = self._main(list(argv))
        except (Exception, SystemExit) as exc:  # an escape is a failed command, not a crash
            error = f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter_ns()
            sys.stdout, sys.stderr = saved
        return Outcome(rc, out.getvalue(), err.getvalue(), error, start, end)


def _fingerprint(command, outcome: Outcome) -> tuple:
    stdout = outcome.stdout
    if command.spec.get("fmt") == "table":
        # The table's last line is a wall-clock timestamp.
        stdout = stdout.rsplit("\nrun at ", 1)[0]
    digest = hashlib.blake2b(stdout.encode("utf-8", "surrogatepass"), digest_size=16).digest()
    return outcome.rc, outcome.error, digest, outcome.stderr


def judge(command, outcome: Outcome) -> str | None:
    """``None`` if the command did what it should, else why it failed."""
    if outcome.error is not None:
        return f"escaped main(): {outcome.error}"[:200]
    if outcome.rc != command.expect_rc:
        first = outcome.stderr.strip().splitlines()[:1]
        return f"exit {outcome.rc}, expected {command.expect_rc} {first}"[:200]
    return check(command, outcome.stdout, outcome.stderr)


class Judge:
    """``judge`` with a cache: an output identical to one already judged gets the same verdict.

    Every command of every pass is judged; the checker itself runs only on
    outputs not seen before.
    """

    def __init__(self) -> None:
        self._seen: dict[tuple, str | None] = {}

    def __call__(self, index: int, command, outcome: Outcome) -> tuple[str | None, bytes]:
        key = (index, _fingerprint(command, outcome))
        if key not in self._seen:
            self._seen[key] = judge(command, outcome)
        return self._seen[key], key[1][2]


@dataclass
class PassResult:
    seconds: list[float]
    failures: dict[int, str]


def run_pass(runner: Runner, commands, verdicts: Judge, after=None) -> PassResult:
    """Run every command once, in order.

    ``after(index, command, outcome)`` runs between commands, outside the
    timed region; the traced run uses it to replay the command.
    """
    seconds = []
    failures = {}
    digests = []
    for i, command in enumerate(commands):
        outcome = runner.run(command.argv)
        seconds.append(outcome.seconds)
        reason, digest = verdicts(i, command, outcome)
        digests.append(digest)
        if reason is None and command.repeat_of is not None and digest != digests[command.repeat_of]:
            reason = f"repeat of command {command.repeat_of} printed different output"
        if reason is not None:
            failures[i] = reason
        if after is not None:
            after(i, command, outcome)
    return PassResult(seconds, failures)
