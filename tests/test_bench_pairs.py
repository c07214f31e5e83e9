"""The statistics of ``tools/bench_pairs.py`` on synthetic results; no benchmark runs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 104.0, 96.0]


def result(value: float, failed: int = 0, attempted: int = 100) -> dict:
    return {"failed": failed, "attempted": attempted, "metrics": {"cmds_per_s": {"value": value}}}


METRIC = [{"name": "cmds_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


class TestStatistics:
    def test_median(self):
        assert bench_pairs.median([3.0, 1.0, 2.0]) == 2.0
        assert bench_pairs.median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_iqr(self):
        assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
        assert bench_pairs.iqr([7.0]) == 0.0

    def test_wins_follow_the_direction(self):
        base, change = [10.0, 10.0, 10.0], [11.0, 9.0, 10.0]
        assert bench_pairs.wins(base, change, "higher") == 1
        assert bench_pairs.wins(base, change, "lower") == 1  # ties win nothing


class TestVerdict:
    def test_clear_gain(self):
        change = [v * 1.4 for v in BASE]
        assert bench_pairs.verdict(BASE, change, "higher", 0.25) == "gain"

    def test_gain_needs_nine_wins_in_ten(self):
        change = [v * 1.4 for v in BASE]
        change[0], change[1] = 90.0, 90.0  # two pairs lost
        assert bench_pairs.verdict(BASE, change, "higher", 0.25) == "within noise"

    def test_gain_needs_more_than_the_base_iqr(self):
        change = [v + 1.0 for v in BASE]  # wins every pair, by less than the IQR
        assert bench_pairs.iqr(BASE) > 1.0
        assert bench_pairs.verdict(BASE, change, "higher", 0.25) == "within noise"

    @pytest.mark.parametrize("better, factor", [("higher", 0.7), ("lower", 1.3)])
    def test_regression_beyond_the_bound(self, better, factor):
        change = [v * factor for v in BASE]
        assert bench_pairs.verdict(BASE, change, better, 0.25) == "regression"

    @pytest.mark.parametrize("better, factor", [("higher", 0.8), ("lower", 1.2)])
    def test_worse_within_the_bound_is_noise(self, better, factor):
        change = [v * factor for v in BASE]
        assert bench_pairs.verdict(BASE, change, better, 0.25) == "within noise"

    def test_lower_is_better(self):
        change = [v * 0.5 for v in BASE]
        assert bench_pairs.verdict(BASE, change, "lower", 0.25) == "gain"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        assert bench_pairs.iqr(BASE) > 0.01 * bench_pairs.median(BASE)
        change = [v * 1.02 for v in BASE]  # wins every pair, runs overlap
        assert bench_pairs.verdict(BASE, change, "higher", 0.01) == "unresolved"
        worse = [v * 0.98 for v in BASE]
        assert bench_pairs.verdict(BASE, worse, "higher", 0.01) == "unresolved"

    @pytest.mark.parametrize("better, factor, expected", [
        ("higher", 1.2, "gain"), ("lower", 0.8, "gain"),
        ("higher", 0.8, "regression"), ("lower", 1.2, "regression"),
    ])
    def test_wide_spread_resolved_by_separated_runs(self, better, factor, expected):
        # Every change run lies beyond every base run, so the spread hides nothing.
        change = [v * factor for v in BASE]
        assert min(change) > max(BASE) or max(change) < min(BASE)
        assert bench_pairs.verdict(BASE, change, better, 0.01) == expected


class TestSummarize:
    def test_row(self):
        base = [result(v) for v in BASE]
        change = [result(v * 1.5) for v in BASE]
        row = bench_pairs.summarize(base, change, METRIC)["cmds_per_s"]
        assert row["base_median"] == 100.0 and row["change_median"] == 150.0
        assert row["ratio"] == 1.5
        assert row["wins"] == row["pairs"] == 10
        assert row["bound"] == 0.25 and row["verdict"] == "gain"
        assert row["base"] == BASE

    def test_more_failures_are_a_regression(self):
        base = [result(v) for v in BASE]
        change = [result(v, failed=1 if i == 3 else 0) for i, v in enumerate(BASE)]
        failed = bench_pairs.summarize(base, change, METRIC)["failed_ratio"]
        assert failed == {"base": 0.0, "change": 1 / 1000, "verdict": "regression"}
        assert bench_pairs.summarize(base, base, METRIC)["failed_ratio"]["verdict"] == "ok"


class TestPytestSummary:
    @pytest.mark.parametrize("text, expected", [
        ("452 passed in 27.45s", {"passed": 452, "seconds": 27.45}),
        (
            "........ [100%]\nFAILED tests/test_x.py::test_y - assert 1 == 2\n"
            "1 failed, 451 passed, 5 warnings in 75.10s (0:01:15)\n",
            {"failed": 1, "passed": 451, "warnings": 5, "seconds": 75.1},
        ),
        (
            "========= 2 errors, 3 skipped, 440 passed in 3.00s =========",
            {"errors": 2, "skipped": 3, "passed": 440, "seconds": 3.0},
        ),
        ("no tests ran in 0.01s", {"seconds": 0.01}),
    ])
    def test_last_line_is_parsed(self, text, expected):
        assert bench_pairs.parse_pytest_summary(text) == expected

    @pytest.mark.parametrize("text", ["", "Traceback (most recent call last):\n  boom", "452 passed"])
    def test_missing_summary_raises(self, text):
        with pytest.raises(ValueError, match="no pytest summary"):
            bench_pairs.parse_pytest_summary(text)


class TestTracedResult:
    LINE = (
        '{"correct": true, "attempted": 126, "failed": 0, "metrics": {'
        '"trace.replay_mismatches": {"value": 0.0, "unit": "count"}, '
        '"utility.factors_s": {"value": 0.01, "unit": "s"}}}'
    )

    def test_last_line_is_parsed(self):
        output = "workload decoy-corpus  seed 1  trace 1\n  utility.factors_s  0.01 s\n" + self.LINE + "\n"
        assert bench_pairs.parse_traced_result(output) == {"replay_mismatches": 0.0, "failed": 0, "attempted": 126}

    def test_mismatches_and_failures_are_kept(self):
        line = self.LINE.replace('"failed": 0', '"failed": 3').replace('"value": 0.0', '"value": 2.0')
        assert bench_pairs.parse_traced_result(line) == {"replay_mismatches": 2.0, "failed": 3, "attempted": 126}

    @pytest.mark.parametrize("text", [
        "",
        "Traceback (most recent call last):\n  boom",
        '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"cmds_per_s": {"value": 1.0}}}',  # untraced
        "[1, 2]",
    ])
    def test_missing_result_raises(self, text):
        with pytest.raises(ValueError, match="no traced result line"):
            bench_pairs.parse_traced_result(text)



class TestColdStart:
    def test_runs_alternate_between_the_trees(self, monkeypatch):
        calls = []

        def run(argv, cwd, **kwargs):
            calls.append(cwd)

        monkeypatch.setattr(bench_pairs.subprocess, "run", run)
        trees = {"base": Path("b"), "change": Path("c")}
        cold = bench_pairs.cold_start(trees, runs=3)
        assert calls == [Path("b"), Path("c"), Path("c"), Path("b"), Path("b"), Path("c")]
        assert set(cold) == {"base", "change"} and all(t >= 0 for t in cold.values())

    def test_predict_runs_in_a_checkout(self):
        root = _PATH.parents[1]
        cold = bench_pairs.cold_start({"change": root}, runs=1)
        assert 0 < cold["change"] < 60


SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a string that is
not a docstring"""
        return text


def f(): return 1
'''


class TestTreeFacts:
    def test_code_lines_skip_blanks_comments_and_docstrings(self):
        # import, class, def method, the two lines of ``text``, return, def f.
        assert bench_pairs.code_lines(SOURCE) == 7
        assert bench_pairs.code_lines("") == 0

    def test_tree_facts_of_a_small_tree(self, tmp_path):
        package = tmp_path / "src" / "qchoice"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text('"""Package."""\n__all__ = ["Thing"]\n', encoding="utf-8")
        (package / "thing.py").write_text(SOURCE, encoding="utf-8")
        facts = bench_pairs.tree_facts(tmp_path)
        assert facts == {"src_lines": 2 + len(SOURCE.splitlines()), "src_code_lines": 1 + 7, "all_names": 1}
