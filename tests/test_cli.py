"""End-to-end command line tests driven through ``main(argv)``.

Every test asserts on the documented exit-code contract: 0 success,
1 validation/usage/parse problems, 2 verification miss.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from qchoice import _checks, attraction, cli, decision, experiments, quantum, verify
from qchoice.cli import main

MICROWAVE_CSV = (
    "id,f,q,p,p_exp,abs_error\n"
    "target,0.4,0.25,0.65,0.61,0.04\n"
    "competitor,0.6,-0.25,0.35,0.39,0.04\n"
)

DEMO = """\
name: demo
prospects:
  - id: a
    f: 0.4
  - id: b
    f: 0.6
attractiveness_rank: [a, b]
"""


class TestPredict:
    def test_bundled_table(self, capsys):
        assert main(["predict", "microwave"]) == 0
        out = capsys.readouterr().out
        assert "experiment: microwave-ovens" in out
        assert "0.65 (13/20)" in out
        assert "0.61 (61/100)" in out
        assert "max |error| 0.04 (1/25)" in out
        assert "regularity violated: target overtakes the utility leader competitor" in out
        assert "run at 20" in out  # timestamp is shown in the table only

    def test_bundled_name_with_suffix(self, capsys):
        assert main(["predict", "frogs.exp"]) == 0
        out = capsys.readouterr().out
        assert "experiment: tungara-frogs" in out
        assert "max |error| 0" in out

    def test_path_input(self, tmp_path, capsys):
        p = tmp_path / "demo.exp"
        p.write_text(DEMO, encoding="utf-8")
        assert main(["predict", str(p)]) == 0
        assert "experiment: demo" in capsys.readouterr().out

    def test_missing_input(self, capsys):
        assert main(["predict", "no-such-file.exp"]) == 1
        assert capsys.readouterr().err == (
            "error: 'no-such-file.exp' is neither a file nor a bundled experiment "
            "(bundled: frogs, microwave)\n"
        )

    def test_empty_argument_is_not_the_working_directory(self, tmp_path, monkeypatch, capsys):
        # ``Path('')`` reads as ``.``, which exists; the argument names no file.
        monkeypatch.chdir(tmp_path)
        assert main(["predict", ""]) == 1
        assert capsys.readouterr().err == (
            "error: '' is neither a file nor a bundled experiment (bundled: frogs, microwave)\n"
        )

    def test_invalid_file_names_field(self, tmp_path, capsys):
        p = tmp_path / "bad.exp"
        p.write_text(DEMO + "surprise: 1\n", encoding="utf-8")
        assert main(["predict", str(p)]) == 1
        err = capsys.readouterr().err
        assert "unknown field(s) ['surprise']" in err
        assert "bad.exp" in err

    def test_record_is_deterministic(self, capsys):
        assert main(["predict", "microwave", "--format", "record"]) == 0
        first = capsys.readouterr().out
        assert main(["predict", "microwave", "--format", "record"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["command"] == "predict microwave"
        assert payload["input_digest"].startswith("sha256:")
        assert payload["report"]["prospects"][0]["p_exact"] == "13/20"

    def test_csv_output(self, capsys):
        assert main(["predict", "microwave", "--format", "csv"]) == 0
        assert capsys.readouterr().out == MICROWAVE_CSV

    def test_out_file_matches_record_stream(self, tmp_path, capsys):
        target = tmp_path / "record.json"
        assert main(["predict", "microwave", "--out", str(target)]) == 0
        capsys.readouterr()
        assert main(["predict", "microwave", "--format", "record"]) == 0
        assert target.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_record_rendered_once_for_out_and_stdout(self, tmp_path, capsys, monkeypatch):
        calls = []
        to_json = cli.RunRecord.to_json

        def counted(record):
            calls.append(record)
            return to_json(record)

        monkeypatch.setattr(cli.RunRecord, "to_json", counted)
        target = tmp_path / "record.json"
        argv = ["predict", "microwave", "--format", "record", "--out", str(target)]
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == target.read_bytes()
        assert len(calls) == 1


def _assert_one_error_line(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestPredictEdges:
    def test_factors_pinned_within_sum_tolerance(self, tmp_path, capsys):
        # f sums to 1 - 1e-9: accepted, and every q ends pinned at a bound.
        path = tmp_path / "pinned.exp"
        path.write_text(DEMO.replace("0.4", "0.95").replace("0.6", "0.049999999"), encoding="utf-8")
        assert main(["predict", str(path), "--format", "record"]) == 0
        rows = json.loads(capsys.readouterr().out)["report"]["prospects"]
        assert [row["p_exact"] for row in rows] == ["1", "0"]

    @pytest.mark.parametrize("fmt", ["record", "csv"])
    def test_machine_formats_skip_the_table(self, fmt, monkeypatch, capsys):
        def unused(*args):
            raise AssertionError("table built for a machine-readable format")

        monkeypatch.setattr(cli, "_prediction_table", unused)
        assert main(["predict", "microwave", "--format", fmt]) == 0


class TestInputErrors:
    def test_directory_input(self, tmp_path, capsys):
        directory = tmp_path / "study.exp"
        directory.mkdir()
        _assert_one_error_line(["predict", str(directory)], capsys)

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.exp"
        path.write_bytes(b"name: caf\xe9\nprospects: []\n")
        _assert_one_error_line(["predict", str(path)], capsys)

    def test_out_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "run.json"
        _assert_one_error_line(["predict", "microwave", "--out", str(target)], capsys)

    def test_out_is_a_directory(self, tmp_path, capsys):
        # Refused where the record is written, after the prediction ran.
        assert main(["predict", "microwave", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: cannot write run record {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["predict", "microwave"],
        ["attraction-set", "3"],
        ["verify", "entropy", "--samples", "10"],
        ["simulate", "--sweep-steps", "2"],
    ])
    def test_out_is_empty(self, argv, tmp_path, monkeypatch, capsys):
        # ``Path('')`` is ``.``: an empty ``--out`` names no file and writes nothing.
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--out", ""]) == 1
        assert capsys.readouterr() == ("", "error: cannot write run record: --out is empty\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, module, core", [
        (["predict", "microwave"], cli, "run_prediction"),
        (["attraction-set", "3"], cli, "_ladder_statistics"),
        (["verify", "entropy", "--samples", "10"], verify, "run_suite"),
        (["simulate", "--sweep-steps", "2"], quantum, "random_density_operator"),
    ])
    def test_out_is_empty_before_the_work(self, argv, module, core, monkeypatch, capsys):
        # The refusal comes while the options are read: the command's core never runs.
        def unused(*args, **kwargs):
            raise AssertionError(f"{core} ran for an empty --out")

        monkeypatch.setattr(module, core, unused)
        assert main([*argv, "--out", ""]) == 1
        assert capsys.readouterr() == ("", "error: cannot write run record: --out is empty\n")

    @pytest.mark.parametrize("payoff, exponent, shown", [("1.5e200", 2, "1.5e+200"), ("2", 3000, "2.0")])
    def test_payoff_overflow_names_the_payoff_as_a_float(self, payoff, exponent, shown, tmp_path, capsys):
        path = tmp_path / "overflow.exp"
        path.write_text(
            DEMO.replace("f: 0.4", f"utility: {payoff}").replace("f: 0.6", "utility: 1")
            + f"config:\n  utility_kind: power\n  utility_exponent: {exponent}\n",
            encoding="utf-8",
        )
        assert main(["predict", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: utility of payoff {shown} overflows floating point\n")

    def test_power_utility_overflow(self, tmp_path, capsys):
        path = tmp_path / "big.exp"
        path.write_text(
            DEMO.replace("f: 0.4", "utility: 1.0e+400").replace("f: 0.6", "utility: 2")
            + "config:\n  utility_kind: power\n  utility_exponent: 0.88\n",
            encoding="utf-8",
        )
        _assert_one_error_line(["predict", str(path)], capsys)

    def test_weight_total_overflow(self, tmp_path, capsys):
        # Each powered utility is finite; their float sum is not.
        path = tmp_path / "wide.exp"
        path.write_text(
            DEMO.replace("f: 0.4", "utility: 1e300").replace("f: 0.6", "utility: 1e300")
            + "config:\n  utility_kind: power\n  utility_exponent: 1.0266\n",
            encoding="utf-8",
        )
        assert main(["predict", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: the sum of the gains weights overflows floating point\n"
        assert captured.out == ""

    def test_losses_weight_overflow(self, tmp_path, capsys):
        # 1e-900 is read exactly; its float is 0.0, whose power -1/2 divides by zero.
        path = tmp_path / "tiny-loss.exp"
        path.write_text(
            DEMO.replace("f: 0.4", "utility: -1e-900").replace("f: 0.6", "utility: -2")
            + "config: {gamma: 0.5}\n",
            encoding="utf-8",
        )
        assert main(["predict", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: a losses weight overflows floating point\n"
        assert captured.out == ""

    def test_underflowing_utility_weights(self, tmp_path, capsys):
        path = tmp_path / "tiny.exp"
        path.write_text(
            DEMO.replace("f: 0.4", "utility: 1e-1000").replace("f: 0.6", "utility: 2e-1000")
            + "config: {alpha: 0.5}\n",
            encoding="utf-8",
        )
        _assert_one_error_line(["predict", str(path)], capsys)


def _wide_experiment(n: int) -> str:
    """``n`` prospects with utilities and empirical frequencies summing to 1."""
    ids = [f"p{k}" for k in range(n)]
    lines = ["name: wide", "prospects:"]
    for k, pid in enumerate(ids):
        lines += [f"  - id: {pid}", f"    utility: {k % 7 + 1}"]
    lines.append(f"attractiveness_rank: [{', '.join(reversed(ids))}]")
    lines.append("empirical:")
    for k, pid in enumerate(ids):
        lines += [f"  - id: {pid}", f"    frequency: {'0.004' if k < n // 3 else '0.003'}"]
    return "\n".join(lines) + "\n"


class TestValidateOnce:
    def test_predict_checks_each_input_once(self, tmp_path, monkeypatch, capsys):
        # 2 full-length sums: empirical frequencies in the parser and
        # probabilities in the composition; no distribution check, as the
        # parser checked the file and derived factors are valid by construction.
        n = 300
        path = tmp_path / "wide.exp"
        path.write_text(_wide_experiment(n), encoding="utf-8")
        calls = {"sum": 0, "distribution": 0}

        def counting(kind, check):
            def wrapper(values, *args, **kwargs):
                values = list(values)
                calls[kind] += len(values) == n
                return check(values, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(_checks, "sum_deviation", counting("sum", _checks.sum_deviation))
        monkeypatch.setattr(_checks, "distribution", counting("distribution", _checks.distribution))
        assert main(["predict", str(path)]) == 0
        assert "max |error|" in capsys.readouterr().out
        assert calls == {"sum": 2, "distribution": 0}

    @pytest.mark.parametrize("study", ["utilities", "microwave"])
    def test_predict_runs_no_constructor_check(self, study, tmp_path, monkeypatch, capsys):
        # The reader checked the file: the choice set, the factors and the
        # frequencies are not checked again on the way to the record.
        path = tmp_path / "wide.exp"
        path.write_text(_wide_experiment(300), encoding="utf-8")

        def refused(*args, **kwargs):
            raise AssertionError("checked twice")

        monkeypatch.setattr(decision.ChoiceSet, "__post_init__", refused)
        for module, name in ((_checks, "distribution"), (decision, "_frequencies"), (experiments, "_frequencies")):
            monkeypatch.setattr(module, name, refused)
        assert main(["predict", str(path) if study == "utilities" else study, "--format", "record"]) == 0
        assert '"max_abs_error"' in capsys.readouterr().out


class TestAttractionSet:
    def test_five_prospects(self, capsys):
        assert main(["attraction-set", "5"]) == 0
        out = capsys.readouterr().out
        assert "ladder for 5 prospects" in out
        assert "(5/12)" in out and "(-5/12)" in out
        assert "mean magnitude 1/4" in out

    def test_single_prospect(self, capsys):
        assert main(["attraction-set", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 prospects" in out
        # The ladder is (0,), so its mean magnitude is 0, not 1/4.
        assert out.splitlines()[-1] == "gap 0   top 0   mean magnitude 0"

    @pytest.mark.parametrize("fmt", ["table", "record"])
    def test_above_the_cap(self, fmt, monkeypatch, capsys):
        def unused(n):
            raise AssertionError("ladder built for a rejected N")

        monkeypatch.setattr(cli, "_ladder_statistics", unused)
        n = cli.MAX_PROSPECTS + 1
        assert main(["attraction-set", str(n), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: prospect count must be <= {cli.MAX_PROSPECTS}, got {n}"
        ]
        assert captured.out == ""

    def test_record_skips_the_table(self, monkeypatch, capsys):
        def unused(stats):
            raise AssertionError("table built for the record format")

        monkeypatch.setattr(cli, "_ladder_table", unused)
        assert main(["attraction-set", "4", "--format", "record"]) == 0

    def test_invalid_count(self, capsys):
        assert main(["attraction-set", "0"]) == 1
        assert "error:" in capsys.readouterr().err
        # A negative literal is eaten by option parsing; still exit 1.
        assert main(["attraction-set", "--", "-3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_csv_not_available(self, capsys):
        assert main(["attraction-set", "4", "--format", "csv"]) == 1
        err = capsys.readouterr().err
        assert "'--format'" in err and "'csv'" in err

    def test_record_payload(self, capsys):
        assert main(["attraction-set", "3", "--format", "record"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["statistics"]
        assert stats["values_exact"] == ["3/8", "0", "-3/8"]
        assert stats["delta_exact"] == "3/8"
        assert stats["q_max_exact"] == "3/8"


class TestVerify:
    def test_quarter_law_passes(self, capsys):
        assert main(["verify", "quarter-law", "--samples", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "suite quarter-law:" in out and "-> PASS" in out

    def test_quarter_law_small_sample_fails(self, capsys):
        assert main(["verify", "quarter-law", "--samples", "4", "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert "-> FAIL" in captured.out
        assert "verification failed" in captured.err

    def test_gaps(self, capsys):
        assert main(["verify", "gaps", "--samples", "50000"]) == 0
        assert "-> PASS" in capsys.readouterr().out

    def test_entropy(self, capsys):
        assert main(["verify", "entropy", "--samples", "500"]) == 0
        assert "-> PASS" in capsys.readouterr().out

    def test_quantum_identity(self, capsys):
        assert main(["verify", "quantum-identity", "--samples", "50"]) == 0
        assert "-> PASS" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "coin-flip"]) == 1

    @pytest.mark.parametrize("suite", sorted(cli.MAX_SAMPLES))
    def test_samples_above_the_cap(self, suite, monkeypatch, capsys):
        def unused(*args, **kwargs):
            raise AssertionError("suite run for a rejected --samples")

        monkeypatch.setattr(verify, "run_suite", unused)
        n = cli.MAX_SAMPLES[suite] + 1
        assert main(["verify", suite, "--samples", str(n)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: --samples must be <= {cli.MAX_SAMPLES[suite]} for {suite}, got {n}"
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("suite, cap", [
        ("quarter-law", 500_000_000), ("gaps", 30_000_000), ("entropy", 1_000_000), ("quantum-identity", 70_000),
    ])
    def test_samples_at_the_cap(self, suite, cap, monkeypatch, capsys):
        # The caps as documented: the cap runs, the cap + 1 is refused (a stub stands in for the suite).
        runs = []

        def stub(name, samples=None, seed=0):
            runs.append((name, samples))
            return verify.SuiteResult(suite=name, passed=True, statistics={}, summary="stub")

        monkeypatch.setattr(verify, "run_suite", stub)
        assert main(["verify", suite, "--samples", str(cap)]) == 0
        assert capsys.readouterr() == (f"suite {suite}: stub -> PASS\n", "")
        assert main(["verify", suite, "--samples", str(cap + 1)]) == 1
        assert capsys.readouterr().err == f"error: --samples must be <= {cap} for {suite}, got {cap + 1}\n"
        assert runs == [(suite, cap)]

    def test_caps_name_the_suites_in_order(self):
        # The command line takes its suite choices from MAX_SAMPLES.
        assert tuple(cli.MAX_SAMPLES) == verify.SUITE_NAMES

    def test_record_carries_statistics(self, capsys):
        assert main(["verify", "quarter-law", "--samples", "10000", "--format", "record"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == [0]
        assert payload["statistics"]["passed"] is True
        assert "estimate" in payload["statistics"]


class TestSimulate:
    def test_small_sweep(self, capsys):
        assert main(["simulate", "--dims", "2,2", "--sweep-steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "decoherence sweep" in out
        assert "at damping 1 only f survives" in out

    def test_record_is_deterministic(self, capsys):
        args = ["simulate", "--dims", "2,2", "--sweep-steps", "3", "--format", "record"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out

    def test_interference_vanishes_at_full_damping(self, capsys):
        args = ["simulate", "--dims", "3,2", "--sweep-steps", "4", "--format", "record"]
        assert main(args) == 0
        sweep = json.loads(capsys.readouterr().out)["statistics"]["sweep"]
        assert sweep[0]["damping"] == 0.0
        assert sweep[-1]["damping"] == 1.0
        assert sweep[-1]["max_abs_q"] < 1e-12

    def test_dimension_cap(self, capsys):
        # The cap is the quantum module's rule, reported as one error line.
        assert main(["simulate", "--dims", "9,8"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: dimension 72 is above the cap of 64"]
        assert captured.out == ""

    def test_malformed_dims(self, capsys):
        # The range rule is the register's, reported like the cap above;
        # malformed text ends in one ``error:`` line too, not a usage block.
        for dims, message in [
            ("2,3,", "error: --dims expects 'A,B', got '2,3,'"),
            ("3", "error: --dims expects 'A,B', got '3'"),
            ("a,b", "error: --dims expects two integers, got 'a,b'"),
            ("0,3", "error: choice dimension must be >= 1, got 0"),
            ("3,-1", "error: inconclusive dimension must be >= 1, got -1"),
        ]:
            assert main(["simulate", "--dims", dims]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [message]
            assert captured.out == ""

    def test_sweep_steps_minimum(self, capsys):
        assert main(["simulate", "--sweep-steps", "1"]) == 1
        assert "--sweep-steps must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [cli.MAX_SWEEP_STEPS + 1, 10**13])
    def test_sweep_steps_bound(self, steps, monkeypatch, capsys):
        # 10**13 levels used to escape main() as a numpy memory error.
        def unused(*args):
            raise AssertionError("sweep allocated for rejected --sweep-steps")

        monkeypatch.setattr(quantum, "random_density_operator", unused)
        monkeypatch.setattr(np, "linspace", unused)
        assert main(["simulate", "--sweep-steps", str(steps)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: --sweep-steps must be <= {cli.MAX_SWEEP_STEPS}, got {steps}"
        ]
        assert captured.out == ""


class TestSeedOption:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--seed", "-1"],
            ["verify", "quarter-law", "--seed", "-1"],
            ["verify", "quantum-identity", "--seed", "-1"],
        ],
    )
    def test_negative_seed_is_a_usage_error(self, args, capsys):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "Traceback" not in err


class TestBatchChunking:
    @pytest.mark.parametrize(
        "args",
        [  # argv, levels or draws, composite dimension
            (["simulate", "--dims", "3,2", "--sweep-steps", "11", "--seed", "4"], 11, 6),
            (["verify", "quantum-identity", "--samples", "10", "--seed", "4"], 10, 12),
        ],
    )
    def test_records_do_not_depend_on_chunk_size(self, args, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_now", lambda: "2000-01-01T00:00:00+00:00")
        argv, count, dim = args
        args = argv + ["--format", "record"]
        # The budget's own stack holds the whole sweep or suite ...
        assert [s.stop - s.start for s in quantum.stacks(count, dim)] == [count]
        assert main(args) == 0
        whole = capsys.readouterr().out
        # ... and a budget of 3 states cuts it into stacks of 3.
        monkeypatch.setattr(quantum, "STACK_ENTRIES", 3 * dim * dim)
        assert {s.stop - s.start for s in quantum.stacks(count, dim)} == {3, count % 3}
        assert main(args) == 0
        assert capsys.readouterr().out == whole

    @pytest.mark.parametrize("steps", [2, 50])
    def test_sweep_stacks_stay_within_the_budget(self, steps, capsys, monkeypatch):
        # At the cap's register (8,8) the budget holds 16 states, the largest stack.
        sizes = []

        def spy(rhos, b, dims):
            sizes.append(rhos.shape[0])
            return split(rhos, b, dims)

        split = quantum.split
        monkeypatch.setattr(quantum, "split", spy)
        assert main(["simulate", "--dims", "8,8", "--sweep-steps", str(steps), "--format", "record"]) == 0
        assert len(json.loads(capsys.readouterr().out)["statistics"]["sweep"]) == steps
        assert sum(sizes) == steps
        assert max(sizes) * 64 * 64 <= quantum.STACK_ENTRIES == 16 * 64 * 64

    def test_entropy_record_does_not_depend_on_chunk_size(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_now", lambda: "2000-01-01T00:00:00+00:00")
        args = ["verify", "entropy", "--samples", "40", "--seed", "5", "--format", "record"]
        assert main(args) == 0
        whole = capsys.readouterr().out
        # 7 values per chunk: one to three Dirichlet rows for N = 2..6.
        monkeypatch.setattr(attraction, "_CHUNK_TARGET", 7)
        assert main(args) == 0
        assert capsys.readouterr().out == whole


class TestEntryPoint:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("predict", "attraction-set", "verify", "simulate"):
            assert sub in out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_subcommand_help(self, capsys):
        assert main(["predict", "--help"]) == 0
        out = capsys.readouterr().out
        assert "bundled" in out
        assert "--out FILE " in out
