"""Tests for .exp parsing, bundled data, and deterministic run records."""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qchoice import (
    ChoiceSet,
    ExperimentFile,
    ExperimentFormatError,
    PredictionReport,
    QChoiceError,
    RunRecord,
    SignDomainError,
    UtilityFunction,
    ValidationError,
    bundled_experiment,
    bundled_experiment_text,
    compose_probabilities,
    derive_utility_factors,
    input_digest,
    list_bundled_experiments,
    parse_experiment,
    run_prediction,
    score_against_empirical,
    utility_factors_gains,
    utility_factors_losses,
)
from qchoice import cli, experiments
from qchoice.cli import main

F = Fraction

MINIMAL = """\
name: demo
prospects:
  - id: a
    f: 0.4
  - id: b
    f: 0.6
attractiveness_rank: [a, b]
"""


def perturb(field: str, replacement: str) -> str:
    assert field in MINIMAL
    return MINIMAL.replace(field, replacement)


class TestExactNumbers:
    def test_decimal_literals_become_rationals(self):
        exp = parse_experiment(MINIMAL)
        assert exp.utility_factors == (F(2, 5), F(3, 5))
        assert all(isinstance(v, Fraction) for v in exp.utility_factors)

    def test_tenth_is_exact(self):
        text = MINIMAL.replace("0.4", "0.1").replace("0.6", "0.9")
        exp = parse_experiment(text)
        assert exp.utility_factors == (F(1, 10), F(9, 10))

    def test_scientific_notation(self):
        text = MINIMAL.replace("0.4", "2.5e-3").replace("0.6", "0.9975")
        exp = parse_experiment(text)
        assert exp.utility_factors == (F(1, 400), F(399, 400))
        # YAML 1.2 floats that YAML 1.1 reads as strings: no dot, or no
        # exponent sign.
        text = MINIMAL.replace("0.4", "1e-1").replace("0.6", "9E-1")
        assert parse_experiment(text).utility_factors == (F(1, 10), F(9, 10))
        text = MINIMAL.replace("f: 0.4", "utility: 1e400").replace("f: 0.6", "utility: 2E3")
        assert parse_experiment(text).utilities == (F(10) ** 400, F(2000))
        text = MINIMAL.replace("f: 0.4", "utility: 1.5e2").replace("f: 0.6", "utility: -2e-3")
        assert parse_experiment(text).utilities == (F(150), F(-1, 500))

    def test_integers_stay_exact(self):
        text = MINIMAL.replace("f: 0.4", "utility: 1").replace("f: 0.6", "utility: 3")
        exp = parse_experiment(text)
        assert exp.utilities == (F(1), F(3))

    def test_infinity_literal_rejected(self):
        text = perturb("f: 0.4", "f: .inf")
        with pytest.raises(ExperimentFormatError, match="unsupported numeric literal"):
            parse_experiment(text)

    def test_nan_literal_rejected(self):
        text = perturb("f: 0.4", "f: .nan")
        with pytest.raises(ExperimentFormatError, match="unsupported numeric literal"):
            parse_experiment(text)

    def test_tagged_infinity_rejected(self):
        text = perturb("f: 0.4", "f: !!float inf")
        with pytest.raises(ExperimentFormatError, match="unsupported numeric literal"):
            parse_experiment(text)

    def test_exponent_bound_keeps_the_double_range_and_more(self):
        text = MINIMAL.replace("f: 0.4", "utility: 1e1000").replace("f: 0.6", "utility: 1e-1000")
        assert parse_experiment(text).utilities == (F(10) ** 1000, F(1, 10**1000))

    @pytest.mark.parametrize(
        "literal",
        ["1e40025", "1e-40025", "1e1001", "1e30000000", "0." + "1" * 1001, "9" * 1002],
    )
    def test_exponent_far_outside_double_range_refused(self, literal):
        # Refused before the Fraction is built: 1e30000000 returns at once,
        # and 1e40025 no longer reaches a message that prints 40,026 digits.
        text = perturb("f: 0.4", f"utility: {literal}").replace("f: 0.6", "utility: 1")
        with pytest.raises(ExperimentFormatError, match=r"^<string>: numeric literal .* at line 4 "):
            parse_experiment(text)


class TestBundledData:
    def test_listing(self):
        assert list_bundled_experiments() == ["frogs.exp", "microwave.exp"]

    def test_microwave_parses_exactly(self):
        exp = bundled_experiment("microwave")
        assert exp.name == "microwave-ovens"
        assert exp.prospect_ids == ("target", "competitor")
        assert exp.utility_factors == (F(2, 5), F(3, 5))
        assert exp.attractiveness_rank == ("target", "competitor")
        assert exp.empirical == (F(61, 100), F(39, 100))

    def test_frogs_parses_exactly(self):
        exp = bundled_experiment("frogs.exp")
        assert exp.name == "tungara-frogs"
        assert exp.utility_factors == (F(7, 20), F(13, 20))
        assert exp.empirical == (F(3, 5), F(2, 5))

    def test_text_with_and_without_suffix(self):
        assert bundled_experiment_text("frogs") == bundled_experiment_text("frogs.exp")

    def test_unknown_name_lists_options(self):
        with pytest.raises(ExperimentFormatError, match="frogs.exp, microwave.exp"):
            bundled_experiment_text("toasters")

    def test_parse_is_deterministic(self):
        text = bundled_experiment_text("microwave")
        assert parse_experiment(text) == parse_experiment(text)


class TestRunPrediction:
    def test_microwave_prediction(self):
        report = run_prediction(bundled_experiment("microwave"))
        assert report.probabilities == (F(13, 20), F(7, 20))
        assert report.abs_errors == (F(1, 25), F(1, 25))
        assert report.max_abs_error == F(1, 25)

    def test_frogs_prediction_is_exact_match(self):
        report = run_prediction(bundled_experiment("frogs"))
        assert report.probabilities == (F(3, 5), F(2, 5))
        assert report.max_abs_error == 0

    def test_no_empirical_leaves_errors_unset(self):
        report = run_prediction(parse_experiment(MINIMAL))
        assert report.probabilities == (F(13, 20), F(7, 20))
        assert report.empirical is None and report.max_abs_error is None


class TestUtilityPaths:
    def test_linear_gains(self):
        text = MINIMAL.replace("f: 0.4", "utility: 1").replace("f: 0.6", "utility: 3")
        assert derive_utility_factors(parse_experiment(text)) == [F(1, 4), F(3, 4)]

    def test_gains_with_alpha(self):
        text = (
            "name: x\n"
            "prospects:\n"
            "  - {id: a, utility: 10}\n"
            "  - {id: b, utility: 20}\n"
            "  - {id: c, utility: 40}\n"
            "attractiveness_rank: [a, b, c]\n"
            "config: {alpha: 2}\n"
        )
        exp = parse_experiment(text)
        assert exp.alpha == F(2)
        assert derive_utility_factors(exp) == [F(1, 21), F(4, 21), F(16, 21)]

    def test_losses(self):
        text = MINIMAL.replace("f: 0.4", "utility: -1").replace("f: 0.6", "utility: -3")
        assert derive_utility_factors(parse_experiment(text)) == [F(3, 4), F(1, 4)]

    def test_mixed_signs_rejected(self):
        text = MINIMAL.replace("f: 0.4", "utility: -1").replace("f: 0.6", "utility: 3")
        exp = parse_experiment(text)
        with pytest.raises(SignDomainError, match="sign-homogeneous"):
            derive_utility_factors(exp)

    def test_power_utility(self):
        text = (
            MINIMAL.replace("f: 0.4", "utility: 4").replace("f: 0.6", "utility: 16")
            + "config: {utility_kind: power, utility_exponent: 0.5}\n"
        )
        exp = parse_experiment(text)
        assert exp.utility(F(4)) == pytest.approx(2.0)
        factors = derive_utility_factors(exp)
        assert factors == pytest.approx([1 / 3, 2 / 3])

    def test_given_factors_pass_through(self):
        assert derive_utility_factors(parse_experiment(MINIMAL)) == [F(2, 5), F(3, 5)]


class TestParseErrors:
    @pytest.mark.parametrize("text, kind", [(None, "NoneType"), (b"name: x", "bytes"), (3, "int")])
    def test_text_must_be_a_str(self, text, kind):
        with pytest.raises(ExperimentFormatError) as exc:
            parse_experiment(text, source="x.exp")
        assert str(exc.value) == f"x.exp: experiment text must be a str, got {kind}"

    def test_unknown_top_level_field(self):
        with pytest.raises(ExperimentFormatError, match=r"unknown field\(s\) \['extra'\]"):
            parse_experiment(MINIMAL + "extra: 1\n")

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ExperimentFormatError, match="top level must be a mapping"):
            parse_experiment("- 1\n- 2\n")

    def test_invalid_yaml_reports_line(self):
        with pytest.raises(ExperimentFormatError, match=r"invalid YAML \(line"):
            parse_experiment("name: x\nprospects: [\n  {id: a\n")

    def test_missing_name(self):
        text = perturb("name: demo", "name: ''")
        with pytest.raises(ExperimentFormatError, match="'name' must be a non-empty string"):
            parse_experiment(text)

    def test_source_appears_in_errors(self):
        with pytest.raises(ExperimentFormatError, match="my-file.exp"):
            parse_experiment("name: 3\nprospects: []\nattractiveness_rank: []\n", source="my-file.exp")

    def test_prospects_must_be_nonempty(self):
        with pytest.raises(ExperimentFormatError, match="non-empty list"):
            parse_experiment("name: x\nprospects: []\nattractiveness_rank: []\n")

    @pytest.mark.parametrize("rank", ["[1.0, '2/3']", "[true, b]", "[1, b]", "[[a], b]", "[~, b]"])
    def test_rank_entries_must_be_strings(self, rank):
        # Entries were matched through ``str(r)``: ids '1' and '2/3' were
        # listed by ``[1.0, "2/3"]``, and 'True' by ``[true, ...]``.
        ids = {"[1.0, '2/3']": ("'1'", "'2/3'"), "[true, b]": ("'True'", "b"), "[1, b]": ("'1'", "b")}
        first, second = ids.get(rank, ("a", "b"))
        text = MINIMAL.replace("id: a", f"id: {first}").replace("id: b", f"id: {second}")
        with pytest.raises(ExperimentFormatError, match="'attractiveness_rank' must list every prospect id exactly once"):
            parse_experiment(text.replace("[a, b]", rank))
        assert parse_experiment(text.replace("[a, b]", f"[{first}, {second}]")).attractiveness_rank

    def test_prospect_entry_must_be_mapping(self):
        with pytest.raises(ExperimentFormatError, match=r"prospects\[0\] must be a mapping"):
            parse_experiment("name: x\nprospects: [7]\nattractiveness_rank: []\n")

    def test_prospect_unknown_field(self):
        text = perturb("f: 0.4", "f: 0.4\n    weight: 2")
        with pytest.raises(ExperimentFormatError, match=r"unknown field\(s\) \['weight'\]"):
            parse_experiment(text)

    def test_duplicate_prospect_id(self):
        text = perturb("id: b", "id: a")
        with pytest.raises(ExperimentFormatError, match="duplicate prospect id 'a'"):
            parse_experiment(text)

    def test_prospect_needs_exactly_one_kind(self):
        text = perturb("f: 0.4", "f: 0.4\n    utility: 1")
        with pytest.raises(ExperimentFormatError, match="exactly one of 'utility' or 'f'"):
            parse_experiment(text)
        text = perturb("f: 0.4", "note: ''")
        with pytest.raises(ExperimentFormatError):
            parse_experiment(text)

    def test_mixed_kinds_rejected(self):
        text = perturb("f: 0.6", "utility: 3")
        with pytest.raises(ExperimentFormatError, match="mix 'utility' and 'f'"):
            parse_experiment(text)

    def test_bool_is_not_a_number(self):
        text = perturb("f: 0.4", "f: true")
        with pytest.raises(ExperimentFormatError, match="must be a number, got True"):
            parse_experiment(text)

    def test_f_out_of_range(self):
        text = perturb("f: 0.4", "f: 1.4")
        with pytest.raises(ExperimentFormatError, match=r"must lie in \[0, 1\]"):
            parse_experiment(text)

    def test_f_must_sum_to_one(self):
        text = perturb("f: 0.6", "f: 0.7")
        with pytest.raises(ExperimentFormatError, match="'f' values must sum to 1"):
            parse_experiment(text)

    def test_rank_must_cover_all_ids(self):
        text = perturb("attractiveness_rank: [a, b]", "attractiveness_rank: [a]")
        with pytest.raises(ExperimentFormatError, match="every prospect id exactly once"):
            parse_experiment(text)
        text = perturb("attractiveness_rank: [a, b]", "attractiveness_rank: [a, a]")
        with pytest.raises(ExperimentFormatError, match="every prospect id exactly once"):
            parse_experiment(text)

    def test_missing_rank(self):
        text = perturb("attractiveness_rank: [a, b]", "")
        with pytest.raises(ExperimentFormatError, match="attractiveness_rank"):
            parse_experiment(text)


@contextlib.contextmanager
def pure_python_parser():
    """``_ExactNumberLoader``'s own constructors and resolvers on PyYAML's
    pure-Python scanner, the path of installs built without libyaml."""

    class PureLoader(yaml.SafeLoader):
        yaml_constructors = experiments._ExactNumberLoader.yaml_constructors
        yaml_implicit_resolvers = experiments._ExactNumberLoader.yaml_implicit_resolvers

    with mock.patch.object(experiments, "_ExactNumberLoader", PureLoader):
        yield


PARSERS = {"default": contextlib.nullcontext, "pure-python": pure_python_parser}


def one_line_error(text: str) -> str:
    with pytest.raises(ExperimentFormatError) as info:
        parse_experiment(text)
    message = str(info.value)
    assert "\n" not in message and len(message) < 300, message
    return message


@pytest.mark.parametrize("parser", sorted(PARSERS))
class TestBoundedErrors:
    """Every rejected input ends in one short line, on either scanner."""

    @pytest.mark.parametrize("field", ["f: 0.4", "attractiveness_rank: [a, b]"])
    def test_deep_nesting(self, parser, field):
        key = field.split(":")[0]
        with PARSERS[parser]():
            one_line_error(perturb(field, f"{key}: " + "[" * 500 + "]" * 500))

    def test_control_character(self, parser):
        with PARSERS[parser]():
            assert "position 7" in one_line_error(perturb("name: demo", "name: a\x01b"))

    def test_lone_surrogate(self, parser):
        with PARSERS[parser]():
            one_line_error(perturb("name: demo", "name: a\udc80b"))

    @pytest.mark.parametrize("value", ["!!int abc", "!!int 0x", "!!bool maybe", "!!timestamp soon"])
    def test_value_that_does_not_fit_its_tag(self, parser, value):
        with PARSERS[parser]():
            one_line_error(perturb("f: 0.4", f"f: {value}"))


class TestEmpiricalSection:
    def with_empirical(self, body: str) -> str:
        return MINIMAL + "empirical:\n" + body

    def test_valid(self):
        exp = parse_experiment(
            self.with_empirical("  - {id: a, frequency: 0.45}\n  - {id: b, frequency: 0.55}\n")
        )
        assert exp.empirical == (F(9, 20), F(11, 20))

    def test_order_follows_prospects_not_file(self):
        exp = parse_experiment(
            self.with_empirical("  - {id: b, frequency: 0.55}\n  - {id: a, frequency: 0.45}\n")
        )
        assert exp.empirical == (F(9, 20), F(11, 20))

    def test_must_be_list(self):
        with pytest.raises(ExperimentFormatError, match="'empirical' must be a list"):
            parse_experiment(MINIMAL + "empirical: 3\n")

    def test_entry_shape(self):
        with pytest.raises(ExperimentFormatError, match="fields 'id' and 'frequency'"):
            parse_experiment(self.with_empirical("  - {id: a}\n"))

    def test_unknown_id(self):
        with pytest.raises(ExperimentFormatError, match="does not match any prospect"):
            parse_experiment(self.with_empirical("  - {id: zz, frequency: 1}\n"))

    @pytest.mark.parametrize("pid, shown", [("[a]", "['a']"), ("{a: 1}", "{'a': 1}"), ("1", "1")])
    def test_id_that_is_not_text(self, pid, shown):
        # A list or mapping id cannot be looked up by hash; it matches no prospect.
        with pytest.raises(ExperimentFormatError) as err:
            parse_experiment(self.with_empirical(f"  - {{id: {pid}, frequency: 1}}\n"))
        assert str(err.value) == f"<string>: empirical[0].id {shown} does not match any prospect"

    def test_duplicate_id(self):
        body = "  - {id: a, frequency: 0.5}\n  - {id: a, frequency: 0.5}\n"
        with pytest.raises(ExperimentFormatError, match="duplicate empirical id"):
            parse_experiment(self.with_empirical(body))

    def test_partial_coverage_rejected(self):
        with pytest.raises(ExperimentFormatError, match=r"missing for \['b'\]"):
            parse_experiment(self.with_empirical("  - {id: a, frequency: 1}\n"))

    def test_negative_frequency(self):
        body = "  - {id: a, frequency: -0.1}\n  - {id: b, frequency: 1.1}\n"
        with pytest.raises(ExperimentFormatError, match="must be >= 0"):
            parse_experiment(self.with_empirical(body))
        # A frequency beyond the double range once broke the sum message.
        body = "  - {id: a, frequency: 1e400}\n  - {id: b, frequency: 0.5}\n"
        with pytest.raises(ExperimentFormatError, match="<= 1"):
            parse_experiment(self.with_empirical(body))

    def test_sum_window(self):
        ok = "  - {id: a, frequency: 0.49}\n  - {id: b, frequency: 0.49}\n"
        parse_experiment(self.with_empirical(ok))
        bad = "  - {id: a, frequency: 0.4}\n  - {id: b, frequency: 0.4}\n"
        with pytest.raises(ExperimentFormatError, match="must sum to 1 within"):
            parse_experiment(self.with_empirical(bad))


def test_reading_is_linear_in_the_prospects():
    # Built as a dict, so only the walk over the fields is timed, not YAML.
    n = 20_000
    ids = [f"p{k}" for k in range(n)]
    doc = {
        "name": "wide",
        "prospects": [{"id": pid, "f": F(1, n)} for pid in ids],
        "attractiveness_rank": ids[::-1],
        "empirical": [{"id": pid, "frequency": F(1, n)} for pid in reversed(ids)],
    }
    start = time.perf_counter()
    exp = experiments._experiment(doc, "<dict>")
    assert time.perf_counter() - start < 2.0
    assert exp.prospect_ids == tuple(ids)
    assert exp.utility_factors == exp.empirical == (F(1, n),) * n


class TestConfigSection:
    def test_unknown_config_field(self):
        with pytest.raises(ExperimentFormatError, match=r"config has unknown field\(s\)"):
            parse_experiment(MINIMAL + "config: {beta: 1}\n")

    def test_config_must_be_mapping(self):
        with pytest.raises(ExperimentFormatError, match="'config' must be a mapping"):
            parse_experiment(MINIMAL + "config: [1]\n")

    def test_alpha_positive(self):
        with pytest.raises(ExperimentFormatError, match="config.alpha must be positive"):
            parse_experiment(MINIMAL + "config: {alpha: 0}\n")

    def test_gamma_positive(self):
        with pytest.raises(ExperimentFormatError, match="config.gamma must be positive"):
            parse_experiment(MINIMAL + "config: {gamma: -1}\n")

    def test_utility_kind_restricted(self):
        with pytest.raises(ExperimentFormatError, match="'linear' or 'power'"):
            parse_experiment(MINIMAL + "config: {utility_kind: cubic}\n")

    def test_exponent_requires_power(self):
        with pytest.raises(ExperimentFormatError, match="requires utility_kind: power"):
            parse_experiment(MINIMAL + "config: {utility_exponent: 2}\n")

    def test_exponent_positive(self):
        text = MINIMAL + "config: {utility_kind: power, utility_exponent: 0}\n"
        with pytest.raises(ExperimentFormatError, match="utility_exponent must be positive"):
            parse_experiment(text)

    def test_defaults(self):
        exp = parse_experiment(MINIMAL)
        assert exp.alpha == 1 and exp.gamma == 1
        assert exp.utility(F(-7, 2)) == F(-7, 2)

    def test_settings_left_out_keep_the_dataclass_defaults(self):
        exp = parse_experiment(MINIMAL + "config: {gamma: 2, utility_kind: power}\n")
        assert exp.alpha is ExperimentFile.alpha and exp.gamma == 2
        assert exp.utility == UtilityFunction()
        assert parse_experiment(MINIMAL + "config: {}\n") == parse_experiment(MINIMAL)

    @pytest.mark.parametrize("utilities, factors", [((F(1),), (F(1),)), (None, None)])
    def test_experiment_file_needs_exactly_one_kind(self, utilities, factors):
        with pytest.raises(ExperimentFormatError) as exc:
            ExperimentFile("demo", ("a",), utilities, factors, ("a",))
        assert str(exc.value) == "exactly one of utilities/utility_factors must be present"


def hand_built(**fields) -> ExperimentFile:
    """A hand-built file of two prospects with given factors, ``fields`` changed."""
    given = {"name": "demo", "prospect_ids": ("a", "b"), "utilities": None,
             "utility_factors": (F(2, 5), F(3, 5)), "attractiveness_rank": ("a", "b")}
    return ExperimentFile(**{**given, **fields})


def error_text(build, *args, **kwargs) -> str:
    with pytest.raises(ValidationError) as exc:
        build(*args, **kwargs)
    return str(exc.value)


class TestHandBuiltFile:
    """``ExperimentFile`` applies the library's rules at construction, with
    the messages of ``ChoiceSet`` and of the observed frequencies."""

    @pytest.mark.parametrize("ids, factors, rank", [
        (("a", 2), (F(2, 5), F(3, 5)), ("a", "b")),
        (("a", "a"), (F(2, 5), F(3, 5)), ("a", "a")),
        (("a", "b"), (F(2, 5), F(3, 5)), ("a", "c")),
        (("a", "b"), (F(2, 5), F(3, 5)), ("a", "a")),
        (("a", "b"), (F(3, 2), F(-1, 2)), ("a", "b")),
        (("a", "b"), (F(2, 5), F(1, 5)), ("a", "b")),
        (("a", "b"), (F(1),), ("a", "b")),
    ])
    def test_choice_set_rules(self, ids, factors, rank):
        expected = error_text(ChoiceSet, ids, factors, rank)
        got = error_text(hand_built, prospect_ids=ids, utility_factors=factors, attractiveness_rank=rank)
        assert got == expected

    @pytest.mark.parametrize("empirical", [(F(-1, 2), F(3, 2)), (F(1),), (F(1, 2), F(1, 4)), (F(1, 2), "x")])
    def test_frequency_rules(self, empirical):
        report = run_prediction(hand_built())
        assert error_text(hand_built, empirical=empirical) == error_text(score_against_empirical, report, empirical)

    @pytest.mark.parametrize("fields, message", [
        ({"utilities": (1, 2, 3)}, "2 prospects but 3 utilities"),
        ({"utilities": 5}, "utility column must be a sequence, got 5"),
        ({"utilities": (1, 2), "utility": "lin"}, "utility must be a UtilityFunction, got 'lin'"),
    ])
    def test_utility_rules(self, fields, message):
        assert error_text(hand_built, utility_factors=None, **fields) == message

    @pytest.mark.parametrize("name", [None, "", "  ", 3, b"demo"])
    def test_name_rule(self, name):
        message = f"experiment name must be a non-empty string, got {name!r}"
        assert error_text(hand_built, name=name) == message

    @pytest.mark.parametrize("value", ["x", -1, 0, F(-1, 2), math.inf, True, None])
    def test_exponent_rules(self, value):
        # The messages of the factor rules, which take these exponents.
        assert error_text(hand_built, alpha=value) == error_text(utility_factors_gains, (1, 2), value)
        assert error_text(hand_built, gamma=value) == error_text(utility_factors_losses, (-1, -2), value)

    def test_stores_the_checked_exponents(self):
        exp = hand_built(alpha=F(3, 2), gamma=np.float64(2.0))
        assert exp.alpha == F(3, 2) and type(exp.alpha) is Fraction
        assert exp.gamma == 2.0 and type(exp.gamma) is float

    def test_stores_the_checked_tuples(self):
        exp = hand_built(prospect_ids=["a", "b"], utility_factors=iter([F(2, 5), F(3, 5)]),
                         attractiveness_rank=["b", "a"], empirical=[0.5, np.float64(0.5)])
        assert exp.prospect_ids == ("a", "b") and exp.attractiveness_rank == ("b", "a")
        assert exp.utility_factors == (F(2, 5), F(3, 5))
        assert exp.empirical == (0.5, 0.5) and type(exp.empirical[1]) is float
        assert run_prediction(exp) == run_prediction(dataclasses.replace(exp))

    def test_an_empty_utility_column_ends_in_the_gains_rule(self):
        exp = hand_built(prospect_ids=(), utilities=(), utility_factors=None, attractiveness_rank=())
        assert error_text(run_prediction, exp) == "need at least one utility"

    @pytest.mark.parametrize("value", [None, "demo.exp", {"name": "demo"}])
    def test_only_an_experiment_file_is_run(self, value):
        message = f"experiment must be an ExperimentFile, got {value!r}"
        assert error_text(run_prediction, value) == error_text(derive_utility_factors, value) == message


def load_experiment(path):
    """A file read and parsed as ``qchoice predict PATH`` does."""
    return parse_experiment(experiments.read_experiment_text(path), source=str(path))


class TestLoadExperiment:
    def test_round_trip_through_disk(self, tmp_path):
        p = tmp_path / "demo.exp"
        p.write_text(MINIMAL, encoding="utf-8")
        exp = load_experiment(p)
        assert exp == parse_experiment(MINIMAL)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExperimentFormatError, match="cannot read experiment file"):
            experiments.read_experiment_text(tmp_path / "absent.exp")
        with pytest.raises(ExperimentFormatError, match="cannot read experiment file"):
            experiments.read_experiment_text(tmp_path)
        latin1 = tmp_path / "latin1.exp"
        latin1.write_bytes(b"name: caf\xe9\n")
        with pytest.raises(ExperimentFormatError, match="cannot read experiment file"):
            experiments.read_experiment_text(latin1)

    def test_error_names_the_file(self, tmp_path):
        p = tmp_path / "broken.exp"
        p.write_text("name: 3\n", encoding="utf-8")
        with pytest.raises(ExperimentFormatError, match="broken.exp"):
            load_experiment(p)


class TestInputDigest:
    def test_empty_input_frozen_value(self):
        assert (
            input_digest(b"")
            == "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_str_and_bytes_agree(self):
        assert input_digest("abc") == input_digest(b"abc")

    def test_distinct_inputs_distinct_digests(self):
        assert input_digest("a") != input_digest("b")


class TestRunRecord:
    def _record(self, **kw):
        report = run_prediction(bundled_experiment("microwave"))
        defaults = dict(
            command="predict",
            input_digest=input_digest(bundled_experiment_text("microwave")),
            seeds=(),
            report=report,
        )
        defaults.update(kw)
        return RunRecord(**defaults)

    def test_csv_quotes_ids_that_need_it(self):
        import csv

        ids = ["a,b", 'say "hi"', "line\nbreak", "plain"]
        text = "name: ids\nprospects:\n" + "".join(
            f"  - {{id: {json.dumps(pid)}, f: 0.25}}\n" for pid in ids
        ) + f"attractiveness_rank: {json.dumps(ids)}\n"
        record = RunRecord("predict ids.exp", None, (), run_prediction(parse_experiment(text)))
        rows = list(csv.reader(io.StringIO(record.to_csv(), newline="")))
        assert [len(row) for row in rows] == [6] * 5
        assert [row[0] for row in rows[1:]] == ids
        # Every other id is written as it is.
        assert record.to_csv().splitlines()[-1].startswith("plain,0.25,")

    def test_json_is_byte_deterministic(self):
        assert self._record().to_json() == self._record().to_json()

    def test_json_has_no_timestamp(self, capsys):
        # The run time goes to the table of ``predict`` and nowhere else.
        stamp = "2026-06-30T23:59:59+00:00"
        outputs = {}
        with mock.patch("qchoice.cli._now", return_value=stamp):
            for fmt in ("record", "table"):
                assert main(["predict", "microwave", "--format", fmt]) == 0
                outputs[fmt] = capsys.readouterr().out
        assert stamp not in outputs["record"] and "created" not in outputs["record"]
        assert outputs["table"].rstrip().endswith(f"run at {stamp}")

    def test_json_carries_exact_fields(self):
        payload = json.loads(self._record().to_json())
        row = payload["report"]["prospects"][0]
        assert row["id"] == "target"
        assert row["f"] == 0.4 and row["f_exact"] == "2/5"
        assert row["q"] == 0.25 and row["q_exact"] == "1/4"
        assert row["p"] == 0.65 and row["p_exact"] == "13/20"
        assert row["p_exp_exact"] == "61/100"
        assert row["abs_error_exact"] == "1/25"
        assert payload["report"]["max_abs_error"] == 0.04
        assert payload["report"]["clamping_applied"] is False

    def test_json_statistics_are_plain(self):
        rec = RunRecord(
            command="verify",
            input_digest=None,
            seeds=(0,),
            statistics={"estimate": F(1, 4), "trail": [F(1, 2), 3]},
        )
        payload = json.loads(rec.to_json())
        assert payload["statistics"] == {"estimate": 0.25, "trail": [0.5, 3]}
        assert payload["seeds"] == [0]

    def test_csv_frozen_text(self):
        assert self._record().to_csv() == (
            "id,f,q,p,p_exp,abs_error\n"
            "target,0.4,0.25,0.65,0.61,0.04\n"
            "competitor,0.6,-0.25,0.35,0.39,0.04\n"
        )

    def test_csv_without_empirical_leaves_cells_blank(self):
        report = run_prediction(parse_experiment(MINIMAL))
        rec = RunRecord(command="predict", input_digest=None, seeds=(), report=report)
        lines = rec.to_csv().splitlines()
        assert lines[0] == "id,f,q,p,p_exp,abs_error"
        assert lines[1] == "a,0.4,0.25,0.65,,"
        assert lines[2] == "b,0.6,-0.25,0.35,,"

    def test_library_built_report_renders_its_error_columns(self):
        report = PredictionReport(
            prospect_ids=("target", "competitor"),
            utility_factors=(F(2, 5), F(3, 5)),
            attraction_factors=(F(1, 4), F(-1, 4)),
            clamping_applied=False,
            empirical=(F(61, 100), F(39, 100)),
        )
        rec = RunRecord(command="predict", input_digest=None, seeds=(), report=report)
        assert rec.to_csv() == self._record().to_csv()
        payload = json.loads(rec.to_json())["report"]
        assert payload == json.loads(self._record().to_json())["report"]
        assert payload["prospects"][1]["abs_error_exact"] == "1/25"
        assert payload["mean_abs_error"] == 0.04

    def test_csv_needs_a_report(self):
        rec = RunRecord(command="verify", input_digest=None, seeds=(0,), statistics={})
        with pytest.raises(ExperimentFormatError, match="no per-prospect table"):
            rec.to_csv()


def json_reference(value) -> str:
    """What ``RunRecord.to_json`` wrote before it had its own writer."""
    return json.dumps(value, sort_keys=True, indent=2, default=float)


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, -5e-324, math.nan, math.inf, -math.inf])
_FLOATS = _EDGE_FLOATS | st.floats()
_LEAVES = (
    _FLOATS
    | st.fractions()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | _FLOATS.map(np.float64)
    | st.booleans().map(np.bool_)
    | st.none()
    | st.booleans()
    | st.integers() | st.sampled_from([10**40, -(10**300)])
    | st.text()  # non-ASCII and control characters included
)


@st.composite
def antisymmetric_floats(draw) -> list:
    """A float list equal to its reversed negation, the shape of a ladder;
    the first half may hold negatives, signed zeros and non-finite values."""
    half = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    half = draw(st.permutations(half + draw(st.lists(_EDGE_FLOATS, max_size=1))))
    middle = draw(st.sampled_from([[], [0.0], [-0.0]]))
    return half + middle + [-v for v in reversed(half)]


_RECORD_VALUES = st.recursive(
    _LEAVES | antisymmetric_floats() | st.lists(_FLOATS) | st.lists(st.text()),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)


_ROW_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
#: Key texts the row template must escape or encode, beside drawn ones.
_ROW_KEYS = st.text(max_size=4) | st.sampled_from(["%", "%s", "%%d", '"', "\\", "é", "\u2603", ""])


@st.composite
def sweep_rows(draw) -> list:
    """Rows shaped like a ``simulate`` sweep: one key set, each key a float
    scalar (width 0) or a float list of one width in every row."""
    keys = draw(st.lists(_ROW_KEYS, min_size=1, max_size=5, unique=True))
    widths = [draw(st.sampled_from([0, 0, 1, 2, 5])) for _ in keys]
    return [
        {k: draw(st.lists(_ROW_FLOATS, min_size=w, max_size=w)) if w else draw(_ROW_FLOATS) for k, w in zip(keys, widths)}
        for _ in range(draw(st.integers(1, 6)))
    ]


@st.composite
def mutated_sweep_rows(draw) -> list:
    """``sweep_rows`` with one change that the row template must decline: a
    non-finite value, a missing or extra key, a list of another width, or an
    ``int``, ``np.float64`` or ``bool`` value.  There are two rows or more,
    so that a changed key set or width differs from another row's."""
    rows = draw(sweep_rows())
    if len(rows) == 1:
        rows.append({k: [*v] if isinstance(v, list) else v for k, v in rows[0].items()})
    row = rows[draw(st.integers(0, len(rows) - 1))]
    key = draw(st.sampled_from(sorted(row)))
    value = row[key]
    kind = draw(st.sampled_from(["non-finite", "missing", "extra", "width", "type"]))
    if kind == "missing":
        del row[key]
    elif kind == "extra":
        row[draw(_ROW_KEYS.filter(lambda k: k not in row))] = draw(_ROW_FLOATS)
    elif kind == "width":  # a scalar becomes a list of one
        if isinstance(value, list):
            row[key] = value[:-1] if draw(st.booleans()) else [*value, 0.5]
        else:
            row[key] = [value]
    else:
        odd = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]) if kind == "non-finite"
            else st.sampled_from([0, 1, np.int64(0), np.float64(0.5), True, False])
        )
        if isinstance(value, list):
            row[key] = [*value]
            row[key][draw(st.integers(0, len(value) - 1))] = odd
        else:
            row[key] = odd
    return rows


#: Register sizes of the ``quantum-sweep`` benchmark workload (``perfbench/workloads.py``).
SWEEP_DIMS = ((2, 2), (3, 2), (2, 4), (4, 3), (3, 5), (5, 4), (6, 4), (8, 4), (8, 8))


class TestJsonWriter:
    """``RunRecord.to_json`` writes with ``experiments._json``, which must
    match ``json.dumps(..., sort_keys=True, indent=2, default=float)``
    byte for byte on every value a record can hold."""

    @settings(max_examples=60, deadline=None)
    @given(_RECORD_VALUES)
    @example([1.5, 0.0, -1.5])
    @example([-2.5, -0.0, 2.5])
    @example([0.0, -0.0])
    @example([-0.0, 1.0, -1.0, 0.0])
    @example([math.inf, -math.inf])
    @example({"b": [], "a": {}, "c": ()})
    def test_matches_json_dumps(self, value):
        assert experiments._json(value) == json_reference(value)

    @settings(max_examples=100, deadline=None)
    @given(antisymmetric_floats())
    def test_mirrored_lists_match_json_dumps(self, values):
        assert experiments._json(values) == json_reference(values)

    @staticmethod
    def check_ladder_record(n):
        stats = cli._ladder_statistics(n)
        record = RunRecord(command=f"attraction-set {n}", input_digest=None, seeds=(), statistics=stats)
        payload = {"command": record.command, "input_digest": None, "seeds": [], "statistics": stats}
        assert record.to_json() == json_reference(payload) + "\n"

    def test_ladder_records_up_to_500(self):
        for n in range(1, 501):
            self.check_ladder_record(n)

    @pytest.mark.parametrize("n", [4999, 5000, 50001])
    def test_long_ladder_records(self, n):
        self.check_ladder_record(n)

    @settings(max_examples=150, deadline=None)
    @given(sweep_rows())
    @example([{"%": 1.0, '"': [0.5, -0.0], "é": 2.5, "": [1e300]}] * 2)
    def test_sweep_rows_match_json_dumps(self, rows):
        assert experiments._json(rows) == json_reference(rows)
        assert experiments._json({"sweep": rows}) == json_reference({"sweep": rows})

    @settings(max_examples=150, deadline=None)
    @given(mutated_sweep_rows())
    @example([{"": np.int64(0)}])
    @example([{"a": 1.0}, {"a": math.nan}])
    def test_mutated_sweep_rows_take_the_plain_path(self, rows):
        assert experiments._json_rows(rows, ",\n  ", "  ") is None
        assert experiments._json(rows) == json_reference(rows)

    @staticmethod
    def sweep_record(monkeypatch, dims, steps) -> RunRecord:
        records = []
        monkeypatch.setattr(cli, "_emit", lambda record, *args: records.append(record))
        assert main(["simulate", "--dims", "{},{}".format(*dims), "--sweep-steps", str(steps)]) == 0
        return records[0]

    @pytest.mark.parametrize("steps", [2, 50])
    @pytest.mark.parametrize("dims", SWEEP_DIMS)
    def test_sweep_records(self, dims, steps, monkeypatch):
        record = self.sweep_record(monkeypatch, dims, steps)
        payload = {"command": record.command, "input_digest": None, "seeds": [0], "statistics": record.statistics}
        assert record.to_json() == json_reference(payload) + "\n"

    def test_sweep_record_writes_its_rows_from_one_template(self, monkeypatch):
        # The plain path calls ``_json`` at least once per row: 50 already.
        record = self.sweep_record(monkeypatch, (4, 3), 50)
        calls = []
        plain = experiments._json
        monkeypatch.setattr(experiments, "_json", lambda value, pad="": calls.append(value) or plain(value, pad))
        record.to_json()
        assert len(calls) < 50


FUZZ_BASE = """\
name: fuzz
prospects:
  - id: a
    utility: 3
  - id: b
    utility: 1.5
  - id: c
    utility: 2
attractiveness_rank: [b, a, c]
empirical:
  - id: a
    frequency: 0.3
  - id: b
    frequency: 0.5
  - id: c
    frequency: 0.2
config:
  alpha: 0.5
  utility_kind: power
  utility_exponent: 0.88
"""
FUZZ_BASES = (
    FUZZ_BASE,
    "name: f\nprospects:\n  - {id: a, f: 0.25}\n  - {id: b, f: 0.75}\n"
    "attractiveness_rank: [a, b]\n"
    "empirical:\n  - {id: a, frequency: 0.6}\n  - {id: b, frequency: 0.4}\n",
    "name: losses\nprospects:\n  - {id: a, utility: -3}\n  - {id: b, utility: -1.5}\n"
    "attractiveness_rank: [b, a]\nconfig: {gamma: 2}\n",
)

# YAML syntax, field names and numeric edge cases.
_FUZZ_TOKENS = st.sampled_from(
    [
        "", " ", "\n", "  ", "\t", ":", "-", "- ", ",", "[", "]", "{", "}", "'", '"',
        "#", "&x", "*x", "!!str", "!!binary", "?", "%", "|", ">", "~", "null", "true",
        "id", "f", "utility", "frequency", "alpha", "gamma", "power", "linear",
        "0", "-1", "0.5", "9", "99999", "1e400", "1e-400", "-1e300", "1e300", "2E3",
        ".inf", ".nan",
        "\u00e9", "\x00", "\ufeff", "\xe9",
    ]
)


@st.composite
def mutated_experiment(draw) -> bytes:
    text = draw(st.sampled_from(FUZZ_BASES))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(_FUZZ_TOKENS) + text[stop:]
    data = text.encode("utf-8")
    if draw(st.booleans()) and draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xe9\xff" + data[cut:]
    return data


# Literals far outside the double range, found by the fuzz: the first
# escaped as a raw ValueError from a 40,026-digit message, the second
# kept ``predict`` busy building 10**30000000.
HUGE_EXPONENTS = (
    FUZZ_BASES[1].replace("f: 0.25", "f: 1e40025").encode(),
    FUZZ_BASE.replace("utility: 3", "utility: 1e30000000").encode(),
)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(mutated_experiment())
    @example(HUGE_EXPONENTS[0])
    @example(HUGE_EXPONENTS[1])
    def test_parse_raises_only_package_errors(self, data):
        try:
            exp = parse_experiment(data.decode("utf-8", errors="replace"))
            run_prediction(exp)
        except QChoiceError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=mutated_experiment())
    @example(data=HUGE_EXPONENTS[0])
    @example(data=HUGE_EXPONENTS[1])
    def test_predict_exits_cleanly(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "mutated.exp"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["predict", str(path)])
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().lower().startswith("error:")


@st.composite
def number_literal(draw, numerator: int, places: int) -> str:
    """``numerator / 10**places`` in one of the spellings YAML resolves."""
    spelling = draw(st.sampled_from(["decimal", "exponent", "dotted", "underscore", "int"]))
    if spelling == "exponent":  # a YAML 1.2 float; the exact loader's own resolver
        return f"{numerator}e-{places}"
    if spelling == "dotted":
        return f"{numerator}.0E-{places}"
    if spelling == "int" and numerator % 10**places == 0:
        return str(numerator // 10**places)
    digits = str(numerator).rjust(places + 1, "0")
    point = "._" if spelling == "underscore" else "."
    return f"{digits[:-places]}{point}{digits[-places:]}"


@st.composite
def decoy_file(draw) -> str:
    """A valid decoy-style ``.exp`` file, in block or flow style."""
    n = draw(st.integers(2, 8))
    ids = draw(
        st.lists(
            st.text("abcxyz019_-", max_size=6).map("p".__add__),
            min_size=n, max_size=n, unique=True,
        )
    )
    places = draw(st.integers(1, 4))
    cuts = sorted(draw(st.lists(st.integers(0, 10**places), min_size=n - 1, max_size=n - 1)))
    shares = [b - a for a, b in zip([0] + cuts, cuts + [10**places])]  # sum to 10**places
    if draw(st.booleans()):
        key, values = "f", [draw(number_literal(c, places)) for c in shares]
    else:
        sign = draw(st.sampled_from(["", "-"]))
        key, values = "utility", [sign + draw(number_literal(c + 1, places)) for c in shares]

    lines = [draw(st.sampled_from(["", "---", "# a decoy study"])), f"name: study-{n}", "prospects:"]
    flow = draw(st.booleans())
    for pid, value in zip(ids, values):
        if flow:
            lines.append(f"  - {{id: {pid}, {key}: {value}}}")
        else:
            lines += [f"  - id: {pid}", f"    {key}: {value}"]
    lines.append(f"attractiveness_rank: [{', '.join(draw(st.permutations(ids)))}]")
    if draw(st.booleans()):
        lines.append("empirical:")
        for pid, c in zip(ids, reversed(shares)):
            lines.append(f"  - {{id: {pid}, frequency: {draw(number_literal(c, places))}}}")
    if draw(st.booleans()):
        lines.append("config:")
        for setting in ("alpha", "gamma"):
            lines.append(f"  {setting}: {draw(number_literal(draw(st.integers(1, 300)), 2))}")
        if draw(st.booleans()):
            lines += ["  utility_kind: power", "  utility_exponent: 0.88"]
    return "\n".join(lines) + "\n"


def wide_decoy_text(rng) -> str:
    """A ``decoy_file`` widened to N = 500, drawn from ``rng``: given ``f``
    with shares down to zero, handed out by rank so that the least
    attractive prospects are clamped, or gains or losses utilities; each
    with or without ``empirical`` and ``config``."""
    n = rng.randint(2, 500)
    ids = [f"p{k:03d}" for k in range(n)]
    rank = rng.sample(ids, n)

    def shares(places: int) -> list[str]:
        cuts = sorted(rng.randint(0, 10**places) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [10**places])]
        if rng.random() < 0.5:  # the least attractive prospects get the least
            by_rank = dict(zip(rank, sorted(parts, reverse=True)))
            parts = [by_rank[pid] for pid in ids]
        return [f"{c // 10**places}.{c % 10**places:0{places}d}" for c in parts]

    config = []
    if rng.random() < 0.5:
        key, values = "f", shares(rng.randint(2, 6))
    else:
        sign = rng.choice(["", "-"])
        key = "utility"
        values = [sign + rng.choice([str(rng.randint(1, 2000)), f"{rng.randint(1, 2000)}.{rng.randint(0, 9)}"])
                  for _ in ids]
        config = [f"  {setting}: {rng.choice(['1', '2', '3', '0.5', '1.25'])}" for setting in ("alpha", "gamma")]
        config += rng.choice([[], ["  utility_kind: power", f"  utility_exponent: {rng.choice(['2', '0.88'])}"]])
    lines = ["name: wide", "prospects:"] + [f"  - {{id: {pid}, {key}: {v}}}" for pid, v in zip(ids, values)]
    lines.append(f"attractiveness_rank: [{', '.join(rank)}]")
    if rng.random() < 0.3:
        lines += ["empirical:"] + [f"  - {{id: {pid}, frequency: {v}}}" for pid, v in zip(ids, shares(3))]
    if config and rng.random() < 0.7:
        lines += ["config:"] + config
    return "\n".join(lines) + "\n"


def wide_decoy_file():
    return st.randoms(use_true_random=False).map(wide_decoy_text)


def parse_outcome(text: str) -> str:
    """``repr`` of the parsed file (it shows every number's type), or the error."""
    try:
        return repr(parse_experiment(text))
    except ExperimentFormatError as exc:
        return f"error: {exc}"


def reference_outcome(text: str) -> str:
    """``parse_outcome`` with the document built by ``yaml.load`` under the
    current ``_ExactNumberLoader``: PyYAML's own construction, the reference
    of ``_plain``.  Errors are worded by the same ``_load``."""

    def load(text):
        return yaml.load(text, Loader=experiments._ExactNumberLoader)

    with mock.patch.object(experiments, "_document", load):
        return parse_outcome(text)


def outcomes(text: str) -> dict[str, str]:
    """``parse_outcome`` on each scanner, each checked against the reference."""
    found = {}
    for parser, context in PARSERS.items():
        with context():
            found[parser] = parse_outcome(text)
            assert found[parser] == reference_outcome(text), parser
    return found


#: Inputs that reach PyYAML's rarer paths, and what each parses to.
READER_CASES = {
    "anchors-and-aliases": (
        "name: &n demo\nprospects:\n  - {id: &a a, f: &x 0.5}\n  - {id: &b b, f: *x}\n"
        "attractiveness_rank: [*b, *a]\n"
        "empirical:\n  - {id: *a, frequency: *x}\n  - {id: *b, frequency: *x}\n",
        "utility_factors=(Fraction(1, 2), Fraction(1, 2)), attractiveness_rank=('b', 'a')",
    ),
    "merge-key": (
        MINIMAL.replace("  - id: b\n    f: 0.6", "  - {<<: *pa, id: b, f: 0.6}").replace(
            "  - id: a", "  - &pa\n    id: a"
        ),
        "prospect_ids=('a', 'b'), utilities=None, utility_factors=(Fraction(2, 5), Fraction(3, 5))",
    ),
    "str-tag": (
        MINIMAL.replace("id: a", "id: !!str 1").replace("[a, b]", "['1', b]"),
        "prospect_ids=('1', 'b')",
    ),
    "float-tag": (
        MINIMAL.replace("f: 0.4", "f: !!float 0").replace("f: 0.6", "f: !!float 1"),
        "utility_factors=(Fraction(0, 1), Fraction(1, 1))",
    ),
    "binary": (
        perturb("name: demo", "name: !!binary aGk="),
        "error: <string>: field 'name' must be a non-empty string",
    ),
    "set": (
        perturb("[a, b]", "!!set {a, b}"),
        "error: <string>: field 'attractiveness_rank' must list every prospect id "
        "exactly once, got {'a', 'b'}",
    ),
    "duplicate-keys": (
        perturb("f: 0.4", "f: 0.9\n    f: 0.4"),
        "utility_factors=(Fraction(2, 5), Fraction(3, 5))",
    ),
    "unhashable-key": (
        MINIMAL + "config: {[alpha]: 1}\n",
        "error: <string>: invalid YAML (line 8: found unhashable key)",
    ),
    "recursive-anchor": (
        perturb("[a, b]", "&r [a, b, *r]"),
        "got ['a', 'b', ['a', 'b', ['a', 'b', ['a', 'b', ['a', 'b', ['a', 'b', [...]]]]]]]",
    ),
    "deep-nesting": (
        perturb("f: 0.4", "f: " + "[" * 500 + "]" * 500),
        {  # PyYAML's pure-Python composer recurses once per level
            "default": "error: <string>: prospects[0].f must be a number, got [[[[[[[...]]]]]]]",
            "pure-python": "error: <string>: values are nested too deeply",
        },
    ),
    "value-key": (MINIMAL + "config: {=: 1}\n", "error: <string>: config has unknown field(s) ['=']"),
    "null": (perturb("f: 0.4", "f: ~"), "error: <string>: prospects[0].f must be a number, got None"),
    # ``&`` that is not an anchor sends the text to ``yaml.load`` all the same.
    "ampersand-in-quotes": (perturb("name: demo", 'name: "R&D"'), "ExperimentFile(name='R&D'"),
    # A node whose kind does not match its tag is not plain.
    "str-tag-on-a-sequence": (
        perturb("id: a", "id: !!str [a]"),
        "error: <string>: invalid YAML (line 3: expected a scalar node, but found sequence)",
    ),
    # PyYAML fills collections first in, first out: of three faults, the one
    # in the first collection at the shallowest depth is reported, not the
    # first in the text nor the one in the last collection.
    "three-faults": (
        perturb("f: 0.4", "f: .inf").replace("[a, b]", "[a, b, .nan]")
        + "config: {alpha: !!binary 'a'}\n",
        "error: <string>: unsupported numeric literal '.nan' at line 7",
    ),
}


class TestLibyamlAgreesWithPurePython:
    """On either scanner the node walk gives what ``yaml.load`` gives: the
    same ``repr`` (which shows types) or the same error text.  The two
    scanners give identical ``ExperimentFile``s."""

    def test_default_loader_uses_libyaml_when_present(self):
        assert issubclass(experiments._ExactNumberLoader, yaml.CSafeLoader) == (
            yaml.__with_libyaml__
        )

    @pytest.mark.parametrize("name", list_bundled_experiments())
    def test_bundled_studies(self, name):
        found = outcomes(bundled_experiment_text(name))
        assert found["default"] == found["pure-python"]
        assert not found["default"].startswith("error:")

    @settings(max_examples=80, deadline=None)
    @given(decoy_file())
    def test_generated_decoy_files(self, text):
        found = outcomes(text)
        assert found["default"] == found["pure-python"]

    @settings(max_examples=100, deadline=None)
    @given(mutated_experiment())
    def test_mutated_files_agree_where_both_parse(self, data):
        # The scanners word syntax errors differently, and libyaml also
        # accepts a tab after ``key:``; accepted files must agree.
        found = outcomes(data.decode("utf-8", errors="replace"))
        if not any(outcome.startswith("error:") for outcome in found.values()):
            assert found["default"] == found["pure-python"]

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_rare_paths(self, case):
        text, expected = READER_CASES[case]
        if isinstance(expected, str):
            expected = dict.fromkeys(PARSERS, expected)
        for parser, outcome in outcomes(text).items():
            assert expected[parser] in outcome

    def test_aliases_share_one_object(self):
        doc = experiments._document("a: &x [1, {b: 2}]\nb: *x\nc: &y {d: *x}\ne: [*y, *y]\n")
        assert doc["a"] is doc["b"] is doc["c"]["d"]
        assert doc["e"][0] is doc["e"][1] is doc["c"]

    def test_alias_expansion_stays_linear(self):
        # Nine levels of nine-fold aliases: 9**9 leaves if each were copied.
        lines = ["name: demo", "laughs:", '  - &l0 ["lol", "lol", "lol", "lol", "lol", "lol", "lol", "lol", "lol"]']
        for level in range(1, 10):
            lines.append(f"  - &l{level} [" + ", ".join([f"*l{level - 1}"] * 9) + "]")
        text = "\n".join(lines) + "\n"
        start = time.perf_counter()
        with pytest.raises(ExperimentFormatError, match=r"unknown field\(s\) \['laughs'\]"):
            parse_experiment(text)
        assert time.perf_counter() - start < 1.0


class TestPlainPath:
    """Plain files are built by ``_plain`` without ``yaml.load``.  A broken
    ``_plain`` would still parse through that fallback, only slower; here
    the fallback raises."""

    @staticmethod
    def parse_without_yaml_load(text: str) -> None:
        with mock.patch.object(experiments.yaml, "load", side_effect=AssertionError("yaml.load")):
            for context in PARSERS.values():
                with context():
                    parse_experiment(text)

    @pytest.mark.parametrize("name", list_bundled_experiments())
    def test_bundled_studies(self, name):
        self.parse_without_yaml_load(bundled_experiment_text(name))

    @settings(max_examples=20, deadline=None)
    @given(decoy_file())
    def test_decoy_files(self, text):
        self.parse_without_yaml_load(text)


def checked_route(experiment) -> PredictionReport:
    """``run_prediction`` through the public constructors, each of which
    checks its input: ``ChoiceSet``, ``compose_probabilities`` and
    ``score_against_empirical``."""
    choice_set = ChoiceSet(
        prospect_ids=experiment.prospect_ids,
        utility_factors=tuple(derive_utility_factors(experiment)),
        attractiveness_rank=experiment.attractiveness_rank,
    )
    report = compose_probabilities(choice_set)
    if experiment.empirical is not None:
        report = score_against_empirical(report, experiment.empirical)
    return report


def prediction(run, experiment) -> tuple:
    """The report of ``run(experiment)``, its values and their types, or the error."""
    try:
        report = run(experiment)
    except QChoiceError as exc:
        return type(exc).__name__, str(exc)
    return repr(report), repr(report.probabilities), repr(report.abs_errors)


class TestUncheckedRunMatchesTheCheckedRoute:
    """``run_prediction`` builds its choice set and scores unchecked; over
    files the reader accepts, that changes nothing, and the same file built
    by hand (``dataclasses.replace``) predicts the same."""

    @staticmethod
    def assert_same(text: str) -> None:
        try:
            exp = parse_experiment(text)
        except ExperimentFormatError:
            return
        expected = prediction(checked_route, exp)
        assert prediction(run_prediction, exp) == expected
        assert prediction(run_prediction, dataclasses.replace(exp)) == expected

    @settings(max_examples=150, deadline=None)
    @given(decoy_file())
    def test_decoy_files(self, text):
        self.assert_same(text)

    @settings(max_examples=150, deadline=None)
    @given(mutated_experiment())
    def test_mutated_files(self, data):
        self.assert_same(data.decode("utf-8", errors="replace"))
