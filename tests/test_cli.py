"""Problem files, command payloads, exit codes, and witness replay."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldback import EngineError, ParseError, UnknownSuite, ValidationError
from foldback.cli import (
    MAX_STATES,
    MODES,
    SUITES,
    ReportFile,
    Shared,
    cmd_check,
    cmd_consensus,
    cmd_evaluate,
    emit_report,
    loads_exact,
    main,
    parse_problem,
    probe_problem,
    render_table,
    verdict_problem,
)

F = Fraction

ANCHORED_HALF = {"kind": "anchored", "anchor": "1/2"}
HURWICZ_HALF = {"kind": "hurwicz", "alpha": "1/2"}


def evaluate_problem(**overrides):
    problem = {
        "act": ["0", "0", "1"],
        "framework": "belief-function",
        "measure": {"kind": "vacuous"},
        "operator": dict(ANCHORED_HALF),
    }
    problem.update(overrides)
    return problem


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
    | st.text() | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f\x7f", "é ✓ 𝄞 \u2028"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


def walk_no_floats(value):
    if isinstance(value, float):
        raise AssertionError(f"float leaked into a payload: {value!r}")
    if isinstance(value, dict):
        for v in value.values():
            walk_no_floats(v)
    if isinstance(value, list):
        for v in value:
            walk_no_floats(v)


class TestExactJson:
    def test_decimal_literals_are_rejected(self):
        with pytest.raises(ParseError):
            loads_exact('{"x": 0.5}')

    def test_exponent_literals_are_rejected(self):
        with pytest.raises(ParseError):
            loads_exact('{"x": 1e-3}')

    def test_non_finite_constants_are_rejected(self):
        with pytest.raises(ParseError):
            loads_exact('{"x": NaN}')

    def test_malformed_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            loads_exact("{")

    def test_integers_and_strings_pass_through(self):
        assert loads_exact('{"n": 3, "q": "1/2"}') == {"n": 3, "q": "1/2"}


class TestProblemParsing:
    def test_minimal_evaluate_problem(self):
        problem = parse_problem(evaluate_problem())
        assert problem.space.n == 3
        assert problem.act.outcomes == (F(0), F(0), F(1))

    def test_decimal_strings_are_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(evaluate_problem(act=["0.5", "1", "1"]))

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ParseError):
            parse_problem(evaluate_problem(extra=1))

    def test_states_must_match_the_act(self):
        with pytest.raises(ValidationError):
            parse_problem(evaluate_problem(states=4))

    def test_operator_is_required(self):
        raw = evaluate_problem()
        del raw["operator"]
        with pytest.raises(ParseError):
            parse_problem(raw)

    def test_unknown_operator_kind(self):
        with pytest.raises(ParseError):
            parse_problem(evaluate_problem(operator={"kind": "mystery"}))

    def test_operator_rejects_stray_fields(self):
        op = dict(ANCHORED_HALF, typo=1)
        with pytest.raises(ParseError):
            parse_problem(evaluate_problem(operator=op))

    def test_framework_must_match_the_measure_kind(self):
        raw = evaluate_problem(
            framework="possibility",
            measure={"kind": "belief-function",
                     "masses": [{"event": [0, 1, 2], "mass": "1"}]})
        with pytest.raises(ValidationError):
            parse_problem(raw)

    def test_measure_kind_fills_in_the_framework(self):
        raw = evaluate_problem()
        del raw["framework"]
        raw["measure"] = {"kind": "possibility", "grades": ["1", "1", "1"]}
        problem = parse_problem(raw)
        assert problem.framework.value == "possibility"

    def test_all_rule_kinds_parse(self):
        for operator in (
                ANCHORED_HALF, HURWICZ_HALF, {"kind": "min"}, {"kind": "max"},
                {"kind": "median"},
                {"kind": "tabulated", "entries": [["0", "1", "1/2"]]}):
            parse_problem(evaluate_problem(operator=dict(operator)))

    def test_operator_flags_parse(self):
        op = dict(ANCHORED_HALF)
        op["probabilistic-rule"] = False
        op["credal-extension"] = True
        problem = parse_problem(evaluate_problem(operator=op))
        assert not problem.operator.probabilistic_rule
        assert problem.operator.credal_extension

    def test_max_states_expands_to_sizes(self):
        raw = {"operator": dict(ANCHORED_HALF), "suite": "sequential",
               "max-states": 4}
        assert parse_problem(raw).sizes == (2, 3, 4)

    def test_sizes_and_max_states_conflict(self):
        raw = {"operator": dict(ANCHORED_HALF), "suite": "sequential",
               "max-states": 4, "sizes": [2]}
        with pytest.raises(ValidationError):
            parse_problem(raw)

    def test_partition_needs_a_space(self):
        raw = {"operator": dict(ANCHORED_HALF), "partition": [[0], [1]]}
        with pytest.raises(ValidationError):
            parse_problem(raw)

    @pytest.mark.parametrize("block", [4, True, None, "01", {"0": 1}])
    def test_partition_blocks_must_be_lists(self, block):
        raw = {"operator": dict(ANCHORED_HALF), "act": ["0", "1"], "partition": [block]}
        with pytest.raises(ParseError, match=r"partition\[0\]"):
            parse_problem(raw)


class TestEvaluateCommand:
    def test_ignorant_bet_value(self):
        report = cmd_evaluate(parse_problem(evaluate_problem()))
        assert report.payload["ce"] == "1/2"
        assert report.payload["summary"]["violations"] == 0
        assert report.exit_code == 0

    def test_constant_act_under_a_probability(self):
        raw = {
            "act": ["3/4", "3/4"],
            "measure": {"kind": "probability", "weights": ["1/3", "2/3"]},
            "operator": dict(ANCHORED_HALF),
        }
        report = cmd_evaluate(parse_problem(raw))
        assert report.payload["ce"] == "3/4"

    def test_partition_adds_the_folded_value(self):
        raw = evaluate_problem(operator=dict(HURWICZ_HALF),
                               partition=[[0], [1, 2]])
        report = cmd_evaluate(parse_problem(raw))
        assert report.payload["ce"] == "1/2"
        assert report.payload["folded"] == "1/4"
        assert report.payload["holds"] is False
        assert report.payload["summary"]["violations"] == 1
        assert report.exit_code == 1

    def test_consistent_fold_exits_zero(self):
        raw = evaluate_problem(partition=[[0], [1, 2]])
        report = cmd_evaluate(parse_problem(raw))
        assert report.payload["holds"] is True
        assert report.exit_code == 0

    def test_problem_echo_replays_to_the_same_value(self):
        report = cmd_evaluate(parse_problem(evaluate_problem()))
        echoed = cmd_evaluate(parse_problem(report.payload["problem"]))
        assert echoed.payload["ce"] == report.payload["ce"]

    def test_echo_resolves_the_vacuous_measure(self):
        report = cmd_evaluate(parse_problem(evaluate_problem()))
        measure = report.payload["problem"]["measure"]
        assert measure == {
            "kind": "belief-function",
            "masses": [{"event": [0, 1, 2], "mass": "1"}]}

    def test_payload_contains_no_floats(self):
        raw = evaluate_problem(operator=dict(HURWICZ_HALF),
                               partition=[[0], [1, 2]])
        walk_no_floats(cmd_evaluate(parse_problem(raw)).payload)

    def test_missing_act_is_rejected(self):
        raw = {"operator": dict(ANCHORED_HALF)}
        with pytest.raises(ValidationError):
            cmd_evaluate(parse_problem(raw))


class TestCheckCommand:
    def test_pair_rule_laws_pass_for_the_clamp(self):
        raw = {"operator": dict(ANCHORED_HALF), "suite": "gamma-laws",
               "grid-denominator": 8}
        report = cmd_check(parse_problem(raw))
        assert report.exit_code == 0
        assert all(r["passed"] for r in report.payload["reports"])

    def test_pair_rule_laws_fail_for_the_interpolator(self):
        raw = {"operator": dict(HURWICZ_HALF), "suite": "gamma-laws",
               "grid-denominator": 4}
        report = cmd_check(parse_problem(raw))
        assert report.exit_code == 1
        assert report.payload["summary"]["violations"] > 0
        assert report.payload["problem"]["grid-denominator"] == 4

    def test_median_is_not_a_pair_rule(self):
        raw = {"operator": {"kind": "median"}, "suite": "gamma-laws"}
        with pytest.raises(ValidationError):
            cmd_check(parse_problem(raw))

    def test_median_fails_the_range_property(self):
        raw = {"operator": {"kind": "median"}, "suite": "ev-properties"}
        report = cmd_check(parse_problem(raw))
        assert report.exit_code == 1
        by_law = {r["law"]: r for r in report.payload["reports"]}
        assert by_law["Unanimity"]["passed"]
        assert not by_law["Range"]["passed"]

    def test_sequential_suite_passes_for_the_clamp(self):
        raw = {"operator": dict(ANCHORED_HALF), "suite": "sequential",
               "sizes": [2, 3]}
        report = cmd_check(parse_problem(raw))
        assert report.exit_code == 0
        assert report.payload["failures"] == []

    def test_sequential_suite_records_the_first_failure(self):
        raw = {"operator": dict(HURWICZ_HALF), "suite": "sequential",
               "sizes": [2, 3], "stop-at-first": True}
        report = cmd_check(parse_problem(raw))
        assert report.exit_code == 1
        first = report.payload["failures"][0]
        assert first["act"] == ["0", "0", "1/4"]
        assert first["partition"] == [[0, 2], [1]]
        assert first["direct"] == "1/8"
        assert first["folded"] == "1/16"
        assert first["framework"] == "credal-set"

    def test_set_order_suite_flags_strong_independence(self):
        raw = {"operator": dict(HURWICZ_HALF), "suite": "set-order",
               "grid-denominator": 4, "family-max-size": 2}
        report = cmd_check(parse_problem(raw))
        assert report.exit_code == 1
        by_law = {r["law"]: r for r in report.payload["reports"]}
        assert by_law["ConditionI"]["passed"]
        assert not by_law["ConditionSI"]["passed"]
        assert report.payload["problem"]["family-max-size"] == 2

    def test_unknown_suite_is_an_error(self):
        raw = {"operator": dict(ANCHORED_HALF), "suite": "nonsense"}
        with pytest.raises(UnknownSuite):
            cmd_check(parse_problem(raw))


class TestConsensusCommand:
    def test_default_mode_compares_frameworks(self):
        raw = {"act": ["0", "0", "1"], "operator": dict(ANCHORED_HALF)}
        report = cmd_consensus(parse_problem(raw))
        assert report.exit_code == 0
        assert report.payload["agree"] is True
        assert report.payload["values"] == {
            "credal-set": "1/2", "belief-function": "1/2", "possibility": "1/2"}

    def test_certainty_mode_reads_the_state(self):
        raw = {"act": ["0", "1/2", "1"], "operator": dict(ANCHORED_HALF),
               "mode": "certainty", "state": 1}
        report = cmd_consensus(parse_problem(raw))
        assert report.payload["values"]["credal-set"] == "1/2"
        assert report.exit_code == 0

    def test_certainty_mode_needs_a_state(self):
        raw = {"act": ["0", "1"], "operator": dict(ANCHORED_HALF),
               "mode": "certainty"}
        with pytest.raises(ValidationError):
            cmd_consensus(parse_problem(raw))

    def test_limit_mode_defaults(self):
        raw = {"act": ["0", "0", "1"], "operator": dict(ANCHORED_HALF),
               "mode": "limit"}
        report = cmd_consensus(parse_problem(raw))
        assert report.exit_code == 0
        assert report.payload["base"] == ["1/3", "1/3", "1/3"]
        assert [row["epsilon"] for row in report.payload["rows"]] == \
            ["1", "1/2", "1/4"]
        assert report.payload["limit-value"] == "1/2"
        assert report.payload["bound-satisfied"] is True

    def test_limit_mode_full_weight_row(self):
        raw = {"act": ["0", "0", "1"], "operator": dict(ANCHORED_HALF),
               "mode": "limit", "epsilons": ["1"]}
        report = cmd_consensus(parse_problem(raw))
        row = report.payload["rows"][0]
        assert (row["lower"], row["upper"]) == ("0", "1")
        assert row["value"] == "1/2"


class TestReportRoundTrip:
    def test_emission_parses_back_to_the_payload(self):
        reports = [
            cmd_evaluate(parse_problem(evaluate_problem())),
            cmd_check(parse_problem(
                {"operator": dict(HURWICZ_HALF), "suite": "gamma-laws",
                 "grid-denominator": 4})),
            cmd_consensus(parse_problem(
                {"act": ["0", "1"], "operator": dict(ANCHORED_HALF),
                 "mode": "limit"})),
        ]
        for report in reports:
            assert loads_exact(emit_report(report)) == report.payload
            walk_no_floats(report.payload)

    def test_emission_is_deterministic(self):
        one = emit_report(cmd_evaluate(parse_problem(evaluate_problem())))
        two = emit_report(cmd_evaluate(parse_problem(evaluate_problem())))
        assert one == two

    @settings(max_examples=200)
    @given(JSON_TREES)
    def test_emission_is_json_dumps_with_indent_2(self, tree):
        payload = {"tree": tree, "empty-list": [], "empty-object": {}}
        assert emit_report(ReportFile(payload, 0)) == json.dumps(payload, indent=2)
        assert emit_report(ReportFile(tree, 0)) == json.dumps(tree, indent=2)

    @settings(max_examples=100)
    @given(st.lists(JSON_TREES, max_size=4), JSON_TREES)
    @example(["0", [1, 2]], None)
    def test_shared_lists_are_written_as_json_dumps_writes_them(self, items, tree):
        # one shared list at three indents, twice at each, around any tree
        shared = Shared(items)
        payload = {"a": shared, "b": [shared, {"c": shared}], "tree": tree,
                   "d": [[shared], {"e": [shared]}], "f": shared}
        assert emit_report(ReportFile(payload, 0)) == json.dumps(payload, indent=2)
        assert loads_exact(emit_report(ReportFile(payload, 0))) == payload
        nested = Shared([shared, Shared(), items])
        payload = [nested, {"g": nested}, shared]
        assert emit_report(ReportFile(payload, 0)) == json.dumps(payload, indent=2)

    def test_sweep_failures_share_their_act_and_partition(self):
        report = cmd_check(parse_problem(
            {"operator": dict(HURWICZ_HALF), "suite": "sequential", "sizes": [3],
             "grid-denominator": 2}))
        failures = report.payload["failures"]
        assert failures[0]["act"] == ["0", "0", "1/2"]
        first = [f for f in failures if f["act"] == failures[0]["act"]]
        # one record per framework of the same cell, holding the same lists
        assert len({id(f["act"]) for f in first}) == 1
        assert len({id(f["partition"]) for f in first[:3]}) == 1
        assert emit_report(report) == json.dumps(report.payload, indent=2)

    @pytest.mark.parametrize("value", [F(1, 2), 0.5, (1, 2), {1: "one"}],
                             ids=["fraction", "float", "tuple", "int-key"])
    def test_emission_refuses_types_reports_never_hold(self, value):
        with pytest.raises(TypeError):
            emit_report(ReportFile({"value": [value]}, 0))

    def test_table_rendering_flattens_key_paths(self):
        report = cmd_evaluate(parse_problem(evaluate_problem()))
        text = render_table(report.payload)
        assert "ce: 1/2" in text
        assert "problem.operator.kind: anchored" in text


class TestWitnessReplay:
    def test_law_witnesses_replay_through_evaluate(self):
        raw = {"operator": dict(HURWICZ_HALF), "suite": "gamma-laws",
               "grid-denominator": 4}
        report = cmd_check(parse_problem(raw))
        operator = report.payload["problem"]["operator"]
        replayed = 0
        for law_report in report.payload["reports"]:
            for witness in law_report["witnesses"]:
                for side, value in (("probe-left", witness["left"]),
                                    ("probe-right", witness["right"])):
                    problem = probe_problem(witness[side], operator)
                    echoed = cmd_evaluate(parse_problem(problem))
                    assert echoed.payload["ce"] == value
                    replayed += 1
        assert replayed > 0

    def test_sequential_failures_replay_through_evaluate(self):
        raw = {"operator": dict(HURWICZ_HALF), "suite": "sequential",
               "sizes": [2, 3], "stop-at-first": True}
        report = cmd_check(parse_problem(raw))
        operator = report.payload["problem"]["operator"]
        for failure in report.payload["failures"]:
            problem = verdict_problem(failure, operator)
            echoed = cmd_evaluate(parse_problem(problem))
            assert echoed.payload["ce"] == failure["direct"]
            assert echoed.payload["folded"] == failure["folded"]
            assert echoed.exit_code == 1


class TestMain:
    def write_problem(self, tmp_path, payload):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_evaluate_success(self, tmp_path, capsys):
        path = self.write_problem(tmp_path, evaluate_problem())
        assert main(["evaluate", "--problem", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ce"] == "1/2"

    def test_violation_exit_code(self, tmp_path, capsys):
        raw = evaluate_problem(operator=dict(HURWICZ_HALF),
                               partition=[[0], [1, 2]])
        path = self.write_problem(tmp_path, raw)
        assert main(["evaluate", "--problem", path]) == 1
        assert json.loads(capsys.readouterr().out)["holds"] is False

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["evaluate", "--problem", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_decimal_in_file_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"act": [0.5], "operator": {"kind": "min"}}')
        assert main(["evaluate", "--problem", str(path)]) == 2
        assert "decimal" in capsys.readouterr().err

    def test_check_suite_flag_overrides(self, tmp_path, capsys):
        path = self.write_problem(tmp_path, {"operator": dict(ANCHORED_HALF)})
        code = main(["check", "--problem", path, "--suite", "gamma-laws",
                     "--grid-denominator", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"]["suite"] == "gamma-laws"

    def test_consensus_epsilon_list_flag(self, tmp_path, capsys):
        path = self.write_problem(
            tmp_path, {"act": ["0", "0", "1"], "operator": dict(ANCHORED_HALF)})
        code = main(["consensus", "--problem", path,
                     "--epsilon-list", "1,1/2,1/4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "limit"
        assert [row["epsilon"] for row in payload["rows"]] == ["1", "1/2", "1/4"]

    @pytest.mark.parametrize("mode", ["consensus", "certainty"])
    def test_epsilon_list_refused_outside_limit_mode(self, tmp_path, capsys, mode):
        path = self.write_problem(
            tmp_path, {"act": ["0", "0", "1"], "operator": dict(ANCHORED_HALF),
                       "mode": mode, "state": 0})
        code = main(["consensus", "--problem", path, "--epsilon-list", "1,1/2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--epsilon-list" in captured.err

    def test_certainty_mode_above_twelve_states(self, tmp_path, capsys):
        act = ["0", "1/2", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1/4"]
        path = self.write_problem(
            tmp_path, {"act": act, "operator": dict(HURWICZ_HALF),
                       "mode": "certainty", "state": 2})
        assert main(["consensus", "--problem", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["agree"] is True
        assert payload["values"] == {
            "credal-set": "1", "belief-function": "1", "possibility": "1"}

    def test_table_format(self, tmp_path, capsys):
        path = self.write_problem(tmp_path, evaluate_problem())
        assert main(["evaluate", "--problem", path, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "ce: 1/2" in out
        assert not out.lstrip().startswith("{")

    def test_stop_at_first_flag(self, tmp_path, capsys):
        path = self.write_problem(
            tmp_path, {"operator": dict(HURWICZ_HALF), "suite": "sequential",
                       "sizes": [2, 3]})
        assert main(["check", "--problem", path, "--stop-at-first"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["failures"]) == 1

    @pytest.mark.parametrize("suite", ["gamma-laws", "ev-properties", "set-order"])
    def test_stop_at_first_refused_for_law_suites(self, tmp_path, capsys, suite):
        path = self.write_problem(
            tmp_path, {"operator": dict(HURWICZ_HALF), "suite": suite,
                       "grid-denominator": 4})
        assert main(["check", "--problem", path, "--stop-at-first"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stop-at-first" in captured.err

    @pytest.mark.parametrize("suite", ["gamma-laws", "ev-properties", "set-order"])
    @pytest.mark.parametrize("sizes", [{"sizes": [2, 3]}, {"max-states": 3}, "--max-states"],
                             ids=["sizes", "max-states", "flag"])
    def test_sizes_refused_for_law_suites(self, tmp_path, capsys, suite, sizes):
        raw = {"operator": dict(HURWICZ_HALF), "suite": suite, "grid-denominator": 4}
        flags = ["--max-states", "3"] if sizes == "--max-states" else []
        if not flags:
            raw.update(sizes)
        path = self.write_problem(tmp_path, raw)
        assert main(["check", "--problem", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max-states" in captured.err

    @pytest.mark.parametrize("mode", ["consensus", "certainty"])
    @pytest.mark.parametrize("key,value", [("epsilons", ["1", "1/2"]),
                                           ("base", ["1/3", "1/3", "1/3"])])
    def test_limit_options_refused_outside_limit_mode(self, tmp_path, capsys, mode,
                                                      key, value):
        path = self.write_problem(
            tmp_path, {"act": ["0", "0", "1"], "operator": dict(ANCHORED_HALF),
                       "mode": mode, "state": 0, key: value})
        assert main(["consensus", "--problem", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    @pytest.mark.parametrize("states", [MAX_STATES + 1, 10 ** 6, 10 ** 9])
    def test_states_above_the_bound_are_refused(self, tmp_path, capsys, states):
        path = self.write_problem(
            tmp_path, {"states": states, "framework": "possibility",
                       "operator": {"kind": "min"}})
        assert main(["evaluate", "--problem", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"states must be at most {MAX_STATES}" in captured.err

    def test_states_at_the_bound_parse(self):
        problem = parse_problem({"states": MAX_STATES, "framework": "possibility",
                                 "operator": {"kind": "min"}})
        assert problem.space.n == MAX_STATES

    @pytest.mark.parametrize("verb", ["evaluate", "consensus"])
    def test_stop_at_first_refused_for_evaluate_and_consensus(self, tmp_path, capsys, verb):
        path = self.write_problem(tmp_path, evaluate_problem())
        assert main([verb, "--problem", path, "--stop-at-first"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stop-at-first" in captured.err


# -- arbitrary problems ----------------------------------------------------

UNIT_TEXTS = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4"])
# out of range or malformed
BAD_RATIONALS = st.sampled_from(["-1/2", "3/2", "1/0", "0.5", " 1", "", 2, -1, None])
RATIONALS = UNIT_TEXTS | BAD_RATIONALS
# keys of the problem's nested records, so arbitrary trees reach their parsers
RECORD_KEYS = st.sampled_from(
    ["kind", "anchor", "alpha", "entries", "probabilistic-rule", "credal-extension",
     "weights", "generators", "masses", "event", "mass", "grades"])
TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 7) | RATIONALS
    | st.sampled_from(["vacuous", "min", "sequential", "limit"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(RECORD_KEYS, inner, max_size=3), max_leaves=8)
FLAGS = {"probabilistic-rule": st.booleans(), "credal-extension": st.booleans()}


def _operator(kind, **fields):
    return st.fixed_dictionaries({"kind": st.just(kind), **fields}, optional=FLAGS)


OPERATORS = st.one_of(
    _operator("anchored", anchor=UNIT_TEXTS), _operator("hurwicz", alpha=UNIT_TEXTS),
    _operator("min"), _operator("max"), _operator("median"),
    _operator("tabulated", entries=st.lists(
        st.lists(UNIT_TEXTS, min_size=3, max_size=3), max_size=6)),
    st.fixed_dictionaries({}, optional={
        "kind": TREES, "anchor": RATIONALS, "alpha": RATIONALS, "entries": TREES, **FLAGS}))


def _likely():
    return st.sampled_from([True, True, True, False])


@st.composite
def problems(draw):
    """A problem on at most 6 states with bounded sweeps.

    Any key of a problem file may appear, its value mostly well formed
    and consistent with the others; one of them may hold an arbitrary
    tree instead.
    """
    n = draw(st.integers(1, 6))
    vectors = (st.lists(UNIT_TEXTS, min_size=n, max_size=n)
               | st.lists(RATIONALS, max_size=6))
    states = st.lists(st.integers(-1, 6), max_size=4)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    measures = st.one_of(
        st.just({"kind": "vacuous"}),
        st.fixed_dictionaries({"kind": st.just("probability"), "weights": vectors}),
        st.fixed_dictionaries({"kind": st.just("credal-set")},
                              optional={"generators": st.lists(vectors, max_size=3)}),
        st.fixed_dictionaries({"kind": st.just("belief-function"), "masses": st.lists(
            st.fixed_dictionaries({"event": states, "mass": RATIONALS}), max_size=3)}),
        st.fixed_dictionaries({"kind": st.just("possibility"), "grades": vectors}))
    fields = {
        "states": st.sampled_from([n, 0, n + 1]),
        "act": vectors,
        "partition": st.just([[s for s in range(n) if labels[s] == b]
                              for b in sorted(set(labels))]) | st.lists(states, max_size=4),
        "framework": st.sampled_from(
            ["credal-set", "belief-function", "possibility", "probability", "bogus"]),
        "measure": measures,
        "operator": OPERATORS,
        "suite": st.sampled_from(SUITES + ("bogus",)),
        "grid-denominator": st.integers(-1, 4),
        "sizes": st.lists(st.integers(-1, 3), max_size=3),
        "max-states": st.integers(-1, 3),
        "stop-at-first": st.booleans(),
        "mode": st.sampled_from(MODES + ("bogus",)),
        "state": st.integers(-1, n),
        "epsilons": st.lists(RATIONALS, max_size=3),
        "base": vectors,
        "family-max-size": st.integers(-1, 3),
    }
    keys = draw(st.sets(st.sampled_from(sorted(fields))))
    keys |= {key for key in ("operator", "act", "suite") if draw(_likely())}
    problem = {key: draw(fields[key]) for key in sorted(keys)}
    if problem and not draw(_likely()):
        problem[draw(st.sampled_from(sorted(problem)))] = draw(TREES)
    return problem


class TestArbitraryProblems:
    @settings(max_examples=300, deadline=None)
    @given(problems() | TREES)
    def test_every_problem_ends_in_a_report_or_an_engine_error(self, raw):
        try:
            problem = parse_problem(raw)
        except EngineError:
            return
        for verb in (cmd_evaluate, cmd_check, cmd_consensus):
            try:
                report = verb(problem)
            except EngineError:
                continue
            assert isinstance(report, ReportFile)
            assert loads_exact(emit_report(report)) == report.payload
