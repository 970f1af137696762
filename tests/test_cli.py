"""Problem files, command payloads, exit codes, and witness replay."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_same_text, probe_record, reference_payload, reference_text
from foldback import (
    Anchored,
    CapExceeded,
    ContaminationFamily,
    EngineError,
    Framework,
    ParseError,
    StateSpace,
    UnknownSuite,
    ValidationError,
    enumerate_partitions,
    limit_check,
    tabulate,
)
from foldback import cli
from foldback.cli import (
    MODES,
    RUNS,
    SUITES,
    Records,
    ReportFile,
    _RULES,
    _write_rows,
    _write_cells,
    _write_witnesses,
    cmd_check,
    cmd_consensus,
    cmd_evaluate,
    emit_report,
    encode_rule,
    loads_exact,
    main,
    parse_problem,
    probe_problem,
    verdict_problem,
)
from foldback.consistency import MAX_WORK, Probe, Witness
from foldback.rationals import format_rational

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


TEXTS = st.text(max_size=4) | st.sampled_from(["", "\"", "\\", "\n\x1f", "é 𝄞 \u2028"])


def equal_copy(value):
    """An equal copy of a record's value, made of distinct objects wherever
    Python makes them (strings of two or more characters, and lists)."""
    if isinstance(value, dict):
        return {key: equal_copy(item) for key, item in value.items()}
    if isinstance(value, list):
        return [equal_copy(item) for item in value]
    if isinstance(value, str):
        return value[:1] + value[1:]
    return value


def cells(frameworks, items=()):
    """A list of sweep cells, written once for each of `frameworks`."""
    return Records(partial(_write_cells, frameworks=frameworks), items)


@st.composite
def cell_records(draw):
    """Sweep-cell-shaped records, written for one to three framework
    names: cells drawn from a few shared acts, partitions and values, each
    holding them or equal copies of them, as cells that were encoded apart
    would, and the first framework's name as `encode_verdict` writes it."""
    acts = draw(st.lists(st.lists(TEXTS, max_size=3), min_size=1, max_size=3))
    partitions = draw(st.lists(st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=3),
                               min_size=1, max_size=3))
    values = draw(st.lists(TEXTS, min_size=1, max_size=3))
    frameworks = draw(st.lists(TEXTS, min_size=1, max_size=3))
    records = cells(frameworks)
    for _ in range(draw(st.integers(0, 5))):
        copy = equal_copy if draw(st.booleans()) else dict
        records.append(copy({"act": draw(st.sampled_from(acts)),
                             "partition": draw(st.sampled_from(partitions)),
                             "direct": draw(st.sampled_from(values)),
                             "folded": draw(st.sampled_from(values)),
                             "holds": draw(st.booleans()), "framework": frameworks[0]}))
    return records


CELL = {"act": ["0", "1/2"], "partition": [[0], [1]], "direct": "1/2", "folded": "1/4",
        "holds": False, "framework": "credal-set"}


@st.composite
def witness_records(draw):
    """Law-report-shaped `Witness`es: values drawn from a few shared
    fractions, equal ones among them, and probes from a few shared
    probes built of them, so that witnesses share both."""
    values = draw(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=3))
    value = st.sampled_from(values)
    probes = draw(st.lists(st.builds(
        Probe, st.lists(value, max_size=3).map(tuple), st.sampled_from(Framework),
        st.none() | st.lists(value, max_size=3).map(tuple)), min_size=1, max_size=3))
    probe = st.sampled_from(probes)
    return Records(_write_witnesses, [
        Witness(tuple(draw(st.lists(TEXTS, max_size=4))), draw(value), draw(value),
                draw(probe), draw(probe))
        for _ in range(draw(st.integers(0, 6)))])


@st.composite
def table_rows(draw):
    """Table-shaped rows: mostly [x, y, value] from a few shared strings,
    some of other lengths, the empty row among them."""
    cells = st.sampled_from(draw(st.lists(TEXTS, min_size=1, max_size=4)))
    return Records(_write_rows, draw(st.lists(
        st.lists(cells, min_size=3, max_size=3) | st.lists(TEXTS, max_size=4), max_size=6)))


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

    @pytest.mark.parametrize("text,message", [
        # the decoder closes the inner object first, so its repeat is named
        ('{"a": {"b": 1, "b": 2}, "a": 3}', "a: an object repeats the key 'b'"),
        ('[{"x": 1, "x": 2}]', "problem[0]: an object repeats the key 'x'"),
        ('{"a": [[{"k": 1, "k": 2}]]}', "a[0][0]: an object repeats the key 'k'"),
        ('{"a": {"b": 1, "b": 2}, "c": 0.5}', "a: an object repeats the key 'b'"),
        # text past the repeat that does not decode leaves the key without a path
        ('{"a": {"b": 1, "b": 2}, "c": [', "an object repeats the key 'b'"),
    ], ids=["inner-first", "top-level-list", "nested-lists", "decimal-after", "malformed-after"])
    def test_a_repeated_key_is_named_by_its_path(self, text, message):
        with pytest.raises(ParseError) as caught:
            loads_exact(text)
        assert str(caught.value) == message


class TestProblemParsing:
    def test_minimal_evaluate_problem(self):
        problem = parse_problem(evaluate_problem())
        assert problem["act"].space.n == 3
        assert problem["act"].outcomes == (F(0), F(0), F(1))

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
        assert problem["measure"].framework.value == "possibility"

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
        assert not problem["operator"].probabilistic_rule
        assert problem["operator"].credal_extension

    # `sizes` is the one spelling of the sweep's state counts, so the
    # key that restated it is unknown, with or without `sizes` beside it
    @pytest.mark.parametrize("sizes", [{}, {"sizes": [2]}], ids=["alone", "with-sizes"])
    def test_max_states_is_an_unknown_field(self, sizes):
        raw = {"operator": dict(ANCHORED_HALF), "suite": "sequential",
               "max-states": 4, **sizes}
        with pytest.raises(ParseError) as caught:
            parse_problem(raw)
        assert str(caught.value) == "problem: unknown fields ['max-states']"

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

    @pytest.mark.parametrize("partition", [None, [[0], [1, 2]]], ids=["whole", "folded"])
    @pytest.mark.parametrize("measure", [
        {"kind": "vacuous"},
        {"kind": "probability", "weights": ["1/4", "1/4", "1/2"]},
        {"kind": "credal-set", "generators": [["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"]]},
        {"kind": "belief-function", "masses": [
            {"event": [0], "mass": "1/3"}, {"event": [1, 2], "mass": "1/3"},
            {"event": [0, 1, 2], "mass": "1/3"}]},
        {"kind": "possibility", "grades": ["1", "1/2", "1/4"]},
    ], ids=lambda measure: measure["kind"])
    def test_problem_echo_replays_to_the_same_report(self, measure, partition):
        raw = {"act": ["0", "1/2", "1"], "measure": measure,
               "operator": dict(HURWICZ_HALF, **{"credal-extension": True})}
        if partition is not None:
            raw["partition"] = partition
        text = emit_report(cmd_evaluate(parse_problem(raw)))
        echo = loads_exact(text)["problem"]
        assert_same_text(emit_report(cmd_evaluate(parse_problem(echo))), text)

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
            assert loads_exact(emit_report(report)) == reference_payload(report.payload)
            walk_no_floats(report.payload)

    def test_emission_is_deterministic(self):
        one = emit_report(cmd_evaluate(parse_problem(evaluate_problem())))
        two = emit_report(cmd_evaluate(parse_problem(evaluate_problem())))
        assert one == two

    @settings(max_examples=200)
    @given(JSON_TREES)
    def test_emission_is_json_dumps_with_indent_2(self, tree):
        payload = {"tree": tree, "empty-list": [], "empty-object": {}}
        assert_same_text(emit_report(ReportFile(payload, 0)), json.dumps(payload, indent=2))
        assert_same_text(emit_report(ReportFile(tree, 0)), json.dumps(tree, indent=2))

    @settings(max_examples=150)
    @given(cell_records(), JSON_TREES)
    @example(cells(["credal-set"]), [])
    # equal cells that share no list or string of two or more characters
    @example(cells(["credal-set", "possibility", "x"], [equal_copy(CELL) for _ in range(2)]),
             [])
    def test_cell_records_are_written_as_json_dumps_writes_them_per_framework(self, records,
                                                                             tree):
        # one list of cells at four indents, once as a plain list, inside any
        # tree; the reference writes each cell as one record per framework
        payload = {"failures": records, "tree": [tree, {"deeper": records}],
                   "loose": list(records), "nested": [records, {"again": [records]}],
                   "last": records}
        assert_same_text(emit_report(ReportFile(payload, 0)), reference_text(payload))
        assert_same_text(emit_report(ReportFile(records, 0)), reference_text(records))
        assert loads_exact(emit_report(ReportFile(payload, 0))) == reference_payload(payload)

    @settings(max_examples=150)
    @given(witness_records(), JSON_TREES)
    @example(Records(_write_witnesses), [])
    def test_witness_records_are_written_as_json_dumps_writes_them(self, records, tree):
        # two law reports holding the same witnesses, and the witnesses at
        # four more indents, once in a second list, inside any tree
        payload = {"reports": [{"law": "L", "witnesses": records}, {"witnesses": records}],
                   "tree": [tree, {"deeper": records}],
                   "copy": Records(_write_witnesses, records),
                   "nested": [records, {"again": [records]}], "last": records}
        assert_same_text(emit_report(ReportFile(payload, 0)), reference_text(payload))
        assert_same_text(emit_report(ReportFile(records, 0)), reference_text(records))
        assert loads_exact(emit_report(ReportFile(payload, 0))) == reference_payload(payload)

    @settings(max_examples=150)
    @given(table_rows(), JSON_TREES)
    @example(Records(_write_rows), [])
    @example(Records(_write_rows, [[]]), [])
    def test_table_rows_are_written_as_json_dumps_writes_them(self, rows, tree):
        payload = {"operator": {"kind": "tabulated", "entries": rows},
                   "tree": [tree, {"deeper": rows}], "loose": list(rows),
                   "nested": [rows, {"again": [rows]}], "last": rows}
        assert_same_text(emit_report(ReportFile(payload, 0)), json.dumps(payload, indent=2))
        assert_same_text(emit_report(ReportFile(rows, 0)), json.dumps(rows, indent=2))
        assert loads_exact(emit_report(ReportFile(payload, 0))) == payload

    def test_an_echoed_table_is_written_as_json_dumps_writes_it(self):
        entries = encode_rule(tabulate(Anchored(F(1, 3)), 8))["entries"]
        assert type(entries) is Records and len(entries) == 45
        report = cmd_evaluate(parse_problem(evaluate_problem(
            operator={"kind": "tabulated", "entries": entries})))
        assert report.payload["problem"]["operator"]["entries"] == entries
        assert_same_text(emit_report(report), json.dumps(report.payload, indent=2))

    @pytest.mark.parametrize("stop_at_first", [True, False])
    def test_sweep_reports_are_written_as_json_dumps_writes_them(self, stop_at_first):
        report = cmd_check(parse_problem(
            {"operator": dict(HURWICZ_HALF), "suite": "sequential", "sizes": [2, 3],
             "grid-denominator": 2, "stop-at-first": stop_at_first}))
        failures = report.payload["failures"]
        violations = report.payload["summary"]["violations"]
        # one record per failing cell, written once per framework
        assert len(failures) == (1 if stop_at_first else violations // 3)
        for record in failures:
            assert list(record) == ["act", "partition", "direct", "folded", "holds",
                                    "framework"]
        text = emit_report(report)
        assert_same_text(text, reference_text(report.payload))
        assert len(json.loads(text)["failures"]) == violations

    def test_sweep_cells_of_one_act_share_its_act_list(self):
        report = cmd_check(parse_problem(
            {"operator": dict(HURWICZ_HALF), "suite": "sequential", "sizes": [3],
             "grid-denominator": 2}))
        failures = report.payload["failures"]
        assert failures[0]["act"] == ["0", "0", "1/2"]
        first = [f for f in failures if f["act"] == failures[0]["act"]]
        # the act's cells, one per partition, hold one act list
        assert len(first) == len({json.dumps(f["partition"]) for f in first}) > 1
        assert len({id(f["act"]) for f in first}) == 1
        # and the cells of one partition hold one partition list
        assert len({id(f["partition"]) for f in failures}) == \
            len({json.dumps(f["partition"]) for f in failures})
        assert_same_text(emit_report(report), reference_text(report.payload))

    def test_a_sweep_cell_is_one_payload_record_written_once_per_framework(self):
        report = cmd_check(parse_problem(
            {"operator": dict(HURWICZ_HALF), "suite": "sequential", "sizes": [3],
             "grid-denominator": 2}))
        failures = report.payload["failures"]
        assert 3 * len(failures) == report.payload["summary"]["violations"]
        # consecutive cells differ in their partition or their act
        for one, two in zip(failures, failures[1:]):
            assert (one["act"], one["partition"]) != (two["act"], two["partition"])
        written = json.loads(emit_report(report))["failures"]
        assert len(written) == 3 * len(failures)
        for k, cell in enumerate(failures):
            # the cell's record is its first framework's; each framework's
            # record differs from it in `framework` alone
            assert cell["framework"] == "credal-set"
            records = written[3 * k:3 * k + 3]
            assert [record["framework"] for record in records] == \
                ["credal-set", "belief-function", "possibility"]
            for record in records:
                assert dict(record, framework="credal-set") == cell

    def test_law_witnesses_share_their_probes_and_values(self, monkeypatch):
        report = cmd_check(parse_problem(
            {"operator": {"kind": "median"}, "suite": "set-order", "grid-denominator": 4}))
        witnesses = [w for r in report.payload["reports"] for w in r["witnesses"]]
        assert len(witnesses) == report.payload["summary"]["violations"] == 277
        probes = [p for w in witnesses for p in (w.probe_left, w.probe_right)]
        values = [v for w in witnesses for v in (w.left, w.right)]
        # one object per distinct probe and per distinct value, across the
        # three laws of the report
        assert len({id(p) for p in probes}) == len({json.dumps(probe_record(p))
                                                    for p in probes}) == 29
        assert len({id(v) for v in values}) == len(set(values))
        assert_same_text(count_probe_texts(monkeypatch, report, 29), reference_text(
            report.payload))

    def test_gamma_law_witnesses_share_their_grid_pair_probes(self, monkeypatch):
        report = cmd_check(parse_problem(
            {"operator": {"kind": "hurwicz", "alpha": "2/3"}, "suite": "gamma-laws",
             "grid-denominator": 16}))
        assert report.payload["summary"]["violations"] == 272
        by_pair: dict = {}
        for law in report.payload["reports"]:
            for witness in law["witnesses"]:
                by_pair.setdefault(witness.inputs[:2], []).append(witness)
        shared = [ws for ws in by_pair.values() if len(ws) == 2]
        assert shared
        for via_lower, via_upper in shared:
            # both iteration witnesses of a grid pair probe it with one object
            assert via_lower.probe_right is via_upper.probe_right
        probes = {id(p) for law in report.payload["reports"] for w in law["witnesses"]
                  for p in (w.probe_left, w.probe_right)}
        assert_same_text(count_probe_texts(monkeypatch, report, len(probes)),
                         reference_text(report.payload))

    def test_gamma_law_witnesses_share_their_level_pair_probes(self):
        report = cmd_check(parse_problem(
            {"operator": {"kind": "hurwicz", "alpha": "2/3"}, "suite": "gamma-laws",
             "grid-denominator": 16}))
        [iteration] = [law for law in report.payload["reports"]
                       if law["law"] == "GammaIteration-(iii)"]
        probes = [witness.probe_left for witness in iteration["witnesses"]]
        # the iteration law's off-grid probes, one per pair of levels: the
        # witnesses that probe one pair hold one object
        assert len(probes) == 272
        assert len({id(p) for p in probes}) == len({json.dumps(probe_record(p))
                                                    for p in probes}) == 259
        assert_same_text(emit_report(report), reference_text(report.payload))

    @pytest.mark.parametrize("value", [F(1, 2), 0.5, (1, 2), {1: "one"}],
                             ids=["fraction", "float", "tuple", "int-key"])
    def test_emission_refuses_types_reports_never_hold(self, value):
        with pytest.raises(TypeError):
            emit_report(ReportFile({"value": [value]}, 0))


def count_probe_texts(monkeypatch, report: ReportFile, calls: int) -> str:
    """The report's text, failing unless its witnesses' probes are written
    in exactly `calls` calls of `cli._probe_text`."""
    made = []
    write = cli._probe_text

    def probe_text(probe, indent, known):
        made.append(probe)
        return write(probe, indent, known)

    monkeypatch.setattr(cli, "_probe_text", probe_text)
    text = emit_report(report)
    assert len(made) == len({id(p) for p in made}) == calls
    return text


def _floored_midpoint_table(denominator: int) -> dict:
    """A table on the grid k/denominator that breaks the iteration law:
    each pair's midpoint, floored onto the grid."""
    grid = [F(k, denominator) for k in range(denominator + 1)]
    return {"kind": "tabulated", "entries": [
        [str(x), str(y), str(F(math.floor((x + y) / 2 * denominator), denominator))]
        for x in grid for y in grid if x <= y]}


CHECK_RULES = {
    "anchored": lambda d: {"kind": "anchored", "anchor": "1/3"},
    "min": lambda d: {"kind": "min"},
    "max": lambda d: {"kind": "max"},
    "hurwicz": lambda d: {"kind": "hurwicz", "alpha": "1/3"},
    "median": lambda d: {"kind": "median"},
    "tabulated": _floored_midpoint_table,
}


@pytest.mark.parametrize("denominator", [2, 3, 4])
@pytest.mark.parametrize("suite,kind", [
    (suite, kind) for suite in SUITES for kind in CHECK_RULES
    if not (suite == "gamma-laws" and kind == "median")])
def test_every_check_report_is_written_as_json_dumps_writes_it(suite, kind, denominator):
    problem = {"operator": CHECK_RULES[kind](denominator), "suite": suite,
               "grid-denominator": denominator}
    if suite == "sequential":
        problem["sizes"] = [2, 3]
    report = cmd_check(parse_problem(problem))
    assert_same_text(emit_report(report), reference_text(report.payload))


# values every pair of k/2 at 1/2, so that it breaks idempotence and
# unanimity, whose right probes are point-mass probabilities
HALF_EVERYWHERE = {"kind": "tabulated", "entries": [
    [x, y, "1/2"] for x, y in itertools.combinations_with_replacement(["0", "1/2", "1"], 2)]}


class TestWitnessReplay:
    @pytest.mark.parametrize("operator,suite,denominator,weighted", [
        (HURWICZ_HALF, "gamma-laws", 4, 0),
        (HALF_EVERYWHERE, "gamma-laws", 2, 2),
        (HALF_EVERYWHERE, "ev-properties", 2, 2),
    ], ids=["hurwicz", "table-gamma-laws", "table-ev-properties"])
    def test_law_witnesses_replay_through_evaluate(self, operator, suite, denominator,
                                                   weighted):
        raw = {"operator": dict(operator), "suite": suite, "grid-denominator": denominator}
        report = loads_exact(emit_report(cmd_check(parse_problem(raw))))
        operator = report["problem"]["operator"]
        probes = []
        for law_report in report["reports"]:
            for witness in law_report["witnesses"]:
                for side, value in (("probe-left", witness["left"]),
                                    ("probe-right", witness["right"])):
                    problem = probe_problem(witness[side], operator)
                    echoed = cmd_evaluate(parse_problem(problem))
                    assert echoed.payload["ce"] == value
                    probes.append(witness[side])
        assert probes
        assert sum("weights" in probe for probe in probes) == weighted

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

    def test_a_verdict_record_without_a_framework_is_not_replayed(self):
        # every written cell names its framework; one that does not is not
        # replayed under a framework it never named
        record = {"act": ["0", "1"], "partition": [[0], [1]], "direct": "0",
                  "folded": "0", "holds": True}
        with pytest.raises(KeyError, match="framework"):
            verdict_problem(record, dict(HURWICZ_HALF))


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

    @pytest.mark.parametrize("suite", ["gamma-laws", "ev-properties", "set-order"])
    def test_sizes_refused_for_law_suites(self, tmp_path, capsys, suite):
        path = self.write_problem(tmp_path, {"operator": dict(HURWICZ_HALF), "suite": suite,
                                             "grid-denominator": 4, "sizes": [2, 3]})
        assert main(["check", "--problem", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: check {suite} does not read sizes\n"

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

    # the state space is the act's, so a count of states alone builds nothing
    @pytest.mark.parametrize("act,message", [
        (None, "evaluate needs an act"),
        (["0", "1/2", "1"], "states=1000000000 but the act has 3 outcomes"),
    ], ids=["no-act", "three-outcomes"])
    def test_states_only_check_the_act(self, tmp_path, capsys, act, message):
        problem = {"states": 10 ** 9, "framework": "possibility",
                   "measure": {"kind": "vacuous"}, "operator": {"kind": "min"}}
        if act is not None:
            problem["act"] = act
        path = self.write_problem(tmp_path, problem)
        started = time.perf_counter()
        assert main(["evaluate", "--problem", path]) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_a_partition_needs_an_act(self):
        with pytest.raises(ValidationError, match="a partition needs an act"):
            parse_problem({"states": 10 ** 9, "partition": [[0]],
                           "operator": {"kind": "min"}})

    # one digit past the interpreter's default limit on int conversion;
    # the texts are written by hand, as json.dumps would refuse the ints
    @pytest.mark.parametrize("text,message", [
        ('{"act": ["%s/%s1"], "operator": {"kind": "min"}}' % ("9" * 4301, "9" * 4301),
         "error: act[0]: literal too long to convert: 8,604 characters"),
        ('{"act": [1%s], "operator": {"kind": "min"}}' % ("0" * 4301),
         "error: an integer literal is too long to convert"),
        ('{"states": %s, "operator": {"kind": "min"}}' % ("9" * 4301),
         "error: an integer literal is too long to convert"),
    ], ids=["rational-string", "json-integer", "states"])
    def test_oversized_literals_are_usage_errors(self, tmp_path, capsys, text, message):
        path = tmp_path / "problem.json"
        path.write_text(text)
        assert main(["evaluate", "--problem", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_deeply_nested_json_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text('{"act": %s%s, "operator": {"kind": "min"}}'
                        % ("[" * 100_000, "]" * 100_000))
        assert main(["evaluate", "--problem", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: the JSON nests too deeply to decode"]

    def test_a_result_too_long_to_write_is_a_usage_error(self, tmp_path, capsys):
        # each literal is under the limit on digits, but the expectation's
        # denominator is their product, about 5,000 digits
        big = 10 ** 2500
        path = self.write_problem(tmp_path, {
            "act": ["0", f"1/{big + 1}"],
            "measure": {"kind": "probability",
                        "weights": [f"1/{big + 3}", f"{big + 2}/{big + 3}"]},
            "operator": {"kind": "min"}})
        assert main(["evaluate", "--problem", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: a result is too long to write: its numerator or denominator has more"
            " digits than the interpreter converts to text"]

    def test_an_off_table_pair_is_a_usage_error(self, tmp_path, capsys):
        # the act's (min, max) = (0, 1/3) is off the k/2 grid of the table
        grid = ["0", "1/2", "1"]
        entries = [[x, y, y] for i, x in enumerate(grid) for y in grid[i:]]
        path = self.write_problem(tmp_path, {
            "act": ["0", "1/3"], "operator": {"kind": "tabulated", "entries": entries}})
        assert main(["evaluate", "--problem", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: pair (0, 1/3) is not tabulated"]

    def test_states_without_an_act_parse_to_no_measure(self):
        problem = parse_problem({"states": 10 ** 9, "framework": "possibility",
                                 "measure": {"kind": "vacuous"}, "operator": {"kind": "min"}})
        assert problem["states"].n == 10 ** 9
        assert problem["measure"] is None


# -- keys each run reads ---------------------------------------------------

# a problem each run accepts, small enough to run in milliseconds
RUN_PROBLEMS = {
    "evaluate": evaluate_problem(),
    **{f"check {suite}": {"operator": dict(ANCHORED_HALF), "suite": suite,
                          "grid-denominator": 2} for suite in SUITES},
    **{f"consensus {mode}": {"act": ["0", "0", "1"], "operator": dict(ANCHORED_HALF),
                             "mode": mode} for mode in MODES},
}
RUN_PROBLEMS["consensus certainty"]["state"] = 0
# a value for each problem key that parses beside any of those problems
KEY_VALUES = {
    "states": 3, "act": ["0", "0", "1"], "partition": [[0, 2], [1]],
    "framework": "credal-set", "measure": {"kind": "vacuous"},
    "operator": {"kind": "min"}, "suite": "gamma-laws", "grid-denominator": 2,
    "sizes": [2], "stop-at-first": True, "mode": "consensus",
    "state": 0, "epsilons": ["1", "1/2"], "base": ["1/3", "1/3", "1/3"],
    "family-max-size": 2,
}


def _run_main(tmp_path, capsys, run, problem, flags=()):
    """Run `main` on a problem, given as a value or as its JSON text."""
    path = tmp_path / "problem.json"
    path.write_text(problem if isinstance(problem, str) else json.dumps(problem))
    code = main([run.split()[0], "--problem", str(path), *flags])
    return code, capsys.readouterr()


@pytest.mark.parametrize("run", list(RUN_PROBLEMS))
def test_main_prints_the_emitted_report_of_every_run(tmp_path, capsys, run):
    # `main` writes the text in slices; the sweep's report spans many
    problem = dict(RUN_PROBLEMS[run], operator=dict(HURWICZ_HALF))
    report = getattr(cli, f"cmd_{run.split()[0]}")(parse_problem(problem))
    text = emit_report(report)
    assert run != "check sequential" or len(text) > 10 * cli._SLICE
    code, captured = _run_main(tmp_path, capsys, run, problem)
    assert code == report.exit_code
    assert_same_text(captured.out, text + "\n")


@pytest.mark.parametrize("verb", ["evaluate", "check", "consensus"])
def test_a_problem_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, verb):
    path = tmp_path / "problem.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([verb, "--problem", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the problem file is not UTF-8")
    assert captured.err.count("\n") == 1


def test_every_problem_key_is_read_by_some_run():
    assert set().union(*(keys for keys, _ in RUNS.values())) == set(KEY_VALUES)
    assert set(RUNS) == set(RUN_PROBLEMS)


@pytest.mark.parametrize("run", list(RUN_PROBLEMS))
@pytest.mark.parametrize("key", sorted(KEY_VALUES))
def test_a_run_accepts_the_keys_it_reads_and_refuses_the_rest(tmp_path, capsys, run, key):
    # the run's own problem wins, so its suite, mode and state stay
    problem = {key: KEY_VALUES[key], **RUN_PROBLEMS[run]}
    if key == "partition":  # which parses only on a state space
        problem.setdefault("act", KEY_VALUES["act"])
    code, captured = _run_main(tmp_path, capsys, run, problem)
    if key in RUNS[run][0]:
        assert code in (0, 1), captured.err
        assert captured.err == ""
        assert json.loads(captured.out)["problem"]["operator"]
    else:
        assert code == 2
        assert captured.out == ""
        assert key in captured.err


# every setting is a key of the problem file; no flag restates one, not
# even on a run that reads the key (where the flag used to win over the file)
@pytest.mark.parametrize("run", list(RUN_PROBLEMS))
@pytest.mark.parametrize("flag", [["--suite", "gamma-laws"], ["--grid-denominator", "2"],
                                  ["--max-states", "2"], ["--stop-at-first"],
                                  ["--epsilon-list", "1,1/2"]], ids=lambda flag: flag[0][2:])
def test_flags_that_restate_problem_keys_are_refused(tmp_path, capsys, run, flag):
    with pytest.raises(SystemExit) as exited:
        _run_main(tmp_path, capsys, run, RUN_PROBLEMS[run], flag)
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


# a report has one format, the machine text, so no run takes `--format`,
# not even with the value that used to be its default
@pytest.mark.parametrize("run", list(RUN_PROBLEMS))
@pytest.mark.parametrize("fmt", ["machine", "table"])
def test_the_format_option_is_refused(tmp_path, capsys, run, fmt):
    with pytest.raises(SystemExit) as exited:
        _run_main(tmp_path, capsys, run, RUN_PROBLEMS[run], ("--format", fmt))
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --format {fmt}" in captured.err


# the key that restated `sizes` is unknown to every run, the sweep that
# read it included, so no run reports a problem that gave it
@pytest.mark.parametrize("run", list(RUN_PROBLEMS))
def test_max_states_is_refused_by_every_run(tmp_path, capsys, run):
    problem = {"max-states": 3, **RUN_PROBLEMS[run]}
    code, captured = _run_main(tmp_path, capsys, run, problem)
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: problem: unknown fields ['max-states']\n"


def test_refusals_name_every_unread_key(tmp_path, capsys):
    problem = dict(RUN_PROBLEMS["consensus certainty"], framework="credal-set",
                   sizes=[2], epsilons=["1"])
    code, captured = _run_main(tmp_path, capsys, "consensus certainty", problem)
    assert code == 2
    assert captured.err == (
        "error: consensus certainty does not read epsilons, framework, sizes\n")


# a probability has no vacuous measure, yet only `evaluate` builds the
# default one: `check` and `consensus` name the key they do not read
@pytest.mark.parametrize("run,problem,message", [
    ("consensus", {"act": ["0", "1"], "framework": "probability", "operator": {"kind": "min"}},
     "consensus consensus does not read framework"),
    ("check", {"states": 2, "framework": "probability", "operator": {"kind": "min"},
               "suite": "gamma-laws"},
     "check gamma-laws does not read framework, states"),
    ("evaluate", {"act": ["0", "1"], "framework": "probability", "operator": {"kind": "min"}},
     "a single probability cannot express ignorance"),
])
def test_a_probability_without_a_measure_is_refused_by_its_run(tmp_path, capsys, run,
                                                                 problem, message):
    code, captured = _run_main(tmp_path, capsys, run, problem)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# keys a report's `problem` block echoes although its run refuses them;
# the ROADMAP.md item "Reports that replay" empties this table
LEGACY_ECHO = {"evaluate": set(), "check": {"framework"}, "consensus": {"framework", "measure"}}


@pytest.mark.parametrize("run", list(RUN_PROBLEMS))
def test_an_echo_holds_the_keys_its_run_reads_and_the_legacy_keys(tmp_path, capsys, run):
    reads = RUNS[run][0]
    for key in [None, *sorted(reads)]:
        problem = dict(RUN_PROBLEMS[run])
        if key is not None:
            problem = {key: KEY_VALUES[key], **problem}
        code, captured = _run_main(tmp_path, capsys, run, problem)
        assert code in (0, 1), captured.err
        echo = json.loads(captured.out)["problem"]
        assert set(echo) - reads == LEGACY_ECHO[run.split()[0]], key


# each check suite without and with its optional keys
CHECK_PROBLEMS = [
    ("gamma-laws", {}), ("gamma-laws", {"grid-denominator": 4}),
    ("ev-properties", {}), ("ev-properties", {"grid-denominator": 8}),
    ("set-order", {}), ("set-order", {"grid-denominator": 4, "family-max-size": 2}),
    ("sequential", {}), ("sequential", {"grid-denominator": 2, "sizes": [3, 2]}),
    ("sequential", {"grid-denominator": 2, "sizes": [2, 3], "stop-at-first": True}),
]


@pytest.mark.parametrize("suite,keys", CHECK_PROBLEMS,
                         ids=lambda value: ("-".join(value) or "defaults")
                         if isinstance(value, dict) else value)
def test_a_check_report_replays_without_its_legacy_keys(suite, keys):
    text = emit_report(cmd_check(parse_problem(
        {"operator": dict(HURWICZ_HALF), "suite": suite, **keys})))
    echo = loads_exact(text)["problem"]
    for key in LEGACY_ECHO["check"]:
        del echo[key]
    assert_same_text(emit_report(cmd_check(parse_problem(echo))), text)


# -- given values are used or refused, never swapped for defaults ----------

SET_ORDER = {"operator": dict(ANCHORED_HALF), "suite": "set-order", "grid-denominator": 2}
LIMIT = {"act": ["0", "0", "1"], "operator": dict(ANCHORED_HALF), "mode": "limit"}


@pytest.mark.parametrize("run,problem,message", [
    ("check sequential", {"operator": dict(HURWICZ_HALF), "suite": "sequential",
                          "sizes": []}, "sizes must be positive"),
    ("check set-order", dict(SET_ORDER, **{"family-max-size": 0}), "family-max-size"),
    ("check set-order", dict(SET_ORDER, **{"family-max-size": -3}), "family-max-size"),
    ("consensus limit", dict(LIMIT, epsilons=[]), "contamination weight"),
    ("consensus limit", dict(LIMIT, base=[]), "base"),
    ("evaluate", evaluate_problem(measure=None), "measure: expected an object"),
    ("evaluate", {"act": ["0", "0", "1"], "measure": {"kind": "credal-set", "generators": None},
                  "operator": dict(ANCHORED_HALF)},
     "measure.generators: expected a list of vectors"),
], ids=["sizes", "family-max-size-0", "family-max-size-negative", "epsilons", "base",
        "measure-null", "generators-null"])
def test_empty_or_zero_values_are_refused_not_defaulted(tmp_path, capsys, run, problem,
                                                        message):
    code, captured = _run_main(tmp_path, capsys, run, problem)
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


MIN = {"kind": "min"}
ACT = ["0", "1/2", "1"]


def _masses(masses):
    return {"act": ACT, "measure": {"kind": "belief-function", "masses": masses},
            "operator": MIN}


@pytest.mark.parametrize("run,problem,message", [
    ("consensus limit", {"act": ACT, "operator": MIN, "mode": "limit", "epsilons": "1/2"},
     "epsilons: expected a list"),
    ("evaluate", {"act": ACT, "measure": {"kind": "gaussian"}, "operator": MIN},
     "measure.kind: unknown kind 'gaussian'"),
    ("evaluate", {"act": ACT, "measure": {"kind": "credal-set", "generators": "1/2"},
                  "operator": MIN}, "measure.generators: expected a list of vectors"),
    ("evaluate", _masses("1"), "measure.masses: expected a list"),
    ("evaluate", _masses([{"event": [0], "mass": "1"}, [1]]),
     "measure.masses[1]: expected an object"),
    ("evaluate", {"act": ACT, "partition": {"0": [0]}, "operator": MIN},
     "partition: expected a list of blocks"),
    ("evaluate", {"act": ACT, "measure": "vacuous", "operator": MIN},
     "measure: expected an object"),
    ("check gamma-laws", {"operator": MIN, "suite": "gamma-laws", "grid-denominator": 0},
     "grid-denominator must be >= 1"),
    ("check sequential", {"operator": MIN, "suite": "sequential", "sizes": 3},
     "sizes: expected a list of integers"),
    ("check sequential", {"operator": MIN, "suite": "sequential", "grid-denominator": 2,
                          "sizes": [3, 3]}, "sizes must be distinct, got [3, 3]"),
    ("consensus", {"act": ACT, "operator": MIN, "mode": "majority"},
     "mode: expected one of ('consensus', 'certainty', 'limit'), got 'majority'"),
    ("consensus", {"operator": MIN}, "consensus needs an act"),
    ("check", {"operator": MIN, "suite": None}, "suite: expected a string"),
    ("check", {"operator": MIN}, f"check needs a suite; expected one of {SUITES}"),
    # `sizes` is the one spelling of the sweep's state counts
    ("check sequential", {"operator": MIN, "suite": "sequential", "max-states": 3},
     "problem: unknown fields ['max-states']"),
    ("evaluate", {"act": ACT, "operator": {"kind": "tabulated", "entries": [
        ["0", "1", "1/2"], ["0", "1", "1/3"]]}}, "conflicting entries for (0, 1)"),
    ("evaluate", ["not", "an", "object"], "problem: expected a JSON object"),
    ("evaluate", {"act": ACT, "measure": {"kind": "probability", "weights": []},
                  "operator": MIN}, "probability must cover at least one state"),
    ("evaluate", _masses([{"event": [], "mass": "1"}]),
     "belief functions put no mass on the empty event"),
    ("evaluate", _masses([{"event": [5], "mass": "1"}]), "focal element [5] leaves the space"),
    # a repeated key is refused at any depth, not read as its last value
    ("evaluate", '{"act": ["0", "1"], "act": ["1"], "operator": {"kind": "min"}}',
     "problem: an object repeats the key 'act'"),
    ("evaluate", '{"act": ["0", "1"], "operator": {"kind": "hurwicz", "alpha": "1/3",'
                 ' "alpha": "1/2"}}', "operator: an object repeats the key 'alpha'"),
    ("evaluate", '{"act": ["0", "1"], "measure": {"kind": "belief-function", "masses":'
                 ' [{"event": [0, 1], "mass": "1", "event": [0]}]}, "operator": {"kind": "min"}}',
     "measure.masses[0]: an object repeats the key 'event'"),
    ("check sequential", '{"operator": {"kind": "min"}, "suite": "sequential",'
                         ' "grid-denominator": 2, "grid-denominator": 1}',
     "problem: an object repeats the key 'grid-denominator'"),
    ("check sequential", '{"operator": {"kind": "hurwicz", "kind": "min", "alpha": "1/2"},'
                         ' "suite": "sequential"}', "operator: an object repeats the key 'kind'"),
    ("consensus limit", '{"act": ["0", "1"], "operator": {"kind": "min"}, "mode": "limit",'
                        ' "epsilons": ["1"], "mode": "consensus"}',
     "problem: an object repeats the key 'mode'"),
    ("consensus", '{"act": ["0", "1"], "operator": {"kind": "anchored", "anchor": "1/2",'
                  ' "anchor": "1/2"}}', "operator: an object repeats the key 'anchor'"),
], ids=["epsilons", "measure-kind", "generators", "masses", "mass-entry", "partition",
        "measure", "grid-denominator", "sizes", "repeated-size", "mode", "consensus-act",
        "null-suite", "no-suite", "max-states", "conflicting-entries",
        "problem", "empty-probability", "empty-focal-element", "focal-element-off-space",
        "evaluate-repeated-key", "evaluate-repeated-operator-key",
        "evaluate-repeated-mass-key", "check-repeated-key", "check-repeated-operator-key",
        "consensus-repeated-key", "consensus-repeated-equal-operator-key"])
def test_a_malformed_problem_exits_two_with_one_error_line(tmp_path, capsys, run, problem,
                                                         message):
    code, captured = _run_main(tmp_path, capsys, run, problem)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("measure,message", [
    ({"kind": "probability", "weights": ["1/2", "0", "1/2"], "grades": ["1", "1", "1"]},
     "measure: unexpected fields ['grades']"),
    ({"kind": "vacuous", "weights": ["1/2", "0", "1/2"]},
     "measure: unexpected fields ['weights']"),
    ({"kind": "credal-set", "weights": [], "grades": [], "generators": [["1", "0", "0"]]},
     "measure: unexpected fields ['grades', 'weights']"),
    ({"kind": "possibility", "grades": ["1", "0", "0"], "masses": []},
     "measure: unexpected fields ['masses']"),
    ({"kind": "belief-function",
      "masses": [{"event": [0, 1, 2], "mass": "1", "weight": "1", "focal": [0]}]},
     "measure.masses[0]: unexpected fields ['focal', 'weight']"),
], ids=["probability", "vacuous", "credal-set", "possibility", "belief-function-mass"])
def test_measure_records_refuse_the_fields_they_do_not_read(measure, message):
    raw = evaluate_problem(measure=measure)
    del raw["framework"]
    with pytest.raises(ParseError) as raised:
        parse_problem(raw)
    assert str(raised.value) == message


# the sweep's report spans many slices, so the write fails in `main`'s
# loop; the evaluation's fits in one, so it fails when stdout is flushed
@pytest.mark.parametrize("run", ["check sequential", "evaluate"])
def test_a_closed_stdout_exits_two_without_a_traceback(tmp_path, run):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(RUN_PROBLEMS[run], operator=dict(HURWICZ_HALF))))
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.Popen(
        [sys.executable, "-m", "foldback.cli", run.split()[0], "--problem", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    run.stdout.close()  # the reader leaves before the report is written
    err = run.stderr.read()
    run.stderr.close()
    assert run.wait(timeout=120) == 2
    assert err == b""


# -- work limit --------------------------------------------------------------

# checks just past the limit, with their counts taken from the suites' own
# loops where a loop is cheap to list
@pytest.mark.parametrize("settings,work", [
    ({"suite": "ev-properties", "grid-denominator": 192},
     sum(math.comb(193, size) for size in range(1, 5)) + (193 * 194 // 2) ** 2),
    ({"suite": "gamma-laws", "grid-denominator": 407}, 3 * (408 * 409 // 2)),
    ({"suite": "sequential", "sizes": [2, 6]},
     sum(5 ** n * len(enumerate_partitions(StateSpace(n))) for n in (2, 6))),
], ids=["ev-properties", "gamma-laws", "sequential"])
def test_checks_past_the_work_limit_are_refused_before_they_start(tmp_path, capsys,
                                                                   settings, work):
    assert work > MAX_WORK
    started = time.perf_counter()
    code, captured = _run_main(tmp_path, capsys, "check",
                               dict(settings, operator={"kind": "min"}))
    assert time.perf_counter() - started < 1
    assert code == 2
    assert captured.out == ""
    suite, denominator = settings["suite"], settings.get("grid-denominator")
    denominator = RUNS[f"check {suite}"][1] if denominator is None else denominator
    assert captured.err == (f"error: check {suite} on grid k/{denominator} needs at least"
                            f" {work:,} steps of work; the limit is {MAX_WORK:,}\n")


# set-order counts its family, then the work of checking it, before it
# builds the family: a family too large to build is refused by its count
# of sets, which stops once it passes the limit, and one too large to
# check by its sets and their points
@pytest.mark.parametrize("settings,message", [
    ({"family-max-size": 4}, "check set-order on a family of 255 sets over 9 points needs at"
                             " least 585,225 steps of work"),
    ({"grid-denominator": 10 ** 6, "family-max-size": 10 ** 6},
     "a family of the sets of up to 1,000,000 points on grid k/1000000 needs at least"
     " 1,000,001 steps of work"),
    ({"grid-denominator": 10 ** 4000 - 1},
     f"a family of the sets of up to 3 points on grid k/{10 ** 4000 - 1} needs at least"
     f" {10 ** 4000:,} steps of work"),
    ({"grid-denominator": 113},
     "check set-order on a family of 247,019 sets over 114 points needs at least"
     " 6,956,096,045,154 steps of work"),
], ids=["set-order", "set-order-huge", "set-order-digits", "set-order-k113"])
def test_set_order_past_the_work_limit_is_refused_before_it_starts(tmp_path, capsys,
                                                                   settings, message):
    started = time.perf_counter()
    code, captured = _run_main(tmp_path, capsys, "check",
                               dict(settings, suite="set-order", operator={"kind": "min"}))
    assert time.perf_counter() - started < 1
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}; the limit is {MAX_WORK:,}\n"


# a family asked for sets larger than the grid holds only the grid's own
# subsets, and is built no slower than the whole grid's family
def test_a_family_larger_than_its_grid_costs_no_more_than_the_grid(tmp_path, capsys):
    problem = {"operator": {"kind": "min"}, "suite": "set-order", "grid-denominator": 2}
    _, whole_grid = _run_main(tmp_path, capsys, "check", dict(problem, **{"family-max-size": 3}))
    started = time.perf_counter()
    code, captured = _run_main(tmp_path, capsys, "check",
                               dict(problem, **{"family-max-size": 200_000}))
    assert time.perf_counter() - started < 1
    assert code == 1
    assert captured.err == ""
    assert captured.out == whole_grid.out.replace('"family-max-size": 3\n',
                                                  '"family-max-size": 200000\n')
    assert json.loads(captured.out)["summary"] == {"violations": 6}


def test_a_gamma_law_check_at_the_work_limit_runs():
    # 3 * (407 * 408 / 2) = 249,084 steps, the last grid under the limit
    report = cmd_check(parse_problem({"operator": {"kind": "min"}, "suite": "gamma-laws",
                                      "grid-denominator": 406}))
    assert report.exit_code == 0


# a grid of 4,000 digits parses, but each grid suite's count of steps on
# it has more digits than the interpreter converts to text, so the refusal
# writes a power of ten the count is at least
@pytest.mark.parametrize("suite", [suite for suite in SUITES if suite != "set-order"])
def test_checks_past_the_digit_limit_are_refused_with_one_line(tmp_path, capsys, suite):
    denominator = 10 ** 4000 - 1
    points = denominator + 1
    pairs = points * (points + 1) // 2
    work = {"gamma-laws": 3 * pairs,
            "ev-properties": sum(math.comb(points, size) for size in range(1, 5)) + pairs ** 2,
            "sequential": sum(points ** n * len(enumerate_partitions(StateSpace(n)))
                              for n in (2, 3, 4))}[suite]
    started = time.perf_counter()
    code, captured = _run_main(tmp_path, capsys, "check", {
        "operator": {"kind": "min"}, "suite": suite, "grid-denominator": denominator})
    assert time.perf_counter() - started < 1
    assert code == 2
    assert captured.out == ""
    refusal = re.fullmatch(
        rf"error: check {suite} on grid k/{denominator} needs at least 10\^([\d,]+) steps"
        rf" of work; the limit is {MAX_WORK:,}\n", captured.err)
    assert refusal, captured.err
    exponent = int(refusal[1].replace(",", ""))
    assert 10 ** exponent <= work < 10 ** (exponent + 2)


# a grid longer than str() writes comes only through the library, since
# `loads_exact` refuses such a literal; the refusal spells it as `_steps`
# does a count, by a power of ten it is at least
@pytest.mark.parametrize("suite", SUITES)
def test_a_library_grid_past_the_digit_limit_is_refused_by_work(suite):
    problem = parse_problem({"operator": {"kind": "min"}, "suite": suite,
                             "grid-denominator": 10 ** 5000})
    with pytest.raises(CapExceeded) as refused:
        cmd_check(problem)
    task = ("a family of the sets of up to 3 points" if suite == "set-order"
            else f"check {suite}")
    assert re.fullmatch(rf"{task} on grid k/n with n >= 10\^4,999 needs at least"
                        rf" 10\^[\d,]+ steps of work; the limit is {MAX_WORK:,}",
                        str(refused.value)), refused.value


# `SearchConfig` is the one place that refuses a size past the cap; it
# does so before the sweep counts its work, so a billion states costs nothing
@pytest.mark.parametrize("sizes", [[2, 9], [10 ** 9]], ids=["nine", "billion"])
def test_sizes_past_the_sweep_cap_are_refused_before_the_sweep(tmp_path, capsys, sizes):
    started = time.perf_counter()
    code, captured = _run_main(tmp_path, capsys, "check", {
        "operator": {"kind": "min"}, "suite": "sequential", "sizes": sizes})
    assert time.perf_counter() - started < 1
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: sweep capped at n <= 8, asked for {max(sizes)}\n"


def _limit_problem(states: int, epsilons: int) -> dict:
    return {"act": ["0"] * (states - 1) + ["1"], "operator": dict(ANCHORED_HALF),
            "mode": "limit", "epsilons": [f"1/{k}" for k in range(1, epsilons + 1)]}


# a limit run builds no member: it costs O(n) once and O(1) per epsilon,
# so no count of states refuses it
@pytest.mark.parametrize("states", [250, 251, 1000])
def test_a_limit_run_writes_the_library_s_rows(tmp_path, capsys, states):
    problem = _limit_problem(states, 4)
    code, captured = _run_main(tmp_path, capsys, "consensus", problem)
    assert code in (0, 1), captured.err
    parsed = parse_problem(problem)
    family = ContaminationFamily((F(1, states),) * states, parsed["epsilons"])
    report = limit_check(parsed["operator"].vacuous_rule, parsed["act"], family)
    assert json.loads(captured.out)["rows"] == [
        {"epsilon": format_rational(row.epsilon), "lower": format_rational(row.lower),
         "upper": format_rational(row.upper), "value": format_rational(row.value),
         "within-bound": row.within_bound} for row in report.rows]
    assert len(report.rows) == 4


# stdout is block-buffered unless PYTHONUNBUFFERED is set: a buffered write
# fails at the flush, and its bytes would fail again at interpreter exit
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_full_stdout_exits_two_with_one_error_line(tmp_path, unbuffered):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(evaluate_problem()))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "foldback.cli", "evaluate", "--problem", str(path)],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: [Errno 28] No space left on device"]


def test_readme_table_of_keys_matches_the_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Keys each run reads", 1)[1].split("\n### ", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            run, keys, grid = (cell.strip() for cell in line.strip("|").split("|"))
            table[run.strip("`")] = (frozenset(re.findall(r"`([^`]+)`", keys)),
                                     int(grid.strip("`")[2:]) if grid else None)
    assert table == RUNS


def test_readme_lists_every_operator_kind_with_its_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullet = readme.split("\n- `operator`: `kind` is ", 1)[1].split(". ", 1)[0]
    listed = re.findall(r"`([a-z]+)`(?: \(`([a-z]+)`)?", bullet)
    assert listed == [*((kind, field or "") for kind, (_, field) in _RULES.items()),
                      ("tabulated", "entries")]


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
            assert loads_exact(emit_report(report)) == reference_payload(report.payload)
