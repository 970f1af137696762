"""Command-line front end.

Problems come in as JSON with every quantity an exact rational string
("p/q" or an integer); decimals are rejected outright. Reports go out
the same way, with deterministic field order, so byte identity of two
runs means identical results. Exit status: 0 all checks pass, 1 a
violation was found and reported, 2 the run itself failed.

`parse_problem` returns a plain dict holding, under each key the problem
gave, its parsed value, and fills in no default. Each `cmd_*` refuses
the keys its run does not read (`RUNS`), fills in its own defaults and
writes its report's `problem` block, defaults filled in.

A report's payload is JSON-native except inside a `Records` list, which
holds what its writer reads: the engine's own `Witness`es, failing sweep
cells or table rows. A `sequential` payload holds one record per failing
cell, and its text one per cell and framework. `emit_report` is the one
text stage.

The `problem` block of an `evaluate` report is a valid problem that
replays to the same report, and every witness probe with its report's
operator forms one. The blocks of `check` and `consensus` reports are
not: they echo `framework`, and `consensus` also `measure`, which those
runs refuse, and a `consensus` block lacks `mode`, `state`, `epsilons`
and `base`. Mending them changes report bytes, so it waits for a
re-recorded `perfbench/reference.json` (ROADMAP.md, "Reports that replay").
Nor do the consensus runs read the operator's `probabilistic-rule` and
`credal-extension`: each mode values with fixed routing (`certainty`
always with the credal extension), yet the block echoes the flags as
given. Refusing them would refuse requests `perfbench/workloads.py`
sends, so that waits for the same change.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, Optional

from . import __version__
from .acts import Act, Frozen, Partition, StateSpace
from .ce_ops import (
    Anchored,
    CeOperator,
    Hurwicz,
    MaxRule,
    MedianRule,
    MinRule,
    Tabulated,
    VacuousRule,
    ce,
)
from .consensus import (
    ConsensusReport,
    ContaminationFamily,
    ConvergenceReport,
    certainty_check,
    consensus_check,
    limit_check,
)
from .consistency import (
    ConsistencyVerdict,
    LawReport,
    Probe,
    SearchConfig,
    _check_default_set_order,
    check_ev_properties,
    check_gamma_laws,
    check_sequential,
    check_sequential_exhaustive,
)
from .errors import EngineError, ParseError, UnknownSuite, ValidationError
from .plausibility import (
    BeliefFunctionMeasure,
    CredalSetMeasure,
    Framework,
    PlausibilityMeasure,
    PossibilityMeasure,
    ProbabilityMeasure,
    ZPair,
    vacuous,
)
from .rationals import format_rational, parse_rational

if TYPE_CHECKING:
    import argparse  # imported by `_build_parser`, which only `main` calls

SUITES = ("gamma-laws", "ev-properties", "sequential", "set-order")
MODES = ("consensus", "certainty", "limit")

_SUITE = "operator suite grid-denominator"
_CONSENSUS = "states act operator mode"

# Each run, named by its verb and its suite or mode, maps to the problem
# keys it reads and, for a suite, its default grid denominator. A problem
# that gives its run any other key is refused (`_refuse_unread`).
RUNS: dict[str, tuple[frozenset[str], Optional[int]]] = {
    run: (frozenset(keys.split()), grid) for run, keys, grid in (
        ("evaluate", "states act partition framework measure operator", None),
        ("check gamma-laws", _SUITE, 16),
        ("check ev-properties", _SUITE, 4),
        ("check set-order", _SUITE + " family-max-size", 8),
        ("check sequential", _SUITE + " sizes stop-at-first", 4),
        ("consensus consensus", _CONSENSUS, None),
        ("consensus certainty", _CONSENSUS + " state", None),
        ("consensus limit", _CONSENSUS + " epsilons base", None))}
_PROBLEM_KEYS = frozenset().union(*(keys for keys, _ in RUNS.values()))

# each rule kind but `tabulated`: its class and the one rational field it
# reads, named as the class's attribute; `_RULE_KINDS` maps back by exact class
_RULES: dict[str, tuple[type, Optional[str]]] = {
    "anchored": (Anchored, "anchor"), "hurwicz": (Hurwicz, "alpha"),
    "min": (MinRule, None), "max": (MaxRule, None), "median": (MedianRule, None)}
_RULE_KINDS = {cls: (kind, field) for kind, (cls, field) in _RULES.items()}

# the fields each measure kind reads besides `kind`
_MEASURE_FIELDS = {"vacuous": (), "probability": ("weights",), "credal-set": ("generators",),
                  "belief-function": ("masses",), "possibility": ("grades",)}


class ReportFile(Frozen):
    """A report's payload and its exit code. The payload is JSON-native
    except inside a `Records`, which holds what its writer reads."""

    payload: dict
    exit_code: int

    def __init__(self, payload: dict, exit_code: int) -> None:
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "exit_code", exit_code)


# -- rational / JSON primitives ------------------------------------------


def _reject_float(text: str) -> None:
    raise ParseError(f"decimal literals are not accepted: {text!r}")


class _RepeatedKey(ParseError):
    """`_object`'s refusal: it names the key, but not where it is."""


def _repeated(keys: Iterable[str]) -> str:
    """The first key that `keys` holds more than once."""
    return next(key for key, n in Counter(keys).items() if n > 1)


def _object(pairs: list) -> dict:
    """A JSON object from its key-value pairs, refused if a key repeats."""
    record = dict(pairs)
    if len(record) < len(pairs):
        raise _RepeatedKey(f"an object repeats the key {_repeated(k for k, _ in pairs)!r}")
    return record


def _repeated_key_path(value: Any, path: str = "") -> Optional[str]:
    """The refusal of the first object that repeats a key, in the order the
    decoder closes them, in a tree decoded with each object as the tuple of
    its pairs; it names the object by the path the parse errors use."""
    if isinstance(value, list):
        children = [(f"{path or 'problem'}[{i}]", item) for i, item in enumerate(value)]
    elif isinstance(value, tuple):
        children = [(f"{path}.{key}" if path else key, item) for key, item in value]
    else:
        return None
    for child, item in children:
        found = _repeated_key_path(item, child)
        if found is not None:
            return found
    keys = [key for key, _ in value] if isinstance(value, tuple) else []
    if len(set(keys)) < len(keys):
        return f"{path or 'problem'}: an object repeats the key {_repeated(keys)!r}"
    return None


def loads_exact(text: str) -> Any:
    """json.loads that refuses floating-point literals and repeated keys.

    It also refuses an integer literal longer than the interpreter
    converts to an int (4,300 digits by default), and arrays or objects
    nested deeper than the decoder can recurse.
    """
    try:
        return json.loads(text, parse_float=_reject_float,
                          parse_constant=_reject_float, object_pairs_hook=_object)
    except _RepeatedKey as exc:
        # the decoder builds objects innermost first, so `_object` cannot
        # see the path; only on this error is the text decoded again to find
        # it, and text past the repeat that does not decode keeps no path
        try:
            message = _repeated_key_path(json.loads(
                text, parse_int=str, parse_float=str, parse_constant=str,
                object_pairs_hook=tuple))
        except (ValueError, RecursionError):
            message = None
        raise ParseError(message or str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    except ValueError:
        # the decoder's one other ValueError: int()'s limit on digits
        raise ParseError("an integer literal is too long to convert") from None
    except RecursionError:
        raise ParseError("the JSON nests too deeply to decode") from None


def _rational(value: Any, label: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{label}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ParseError as exc:
            raise ParseError(f"{label}: {exc}") from None
    raise ParseError(f"{label}: expected a rational string, got {value!r}")


def _integer(value: Any, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{label}: expected an integer, got {value!r}")
    return value


def _boolean(value: Any, label: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{label}: expected a boolean, got {value!r}")
    return value


def _rational_list(value: Any, label: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{label}: expected a list")
    return tuple(_rational(v, f"{label}[{i}]") for i, v in enumerate(value))


def _state_set(value: Any, label: str) -> frozenset:
    if not isinstance(value, list):
        raise ParseError(f"{label}: expected a list of states")
    return frozenset(_integer(s, label) for s in value)


# -- problem parsing ------------------------------------------------------


def _refuse_unread_fields(record: Mapping, reads: Sequence[str], label: str) -> None:
    unread = set(record) - set(reads)
    if unread:
        raise ParseError(f"{label}: unexpected fields {sorted(unread)}")


def _parse_table(entries: Any) -> Tabulated:
    """A tabulated rule from its [x, y, value] entries.

    A grid table spells each grid value in many entries, so each distinct
    literal is parsed once, and kept with its numerator and denominator.
    Each pair is checked on those integers and built unchecked; the
    public `ZPair` runs only to raise a bad pair's error.
    """
    if not isinstance(entries, list):
        raise ParseError("operator.entries: expected a list of [x, y, value]")
    literals: dict[str, tuple[Fraction, int, int]] = {}

    def literal(part: Any, i: int) -> tuple[Fraction, int, int]:
        if type(part) is str and part in literals:
            return literals[part]
        value = _rational(part, f"operator.entries[{i}]")
        parsed = value, value.numerator, value.denominator
        if type(part) is str:
            literals[part] = parsed
        return parsed

    table = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"operator.entries[{i}]: expected [x, y, value]")
        (x, xn, xd), (y, yn, yd), (v, _, _) = (literal(part, i) for part in entry)
        # 0 <= x <= y <= 1, with x <= y cross-multiplied
        if 0 <= xn and yn <= yd and xn * yd <= yn * xd:
            table.append((ZPair._trusted(x, y), v))
        else:
            table.append((ZPair(x, y), v))  # raises
    return Tabulated(table)


def _parse_operator(record: Any) -> CeOperator:
    if not isinstance(record, Mapping):
        raise ParseError("operator: expected an object")
    kind = record.get("kind")
    params: dict[str, Any] = dict(record)
    params.pop("kind", None)
    probabilistic = _boolean(params.pop("probabilistic-rule", True),
                             "operator.probabilistic-rule")
    extension = _boolean(params.pop("credal-extension", False),
                         "operator.credal-extension")
    rule: VacuousRule
    if kind == "tabulated":
        rule = _parse_table(params.pop("entries", None))
    elif isinstance(kind, str) and kind in _RULES:
        cls, field = _RULES[kind]
        rule = cls() if field is None else cls(
            _rational(params.pop(field, None), f"operator.{field}"))
    else:
        raise ParseError(f"operator.kind: unknown kind {kind!r}")
    _refuse_unread_fields(params, (), "operator")
    return CeOperator(rule, probabilistic_rule=probabilistic,
                      credal_extension=extension)


def _parse_measure(record: Mapping, space: StateSpace,
                   framework: Framework) -> PlausibilityMeasure:
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in _MEASURE_FIELDS:
        raise ParseError(f"measure.kind: unknown kind {kind!r}")
    _refuse_unread_fields(record, ("kind", *_MEASURE_FIELDS[kind]), "measure")
    if kind == "vacuous":
        return vacuous(space, framework)
    if kind == "probability":
        return ProbabilityMeasure(_rational_list(record.get("weights"),
                                                 "measure.weights"))
    if kind == "credal-set":
        if "generators" not in record:
            return CredalSetMeasure.full_simplex(space)
        generators = record["generators"]
        if not isinstance(generators, list):
            raise ParseError("measure.generators: expected a list of vectors")
        return CredalSetMeasure(space, tuple(
            _rational_list(g, f"measure.generators[{i}]")
            for i, g in enumerate(generators)))
    if kind == "belief-function":
        masses = record.get("masses")
        if not isinstance(masses, list):
            raise ParseError("measure.masses: expected a list")
        pairs = []
        for i, item in enumerate(masses):
            if not isinstance(item, Mapping):
                raise ParseError(f"measure.masses[{i}]: expected an object")
            _refuse_unread_fields(item, ("event", "mass"), f"measure.masses[{i}]")
            members = _state_set(item.get("event"), f"measure.masses[{i}].event")
            pairs.append((members, _rational(item.get("mass"),
                                             f"measure.masses[{i}].mass")))
        return BeliefFunctionMeasure(space, tuple(pairs))
    return PossibilityMeasure(_rational_list(record.get("grades"), "measure.grades"))


def parse_problem(raw: Mapping) -> dict[str, Any]:
    """Validate a problem dictionary into typed engine objects, one for each
    key it gives."""
    if not isinstance(raw, Mapping):
        raise ParseError("problem: expected a JSON object")
    unknown = set(raw) - _PROBLEM_KEYS
    if unknown:
        raise ParseError(f"problem: unknown fields {sorted(unknown)}")
    problem: dict[str, Any] = {}

    space = None
    if "act" in raw:
        if not isinstance(raw["act"], list):
            raise ParseError("act: expected a list of rationals")
        problem["act"] = Act(_rational_list(raw["act"], "act"))
        space = problem["act"].space

    if "states" in raw:
        # the state space is the act's: `states` only checks it, so nothing
        # is built from a count alone
        declared = StateSpace(_integer(raw["states"], "states"))
        if space is not None and declared != space:
            raise ValidationError(
                f"states={declared.n} but the act has {space.n} outcomes")
        problem["states"] = declared

    if "partition" in raw:
        if space is None:
            raise ValidationError("a partition needs an act")
        blocks = raw["partition"]
        if not isinstance(blocks, list):
            raise ParseError("partition: expected a list of blocks")
        problem["partition"] = Partition(space, tuple(
            _state_set(block, f"partition[{i}]") for i, block in enumerate(blocks)))

    framework = Framework.CREDAL_SET
    if "framework" in raw:
        try:
            problem["framework"] = framework = Framework(raw["framework"])
        except ValueError:
            raise ParseError(f"framework: unknown framework {raw['framework']!r}") from None

    if "measure" in raw:
        measure_spec = raw["measure"]
        if not isinstance(measure_spec, Mapping):
            raise ParseError("measure: expected an object")
        # a concrete measure's kind names its framework, which a given one must match
        if ("framework" in raw and measure_spec.get("kind") in [f.value for f in Framework]
                and measure_spec["kind"] != framework.value):
            raise ValidationError(f"framework {framework.value!r} contradicts measure kind"
                                  f" {measure_spec['kind']!r}")
        # without an act no run reads it: evaluate needs an act, and every
        # other run refuses the key
        problem["measure"] = (None if space is None
                              else _parse_measure(measure_spec, space, framework))

    if "operator" not in raw:
        raise ParseError("problem: an operator is required")
    problem["operator"] = _parse_operator(raw["operator"])

    if "suite" in raw:
        if not isinstance(raw["suite"], str):
            raise ParseError("suite: expected a string")
        problem["suite"] = raw["suite"]

    if "grid-denominator" in raw:
        problem["grid-denominator"] = _integer(raw["grid-denominator"], "grid-denominator")
        if problem["grid-denominator"] < 1:
            raise ValidationError("grid-denominator must be >= 1")

    if "sizes" in raw:
        if not isinstance(raw["sizes"], list):
            raise ParseError("sizes: expected a list of integers")
        problem["sizes"] = tuple(_integer(n, "sizes") for n in raw["sizes"])

    if "mode" in raw:
        if raw["mode"] not in MODES:
            raise ParseError(f"mode: expected one of {MODES}, got {raw['mode']!r}")
        problem["mode"] = raw["mode"]

    if "state" in raw:
        problem["state"] = _integer(raw["state"], "state")
    for key in ("epsilons", "base"):
        if key in raw:
            problem[key] = _rational_list(raw[key], key)
    if "family-max-size" in raw:
        problem["family-max-size"] = _integer(raw["family-max-size"], "family-max-size")
        if problem["family-max-size"] < 1:
            raise ValidationError("family-max-size must be >= 1")
    if "stop-at-first" in raw:
        problem["stop-at-first"] = _boolean(raw["stop-at-first"], "stop-at-first")
    return problem


# -- encoding -------------------------------------------------------------


def encode_act(act: Act) -> list:
    return [format_rational(u) for u in act.outcomes]


def encode_partition(partition: Partition) -> list:
    return [sorted(block) for block in partition.blocks]


def encode_rule(rule: VacuousRule) -> dict:
    named = _RULE_KINDS.get(type(rule))
    if named is not None:
        kind, field = named
        if field is None:
            return {"kind": kind}
        return {"kind": kind, field: format_rational(getattr(rule, field))}
    if isinstance(rule, Tabulated):
        # a grid table holds few distinct values, each mostly one shared
        # object; key by identity, since hashing a Fraction costs more
        # than formatting it
        rows = [(z.lower, z.upper, v) for z, v in rule.entries]
        distinct = {id(value): value for row in rows for value in row}
        text = {key: format_rational(value) for key, value in distinct.items()}
        return {"kind": "tabulated", "entries": Records(_write_rows, (
            [text[id(x)], text[id(y)], text[id(v)]] for x, y, v in rows))}
    raise ValidationError(f"cannot encode rule {rule!r}")


def encode_operator(op: CeOperator) -> dict:
    record = encode_rule(op.vacuous_rule)
    record["probabilistic-rule"] = op.probabilistic_rule
    record["credal-extension"] = op.credal_extension
    return record


def encode_measure(measure: PlausibilityMeasure) -> dict:
    if isinstance(measure, ProbabilityMeasure):
        return {"kind": "probability", "weights": [format_rational(w) for w in measure.weights]}
    if isinstance(measure, CredalSetMeasure):
        if measure.is_full_simplex:
            return {"kind": "credal-set"}
        return {"kind": "credal-set", "generators": [
            [format_rational(w) for w in gen] for gen in measure.generators]}
    if isinstance(measure, BeliefFunctionMeasure):
        return {"kind": "belief-function", "masses": [
            {"event": sorted(event), "mass": format_rational(m)} for event, m in measure.masses]}
    if isinstance(measure, PossibilityMeasure):
        return {"kind": "possibility", "grades": [format_rational(g) for g in measure.grades]}
    raise ValidationError(f"cannot encode measure {measure!r}")


def _rational_text(value: Fraction, encoded: dict) -> str:
    """`format_rational(value)`, made once per id in `encoded`."""
    text = encoded.get(id(value))
    if text is None:
        text = encoded[id(value)] = format_rational(value)
    return text


class Records(list):
    """A list of items of one fixed shape, with the writer that knows it.

    The items are what the writer reads: engine `Witness`es, failing
    sweep cells (one record each, written once per framework) or table
    rows. So a payload is JSON-native except inside a `Records`. To every
    reader but `_write` it is a plain list; `_write` hands a nonempty one
    to `write(records, indent, out, texts)`, which writes the items by
    their fixed fields or places instead of walking each one.
    """

    __slots__ = ("write",)

    def __init__(self, write: Callable[[Records, str, list, dict], None],
                 items: Iterable = ()) -> None:
        super().__init__(items)
        self.write = write


def encode_law_report(report: LawReport) -> dict:
    """A law report's record, its `Witness`es written by `_write_witnesses`."""
    return {"law": report.law.value, "passed": report.passed,
            "witnesses": Records(_write_witnesses, report.witnesses)}


def encode_verdict(verdict: ConsistencyVerdict, encoded: dict) -> dict:
    """A verdict's report record.

    `encoded`, kept by the caller for one report, maps the id of each act,
    partition and value encoded so far to its encoding, so one that many
    verdicts share (as a sweep's failing cells share their act across
    partitions, their partition across acts and their interned values) is
    encoded once, as one list or string that their records hold. The
    verdicts must stay alive while the map is in use.
    """
    act, partition = verdict.act, verdict.partition
    act_record = encoded.get(id(act))
    if act_record is None:
        act_record = encoded[id(act)] = encode_act(act)
    partition_record = encoded.get(id(partition))
    if partition_record is None:
        partition_record = encoded[id(partition)] = encode_partition(partition)
    return {
        "act": act_record,
        "partition": partition_record,
        "direct": _rational_text(verdict.direct_value, encoded),
        "folded": _rational_text(verdict.folded_value, encoded),
        "holds": verdict.holds,
        "framework": verdict.framework.value,
    }


def probe_problem(probe_record: Mapping, operator_record: Mapping) -> dict:
    """Rebuild the problem dictionary that replays one witness probe."""
    outcomes = list(probe_record["outcomes"])
    problem: dict[str, Any] = {
        "states": len(outcomes),
        "act": outcomes,
        "framework": probe_record["framework"],
        "operator": dict(operator_record),
    }
    if probe_record.get("weights") is not None:
        problem["measure"] = {"kind": "probability",
                              "weights": list(probe_record["weights"])}
    else:
        problem["measure"] = {"kind": "vacuous"}
    return problem


def verdict_problem(verdict_record: Mapping, operator_record: Mapping) -> dict:
    """Rebuild the problem dictionary that replays one sequential verdict."""
    return {
        "states": len(verdict_record["act"]),
        "act": list(verdict_record["act"]),
        "partition": [list(b) for b in verdict_record["partition"]],
        "framework": verdict_record["framework"],
        "measure": {"kind": "vacuous"},
        "operator": dict(operator_record),
    }


# -- commands -------------------------------------------------------------


def _refuse_unread(problem: Mapping[str, Any], run: str) -> Optional[int]:
    """Refuse every given key `run` does not read; return its default grid."""
    reads, grid = RUNS[run]
    unread = problem.keys() - reads
    if unread:
        raise ValidationError(f"{run} does not read {', '.join(sorted(unread))}")
    return grid


def cmd_evaluate(problem: Mapping[str, Any]) -> ReportFile:
    """Certainty equivalent of one act; with a partition, the fold too."""
    _refuse_unread(problem, "evaluate")
    act = problem.get("act")
    if act is None:
        raise ValidationError("evaluate needs an act")
    measure = problem.get("measure")
    if measure is None:
        measure = vacuous(act.space, problem.get("framework", Framework.CREDAL_SET))
    operator, partition = problem["operator"], problem.get("partition")
    echo: dict[str, Any] = {"states": act.space.n, "act": encode_act(act)}
    if partition is not None:
        echo["partition"] = encode_partition(partition)
    echo.update(framework=measure.framework.value, measure=encode_measure(measure),
                operator=encode_operator(operator))
    payload = {"command": "evaluate", "engine-version": __version__, "problem": echo}
    if partition is None:
        value = ce(operator, measure, act)
        payload["ce"] = format_rational(value)
        payload["summary"] = {"violations": 0}
        return ReportFile(payload, 0)
    verdict = check_sequential(operator, measure, act, partition)
    payload["ce"] = format_rational(verdict.direct_value)
    payload["folded"] = format_rational(verdict.folded_value)
    payload["holds"] = verdict.holds
    payload["summary"] = {"violations": 0 if verdict.holds else 1}
    return ReportFile(payload, 0 if verdict.holds else 1)


def cmd_check(problem: Mapping[str, Any]) -> ReportFile:
    """Run one law suite and report violations."""
    suite = problem.get("suite")
    if suite is None:
        raise ValidationError(f"check needs a suite; expected one of {SUITES}")
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; expected one of {SUITES}")
    default = _refuse_unread(problem, f"check {suite}")
    denominator = problem.get("grid-denominator", default)
    sizes = problem.get("sizes", (2, 3, 4))
    max_size = problem.get("family-max-size", 3)
    # each checker refuses a problem past `consistency.MAX_WORK` steps of
    # work with CapExceeded before it builds anything
    op = problem["operator"]
    # no check reads `framework`, yet the block echoes it (ROADMAP.md,
    # "Reports that replay")
    echo = {"framework": "credal-set", "operator": encode_operator(op), "suite": suite,
            "grid-denominator": denominator}

    if suite == "sequential":
        cfg = SearchConfig(sizes=sizes, denominator=denominator,
                           stop_at_first=problem.get("stop-at-first", False))
        failures = check_sequential_exhaustive(op, cfg)
        echo["sizes"] = list(cfg.sizes)
        echo["stop-at-first"] = cfg.stop_at_first
        # one record per failing cell, written once per framework: a cell's
        # verdicts come in a row, one per framework reported (the first
        # cell's name them; stop-at-first reports one), so its first is encoded
        step = len(cfg.frameworks)
        names = [v.framework.value for v in failures[:step]]
        encoded: dict = {}
        entries = Records(partial(_write_cells, frameworks=names),
                          [encode_verdict(v, encoded) for v in failures[::step]])
        key, violations = "failures", len(failures)
    else:
        if suite == "gamma-laws":
            reports = check_gamma_laws(op.vacuous_rule, denominator)
        elif suite == "ev-properties":
            reports = check_ev_properties(op.vacuous_rule, denominator)
        else:
            reports = _check_default_set_order(op.vacuous_rule, denominator, max_size)
            echo["family-max-size"] = max_size
        key, entries = "reports", [encode_law_report(r) for r in reports]
        violations = sum(len(r.witnesses) for r in reports)
    payload = {
        "command": "check",
        "engine-version": __version__,
        "problem": echo,
        key: entries,
        "summary": {"violations": violations},
    }
    return ReportFile(payload, 1 if violations else 0)


def _encode_consensus(report: ConsensusReport) -> dict:
    return {
        "values": {
            Framework.CREDAL_SET.value: format_rational(report.credal_value),
            Framework.BELIEF_FUNCTION.value: format_rational(report.belief_value),
            Framework.POSSIBILITY.value: format_rational(report.possibility_value),
        },
        "agree": report.agree,
    }


def _encode_convergence(report: ConvergenceReport) -> dict:
    return {
        "rows": [
            {"epsilon": format_rational(row.epsilon), "lower": format_rational(row.lower),
             "upper": format_rational(row.upper), "value": format_rational(row.value),
             "within-bound": row.within_bound}
            for row in report.rows],
        "limit-value": format_rational(report.limit_value),
        "bound-satisfied": report.bound_satisfied,
    }


def cmd_consensus(problem: Mapping[str, Any]) -> ReportFile:
    """Cross-framework agreement in one of three modes."""
    mode = problem.get("mode", "consensus")
    _refuse_unread(problem, f"consensus {mode}")
    act = problem.get("act")
    if act is None:
        raise ValidationError("consensus needs an act")
    rule = problem["operator"].vacuous_rule
    payload: dict[str, Any] = {
        "command": "consensus",
        "engine-version": __version__,
        "mode": mode,
        # no consensus run reads `framework` or `measure`, yet the block
        # echoes them (ROADMAP.md, "Reports that replay")
        "problem": {"states": act.space.n, "act": encode_act(act), "framework": "credal-set",
                    "measure": {"kind": "credal-set"},
                    "operator": encode_operator(problem["operator"])},
    }
    if mode == "consensus":
        report = consensus_check(rule, act)
        payload.update(_encode_consensus(report))
        ok = report.agree
    elif mode == "certainty":
        if "state" not in problem:
            raise ValidationError("certainty mode needs a state")
        payload["state"] = problem["state"]
        report = certainty_check(rule, act, problem["state"])
        payload.update(_encode_consensus(report))
        ok = report.agree
    else:
        epsilons = problem.get("epsilons", (Fraction(1), Fraction(1, 2), Fraction(1, 4)))
        base = problem.get("base")
        if base is None:
            base = tuple(Fraction(1, act.space.n) for _ in act.space.states)
        family = ContaminationFamily(base, epsilons)
        payload["base"] = [format_rational(w) for w in family.base]
        convergence = limit_check(rule, act, family)
        payload.update(_encode_convergence(convergence))
        ok = convergence.bound_satisfied
    payload["summary"] = {"violations": 0 if ok else 1}
    return ReportFile(payload, 0 if ok else 1)


# -- emission and entry point --------------------------------------------


def _write(value: Any, indent: str, out: list, texts: dict) -> None:
    """Append the pieces of `json.dumps(value, indent=2)`, nested at `indent`.

    Only the types reports are built from are accepted: dicts with
    string keys, lists, strings, ints, bools and None. A string inside
    a container is written with its separator as one piece, as the
    `json` encoder does, so the pieces held before the join stay few.
    `texts`, kept for one report, is where the writers of `Records`
    keep the text of each shared part they have made, by indent and id.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        # plain lists, the most of any report, pay one test here
        if type(value) is Records and value:
            value.write(value, indent, out, texts)
            return
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for item in value:
            if type(item) is str:
                out.append(separator + _quote(item))
            else:
                out.append(separator)
                _write(item, inner, out, texts)
            separator = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            if type(item) is str:
                out.append(separator + _quote(key) + ": " + _quote(item))
            else:
                out.append(separator + _quote(key) + ": ")
                _write(item, inner, out, texts)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"cannot write {type(value).__name__} into a report")


def _strings(items: Sequence[str], indent: str) -> str:
    """The text of a list of strings nested at `indent`, as `_write` writes it."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(map(_quote, items)) + "\n" + indent + "]"


def _joined(value: Any, indent: str, texts: dict) -> str:
    """The text `_write` makes of `value` nested at `indent`, as one string."""
    pieces: list = []
    _write(value, indent, pieces, texts)
    return "".join(pieces)


def _write_cells(records: Records, indent: str, out: list, texts: dict,
                 frameworks: Sequence[str]) -> None:
    """`_write` for a nonempty list of failing sweep cells, each held as
    `encode_verdict`'s record of its first verdict, and written once for
    each name in `frameworks`: the text of the five keys its verdicts
    share is made once per cell and appended as its own piece, between
    the separator and each framework's closing lines, so the pieces held
    before the join hold it once. Each act's and partition's text is made
    once per report and indent by id, and each value's quoted text once.
    """
    inner = indent + "  "
    fields = inner + "  "
    comma = ",\n" + fields
    known = texts.setdefault(indent, {})
    quoted: dict = {}
    tails = [f'{comma}"framework": {_quote(name)}\n{inner}}}' for name in frameworks]
    # every cell's separator is a comma; the first is made the opening bracket
    separator = ",\n" + inner
    first = len(out)
    for record in records:
        act, partition = record["act"], record["partition"]
        direct, folded = record["direct"], record["folded"]
        # no text is empty, so `or` reaches `setdefault` only on a first use
        act_text = known.get(id(act)) or known.setdefault(id(act), _joined(act, fields, texts))
        partition_text = (known.get(id(partition))
                          or known.setdefault(id(partition), _joined(partition, fields, texts)))
        direct_text = quoted.get(direct) or quoted.setdefault(direct, _quote(direct))
        folded_text = quoted.get(folded) or quoted.setdefault(folded, _quote(folded))
        head = (f'{{\n{fields}"act": {act_text}{comma}"partition": {partition_text}'
                f'{comma}"direct": {direct_text}{comma}"folded": {folded_text}'
                f'{comma}"holds": {"true" if record["holds"] else "false"}')
        for tail in tails:
            out += separator, head, tail
    out[first] = "[\n" + inner
    out.append("\n" + indent + "]")


def _probe_text(probe: Probe, indent: str, known: dict) -> str:
    """The text of a probe nested at `indent`, as `json.dumps` writes the
    record of its outcomes, framework and weights (when it has them); each
    value's text is made once per id in `known`."""
    inner = indent + "  "
    text = ("{\n" + inner + '"outcomes": '
            + _strings([_rational_text(u, known) for u in probe.outcomes], inner)
            + ",\n" + inner + '"framework": ' + _quote(probe.framework.value))
    if probe.weights is not None:
        text += (",\n" + inner + '"weights": '
                 + _strings([_rational_text(w, known) for w in probe.weights], inner))
    return text + "\n" + indent + "}"


def _write_witnesses(records: Records, indent: str, out: list, texts: dict) -> None:
    """`_write` for a nonempty list of `Witness`es, as `encode_law_report` holds them.

    Each witness is one piece, written from its inputs, its two values and
    its two probes. Each probe's text is made once per report and indent,
    and each value's once per report, indent and id.
    """
    inner = indent + "  "
    fields = inner + "  "
    comma = ",\n" + fields
    close = "\n" + inner + "}"
    known = texts.setdefault(indent, {})
    separator = "[\n" + inner
    for witness in records:
        left, right = witness.probe_left, witness.probe_right
        for probe in (left, right):
            if id(probe) not in known:
                known[id(probe)] = _probe_text(probe, fields, known)
        out.append(separator + "{\n" + fields + '"inputs": ' + _strings(witness.inputs, fields)
                   + comma + '"left": ' + _quote(_rational_text(witness.left, known))
                   + comma + '"right": ' + _quote(_rational_text(witness.right, known))
                   + comma + '"probe-left": ' + known[id(left)]
                   + comma + '"probe-right": ' + known[id(right)] + close)
        separator = ",\n" + inner
    out.append("\n" + indent + "]")


def _write_rows(rows: Records, indent: str, out: list, texts: dict) -> None:
    """`_write` for a nonempty list of lists of strings, such as a table's
    [x, y, value] entries: the whole list as one piece."""
    inner = indent + "  "
    out.append("[\n" + inner + (",\n" + inner).join([_strings(row, inner) for row in rows])
               + "\n" + indent + "]")


def emit_report(report: ReportFile) -> str:
    """The report as indented JSON, byte for byte `json.dumps(payload, indent=2)`."""
    out: list = []
    _write(report.payload, "", out, {})
    return "".join(out)


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="foldback",
        description="Exact certainty-equivalent evaluation and law checking.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("evaluate", "check", "consensus"):
        p = sub.add_parser(verb)
        p.add_argument("--problem", required=True, help="path to a problem JSON file")
    return parser


def run_entry_point(body: Callable[[], int]) -> int:
    """Run an entry point's body under the exit contract; return its status.

    The body's own status stands once stdout is flushed. A reader that
    closed stdout ends the run with 2 and nothing on stderr. An engine
    error or any other OSError (a missing problem file, a full stdout)
    ends it with 2 and one `error:` line. Output that stdout still cannot
    take goes to devnull: a failed write keeps its bytes buffered, and the
    flush at interpreter exit would fail on them again and exit 120.
    """
    try:
        status = body()
        sys.stdout.flush()
    except (EngineError, OSError) as exc:
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


_SLICE = 8192


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    def run() -> int:
        with open(args.problem, encoding="utf-8") as handle:
            try:
                source = handle.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"the problem file is not UTF-8: {exc}") from None
        problem = parse_problem(loads_exact(source))
        if args.verb == "evaluate":
            report = cmd_evaluate(problem)
        elif args.verb == "check":
            report = cmd_check(problem)
        else:
            report = cmd_consensus(problem)
        text = emit_report(report)
        # in slices of stdout's chunk size, which it passes on as they are:
        # `print` would encode the whole text into a second copy at once
        for start in range(0, len(text), _SLICE):
            sys.stdout.write(text[start:start + _SLICE])
        sys.stdout.write("\n")
        return report.exit_code

    return run_entry_point(run)


if __name__ == "__main__":
    sys.exit(main())
