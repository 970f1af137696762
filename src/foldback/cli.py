"""Command-line front end.

Problems come in as JSON with every quantity an exact rational string
("p/q" or an integer); decimals are rejected outright. Reports go out
the same way, with deterministic field order, so byte identity of two
runs means identical results. Exit status: 0 all checks pass, 1 a
violation was found and reported, 2 the run itself failed.

The `problem` block echoed into every report is itself a valid problem,
and every witness probe together with that block forms one, which is
what makes reports replayable.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Mapping, Optional, Sequence

from . import __version__
from .acts import Act, Partition, StateSpace
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
    check_ev_properties,
    check_gamma_laws,
    check_sequential,
    check_sequential_exhaustive,
    check_set_order_conditions,
    default_set_family,
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

SUITES = ("gamma-laws", "ev-properties", "sequential", "set-order")
MODES = ("consensus", "certainty", "limit")

# The most states a problem may declare with `states`. The parser builds
# a vacuous measure from that count alone, one entry per state, before a
# verb sees the problem, so an unchecked count such as 10**9 would be an
# allocation of that size. Acts, weights and partitions are lists in the
# problem itself, so their sizes are paid for by its length. The largest
# problem in the tests and the benchmark has 20 states.
MAX_STATES = 1000

_PROBLEM_KEYS = {
    "states", "act", "partition", "framework", "measure", "operator",
    "suite", "grid-denominator", "sizes", "max-states", "stop-at-first",
    "mode", "state", "epsilons", "base", "family-max-size",
}


@dataclass(frozen=True)
class ProblemFile:
    """A parsed, validated problem."""

    operator: CeOperator
    framework: Framework = Framework.CREDAL_SET
    space: Optional[StateSpace] = None
    act: Optional[Act] = None
    partition: Optional[Partition] = None
    measure: Optional[PlausibilityMeasure] = None
    suite: Optional[str] = None
    grid_denominator: Optional[int] = None
    sizes: Optional[tuple[int, ...]] = None
    stop_at_first: bool = False
    mode: str = "consensus"
    state: Optional[int] = None
    epsilons: Optional[tuple[Fraction, ...]] = None
    base: Optional[tuple[Fraction, ...]] = None
    family_max_size: Optional[int] = None


@dataclass(frozen=True)
class ReportFile:
    payload: dict
    exit_code: int


# -- rational / JSON primitives ------------------------------------------


def _reject_float(text: str) -> None:
    raise ParseError(f"decimal literals are not accepted: {text!r}")


def loads_exact(text: str) -> Any:
    """json.loads that refuses floating-point literals."""
    try:
        return json.loads(text, parse_float=_reject_float,
                          parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None


def _rational(value: Any, label: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{label}: expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ParseError:
            raise ParseError(f"{label}: not an exact rational: {value!r}") from None
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
    if kind == "anchored":
        rule = Anchored(_rational(params.pop("anchor", None), "operator.anchor"))
    elif kind == "hurwicz":
        rule = Hurwicz(_rational(params.pop("alpha", None), "operator.alpha"))
    elif kind == "min":
        rule = MinRule()
    elif kind == "max":
        rule = MaxRule()
    elif kind == "median":
        rule = MedianRule()
    elif kind == "tabulated":
        entries = params.pop("entries", None)
        if not isinstance(entries, list):
            raise ParseError("operator.entries: expected a list of [x, y, value]")
        table = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError(f"operator.entries[{i}]: expected [x, y, value]")
            x, y, v = (_rational(part, f"operator.entries[{i}]") for part in entry)
            table.append((ZPair(x, y), v))
        rule = Tabulated(tuple(table))
    else:
        raise ParseError(f"operator.kind: unknown kind {kind!r}")
    if params:
        raise ParseError(f"operator: unexpected fields {sorted(params)}")
    return CeOperator(rule, probabilistic_rule=probabilistic,
                      credal_extension=extension)


def _parse_measure(record: Any, space: Optional[StateSpace],
                   framework: Framework) -> PlausibilityMeasure:
    if space is None:
        raise ValidationError("a measure needs a state space (states or act)")
    if record is None:
        record = {"kind": "vacuous"}
    if not isinstance(record, Mapping):
        raise ParseError("measure: expected an object")
    kind = record.get("kind")
    if kind == "vacuous":
        return vacuous(space, framework)
    if kind == "probability":
        return ProbabilityMeasure(_rational_list(record.get("weights"),
                                                 "measure.weights"))
    if kind == "credal-set":
        generators = record.get("generators")
        if generators is None:
            return CredalSetMeasure.full_simplex(space)
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
            members = _state_set(item.get("event"), f"measure.masses[{i}].event")
            pairs.append((members, _rational(item.get("mass"),
                                             f"measure.masses[{i}].mass")))
        return BeliefFunctionMeasure(space, tuple(pairs))
    if kind == "possibility":
        return PossibilityMeasure(_rational_list(record.get("grades"),
                                                 "measure.grades"))
    raise ParseError(f"measure.kind: unknown kind {kind!r}")


def parse_problem(raw: Mapping) -> ProblemFile:
    """Validate a problem dictionary into typed engine objects."""
    if not isinstance(raw, Mapping):
        raise ParseError("problem: expected a JSON object")
    unknown = set(raw) - _PROBLEM_KEYS
    if unknown:
        raise ParseError(f"problem: unknown fields {sorted(unknown)}")

    act = None
    if "act" in raw:
        if not isinstance(raw["act"], list):
            raise ParseError("act: expected a list of rationals")
        act = Act(_rational_list(raw["act"], "act"))

    space = act.space if act is not None else None
    if "states" in raw:
        states = _integer(raw["states"], "states")
        if states > MAX_STATES:
            raise ValidationError(f"states must be at most {MAX_STATES}, got {states}")
        declared = StateSpace(states)
        if space is not None and declared != space:
            raise ValidationError(
                f"states={declared.n} but the act has {space.n} outcomes")
        space = declared

    partition = None
    if "partition" in raw:
        if space is None:
            raise ValidationError("a partition needs a state space")
        blocks = raw["partition"]
        if not isinstance(blocks, list):
            raise ParseError("partition: expected a list of blocks")
        partition = Partition(space, tuple(
            _state_set(block, f"partition[{i}]") for i, block in enumerate(blocks)))

    framework = Framework.CREDAL_SET
    if "framework" in raw:
        try:
            framework = Framework(raw["framework"])
        except ValueError:
            raise ParseError(f"framework: unknown framework {raw['framework']!r}") from None

    measure_spec = raw.get("measure")
    if not isinstance(measure_spec, (Mapping, type(None))):
        raise ParseError("measure: expected an object")
    if isinstance(measure_spec, Mapping) and measure_spec.get("kind") not in (
            None, "vacuous"):
        implied = Framework(measure_spec["kind"]) if measure_spec["kind"] in (
            f.value for f in Framework) else None
        if implied is not None:
            if "framework" in raw and implied is not framework:
                raise ValidationError(
                    f"framework {framework.value!r} contradicts measure kind"
                    f" {measure_spec['kind']!r}")
            framework = implied

    measure = None
    if space is not None:
        measure = _parse_measure(measure_spec, space, framework)

    if "operator" not in raw:
        raise ParseError("problem: an operator is required")
    operator = _parse_operator(raw["operator"])

    suite = raw.get("suite")
    if suite is not None and not isinstance(suite, str):
        raise ParseError("suite: expected a string")

    grid_denominator = None
    if "grid-denominator" in raw:
        grid_denominator = _integer(raw["grid-denominator"], "grid-denominator")
        if grid_denominator < 1:
            raise ValidationError("grid-denominator must be >= 1")

    sizes = None
    if "sizes" in raw:
        if not isinstance(raw["sizes"], list):
            raise ParseError("sizes: expected a list of integers")
        sizes = tuple(_integer(n, "sizes") for n in raw["sizes"])
    if "max-states" in raw:
        top = _integer(raw["max-states"], "max-states")
        if top < 2:
            raise ValidationError("max-states must be >= 2")
        if sizes is not None:
            raise ValidationError("give either sizes or max-states, not both")
        sizes = tuple(range(2, top + 1))

    mode = raw.get("mode", "consensus")
    if mode not in MODES:
        raise ParseError(f"mode: expected one of {MODES}, got {mode!r}")

    if mode != "limit":
        for key in ("epsilons", "base"):
            if key in raw:
                raise ValidationError(
                    f"{key} needs mode 'limit', but the problem has mode {mode!r}")

    state = _integer(raw["state"], "state") if "state" in raw else None
    epsilons = (_rational_list(raw["epsilons"], "epsilons")
                if "epsilons" in raw else None)
    base = _rational_list(raw["base"], "base") if "base" in raw else None
    family_max_size = (_integer(raw["family-max-size"], "family-max-size")
                       if "family-max-size" in raw else None)

    return ProblemFile(
        operator=operator, framework=framework, space=space, act=act,
        partition=partition, measure=measure, suite=suite,
        grid_denominator=grid_denominator, sizes=sizes,
        stop_at_first=_boolean(raw.get("stop-at-first", False), "stop-at-first"),
        mode=mode, state=state, epsilons=epsilons, base=base,
        family_max_size=family_max_size)


# -- encoding -------------------------------------------------------------


def _enc(value: Fraction) -> str:
    return format_rational(value)


def encode_act(act: Act) -> list:
    return [_enc(u) for u in act.outcomes]


def encode_partition(partition: Partition) -> list:
    return [sorted(block) for block in partition.blocks]


def encode_rule(rule: VacuousRule) -> dict:
    if isinstance(rule, Anchored):
        return {"kind": "anchored", "anchor": _enc(rule.anchor)}
    if isinstance(rule, Hurwicz):
        return {"kind": "hurwicz", "alpha": _enc(rule.alpha)}
    if isinstance(rule, MinRule):
        return {"kind": "min"}
    if isinstance(rule, MaxRule):
        return {"kind": "max"}
    if isinstance(rule, MedianRule):
        return {"kind": "median"}
    if isinstance(rule, Tabulated):
        return {"kind": "tabulated", "entries": [
            [_enc(z.lower), _enc(z.upper), _enc(v)] for z, v in rule.entries]}
    raise ValidationError(f"cannot encode rule {rule!r}")


def encode_operator(op: CeOperator) -> dict:
    record = encode_rule(op.vacuous_rule)
    record["probabilistic-rule"] = op.probabilistic_rule
    record["credal-extension"] = op.credal_extension
    return record


def encode_measure(measure: PlausibilityMeasure) -> dict:
    if isinstance(measure, ProbabilityMeasure):
        return {"kind": "probability", "weights": [_enc(w) for w in measure.weights]}
    if isinstance(measure, CredalSetMeasure):
        if measure.is_full_simplex:
            return {"kind": "credal-set"}
        return {"kind": "credal-set", "generators": [
            [_enc(w) for w in gen] for gen in measure.generators]}
    if isinstance(measure, BeliefFunctionMeasure):
        return {"kind": "belief-function", "masses": [
            {"event": sorted(event), "mass": _enc(m)} for event, m in measure.masses]}
    if isinstance(measure, PossibilityMeasure):
        return {"kind": "possibility", "grades": [_enc(g) for g in measure.grades]}
    raise ValidationError(f"cannot encode measure {measure!r}")


def encode_probe(probe: Probe) -> dict:
    record: dict[str, Any] = {
        "outcomes": [_enc(u) for u in probe.outcomes],
        "framework": probe.framework.value,
    }
    if probe.weights is not None:
        record["weights"] = [_enc(w) for w in probe.weights]
    return record


def encode_witness(witness) -> dict:
    return {
        "inputs": list(witness.inputs),
        "left": _enc(witness.left),
        "right": _enc(witness.right),
        "probe-left": encode_probe(witness.probe_left),
        "probe-right": encode_probe(witness.probe_right),
    }


def encode_law_report(report: LawReport) -> dict:
    return {
        "law": report.law.value,
        "passed": report.passed,
        "witnesses": [encode_witness(w) for w in report.witnesses],
    }


class Shared(list):
    """A list that several records of one report hold.

    It is a plain list to every reader; `emit_report` writes it once at
    each indent where it sits and repeats that text for its other uses.
    It must not change while a report that holds it is being written.
    """

    __slots__ = ()


def encode_verdict(verdict: ConsistencyVerdict, encoded: dict) -> dict:
    """A verdict's report record.

    `encoded`, kept by the caller for one report, maps the id of each act,
    partition and value encoded so far to its encoding, so one that many
    verdicts share (as a sweep's failures share their act and partition
    across frameworks, and their interned values across cells) is encoded
    once: an act or a partition as one `Shared` list, a value as one
    string. The verdicts must stay alive while the map is in use.
    """
    act, partition = verdict.act, verdict.partition
    direct, folded = verdict.direct_value, verdict.folded_value
    if id(act) not in encoded:
        encoded[id(act)] = Shared(encode_act(act))
    if id(partition) not in encoded:
        encoded[id(partition)] = Shared(encode_partition(partition))
    if id(direct) not in encoded:
        encoded[id(direct)] = _enc(direct)
    if id(folded) not in encoded:
        encoded[id(folded)] = _enc(folded)
    record = {
        "act": encoded[id(act)],
        "partition": encoded[id(partition)],
        "direct": encoded[id(direct)],
        "folded": encoded[id(folded)],
        "holds": verdict.holds,
    }
    if verdict.framework is not None:
        record["framework"] = verdict.framework.value
    return record


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
        "framework": verdict_record.get("framework", Framework.CREDAL_SET.value),
        "measure": {"kind": "vacuous"},
        "operator": dict(operator_record),
    }


# -- commands -------------------------------------------------------------


def _problem_echo(problem: ProblemFile, **extras: Any) -> dict:
    echo: dict[str, Any] = {}
    if problem.space is not None:
        echo["states"] = problem.space.n
    if problem.act is not None:
        echo["act"] = encode_act(problem.act)
    if problem.partition is not None:
        echo["partition"] = encode_partition(problem.partition)
    echo["framework"] = problem.framework.value
    if problem.measure is not None:
        echo["measure"] = encode_measure(problem.measure)
    echo["operator"] = encode_operator(problem.operator)
    for key, value in extras.items():
        if value is not None:
            echo[key] = value
    return echo


def _refuse_stop_at_first(problem: ProblemFile, verb: str) -> None:
    if problem.stop_at_first:
        raise ValidationError(
            f"stop-at-first applies only to the sequential suite of check, not {verb}")


def cmd_evaluate(problem: ProblemFile) -> ReportFile:
    """Certainty equivalent of one act; with a partition, the fold too."""
    if problem.act is None or problem.measure is None:
        raise ValidationError("evaluate needs an act and a measure")
    _refuse_stop_at_first(problem, "evaluate")
    payload: dict[str, Any] = {
        "command": "evaluate",
        "engine-version": __version__,
        "problem": _problem_echo(problem),
    }
    if problem.partition is None:
        value = ce(problem.operator, problem.measure, problem.act)
        payload["ce"] = _enc(value)
        payload["summary"] = {"violations": 0}
        return ReportFile(payload, 0)
    verdict = check_sequential(problem.operator, problem.measure, problem.act,
                               problem.partition)
    payload["ce"] = _enc(verdict.direct_value)
    payload["folded"] = _enc(verdict.folded_value)
    payload["holds"] = verdict.holds
    payload["summary"] = {"violations": 0 if verdict.holds else 1}
    return ReportFile(payload, 0 if verdict.holds else 1)


def cmd_check(problem: ProblemFile, which: Optional[str] = None) -> ReportFile:
    """Run one law suite and report violations."""
    suite = which or problem.suite
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; expected one of {SUITES}")
    op = problem.operator
    if problem.stop_at_first and suite != "sequential":
        raise ValidationError(
            f"stop-at-first applies only to the sequential suite, not {suite!r}")
    if problem.sizes is not None and suite != "sequential":
        raise ValidationError(
            f"sizes and max-states apply only to the sequential suite, not {suite!r}")

    if suite == "gamma-laws":
        denominator = problem.grid_denominator or 16
        if isinstance(op.vacuous_rule, MedianRule):
            raise ValidationError("the median rule is not a pair rule")
        reports = check_gamma_laws(op.vacuous_rule, denominator)
        echo = _problem_echo(problem, suite=suite)
        echo["grid-denominator"] = denominator
    elif suite == "ev-properties":
        denominator = problem.grid_denominator or 4
        reports = check_ev_properties(op.vacuous_rule, denominator)
        echo = _problem_echo(problem, suite=suite)
        echo["grid-denominator"] = denominator
    elif suite == "set-order":
        denominator = problem.grid_denominator or 8
        max_size = problem.family_max_size or 3
        family = default_set_family(denominator, max_size)
        reports = check_set_order_conditions(op.vacuous_rule, family)
        echo = _problem_echo(problem, suite=suite)
        echo["grid-denominator"] = denominator
        echo["family-max-size"] = max_size
    else:
        denominator = problem.grid_denominator or 4
        cfg = SearchConfig(
            sizes=problem.sizes or (2, 3, 4), denominator=denominator,
            stop_at_first=problem.stop_at_first)
        failures = check_sequential_exhaustive(op, cfg)
        echo = _problem_echo(problem, suite=suite)
        echo["grid-denominator"] = denominator
        echo["sizes"] = list(cfg.sizes)
        echo["stop-at-first"] = cfg.stop_at_first
        encoded: dict = {}
        payload = {
            "command": "check",
            "engine-version": __version__,
            "problem": echo,
            "failures": [encode_verdict(v, encoded) for v in failures],
            "summary": {"violations": len(failures)},
        }
        return ReportFile(payload, 1 if failures else 0)

    violations = sum(len(r.witnesses) for r in reports)
    payload = {
        "command": "check",
        "engine-version": __version__,
        "problem": echo,
        "reports": [encode_law_report(r) for r in reports],
        "summary": {"violations": violations},
    }
    return ReportFile(payload, 1 if violations else 0)


def _encode_consensus(report: ConsensusReport) -> dict:
    return {
        "values": {
            Framework.CREDAL_SET.value: _enc(report.credal_value),
            Framework.BELIEF_FUNCTION.value: _enc(report.belief_value),
            Framework.POSSIBILITY.value: _enc(report.possibility_value),
        },
        "agree": report.agree,
    }


def _encode_convergence(report: ConvergenceReport) -> dict:
    return {
        "rows": [
            {"epsilon": _enc(row.epsilon), "lower": _enc(row.lower),
             "upper": _enc(row.upper), "value": _enc(row.value),
             "within-bound": row.within_bound}
            for row in report.rows],
        "limit-value": _enc(report.limit_value),
        "bound-satisfied": report.bound_satisfied,
    }


def cmd_consensus(problem: ProblemFile) -> ReportFile:
    """Cross-framework agreement in one of three modes."""
    if problem.act is None:
        raise ValidationError("consensus needs an act")
    _refuse_stop_at_first(problem, "consensus")
    rule = problem.operator.vacuous_rule
    act = problem.act
    payload: dict[str, Any] = {
        "command": "consensus",
        "engine-version": __version__,
        "mode": problem.mode,
        "problem": _problem_echo(problem),
    }
    if problem.mode == "consensus":
        report = consensus_check(rule, act)
        payload.update(_encode_consensus(report))
        ok = report.agree
    elif problem.mode == "certainty":
        if problem.state is None:
            raise ValidationError("certainty mode needs a state")
        payload["state"] = problem.state
        report = certainty_check(rule, act, problem.state)
        payload.update(_encode_consensus(report))
        ok = report.agree
    else:
        epsilons = problem.epsilons or (Fraction(1), Fraction(1, 2), Fraction(1, 4))
        base = problem.base or tuple(
            Fraction(1, act.space.n) for _ in act.space.states)
        family = ContaminationFamily(base, epsilons)
        payload["base"] = [_enc(w) for w in family.base]
        convergence = limit_check(rule, act, family)
        payload.update(_encode_convergence(convergence))
        ok = convergence.bound_satisfied
    payload["summary"] = {"violations": 0 if ok else 1}
    return ReportFile(payload, 0 if ok else 1)


# -- emission and entry point --------------------------------------------


def _write(value: Any, indent: str, out: list, shared: dict) -> None:
    """Append the pieces of `json.dumps(value, indent=2)`, nested at `indent`.

    Only the types reports are built from are accepted: dicts with
    string keys, lists, strings, ints, bools and None. A string inside
    a container is written with its separator as one piece, as the
    `json` encoder does, so the pieces held before the join stay few.
    A `Shared` list is written once per indent: `shared`, kept for one
    report, maps its id and the indent to its text.
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
        if type(value) is Shared:
            key = id(value), indent
            if key not in shared:
                pieces: list = []
                # a plain copy, so that it is written out, not looked up
                _write(list(value), indent, pieces, shared)
                shared[key] = "".join(pieces)
            out.append(shared[key])
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
                _write(item, inner, out, shared)
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
                _write(item, inner, out, shared)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"cannot write {type(value).__name__} into a report")


def emit_report(report: ReportFile) -> str:
    """The report as indented JSON, byte for byte `json.dumps(payload, indent=2)`."""
    out: list = []
    _write(report.payload, "", out, {})
    return "".join(out)


def _render_lines(value: Any, label: str, lines: list) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _render_lines(sub, f"{label}.{key}" if label else key, lines)
    elif isinstance(value, list):
        lines.append(f"{label}: {json.dumps(value)}")
    else:
        lines.append(f"{label}: {value}")


def render_table(payload: Mapping) -> str:
    """Flat key-path rendering for human eyes; machine format is JSON."""
    lines: list = []
    for key, value in payload.items():
        if key in ("reports", "failures", "rows"):
            seq = value if isinstance(value, list) else [value]
            lines.append(f"{key}: {len(seq)} entries")
            for i, entry in enumerate(seq):
                _render_lines(entry, f"{key}[{i}]", lines)
        else:
            _render_lines(value, key, lines)
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldback",
        description="Exact certainty-equivalent evaluation and law checking.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("evaluate", "check", "consensus"):
        p = sub.add_parser(verb)
        p.add_argument("--problem", required=True, help="path to a problem JSON file")
        p.add_argument("--format", choices=("machine", "table"), default="machine")
        p.add_argument("--grid-denominator", type=int)
        p.add_argument("--max-states", type=int)
        p.add_argument("--stop-at-first", action="store_true")
        if verb == "check":
            p.add_argument("--suite", choices=SUITES)
        if verb == "consensus":
            p.add_argument("--epsilon-list",
                           help="comma-separated rationals, e.g. 1,1/2,1/4")
    return parser


def _merge_flags(raw: dict, args: argparse.Namespace) -> dict:
    merged = dict(raw)
    if getattr(args, "suite", None):
        merged["suite"] = args.suite
    if args.grid_denominator is not None:
        merged["grid-denominator"] = args.grid_denominator
    if args.max_states is not None:
        merged.pop("sizes", None)
        merged["max-states"] = args.max_states
    if args.stop_at_first:
        merged["stop-at-first"] = True
    if getattr(args, "epsilon_list", None):
        mode = merged.get("mode", "limit")
        if mode in ("consensus", "certainty"):
            raise ValidationError(
                f"--epsilon-list needs mode 'limit', but the problem sets mode {mode!r}")
        merged["epsilons"] = args.epsilon_list.split(",")
        merged["mode"] = mode
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.problem, encoding="utf-8") as handle:
            raw = loads_exact(handle.read())
        if not isinstance(raw, dict):
            raise ParseError("problem: expected a JSON object")
        problem = parse_problem(_merge_flags(raw, args))
        if args.verb == "evaluate":
            report = cmd_evaluate(problem)
        elif args.verb == "check":
            report = cmd_check(problem)
        else:
            report = cmd_consensus(problem)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "table":
        print(render_table(report.payload))
    else:
        print(emit_report(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
