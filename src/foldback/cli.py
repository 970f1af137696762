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

The `problem` block of an `evaluate` report is a valid problem that
replays to the same report, and every witness probe with its report's
operator forms one. The blocks of `check` and `consensus` reports are
not: they echo `framework`, and `consensus` also `measure`, which those
runs refuse, and a `consensus` block lacks `mode`, `state`, `epsilons`
and `base`. Mending them changes report bytes, so it waits for a
re-recorded `perfbench/reference.json` (ROADMAP.md item 1).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Any, Optional

from . import __version__
from .acts import PARTITION_CAP, Act, Frozen, Partition, StateSpace
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
from .errors import CapExceeded, EngineError, ParseError, UnknownSuite, ValidationError
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

# The most states a problem may declare with `states`. A vacuous measure
# is built from that count alone, one entry per state, so an unchecked
# count such as 10**9 would be an allocation of that size. Acts, weights
# and partitions are lists in the problem itself, so their sizes are paid
# for by its length. The largest problem in the tests and the benchmark
# has 20 states.
MAX_STATES = 1000

# The most steps of work one `check` or `consensus limit` run may ask for
# (`_check_work`, and |epsilons| * states**2 for a limit run, one step per
# entry of a contaminated member's generators). The suites' work grows as
# a power of `grid-denominator`, `sizes` and `family-max-size`, so a
# problem of a few bytes could ask for hours and gigabytes; it is refused
# before any work starts. Every suite's default problem is admitted, the
# largest being set-order's at 149,769 steps. At the limit the slowest
# runs are those whose every step adds a witness or a failing cell to the
# report: Hurwicz(1/3) on gamma-laws k/406 takes about 15 s and 600 MB,
# and on a sequential sweep of k/10 about 9 s.
MAX_WORK = 250_000

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
        ("check sequential", _SUITE + " sizes max-states stop-at-first", 4),
        ("consensus consensus", _CONSENSUS, None),
        ("consensus certainty", _CONSENSUS + " state", None),
        ("consensus limit", _CONSENSUS + " epsilons base", None))}
_PROBLEM_KEYS = frozenset().union(*(keys for keys, _ in RUNS.values()))

# the fields each measure kind reads besides `kind`
_MEASURE_FIELDS = {"vacuous": (), "probability": ("weights",), "credal-set": ("generators",),
                  "belief-function": ("masses",), "possibility": ("grades",)}


class ReportFile(Frozen):
    payload: dict
    exit_code: int

    def __init__(self, payload: dict, exit_code: int) -> None:
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "exit_code", exit_code)


# -- rational / JSON primitives ------------------------------------------


def _reject_float(text: str) -> None:
    raise ParseError(f"decimal literals are not accepted: {text!r}")


def loads_exact(text: str) -> Any:
    """json.loads that refuses floating-point literals.

    It also refuses an integer literal longer than the interpreter
    converts to an int (4,300 digits by default), and arrays or objects
    nested deeper than the decoder can recurse.
    """
    try:
        return json.loads(text, parse_float=_reject_float,
                          parse_constant=_reject_float)
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
        # a grid table spells each grid value in many entries; parse it once
        literals: dict[str, Fraction] = {}

        def rational(part: Any, label: str) -> Fraction:
            if type(part) is not str:
                return _rational(part, label)
            if part not in literals:
                literals[part] = _rational(part, label)
            return literals[part]

        table = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ParseError(f"operator.entries[{i}]: expected [x, y, value]")
            label = f"operator.entries[{i}]"
            x, y, v = (rational(part, label) for part in entry)
            table.append((ZPair(x, y), v))
        rule = Tabulated(tuple(table))
    else:
        raise ParseError(f"operator.kind: unknown kind {kind!r}")
    _refuse_unread_fields(params, (), "operator")
    return CeOperator(rule, probabilistic_rule=probabilistic,
                      credal_extension=extension)


def _parse_measure(record: Optional[Mapping], space: StateSpace,
                   framework: Framework) -> PlausibilityMeasure:
    if record is None:
        record = {"kind": "vacuous"}
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
            _refuse_unread_fields(item, ("event", "mass"), f"measure.masses[{i}]")
            members = _state_set(item.get("event"), f"measure.masses[{i}].event")
            pairs.append((members, _rational(item.get("mass"),
                                             f"measure.masses[{i}].mass")))
        return BeliefFunctionMeasure(space, tuple(pairs))
    return PossibilityMeasure(_rational_list(record.get("grades"), "measure.grades"))


def parse_problem(raw: Mapping) -> dict[str, Any]:
    """Validate a problem dictionary into typed engine objects, one for each
    key it gives; `max-states` is stored as the `sizes` it stands for."""
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
        states = _integer(raw["states"], "states")
        if states > MAX_STATES:
            raise ValidationError(f"states must be at most {MAX_STATES}, got {states}")
        declared = StateSpace(states)
        if space is not None and declared != space:
            raise ValidationError(
                f"states={declared.n} but the act has {space.n} outcomes")
        problem["states"] = space = declared

    if "partition" in raw:
        if space is None:
            raise ValidationError("a partition needs a state space")
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

    measure_spec = raw.get("measure")
    if not isinstance(measure_spec, (Mapping, type(None))):
        raise ParseError("measure: expected an object")
    # a concrete measure's kind names its framework, which a given one must match
    if (isinstance(measure_spec, Mapping) and "framework" in raw
            and measure_spec.get("kind") in [f.value for f in Framework]
            and measure_spec["kind"] != framework.value):
        raise ValidationError(f"framework {framework.value!r} contradicts measure kind"
                              f" {measure_spec['kind']!r}")

    if "measure" in raw:
        # without a state space no run reads it: evaluate needs an act,
        # and every other run refuses the key
        problem["measure"] = (None if space is None
                              else _parse_measure(measure_spec, space, framework))

    if "operator" not in raw:
        raise ParseError("problem: an operator is required")
    problem["operator"] = _parse_operator(raw["operator"])

    if "suite" in raw:
        if raw["suite"] is not None and not isinstance(raw["suite"], str):
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
    if "max-states" in raw:
        top = _integer(raw["max-states"], "max-states")
        if top < 2:
            raise ValidationError("max-states must be >= 2")
        if top > PARTITION_CAP:
            # the sizes 2..top are built from this one number, and the sweep
            # refuses every size above the cap
            raise CapExceeded(f"sweep capped at n <= {PARTITION_CAP}, asked for {top}")
        if "sizes" in raw:
            raise ValidationError("give either sizes or max-states, not both")
        problem["sizes"] = tuple(range(2, top + 1))

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


class VerdictRecords(list):
    """Records of `encode_verdict`; a plain list to every reader but `_write`."""

    __slots__ = ()


def encode_verdict(verdict: ConsistencyVerdict, encoded: dict) -> dict:
    """A verdict's report record, with `framework` only when it has one.

    `encoded`, kept by the caller for one report, maps the id of each act,
    partition and value encoded so far to its encoding, so one that many
    verdicts share (as a sweep's failures share their act across
    partitions and frameworks, and their interned values across cells) is
    encoded once, as one list or string that their records hold. The
    verdicts must stay alive while the map is in use.
    """
    act, partition = verdict.act, verdict.partition
    direct, folded = verdict.direct_value, verdict.folded_value
    if id(act) not in encoded:
        encoded[id(act)] = encode_act(act)
    if id(partition) not in encoded:
        encoded[id(partition)] = encode_partition(partition)
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


def _refuse_unread(problem: Mapping[str, Any], run: str) -> Optional[int]:
    """Refuse every given key `run` does not read; return its default grid."""
    reads, grid = RUNS[run]
    # `max-states` is parsed into `sizes`, so a refusal names both spellings
    unread = {"sizes/max-states" if key == "sizes" else key for key in problem.keys() - reads}
    if unread:
        raise ValidationError(f"{run} does not read {', '.join(sorted(unread))}")
    return grid


def _bell(n: int) -> int:
    """The number of partitions of an n-element set."""
    row = [1]
    for _ in range(n - 1):
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1]


def _check_work(suite: str, points: int, sizes: Sequence[int], max_size: int) -> int:
    """Steps of work a check suite does on a grid of `points` points.

    A step is one value of the rule, one comparison of two values or one
    sweep cell (an act and a partition), whichever the suite repeats.
    """
    pairs = points * (points + 1) // 2
    if suite == "gamma-laws":
        # every pair is valued, and the iteration law values at most two more
        return 3 * pairs
    if suite == "ev-properties":
        # the range law values the sets of up to four points; monotonicity
        # and the modulus compare every two pairs
        return sum(math.comb(points, size) for size in range(1, 5)) + pairs ** 2
    if suite == "set-order":
        # strong independence compares every two family sets at every
        # point of the grid, which is the family's union
        family = 0
        for size in range(1, min(max_size, points) + 1):
            family += math.comb(points, size)
            if family > MAX_WORK:
                break  # the count is past the limit already
        return family ** 2 * points
    # every act on the grid with every partition of its states; the sweep
    # refuses a size above PARTITION_CAP itself, before any work
    return sum(points ** n * _bell(n) for n in sizes if 0 < n <= PARTITION_CAP)


def _steps(count: int) -> str:
    """`count` with separators; past the digits str() writes, a power of ten it is at least."""
    try:
        return f"{count:,}"
    except ValueError:  # 2 ** (bits - 1) <= count, and 0.30102 < log10(2)
        return f"10^{(count.bit_length() - 1) * 30102 // 100_000:,}"


def cmd_evaluate(problem: Mapping[str, Any]) -> ReportFile:
    """Certainty equivalent of one act; with a partition, the fold too."""
    _refuse_unread(problem, "evaluate")
    act = problem.get("act")
    if act is None:
        raise ValidationError("evaluate needs an act and a measure")
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
        payload["ce"] = _enc(value)
        payload["summary"] = {"violations": 0}
        return ReportFile(payload, 0)
    verdict = check_sequential(operator, measure, act, partition)
    payload["ce"] = _enc(verdict.direct_value)
    payload["folded"] = _enc(verdict.folded_value)
    payload["holds"] = verdict.holds
    payload["summary"] = {"violations": 0 if verdict.holds else 1}
    return ReportFile(payload, 0 if verdict.holds else 1)


def cmd_check(problem: Mapping[str, Any]) -> ReportFile:
    """Run one law suite and report violations."""
    suite = problem.get("suite")
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; expected one of {SUITES}")
    default = _refuse_unread(problem, f"check {suite}")
    denominator = problem.get("grid-denominator", default)
    sizes = problem.get("sizes", (2, 3, 4))
    max_size = problem.get("family-max-size", 3)
    work = _check_work(suite, denominator + 1, sizes, max_size)
    if work > MAX_WORK:
        try:
            grid = f"k/{denominator}"
        except ValueError:  # past the digits str() writes, as `_steps` spells a count
            grid = f"k/n with n >= {_steps(denominator)}"
        raise CapExceeded(f"check {suite} on grid {grid} needs at least"
                          f" {_steps(work)} steps of work; the limit is {MAX_WORK:,}")
    op = problem["operator"]
    # no check reads `framework`, yet the block echoes it (ROADMAP.md item 1)
    echo = {"framework": "credal-set", "operator": encode_operator(op), "suite": suite,
            "grid-denominator": denominator}

    if suite == "sequential":
        cfg = SearchConfig(sizes=sizes, denominator=denominator,
                           stop_at_first=problem.get("stop-at-first", False))
        failures = check_sequential_exhaustive(op, cfg)
        echo["sizes"] = list(cfg.sizes)
        echo["stop-at-first"] = cfg.stop_at_first
        encoded: dict = {}
        key, entries = "failures", VerdictRecords(encode_verdict(v, encoded) for v in failures)
        violations = len(failures)
    else:
        if suite == "gamma-laws":
            if isinstance(op.vacuous_rule, MedianRule):
                raise ValidationError("the median rule is not a pair rule")
            reports = check_gamma_laws(op.vacuous_rule, denominator)
        elif suite == "ev-properties":
            reports = check_ev_properties(op.vacuous_rule, denominator)
        else:
            family = default_set_family(denominator, max_size)
            reports = check_set_order_conditions(op.vacuous_rule, family)
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
        # echoes them (ROADMAP.md item 1)
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
        # each epsilon's member holds one generator of n entries per state
        member = act.space.n ** 2
        if len(epsilons) * member > MAX_WORK:
            raise CapExceeded(f"consensus limit on {act.space.n:,} states needs"
                              f" {len(epsilons) * member:,} steps of work, {member:,}"
                              f" per epsilon; the limit is {MAX_WORK:,}")
        family = ContaminationFamily(base, epsilons)
        payload["base"] = [_enc(w) for w in family.base]
        convergence = limit_check(rule, act, family)
        payload.update(_encode_convergence(convergence))
        ok = convergence.bound_satisfied
    payload["summary"] = {"violations": 0 if ok else 1}
    return ReportFile(payload, 0 if ok else 1)


# -- emission and entry point --------------------------------------------


def _write(value: Any, indent: str, out: list) -> None:
    """Append the pieces of `json.dumps(value, indent=2)`, nested at `indent`.

    Only the types reports are built from are accepted: dicts with
    string keys, lists, strings, ints, bools and None. A string inside
    a container is written with its separator as one piece, as the
    `json` encoder does, so the pieces held before the join stay few.
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
        if type(value) is VerdictRecords and value:
            _write_verdicts(value, indent, out)
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
                _write(item, inner, out)
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
                _write(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"cannot write {type(value).__name__} into a report")


def _write_verdicts(records: VerdictRecords, indent: str, out: list) -> None:
    """`_write` for a nonempty list of `encode_verdict`'s records.

    A run of records of one cell, equal in their first five keys (act,
    partition, direct, folded, holds), writes those keys once, each act's
    and partition's text made once and kept by id; each record then adds
    its `framework` line.
    """
    inner = indent + "  "
    fields = inner + "  "
    comma = ",\n" + fields
    close = "\n" + inner + "}"
    texts: dict = {}
    separator = "[\n" + inner
    last = None
    for record in records:
        cell = (record["act"], record["partition"], record["direct"], record["folded"],
                record["holds"])
        if cell != last:
            last = act, partition, direct, folded, holds = cell
            for value in (act, partition):
                if id(value) not in texts:
                    pieces: list = []
                    _write(value, fields, pieces)
                    texts[id(value)] = "".join(pieces)
            head = ("{\n" + fields + '"act": ' + texts[id(act)]
                    + comma + '"partition": ' + texts[id(partition)]
                    + comma + '"direct": ' + _quote(direct) + comma + '"folded": '
                    + _quote(folded) + comma + '"holds": ' + ("true" if holds else "false"))
        framework = record.get("framework")
        tail = close if framework is None else comma + '"framework": ' + _quote(framework) + close
        out.append(separator + head + tail)
        separator = ",\n" + inner
    out.append("\n" + indent + "]")


def emit_report(report: ReportFile) -> str:
    """The report as indented JSON, byte for byte `json.dumps(payload, indent=2)`."""
    out: list = []
    _write(report.payload, "", out)
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
    import argparse

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
    if getattr(args, "epsilon_list", None) is not None:
        mode = merged.get("mode", "limit")
        if mode in ("consensus", "certainty"):
            raise ValidationError(
                f"--epsilon-list needs mode 'limit', but the problem sets mode {mode!r}")
        merged["epsilons"] = args.epsilon_list.split(",")
        merged["mode"] = mode
    return merged


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    def run() -> int:
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
        print(render_table(report.payload) if args.format == "table"
              else emit_report(report))
        return report.exit_code

    return run_entry_point(run)


if __name__ == "__main__":
    sys.exit(main())
