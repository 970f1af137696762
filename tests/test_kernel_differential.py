"""The exhaustive checkers against their per-cell reference versions.

The functions named `reference_*` are the straightforward checkers the
kernels replaced: every cell goes through `ce` on real measures, every
law through `ce_vacuous`, `np_prefer` and `gamma_apply` with `Fraction`
arithmetic, with nothing memoised. The kernels (grid-index sweeps, and
law checkers that compare integer images of the values) must report the
same failures and witnesses, element by element and in the same order,
and raise the same errors.

The measure operations have references of the same kind: the
`reference_*` measure functions are the `Fraction` bodies the integer
kernels replaced, possibility expectations through consonant masses
included, building every result by public, validating construction.
The kernels must give equal results with equal hashes and reprs.
"""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cst
from foldback import (
    Act,
    Anchored,
    BeliefFunctionMeasure,
    CeOperator,
    ConsistencyVerdict,
    ContaminationFamily,
    CredalSetMeasure,
    Framework,
    Hurwicz,
    LawId,
    LawReport,
    MaxRule,
    MedianRule,
    MinRule,
    NotTabulated,
    Partition,
    PossibilityMeasure,
    Preference,
    ProbabilityMeasure,
    SearchConfig,
    StateSpace,
    Tabulated,
    ValidationError,
    ZPair,
    UnsupportedCombination,
    ZeroPlausibilityEvent,
    ce,
    ce_vacuous,
    check_ev_properties,
    check_gamma_laws,
    check_sequential_exhaustive,
    check_set_order_conditions,
    condition,
    condition_act,
    default_set_family,
    enumerate_lawful_gamma_tables,
    enumerate_partitions,
    evaluate,
    expectation_bounds,
    gamma_apply,
    limit_check,
    np_prefer,
    outcome_set,
    restrict,
    tabulate,
    vacuous,
)
from foldback import cli, consistency
from foldback.cli import cmd_check, emit_report, encode_verdict
from foldback.consistency import (
    DEFAULT_LIPSCHITZ,
    Probe,
    Witness,
    _grid_valuation,
    count_lawful_gamma_tables,
)
from foldback.plausibility import VACUOUS_FRAMEWORKS
from foldback.rationals import ONE, ZERO, format_rational, unit_grid

F = Fraction


# -- reference checkers ----------------------------------------------------


def reference_sequential_exhaustive(op, cfg):
    grid = unit_grid(cfg.denominator)
    failures = []
    for n in cfg.sizes:
        space = StateSpace(n)
        ignorant = {fw: vacuous(space, fw) for fw in cfg.frameworks}
        prepared = []
        for H in enumerate_partitions(space):
            per_fw = tuple(
                (fw,
                 restrict(ignorant[fw], H),
                 tuple(condition(ignorant[fw], block) for block in H.blocks))
                for fw in cfg.frameworks)
            prepared.append((H, per_fw))
        for outcomes in itertools.product(grid, repeat=n):
            act = Act(outcomes)
            direct = {}
            for H, per_fw in prepared:
                pieces = tuple(
                    condition_act(act, block) for block in H.blocks)
                for fw, restricted, conditioned in per_fw:
                    if fw not in direct:
                        direct[fw] = ce(op, ignorant[fw], act)
                    block_values = tuple(
                        ce(op, cm, piece) for cm, piece in zip(conditioned, pieces))
                    folded = ce(op, restricted, Act(block_values))
                    if direct[fw] != folded:
                        failures.append(ConsistencyVerdict(
                            False, direct[fw], folded, H, act, fw))
                        if cfg.stop_at_first:
                            return failures
    return failures


def _fmt(value):
    return format_rational(value)


def _fmt_set(values):
    return "{" + ", ".join(_fmt(v) for v in sorted(values)) + "}"


def _pair_probe(x, y):
    return Probe((x, y))


def _constant_probe(c):
    return Probe((c,), Framework.PROBABILITY, (ONE,))


def reference_modulus(lipschitz):
    # a negative modulus bounds no two values, equal ones included
    if lipschitz < 0:
        raise ValidationError(f"the Lipschitz modulus must be >= 0, got {lipschitz}")


def reference_gamma_laws(rule, denominator, *, lipschitz=DEFAULT_LIPSCHITZ):
    reference_modulus(lipschitz)
    grid = unit_grid(denominator)
    step = F(1, denominator)
    pairs = [(x, y) for x in grid for y in grid if x <= y]
    value = {pair: gamma_apply(rule, ZPair(*pair)) for pair in pairs}

    def lower_neighbors(x, y):
        if x - step >= 0:
            yield x - step, y
        if y - step >= x:
            yield x, y - step

    idem = []
    for c in grid:
        got = value[(c, c)]
        if got != c:
            idem.append(Witness((_fmt(c),), got, c, _pair_probe(c, c), _constant_probe(c)))

    mono = []
    for x, y in pairs:
        for x2, y2 in lower_neighbors(x, y):
            if value[(x, y)] < value[(x2, y2)]:
                mono.append(Witness(
                    (_fmt(x), _fmt(y), _fmt(x2), _fmt(y2)),
                    value[(x, y)], value[(x2, y2)],
                    _pair_probe(x, y), _pair_probe(x2, y2)))

    iteration = []
    for x, y in pairs:
        g = value[(x, y)]
        gxx, gyy = value[(x, x)], value[(y, y)]
        if gxx <= g:
            via_lower = gamma_apply(rule, ZPair(gxx, g))
            if via_lower != g:
                iteration.append(Witness(
                    (_fmt(x), _fmt(y), "via-lower"),
                    via_lower, g, _pair_probe(gxx, g), _pair_probe(x, y)))
        else:
            iteration.append(Witness(
                (_fmt(x), _fmt(y), "via-lower", "inner-pair-out-of-order"),
                gxx, g, _pair_probe(x, x), _pair_probe(x, y)))
        if g <= gyy:
            via_upper = gamma_apply(rule, ZPair(g, gyy))
            if via_upper != g:
                iteration.append(Witness(
                    (_fmt(x), _fmt(y), "via-upper"),
                    via_upper, g, _pair_probe(g, gyy), _pair_probe(x, y)))
        else:
            iteration.append(Witness(
                (_fmt(x), _fmt(y), "via-upper", "inner-pair-out-of-order"),
                g, gyy, _pair_probe(x, y), _pair_probe(y, y)))

    lipped = []
    for x, y in pairs:
        for x2, y2 in lower_neighbors(x, y):
            gap = abs(value[(x, y)] - value[(x2, y2)])
            if gap > lipschitz * step:
                lipped.append(Witness(
                    (_fmt(x), _fmt(y), _fmt(x2), _fmt(y2)),
                    value[(x, y)], value[(x2, y2)],
                    _pair_probe(x, y), _pair_probe(x2, y2)))

    return [
        LawReport(LawId.GAMMA_IDEMPOTENCE, not idem, tuple(idem)),
        LawReport(LawId.GAMMA_MONOTONE, not mono, tuple(mono)),
        LawReport(LawId.GAMMA_ITERATION, not iteration, tuple(iteration)),
        LawReport(LawId.LIPSCHITZ_CONTINUITY, not lipped, tuple(lipped)),
    ]


def reference_ev_properties(rule, denominator, *, lipschitz=DEFAULT_LIPSCHITZ):
    reference_modulus(lipschitz)
    grid = unit_grid(denominator)
    pairs = [(x, y) for x in grid for y in grid if x <= y]

    unanimity = []
    for c in grid:
        got = ce_vacuous(rule, frozenset((c,)))
        if got != c:
            unanimity.append(Witness(
                (_fmt(c),), got, c, Probe((c,)), _constant_probe(c)))

    range_law = []
    for size in range(1, 5):
        for combo in itertools.combinations(grid, size):
            outcomes = frozenset(combo)
            full = ce_vacuous(rule, outcomes)
            extremes = ce_vacuous(rule, frozenset((min(combo), max(combo))))
            if full != extremes:
                range_law.append(Witness(
                    (_fmt_set(outcomes),), full, extremes,
                    Probe(tuple(sorted(outcomes))),
                    _pair_probe(min(combo), max(combo))))

    mono = []
    lipped = []
    values = {pair: ce_vacuous(rule, frozenset(pair)) for pair in pairs}
    for x, y in pairs:
        for x2, y2 in pairs:
            if x >= x2 and y >= y2 and values[(x, y)] < values[(x2, y2)]:
                mono.append(Witness(
                    (_fmt(x), _fmt(y), _fmt(x2), _fmt(y2)),
                    values[(x, y)], values[(x2, y2)],
                    _pair_probe(x, y), _pair_probe(x2, y2)))
            gap = abs(values[(x, y)] - values[(x2, y2)])
            if gap > lipschitz * (abs(x - x2) + abs(y - y2)):
                lipped.append(Witness(
                    (_fmt(x), _fmt(y), _fmt(x2), _fmt(y2)),
                    values[(x, y)], values[(x2, y2)],
                    _pair_probe(x, y), _pair_probe(x2, y2)))

    return [
        LawReport(LawId.UNANIMITY, not unanimity, tuple(unanimity)),
        LawReport(LawId.RANGE, not range_law, tuple(range_law)),
        LawReport(LawId.MONOTONICITY, not mono, tuple(mono)),
        LawReport(LawId.LIPSCHITZ_CONTINUITY, not lipped, tuple(lipped)),
    ]


def reference_set_order_conditions(rule, family):
    sets = [frozenset(member) for member in family]
    pool = sorted(set().union(*sets)) if sets else []

    def value(outcomes):
        return ce_vacuous(rule, outcomes)

    cond_i = []
    for base in sets:
        for x in pool:
            for y in pool:
                if x <= y:
                    continue
                if np_prefer(rule, base | {x}, base | {y}) is Preference.STRICTLY_DISPREFERS:
                    cond_i.append(Witness(
                        (_fmt_set(base), _fmt(x), _fmt(y)),
                        value(base | {x}), value(base | {y}),
                        Probe(tuple(sorted(base | {x}))),
                        Probe(tuple(sorted(base | {y})))))

    cond_si = []
    for left in sets:
        for right in sets:
            if np_prefer(rule, left, right) is Preference.STRICTLY_DISPREFERS:
                continue
            for x in pool:
                if np_prefer(rule, left | {x}, right | {x}) is Preference.STRICTLY_DISPREFERS:
                    cond_si.append(Witness(
                        (_fmt_set(left), _fmt_set(right), _fmt(x)),
                        value(left | {x}), value(right | {x}),
                        Probe(tuple(sorted(left | {x}))),
                        Probe(tuple(sorted(right | {x})))))

    cond_m = []
    for small in sets:
        for big in sets:
            if not small < big:
                continue
            if np_prefer(rule, big, small) is Preference.STRICTLY_DISPREFERS:
                cond_m.append(Witness(
                    (_fmt_set(small), _fmt_set(big)),
                    value(big), value(small),
                    Probe(tuple(sorted(big))),
                    Probe(tuple(sorted(small)))))

    return [
        LawReport(LawId.CONDITION_I, not cond_i, tuple(cond_i)),
        LawReport(LawId.CONDITION_SI, not cond_si, tuple(cond_si)),
        LawReport(LawId.CONDITION_M, not cond_m, tuple(cond_m)),
    ]


def reference_lawful_gamma_tables(denominator, *, lipschitz=DEFAULT_LIPSCHITZ):
    reference_modulus(lipschitz)
    grid = unit_grid(denominator)
    step = F(1, denominator)
    cells = [(x, y) for x in grid for y in grid if x < y]
    table = {ZPair(c, c): c for c in grid}

    def grid_range(lo, hi):
        k = lo
        while k <= hi:
            yield k
            k += step

    found = []

    def fill(index):
        if index == len(cells):
            candidate = Tabulated(tuple(table.items()))
            if all(report.passed
                   for report in reference_gamma_laws(candidate, denominator,
                                                      lipschitz=lipschitz)):
                found.append(candidate)
            return
        x, y = cells[index]
        below = table[ZPair(x, y - step)] if y - step >= x else x
        left = table[ZPair(x - step, y)] if x - step >= 0 else None
        lo = max(x, below, left if left is not None else x)
        hi = min(y, below + lipschitz * step)
        if left is not None:
            hi = min(hi, left + lipschitz * step)
        for candidate_value in grid_range(lo, hi):
            key = ZPair(x, y)
            table[key] = candidate_value
            fill(index + 1)
            del table[key]

    fill(0)
    return found


# -- reference measure operations ------------------------------------------


def reference_consonant_masses(measure):
    """The belief function whose nested focal elements are the level sets."""
    levels = sorted(set(measure.grades), reverse=True)
    masses = []
    for i, grade in enumerate(levels):
        cut = frozenset(s for s in measure.space.states if measure.grades[s] >= grade)
        below = levels[i + 1] if i + 1 < len(levels) else ZERO
        masses.append((cut, grade - below))
    return BeliefFunctionMeasure(measure.space, tuple(masses))


def reference_value(measure, event):
    if isinstance(measure, ProbabilityMeasure):
        p = sum((measure.weights[s] for s in event), ZERO)
        return ZPair(p, p)
    if isinstance(measure, CredalSetMeasure):
        if measure.is_full_simplex:
            if not event:
                return ZPair(ZERO, ZERO)
            if len(event) == measure.space.n:
                return ZPair(ONE, ONE)
            return ZPair(ZERO, ONE)
        sums = [sum((gen[s] for s in event), ZERO) for gen in measure.generators]
        return ZPair(min(sums), max(sums))
    if isinstance(measure, BeliefFunctionMeasure):
        belief = sum((m for focal, m in measure.masses if focal <= event), ZERO)
        plaus = sum((m for focal, m in measure.masses if focal & event), ZERO)
        return ZPair(belief, plaus)
    possible = max((measure.grades[s] for s in event), default=ZERO)
    complement_possible = max(
        (measure.grades[s] for s in measure.space.states if s not in event), default=ZERO)
    return ZPair(ONE - complement_possible, possible)


def reference_restrict(measure, partition):
    blocks = partition.blocks
    if isinstance(measure, ProbabilityMeasure):
        return ProbabilityMeasure(tuple(
            sum((measure.weights[s] for s in block), ZERO) for block in blocks))
    if isinstance(measure, CredalSetMeasure):
        if measure.is_full_simplex:
            return CredalSetMeasure.full_simplex(partition.quotient)
        return CredalSetMeasure(partition.quotient, tuple(
            tuple(sum((gen[s] for s in block), ZERO) for block in blocks)
            for gen in measure.generators))
    if isinstance(measure, BeliefFunctionMeasure):
        coarsened = {}
        for focal, mass in measure.masses:
            image = frozenset(i for i, block in enumerate(blocks) if block & focal)
            coarsened[image] = coarsened.get(image, ZERO) + mass
        return BeliefFunctionMeasure(partition.quotient, tuple(coarsened.items()))
    return PossibilityMeasure(
        tuple(max(measure.grades[s] for s in block) for block in blocks))


def reference_condition(measure, event):
    kept = sorted(event)
    if isinstance(measure, ProbabilityMeasure):
        total = sum((measure.weights[s] for s in kept), ZERO)
        if total == 0:
            raise ZeroPlausibilityEvent(f"event {kept} has probability zero")
        return ProbabilityMeasure(tuple(measure.weights[s] / total for s in kept))
    if isinstance(measure, CredalSetMeasure):
        if measure.is_full_simplex:
            return CredalSetMeasure.full_simplex(StateSpace(len(kept)))
        conditioned = []
        for gen in measure.generators:
            total = sum((gen[s] for s in kept), ZERO)
            if total == 0:
                continue
            conditioned.append(tuple(gen[s] / total for s in kept))
        if not conditioned:
            raise ZeroPlausibilityEvent(f"event {kept} has upper probability zero")
        return CredalSetMeasure(StateSpace(len(kept)), tuple(conditioned))
    if isinstance(measure, BeliefFunctionMeasure):
        relabel = {s: i for i, s in enumerate(kept)}
        plaus = reference_value(measure, event).upper
        if plaus == 0:
            raise ZeroPlausibilityEvent(f"event {kept} has plausibility zero")
        transferred = {}
        for focal, mass in measure.masses:
            trace = focal & event
            if not trace:
                continue
            image = frozenset(relabel[s] for s in trace)
            transferred[image] = transferred.get(image, ZERO) + mass / plaus
        return BeliefFunctionMeasure(StateSpace(len(kept)), tuple(transferred.items()))
    peak = max(measure.grades[s] for s in kept)
    if peak == 0:
        raise ZeroPlausibilityEvent(f"event {kept} has possibility zero")
    return PossibilityMeasure(tuple(measure.grades[s] / peak for s in kept))


def reference_expectation(measure, act):
    outcomes = act.outcomes
    if isinstance(measure, ProbabilityMeasure):
        value = sum((w * u for w, u in zip(measure.weights, outcomes)), ZERO)
        return ZPair(value, value)
    if isinstance(measure, CredalSetMeasure):
        if measure.is_full_simplex:
            return ZPair(min(outcomes), max(outcomes))
        values = [sum((w * u for w, u in zip(gen, outcomes)), ZERO)
                  for gen in measure.generators]
        return ZPair(min(values), max(values))
    if isinstance(measure, PossibilityMeasure):
        measure = reference_consonant_masses(measure)
    lower = sum((m * min(outcomes[s] for s in focal) for focal, m in measure.masses), ZERO)
    upper = sum((m * max(outcomes[s] for s in focal) for focal, m in measure.masses), ZERO)
    return ZPair(lower, upper)


def reference_member(family, epsilon):
    return CredalSetMeasure(family.space, tuple(
        tuple((ONE - epsilon) * w + (epsilon if s == t else ZERO)
              for t, w in enumerate(family.base))
        for s in family.space.states))


# -- rules under test ------------------------------------------------------


def _steep_table():
    # a lawful-under-(i)-(iii) table on k/4 that is not anchored: it
    # covers the grids k/1, k/2 and k/4 but not k/3
    relaxed = enumerate_lawful_gamma_tables(4, lipschitz=F(10 ** 6))
    anchored = {tabulate(Anchored(a), 4) for a in unit_grid(4)}
    return next(t for t in relaxed if t not in anchored)


STEEP = _steep_table()
RULES = {
    "anchored-0": Anchored(F(0)),
    "anchored-1/3": Anchored(F(1, 3)),
    "anchored-1/2": Anchored(F(1, 2)),
    "anchored-1": Anchored(F(1)),
    "min": MinRule(),
    "max": MaxRule(),
    "hurwicz-1/4": Hurwicz(F(1, 4)),
    "hurwicz-1/2": Hurwicz(F(1, 2)),
    "hurwicz-2/3": Hurwicz(F(2, 3)),
    "hurwicz-1": Hurwicz(F(1)),
    "median": MedianRule(),
    # covers the grids k/d for the d dividing 48, and no other grid up to k/16
    "table-anchored-1/4": tabulate(Anchored(F(1, 4)), 48),
    "table-steep": STEEP,
}
PAIR_RULES = {name: rule for name, rule in RULES.items() if name != "median"}
# negative, zero, fractional, integer and huge moduli, exact at the
# points where a float would round: 1/2 bounds Hurwicz(1/2)'s gaps on k/3
# at exactly 1/6, and 1/10 has no binary expansion
MODULI = [F(-10 ** 6), F(-1), F(-1, 2), F(0), F(1, 10), F(1, 6), F(1, 3),
          F(1, 2), F(1), F(3, 2), 2, F(10 ** 6)]
GRIDS = list(range(1, 17))
REVERSED = (Framework.POSSIBILITY, Framework.BELIEF_FUNCTION, Framework.CREDAL_SET)


def rules(table):
    return pytest.mark.parametrize("rule", list(table.values()), ids=list(table))


def _run(checker, *args, **kwargs):
    """A checker's result, or the type and message of what it raised."""
    try:
        return checker(*args, **kwargs)
    except (NotTabulated, ValidationError) as exc:
        return ("raised", type(exc), str(exc))


# -- folding sweep ---------------------------------------------------------


@rules(RULES)
@pytest.mark.parametrize("denominator", [1, 2])
def test_sweep_matches_reference(rule, denominator):
    cfg = SearchConfig(sizes=(1, 2, 3, 4), denominator=denominator,
                       frameworks=REVERSED[:2])
    op = CeOperator(rule)
    assert check_sequential_exhaustive(op, cfg) == reference_sequential_exhaustive(op, cfg)


@pytest.mark.parametrize("name,denominator", [
    ("anchored-1/3", 3), ("hurwicz-2/3", 3), ("median", 3), ("table-steep", 3),
    ("anchored-1/2", 4), ("hurwicz-1/2", 4), ("median", 4), ("table-steep", 4),
])
def test_sweep_matches_reference_on_finer_grids(name, denominator):
    # the steep table is cut from k/4, so on k/3 both must raise alike
    cfg = SearchConfig(sizes=(1, 2, 3, 4), denominator=denominator,
                       frameworks=(Framework.BELIEF_FUNCTION,))
    op = CeOperator(RULES[name])
    expected = _run(reference_sequential_exhaustive, op, cfg)
    assert _run(check_sequential_exhaustive, op, cfg) == expected
    raised = isinstance(expected, tuple)
    assert raised == (name == "table-steep" and denominator == 3)


@pytest.mark.parametrize("frameworks", [
    (Framework.CREDAL_SET, Framework.BELIEF_FUNCTION, Framework.POSSIBILITY),
    REVERSED,
    (Framework.POSSIBILITY, Framework.CREDAL_SET),
    (Framework.BELIEF_FUNCTION,),
], ids=lambda fws: "+".join(fw.value for fw in fws))
@pytest.mark.parametrize("stop_at_first", [False, True])
@rules({"hurwicz-1/2": Hurwicz(F(1, 2)), "median": MedianRule(),
        "anchored-1/4": Anchored(F(1, 4)), "table-hurwicz": tabulate(Hurwicz(F(1, 2)), 2)})
def test_sweep_framework_order_and_stop_at_first(rule, stop_at_first, frameworks):
    cfg = SearchConfig(sizes=(3, 2), denominator=2, frameworks=frameworks,
                       stop_at_first=stop_at_first)
    op = CeOperator(rule)
    expected = _run(reference_sequential_exhaustive, op, cfg)
    assert _run(check_sequential_exhaustive, op, cfg) == expected


def test_uncovered_table_raises_at_the_same_first_miss():
    # Hurwicz values such as 1/4 leave the k/2 grid the table was cut from
    cfg = SearchConfig(sizes=(3,), denominator=2)
    op = CeOperator(tabulate(Hurwicz(F(1, 2)), 2))
    with pytest.raises(NotTabulated) as expected:
        reference_sequential_exhaustive(op, cfg)
    with pytest.raises(NotTabulated) as got:
        check_sequential_exhaustive(op, cfg)
    assert str(got.value) == str(expected.value)


def _value_once(monkeypatch) -> set:
    """Make the sweep value outcome sets through `ce_vacuous` alone, and
    each distinct one once; return the set of the sets it values."""
    valued = set()

    def value_once(rule, outcomes):
        outcomes = frozenset(outcomes)
        assert outcomes not in valued, f"{sorted(outcomes)} valued twice"
        valued.add(outcomes)
        return ce_vacuous(rule, outcomes)

    def refuse(*args):
        raise AssertionError("the sweep values outcome sets through ce_vacuous only")

    monkeypatch.setattr(consistency, "_grid_valuation", refuse)
    monkeypatch.setattr(consistency, "ce_vacuous", value_once)
    return valued


@pytest.mark.parametrize("stop_at_first", [False, True])
@rules({"hurwicz-1/3": Hurwicz(F(1, 3)), "median": MedianRule(),
        "table-hurwicz-1/2": tabulate(Hurwicz(F(1, 2)), 48)})
def test_sweep_values_each_outcome_set_once(rule, stop_at_first, monkeypatch):
    # an act's, a block's or a set of block values: each distinct set once
    valued = _value_once(monkeypatch)
    op = CeOperator(rule)
    cfg = SearchConfig(sizes=(1, 2, 3, 4), denominator=2, stop_at_first=stop_at_first)
    assert check_sequential_exhaustive(op, cfg) == reference_sequential_exhaustive(op, cfg)
    assert valued


@pytest.mark.parametrize("rule,denominator,sets", [
    (MedianRule(), 2, 7), (Hurwicz(F(1, 3)), 4, 163),
], ids=["median-on-k2", "hurwicz-1-3-on-k4"])
def test_sweep_values_its_distinct_outcome_sets(rule, denominator, sets, monkeypatch):
    # on sizes 2 to 4: the sets of up to four grid points, then the sets of
    # block values that are no such set
    valued = _value_once(monkeypatch)
    check_sequential_exhaustive(CeOperator(rule), SearchConfig(denominator=denominator))
    assert len(valued) == sets


# every rule kind; Hurwicz(1/2)'s values on k/1 to k/3 and on pairs of
# them lie on k/48, so its table covers every pair these sweeps ask for
SWEEP_RULES = {name: RULES[name] for name in ("anchored-1/3", "min", "max", "hurwicz-1/4",
                                               "median")}
SWEEP_RULES["table-hurwicz-1/2"] = tabulate(Hurwicz(F(1, 2)), 48)


@rules(SWEEP_RULES)
@pytest.mark.parametrize("denominator", [1, 2, 3])
@pytest.mark.parametrize("frameworks,stop_at_first", [
    ((Framework.BELIEF_FUNCTION,), False),
    (VACUOUS_FRAMEWORKS, False),
    (REVERSED, False),
    (VACUOUS_FRAMEWORKS, True),
], ids=["one-framework", "three-frameworks", "three-reversed", "stop-at-first"])
def test_sweep_records_match_encode_verdict(rule, denominator, frameworks, stop_at_first,
                                            monkeypatch):
    # `cmd_check` holds one record per failing cell and writes it once per
    # framework; the reference encodes every verdict alone, with a map of
    # its own
    op = CeOperator(rule)
    cfg = SearchConfig(sizes=(1, 2, 3, 4), denominator=denominator, frameworks=frameworks,
                       stop_at_first=stop_at_first)
    expected = [encode_verdict(v, {}) for v in check_sequential_exhaustive(op, cfg)]
    # the CLI sweeps the three vacuous frameworks in their order; here it
    # sweeps those of the case
    monkeypatch.setattr(cli, "SearchConfig", functools.partial(SearchConfig,
                                                               frameworks=frameworks))
    report = cmd_check({"operator": op, "suite": "sequential", "grid-denominator": denominator,
                        "sizes": (1, 2, 3, 4), "stop-at-first": stop_at_first})
    # each cell's record is that of its first verdict
    assert [list(record.items()) for record in report.payload["failures"]] == \
        [list(record.items()) for record in expected[::len(frameworks)]]
    assert report.payload["summary"]["violations"] == len(expected)
    # the anchored family folds, and so does the median on 0/1 acts
    folds = isinstance(rule, (Anchored, MinRule, MaxRule)) or (
        isinstance(rule, MedianRule) and denominator == 1)
    assert bool(expected) != folds
    cst.assert_same_text(emit_report(report),
                         json.dumps(dict(report.payload, failures=expected), indent=2))


# -- grid valuation --------------------------------------------------------


def _masks(denominator):
    """Non-empty sets of grid indices as bitmasks, in increasing order:
    all of them up to k/6; on finer grids every singleton and pair and a
    fixed sample of larger sets."""
    top = 1 << (denominator + 1)
    if denominator <= 6:
        return range(1, top)
    points = range(denominator + 1)
    pairs = {1 << i | 1 << j for i in points for j in points}
    rng = random.Random(denominator)
    return sorted(pairs | {rng.randrange(1, top) for _ in range(150)})


@rules(RULES)
@pytest.mark.parametrize("denominator", GRIDS)
def test_grid_valuation_matches_ce_vacuous(rule, denominator):
    # masks in increasing order, so an uncovered table raises the same
    # first NotTabulated, on the same pair, as ce_vacuous
    grid = unit_grid(denominator)
    value = _grid_valuation(rule, grid)
    for mask in _masks(denominator):
        outcomes = frozenset(x for k, x in enumerate(grid) if mask >> k & 1)
        assert _outcome(value, mask) == _outcome(ce_vacuous, rule, outcomes)


# -- law checkers ----------------------------------------------------------


def rules_named(*names):
    return rules({name: RULES[name] for name in names})


def moduli():
    return pytest.mark.parametrize("lipschitz", MODULI, ids=str)


@rules(PAIR_RULES)
@pytest.mark.parametrize("denominator", GRIDS)
def test_gamma_laws_match_reference(rule, denominator):
    expected = _run(reference_gamma_laws, rule, denominator)
    assert _run(check_gamma_laws, rule, denominator) == expected


@moduli()
@pytest.mark.parametrize("denominator", [1, 3, 4, 16])
@rules_named("hurwicz-1/4", "anchored-1/3", "table-anchored-1/4", "table-steep")
def test_gamma_laws_match_reference_for_any_modulus(rule, denominator, lipschitz):
    expected = _run(reference_gamma_laws, rule, denominator, lipschitz=lipschitz)
    assert _run(check_gamma_laws, rule, denominator, lipschitz=lipschitz) == expected


@rules(RULES)
@pytest.mark.parametrize("denominator", GRIDS[:8])
def test_ev_properties_match_reference(rule, denominator):
    expected = _run(reference_ev_properties, rule, denominator)
    assert _run(check_ev_properties, rule, denominator) == expected


@pytest.mark.parametrize("name,denominator", [
    ("anchored-1/3", 12), ("median", 12), ("hurwicz-2/3", 16)])
def test_ev_properties_match_reference_on_fine_grids(name, denominator):
    rule = RULES[name]
    assert check_ev_properties(rule, denominator) == \
        reference_ev_properties(rule, denominator)


@moduli()
@pytest.mark.parametrize("denominator", [3, 4])
@rules_named("hurwicz-1/4", "anchored-1/3", "median", "table-steep")
def test_ev_properties_match_reference_for_any_modulus(rule, denominator, lipschitz):
    expected = _run(reference_ev_properties, rule, denominator, lipschitz=lipschitz)
    assert _run(check_ev_properties, rule, denominator, lipschitz=lipschitz) == expected


@st.composite
def grid_tables(draw):
    """A grid k/2 to k/4 and a table of it whose values are twelfths drawn
    from a range (a one-value range is constant), monotone when a drawn
    flag asks for each cell's running maximum over its lower neighbors."""
    denominator = draw(st.integers(2, 4))
    grid = unit_grid(denominator)
    low = draw(st.integers(0, 12))
    high = draw(st.integers(low, 12))
    cells = {(i, j): draw(st.integers(low, high))
             for i in range(len(grid)) for j in range(i, len(grid))}
    if draw(st.booleans()):
        for i, j in sorted(cells):  # each cell after its lower neighbors
            cells[i, j] = max(cells.get(pair, low) for pair in ((i, j), (i - 1, j), (i, j - 1)))
    return denominator, Tabulated(tuple((ZPair(grid[i], grid[j]), F(v, 12))
                                        for (i, j), v in cells.items()))


@given(grid_tables())
@settings(max_examples=200, deadline=None)
def test_ev_properties_match_reference_on_random_tables(table):
    denominator, rule = table
    for lipschitz in (F(0), F(1, 2), 1, 2):
        assert check_ev_properties(rule, denominator, lipschitz=lipschitz) == \
            reference_ev_properties(rule, denominator, lipschitz=lipschitz)


TWELFTHS = unit_grid(12)


@given(grid_tables())
@settings(max_examples=300, deadline=None)
def test_gamma_laws_match_reference_on_random_tables(table):
    # no rule in RULES has an inner pair out of order. A drawn table
    # raises at the first inner pair off its grid; filled out to every
    # pair of twelfths (valued by the lower bound) it raises on none, so
    # all its witnesses, those out of order included, are compared
    denominator, drawn = table
    filled = Tabulated({**{ZPair(x, y): x for x in TWELFTHS for y in TWELFTHS if x <= y},
                        **dict(drawn.entries)})
    for rule in (drawn, filled):
        for lipschitz in (F(0), F(1, 2), 1, 2):
            expected = _run(reference_gamma_laws, rule, denominator, lipschitz=lipschitz)
            assert _run(check_gamma_laws, rule, denominator, lipschitz=lipschitz) == expected


@given(grid_tables(), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_set_order_matches_reference_on_random_tables(table, max_size):
    denominator, rule = table
    family = default_set_family(denominator, max_size)
    assert check_set_order_conditions(rule, family) == \
        reference_set_order_conditions(rule, family)


def _retabulated(rule, denominator, cells):
    """The rule's table on k/denominator with the cells at the given grid
    index pairs replaced."""
    grid = unit_grid(denominator)
    entries = dict(tabulate(rule, denominator).entries)
    entries.update({ZPair(grid[i], grid[j]): value for (i, j), value in cells.items()})
    return Tabulated(entries)


def _broken_moves(rule, denominator, breaks):
    """The one-step moves (i, j) -> (i - 1, j), (i, j - 1) whose two values
    break a law, given as a test on the higher pair's value and the lower's."""
    grid = unit_grid(denominator)
    value = {(i, j): gamma_apply(rule, ZPair(grid[i], grid[j]))
             for i in range(len(grid)) for j in range(i, len(grid))}
    return [(a, b) for a in value for b in ((a[0] - 1, a[1]), (a[0], a[1] - 1))
            if b in value and breaks(value[a], value[b])]


def test_ev_properties_scan_every_pair_for_a_law_one_move_breaks():
    # min on k/3 with its top corner lowered to 0: only the move from
    # (1, 1) to (2/3, 1) breaks monotonicity, but the corner is below
    # every pair it dominates that min values above 0
    rule = _retabulated(MinRule(), 3, {(3, 3): F(0)})
    assert len(_broken_moves(rule, 3, lambda high, low: high < low)) == 1
    reports = check_ev_properties(rule, 3, lipschitz=2)
    assert reports == reference_ev_properties(rule, 3, lipschitz=2)
    mono, lipped = reports[2:]
    assert (mono.law, len(mono.witnesses)) == (LawId.MONOTONICITY, 5)
    assert lipped.passed


def test_ev_properties_scan_only_the_modulus_when_no_move_breaks_monotonicity():
    # 0 on k/2 but for 1 at (1, 1): monotone, with one jump of a whole
    # unit over half a grid step
    rule = _retabulated(MinRule(), 2, {(1, 1): F(0), (1, 2): F(0)})
    assert not _broken_moves(rule, 2, lambda high, low: high < low)
    reports = check_ev_properties(rule, 2)
    assert reports == reference_ev_properties(rule, 2)
    mono, lipped = reports[2:]
    assert mono.passed
    assert lipped.law is LawId.LIPSCHITZ_CONTINUITY and lipped.witnesses


def test_set_order_scans_the_one_left_set_below_its_ceiling():
    # {1/2} and {0, 1} are both valued 1/2; adjoining 0 lowers {1/2} to 0
    # and leaves {0, 1} at 1/2, and no point lowers {0, 1} below {1/2}, so
    # {1/2} is the one left set whose row falls below its ceiling, and
    # only at a right set of its own rank
    rule = _retabulated(MinRule(), 2, {(0, 2): F(1, 2)})
    family = [{F(0)}, {F(1, 2)}, {F(0), F(1)}]
    reports = check_set_order_conditions(rule, family)
    assert reports == reference_set_order_conditions(rule, family)
    strong = reports[1]
    assert strong.law is LawId.CONDITION_SI
    assert [w.inputs for w in strong.witnesses] == [("{1/2}", "{0, 1}", "0")]


def test_grid_valuation_shares_a_pair_rules_value_between_sets_with_the_same_extremes():
    value = _grid_valuation(Hurwicz(F(1, 3)), unit_grid(4))
    assert value(0b10001) is value(0b11011) is value(0b10101)
    assert value(0b10001) == F(2, 3)
    assert value(0b00011) is not value(0b10001)


@pytest.mark.parametrize("check", [
    lambda lipschitz: check_gamma_laws(Hurwicz(F(1, 2)), 3, lipschitz=lipschitz),
    lambda lipschitz: check_ev_properties(Hurwicz(F(1, 2)), 3, lipschitz=lipschitz),
    lambda lipschitz: enumerate_lawful_gamma_tables(3, lipschitz=lipschitz),
    lambda lipschitz: count_lawful_gamma_tables(3, lipschitz=lipschitz),
], ids=["gamma-laws", "ev-properties", "lawful-tables", "lawful-count"])
@pytest.mark.parametrize("lipschitz", [0.5, 1.0, float("inf"), float("nan"), -1], ids=str)
def test_float_modulus_is_refused(check, lipschitz):
    # 0.5 times one step of k/3 rounds below 1/6, so Hurwicz(1/2)'s
    # exact gaps of 1/6 would read as breaking the modulus; a negative
    # modulus would read even two equal values as breaking it
    with pytest.raises(ValidationError, match="Lipschitz modulus"):
        check(lipschitz)
    check(F(1, 2))  # the same modulus, exact, is accepted


@rules(RULES)
@pytest.mark.parametrize("denominator,max_size", [(2, 3), (3, 2), (4, 3), (8, 1)])
def test_set_order_matches_reference(rule, denominator, max_size):
    family = default_set_family(denominator, max_size)
    expected = _run(reference_set_order_conditions, rule, family)
    assert _run(check_set_order_conditions, rule, family) == expected


@pytest.mark.parametrize("denominator,max_size", [(6, 2), (16, 1)])
@rules_named("hurwicz-1/2", "median", "table-anchored-1/4")
def test_set_order_matches_reference_on_fine_grids(rule, denominator, max_size):
    family = default_set_family(denominator, max_size)
    assert check_set_order_conditions(rule, family) == \
        reference_set_order_conditions(rule, family)


def _missing(table, *cells):
    """The table without the pairs at the given grid points."""
    return Tabulated(tuple((pair, value) for pair, value in table.entries
                           if (pair.lower, pair.upper) not in cells))


# Anchored(1/2) on k/3 without two pairs, so that the message of the
# first miss tells which set was valued first
GAPPY_THIRDS = _missing(tabulate(Anchored(F(1, 2)), 3), (F(1, 3), F(2, 3)), (F(0), F(2, 3)))


@pytest.mark.parametrize("family", [
    [],
    [{F(1, 2)}],
    [{F(1, 3), F(1)}, {F(0)}, {F(1, 3), F(1)}, {F(2, 7), F(1, 2), F(5, 6)}],
    [{F(0), F(1)}, set()],
    [set(), {F(1, 2)}, {F(1, 2)}],
    [{F(1, 3)}, {F(2, 7), F(1, 3)}, set()],
    [{F(1, 3)}, {F(1, 5), F(2, 7)}],
    [{F(1, 3)}, {F(0), F(1)}, {F(-1, 2)}],
    [{F(0), F(3, 2)}],
    [{F(3, 2)}, {F(1, 3)}, {F(-1, 2), F(1, 3)}],
    [{F(1, 3)}, {F(-1, 2)}, {F(3, 2)}],
    [{F(1)}, {F(0)}, {F(2, 3)}, {F(1, 3)}],
    [{F(1, 3)}, {F(0), F(2, 3)}],
], ids=["empty", "single", "off-grid", "with-empty-set", "empty-set-first",
        "off-grid-then-empty", "off-grid-rows", "below-zero-after-valid-sets", "above-one",
        "above-one-first", "below-zero-first", "thirds", "thirds-rows"])
@rules({"hurwicz-1/2": Hurwicz(F(1, 2)), "median": MedianRule(),
        "anchored-1/2": Anchored(F(1, 2)), "min": MinRule(),
        "table-thirds": tabulate(Anchored(F(1, 2)), 3), "table-missing-pairs": GAPPY_THIRDS})
def test_set_order_matches_reference_on_odd_families(rule, family):
    # points outside [0, 1] are refused by a pair rule's pair, not by the
    # median, and a message names the bound and the pair that failed
    def outcome(checker):
        try:
            return checker(rule, family)
        except Exception as exc:  # the same error must come out of both
            return ("raised", type(exc), str(exc))

    assert outcome(check_set_order_conditions) == outcome(reference_set_order_conditions)


THIRDS = unit_grid(3)
THIRD_PAIRS = [(x, y) for x in THIRDS for y in THIRDS if x <= y]


@pytest.mark.parametrize("cells", [
    cells for size in (1, 2) for cells in itertools.combinations(THIRD_PAIRS, size)],
    ids=lambda cells: " ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in cells))
@rules({"table-thirds": tabulate(Anchored(F(1, 2)), 3),
        "table-hurwicz-1/2": tabulate(Hurwicz(F(1, 2)), 3)})
def test_ev_properties_match_reference_on_tables_missing_pairs(rule, cells):
    # a pair rule skips the range law's sets, so its first lookup of an
    # off-diagonal pair comes from the pairs it compares: the same pair,
    # met in the same order, must be the first to raise
    rule = _missing(rule, *cells)
    assert _run(check_ev_properties, rule, 3) == _run(reference_ev_properties, rule, 3)


def reference_tabulate(rule, denominator):
    grid = unit_grid(denominator)
    return Tabulated(tuple((ZPair(x, y), gamma_apply(rule, ZPair(x, y)))
                           for x in grid for y in grid if x <= y))


# Anchored(1/2) on k/3 without (1/3, 1/3) and (0, 2/3): in row order
# (0, 2/3) is the first pair missed, in column order (1/3, 1/3)
GAPPY_DIAGONAL = _missing(tabulate(Anchored(F(1, 2)), 3), (F(1, 3), F(1, 3)), (F(0), F(2, 3)))


@rules({**RULES, "table-missing-pairs": GAPPY_DIAGONAL})
@pytest.mark.parametrize("denominator", GRIDS[:8])
def test_tabulate_matches_a_table_of_public_pairs(rule, denominator):
    def outcome(build):
        try:
            table = build(rule, denominator)
        except Exception as exc:  # the median's refusal must come out of both
            return ("raised", type(exc), str(exc))
        return table, table.entries

    expected = outcome(reference_tabulate)
    assert outcome(tabulate) == expected
    if isinstance(rule, MedianRule):
        assert expected[1] is UnsupportedCombination


@pytest.mark.parametrize("denominator,lipschitz", [
    (denominator, lipschitz) for denominator in (1, 2, 3, 4) for lipschitz in MODULI
    # on k/4 a loose box costs the reference about 2 s a modulus, so 3/2
    # and 2 run on the coarser grids only
    if denominator < 4 or lipschitz not in (F(3, 2), 2)], ids=str)
def test_lawful_tables_match_reference(denominator, lipschitz):
    expected = _run(reference_lawful_gamma_tables, denominator, lipschitz=lipschitz)
    assert _run(enumerate_lawful_gamma_tables, denominator, lipschitz=lipschitz) == expected
    count = _run(count_lawful_gamma_tables, denominator, lipschitz=lipschitz)
    assert count == (len(expected) if type(expected) is list else expected)


@pytest.mark.parametrize("denominator", [1, 2, 5, 8, 30])
def test_lawful_tables_without_the_modulus_are_catalan_many(denominator):
    nodes = denominator + 1
    catalan = math.comb(2 * nodes, nodes) // (nodes + 1)
    assert count_lawful_gamma_tables(denominator, lipschitz=10 ** 6) == catalan
    if denominator <= 5:
        assert len(enumerate_lawful_gamma_tables(denominator, lipschitz=10 ** 6)) == catalan


# -- measure kernels -------------------------------------------------------


# k/d for d <= 12, drawn from two integers: `st.fractions` builds a
# strategy per draw, which would dominate these tests' time
UNIT_FRACTIONS = st.tuples(st.integers(1, 12), st.integers(0, 12)).map(
    lambda dk: F(dk[1] % (dk[0] + 1), dk[0]))


def mixed_vectors(n: int):
    """Probability vectors whose entries have unrelated denominators."""
    def normalize(raw: tuple) -> tuple:
        total = sum(raw)
        if total == 0:
            return (ONE,) + (ZERO,) * (n - 1)
        return tuple(w / total for w in raw)

    return st.tuples(*([UNIT_FRACTIONS] * n)).map(normalize)


def mixed_measures(n: int):
    """Measures of all four frameworks on n states, with mixed denominators."""
    space = StateSpace(n)

    def belief(raw: list) -> BeliefFunctionMeasure:
        total = sum(w for _, w in raw)
        if total == 0:
            return BeliefFunctionMeasure(space, ((space.full_event(), ONE),))
        return BeliefFunctionMeasure(space, tuple((e, w / total) for e, w in raw))

    def possibility(raw: tuple) -> PossibilityMeasure:
        grades, peak = raw
        return PossibilityMeasure(tuple(ONE if s == peak else g for s, g in enumerate(grades)))

    return st.one_of(
        mixed_vectors(n).map(ProbabilityMeasure),
        st.just(CredalSetMeasure.full_simplex(space)),
        st.lists(mixed_vectors(n), min_size=1, max_size=4).map(
            lambda gens: CredalSetMeasure(space, tuple(gens))),
        cst.credal_measures_near_unit_vectors(n),
        st.lists(st.tuples(cst.events(n), UNIT_FRACTIONS),
                 min_size=1, max_size=6).map(belief),
        st.tuples(st.tuples(*([UNIT_FRACTIONS] * n)),
                  st.integers(0, n - 1)).map(possibility))


# strategies by space size, built once: drawing a partition samples
# from all Bell(n) of them
SIZES = range(1, 8)
MEASURES = {n: mixed_measures(n) for n in SIZES}
VECTORS = {n: mixed_vectors(n) for n in SIZES}
ACTS = {n: st.tuples(*([UNIT_FRACTIONS] * n)).map(Act) for n in SIZES}
EVENTS = {n: cst.events(n) for n in SIZES}
# the empty event too, which `evaluate` values but conditioning refuses
ALL_EVENTS = {n: st.sampled_from(cst.all_events(n, empty=True)) for n in SIZES}
PARTITIONS = {n: cst.partitions(n) for n in SIZES}


def _same(got, want):
    """Equal, and indistinguishable by hash and repr."""
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)


def _outcome(operation, *args):
    """An operation's result, or the type and message of what it raised."""
    try:
        return operation(*args)
    except Exception as exc:  # the same error must come out of both
        return ("raised", type(exc), str(exc))


@given(st.sampled_from(SIZES), st.data())
@settings(max_examples=300, deadline=None)
def test_measure_values_match_reference(n, data):
    measure = data.draw(MEASURES[n])
    act = data.draw(ACTS[n])
    event = data.draw(ALL_EVENTS[n])
    _same(expectation_bounds(measure, act), reference_expectation(measure, act))
    _same(evaluate(measure, event), reference_value(measure, event))


@given(st.sampled_from(SIZES), st.data())
@settings(max_examples=300, deadline=None)
def test_restrict_and_condition_match_reference(n, data):
    measure = data.draw(MEASURES[n])
    partition = data.draw(PARTITIONS[n])
    event = data.draw(EVENTS[n])
    restricted = restrict(measure, partition)
    reference = reference_restrict(measure, partition)
    _same(restricted, reference)
    # a derived measure carries its integer image on into the next operation
    coarse = data.draw(ACTS[len(partition)])
    _same(expectation_bounds(restricted, coarse), reference_expectation(reference, coarse))
    conditioned = _outcome(condition, measure, event)
    reference = _outcome(reference_condition, measure, event)
    _same(conditioned, reference)
    if not isinstance(reference, tuple):
        act = condition_act(data.draw(ACTS[n]), event)
        _same(expectation_bounds(conditioned, act), reference_expectation(reference, act))
        inner = data.draw(EVENTS[len(event)])
        _same(evaluate(conditioned, inner), reference_value(reference, inner))


def reference_limit_rows(rule, act, family):
    """`limit_check`'s limit value, then each row valued by the `ce` route."""
    op = CeOperator(rule, credal_extension=True)
    ce_vacuous(rule, outcome_set(act))
    rows = []
    for epsilon in family.weights:
        member = reference_member(family, epsilon)
        bounds = expectation_bounds(member, act)
        rows.append((epsilon, bounds.lower, bounds.upper, ce(op, member, act)))
    return rows


def _limit_rows(rule, act, family):
    return [(row.epsilon, row.lower, row.upper, row.value)
            for row in limit_check(rule, act, family).rows]


@given(st.sampled_from(range(1, 7)), st.sampled_from(sorted(PAIR_RULES)), st.data())
@settings(max_examples=300, deadline=None)
def test_limit_rows_match_the_credal_extension(n, name, data):
    rule = PAIR_RULES[name]
    act = data.draw(ACTS[n])
    base = data.draw(VECTORS[n] | st.sampled_from(cst.unit_vectors(n)))
    epsilons = data.draw(st.sets(UNIT_FRACTIONS.filter(bool), min_size=1, max_size=4))
    family = ContaminationFamily(base, tuple(sorted(epsilons, reverse=True)))
    # an uncovered table raises the same first miss on both routes
    assert _outcome(_limit_rows, rule, act, family) == \
        _outcome(reference_limit_rows, rule, act, family)


@pytest.mark.parametrize("outcomes,base", [
    ((F(0), F(1, 2), F(1)), (F(1, 3), F(1, 3), F(1, 3))),
    ((F(1, 2),), (ONE,)),
], ids=["three-states", "one-state"])
def test_limit_refuses_the_median_at_full_contamination(outcomes, base):
    # at epsilon 1 the member is vacuous, where `ce` would take the median
    # of the outcome set; a row is the pair rule on the member's bounds
    family = ContaminationFamily(base, (ONE,))
    with pytest.raises(UnsupportedCombination):
        limit_check(MedianRule(), Act(outcomes), family)


@pytest.mark.parametrize("trusted,validated", [
    (ZPair._trusted(F(1, 4), F(1, 2)), ZPair(F(1, 4), F(1, 2))),
    (Act._trusted((F(0), F(1, 3))), Act((F(0), F(1, 3)))),
    (ProbabilityMeasure._trusted((1, 3), 4), ProbabilityMeasure((F(1, 4), F(3, 4)))),
    (CredalSetMeasure._trusted(StateSpace(2), ((2, 4), (6, 0)), 6),
     CredalSetMeasure(StateSpace(2), ((F(1, 3), F(2, 3)), (ONE, ZERO)))),
    (BeliefFunctionMeasure._trusted(StateSpace(2), {frozenset({0, 1}): 1,
                                                    frozenset({1}): 2}, 3),
     BeliefFunctionMeasure(StateSpace(2), ((frozenset({0, 1}), F(1, 3)),
                                           (frozenset({1}), F(2, 3))))),
    (PossibilityMeasure._trusted((4, 2), 4), PossibilityMeasure((ONE, F(1, 2)))),
    *zip(ConsistencyVerdict._trusted_failures(
        F(1, 2), F(1, 4), Partition(StateSpace(2), (frozenset({0}), frozenset({1}))),
        Act((F(0), ONE)), (Framework.POSSIBILITY, Framework.CREDAL_SET)),
         [ConsistencyVerdict(False, F(1, 2), F(1, 4),
                             Partition(StateSpace(2), (frozenset({0}), frozenset({1}))),
                             Act((F(0), ONE)), fw)
          for fw in (Framework.POSSIBILITY, Framework.CREDAL_SET)]),
], ids=["pair", "act", "probability", "credal-set", "belief-function", "possibility",
        "failing-verdict", "later-failing-verdict"])
def test_trusted_construction_is_indistinguishable(trusted, validated):
    _same(trusted, validated)
    # the space is built once per object and cached beside the fields, so
    # reading it changes neither equality, nor hash, nor repr
    before = [(hash(x), repr(x)) for x in (trusted, validated)]
    if hasattr(validated, "space"):
        assert trusted.space is trusted.space
        assert trusted.space == validated.space == StateSpace(2)
    _same(trusted, validated)
    assert [(hash(x), repr(x)) for x in (trusted, validated)] == before


@given(st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_consonant_masses_reproduce_the_measure(n, data):
    measure = data.draw(cst.possibility_measures(n))
    belief = reference_consonant_masses(measure)
    for event in cst.all_events(n, empty=True):
        assert evaluate(measure, event) == evaluate(belief, event)


def test_consonant_focal_elements_are_nested():
    measure = PossibilityMeasure((F(1), F(1, 2), F(1, 2), F(1, 4)))
    belief = reference_consonant_masses(measure)
    focal = sorted((e for e, _ in belief.masses), key=len)
    for smaller, larger in zip(focal, focal[1:]):
        assert smaller < larger


# -- pair rules ------------------------------------------------------------


def reference_hurwicz(alpha: Fraction, z: ZPair) -> Fraction:
    """Hurwicz's mix of the bounds in `Fraction` arithmetic."""
    return alpha * z.lower + (1 - alpha) * z.upper


def _unit_fractions_over(denominators):
    return denominators.flatmap(lambda d: st.integers(0, d).map(lambda k: F(k, d)))


# small grids, large denominators, and large ones sharing factors, so the
# integer route's one normalisation meets every kind of common factor
HURWICZ_POINTS = st.one_of(
    UNIT_FRACTIONS,
    _unit_fractions_over(st.integers(1, 2 ** 200)),
    _unit_fractions_over(st.builds(lambda a, b: a * b, st.integers(1, 2 ** 70),
                                   st.sampled_from([6, 2 ** 64, 3 ** 40, 10 ** 20]))))


@given(HURWICZ_POINTS, HURWICZ_POINTS, HURWICZ_POINTS)
@settings(max_examples=500)
def test_hurwicz_matches_fraction_arithmetic(alpha, x, y):
    z = ZPair(min(x, y), max(x, y))
    got = gamma_apply(Hurwicz(alpha), z)
    assert type(got) is Fraction
    _same(got, reference_hurwicz(alpha, z))
