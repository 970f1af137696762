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

import itertools
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
    PossibilityMeasure,
    Preference,
    ProbabilityMeasure,
    SearchConfig,
    StateSpace,
    Tabulated,
    ValidationError,
    ZPair,
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
    np_prefer,
    restrict,
    tabulate,
    vacuous,
)
from foldback.consistency import DEFAULT_LIPSCHITZ, Probe, Witness, _grid_valuation
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


def reference_gamma_laws(rule, denominator, *, lipschitz=DEFAULT_LIPSCHITZ):
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
    except NotTabulated as exc:
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


@pytest.mark.parametrize("check", [
    lambda lipschitz: check_gamma_laws(Hurwicz(F(1, 2)), 3, lipschitz=lipschitz),
    lambda lipschitz: check_ev_properties(Hurwicz(F(1, 2)), 3, lipschitz=lipschitz),
    lambda lipschitz: enumerate_lawful_gamma_tables(3, lipschitz=lipschitz),
], ids=["gamma-laws", "ev-properties", "lawful-tables"])
@pytest.mark.parametrize("lipschitz", [0.5, 1.0, float("inf"), float("nan")], ids=str)
def test_float_modulus_is_refused(check, lipschitz):
    # 0.5 times one step of k/3 rounds below 1/6, so Hurwicz(1/2)'s
    # exact gaps of 1/6 would read as breaking the modulus
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


@pytest.mark.parametrize("family", [
    [],
    [{F(1, 2)}],
    [{F(1, 3), F(1)}, {F(0)}, {F(1, 3), F(1)}, {F(2, 7), F(1, 2), F(5, 6)}],
    [{F(0), F(1)}, set()],
    [set(), {F(1, 2)}, {F(1, 2)}],
    [{F(1, 3)}, {F(2, 7), F(1, 3)}, set()],
    [{F(1, 3)}, {F(1, 5), F(2, 7)}],
], ids=["empty", "single", "off-grid", "with-empty-set", "empty-set-first",
        "off-grid-then-empty", "off-grid-rows"])
@rules({"hurwicz-1/2": Hurwicz(F(1, 2)), "median": MedianRule(),
        "anchored-1/2": Anchored(F(1, 2)), "table-thirds": tabulate(Anchored(F(1, 2)), 3)})
def test_set_order_matches_reference_on_odd_families(rule, family):
    def outcome(checker):
        try:
            return checker(rule, family)
        except Exception as exc:  # the same error must come out of both
            return ("raised", type(exc), str(exc))

    assert outcome(check_set_order_conditions) == outcome(reference_set_order_conditions)


@pytest.mark.parametrize("denominator,lipschitz", [
    (denominator, lipschitz) for denominator in (1, 2, 3, 4) for lipschitz in MODULI
    # on k/4 a loose box costs the reference about 2 s a modulus, so 3/2
    # and 2 run on the coarser grids only
    if denominator < 4 or lipschitz not in (F(3, 2), 2)], ids=str)
def test_lawful_tables_match_reference(denominator, lipschitz):
    assert enumerate_lawful_gamma_tables(denominator, lipschitz=lipschitz) == \
        reference_lawful_gamma_tables(denominator, lipschitz=lipschitz)


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
    event = data.draw(EVENTS[n])
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


@given(st.sampled_from(SIZES), st.data())
@settings(max_examples=200, deadline=None)
def test_contamination_members_match_reference(n, data):
    base = data.draw(VECTORS[n])
    family = ContaminationFamily(base, (ONE,))
    # an epsilon outside [0, 1] may leave a negative entry, which both refuse
    epsilon = data.draw(st.fractions(min_value=-1, max_value=2, max_denominator=12))
    member = _outcome(family.member, epsilon)
    reference = _outcome(reference_member, family, epsilon)
    _same(member, reference)
    if not isinstance(reference, tuple):
        act = data.draw(ACTS[n])
        _same(expectation_bounds(member, act), reference_expectation(reference, act))


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
], ids=["pair", "act", "probability", "credal-set", "belief-function", "possibility"])
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
