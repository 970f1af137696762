"""Checkers for folding-back consistency and the rule laws.

Everything here is a finite, exact sweep: no tolerances, no sampling.
Reports carry witnesses that are replayable: each witness records the
probe acts whose re-evaluation reproduces its left/right values bit for
bit, and sequential verdicts record the full (act, partition, framework)
cell they came from.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from typing import Optional

from .acts import (
    PARTITION_CAP,
    Act,
    Frozen,
    Partition,
    StateSpace,
    condition_act,
    enumerate_partitions,
)
from .ce_ops import (
    CeOperator,
    GammaFunction,
    MedianRule,
    Tabulated,
    VacuousRule,
    ce,
    ce_vacuous,
    gamma_apply,
)
from .errors import CapExceeded, ValidationError
from .plausibility import (
    VACUOUS_FRAMEWORKS,
    Framework,
    PlausibilityMeasure,
    ZPair,
    condition,
    restrict,
)
from .rationals import (
    ONE,
    _check_denominator,
    _grid_name,
    _integer_image,
    _steps,
    format_rational,
    unit_grid,
)

DEFAULT_LIPSCHITZ = ONE

# The most steps of work one call may ask for. Each checker whose work
# grows as a power of its grid counts its steps and refuses more with
# CapExceeded before it builds anything. A step is one value of the rule,
# one comparison of two values, one sweep cell (an act and a partition),
# one set of a family or one cell of a table. At the limit a step that
# adds a witness costs the most: Hurwicz(1/3) on gamma-laws k/406 takes
# about 15 s and 600 MB.
MAX_WORK = 250_000

# Bell(n), the partitions of an n-element set, for n <= PARTITION_CAP
_BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


def _refuse_work(work: int, task: str) -> None:
    if work > MAX_WORK:
        raise CapExceeded(f"{task} needs at least {_steps(work)} steps of work;"
                          f" the limit is {MAX_WORK:,}")


def _grid_pairs(denominator: int) -> int:
    """The pairs x <= y of the grid k/denominator; a denominator below 1 is refused."""
    _check_denominator(denominator)
    return (denominator + 1) * (denominator + 2) // 2


def _ev_work(denominator: int) -> int:
    """Steps of `check_ev_properties` at worst: the range law values the
    median's sets of up to four points, and monotonicity or the modulus,
    once some one-step move breaks it, compares every two pairs. A pair
    rule that obeys both costs its pairs instead of their square."""
    pairs = _grid_pairs(denominator)
    return sum(math.comb(denominator + 1, size) for size in range(1, 5)) + pairs ** 2


def _sweep_work(denominator: int, sizes: tuple[int, ...]) -> int:
    """Steps of `check_sequential_exhaustive`: every act on the grid with
    every partition of its states, over the sizes it does not refuse."""
    return sum((denominator + 1) ** n * _BELL[n] for n in sizes if n <= PARTITION_CAP)


class LawId(enum.Enum):
    UNANIMITY = "Unanimity"
    RANGE = "Range"
    MONOTONICITY = "Monotonicity"
    LIPSCHITZ_CONTINUITY = "LipschitzContinuity"
    GAMMA_IDEMPOTENCE = "GammaIdempotence-(i)"
    GAMMA_MONOTONE = "GammaMonotone-(ii)"
    GAMMA_ITERATION = "GammaIteration-(iii)"
    CONDITION_I = "ConditionI"
    CONDITION_SI = "ConditionSI"
    CONDITION_M = "ConditionM"


class Probe(Frozen):
    """A minimal evaluation problem that reproduces one witness value.

    Evaluating the probe act under the probe measure (a vacuous measure
    of the given framework, or the probability vector in `weights`)
    with the report's operator yields the recorded value.
    """

    outcomes: tuple[Fraction, ...]
    framework: Framework = Framework.CREDAL_SET
    weights: Optional[tuple[Fraction, ...]] = None

    def __init__(self, outcomes: tuple[Fraction, ...],
                 framework: Framework = Framework.CREDAL_SET,
                 weights: Optional[tuple[Fraction, ...]] = None) -> None:
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "framework", framework)
        object.__setattr__(self, "weights", weights)


class Witness(Frozen):
    inputs: tuple[str, ...]
    left: Fraction
    right: Fraction
    probe_left: Probe
    probe_right: Probe

    def __init__(self, inputs: tuple[str, ...], left: Fraction, right: Fraction,
                 probe_left: Probe, probe_right: Probe) -> None:
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "probe_left", probe_left)
        object.__setattr__(self, "probe_right", probe_right)


class LawReport(Frozen):
    law: LawId
    passed: bool
    witnesses: tuple[Witness, ...] = ()

    def __init__(self, law: LawId, passed: bool, witnesses: tuple[Witness, ...] = ()) -> None:
        if passed != (len(witnesses) == 0):
            raise ValidationError("a law passes exactly when it has no witnesses")
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witnesses", witnesses)


class ConsistencyVerdict(Frozen):
    """One folding-back comparison: direct vs through-a-partition value."""

    holds: bool
    direct_value: Fraction
    folded_value: Fraction
    partition: Partition
    act: Act
    framework: Framework

    def __init__(self, holds: bool, direct_value: Fraction, folded_value: Fraction,
                 partition: Partition, act: Act, framework: Framework) -> None:
        if holds != (direct_value == folded_value):
            raise ValidationError("verdict flag contradicts its values")
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "direct_value", direct_value)
        object.__setattr__(self, "folded_value", folded_value)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "framework", framework)

    @classmethod
    def _trusted_failures(cls, direct_value: Fraction, folded_value: Fraction,
                          partition: Partition, act: Act,
                          frameworks: tuple[Framework, ...]) -> list[ConsistencyVerdict]:
        """One cell's failing verdicts, one per framework in order, whose
        values the engine knows differ: unchecked, each filled from one
        field dict."""
        fields = {"holds": False, "direct_value": direct_value, "folded_value": folded_value,
                  "partition": partition, "act": act}
        verdicts = []
        for framework in frameworks:
            fields["framework"] = framework
            verdict = object.__new__(cls)
            verdict.__dict__.update(fields)
            verdicts.append(verdict)
        return verdicts


class SearchConfig(Frozen):
    """Extent of the exhaustive sweeps."""

    sizes: tuple[int, ...] = (2, 3, 4)
    denominator: int = 4
    frameworks: tuple[Framework, ...] = VACUOUS_FRAMEWORKS
    stop_at_first: bool = False

    def __init__(self, sizes: tuple[int, ...] = (2, 3, 4), denominator: int = 4,
                 frameworks: tuple[Framework, ...] = VACUOUS_FRAMEWORKS,
                 stop_at_first: bool = False) -> None:
        if denominator < 1:
            raise ValidationError("grid denominator must be >= 1")
        if not sizes or any(n < 1 for n in sizes):
            raise ValidationError("sizes must be positive")
        if len(set(sizes)) < len(sizes):
            # a repeated size would sweep, and report, its cells twice
            raise ValidationError(f"sizes must be distinct, got {list(sizes)}")
        if not frameworks:
            raise ValidationError("at least one framework required")
        if Framework.PROBABILITY in frameworks:
            raise ValidationError("the sweep needs frameworks with a vacuous measure")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "frameworks", frameworks)
        object.__setattr__(self, "stop_at_first", stop_at_first)


def check_sequential(op: CeOperator, measure: PlausibilityMeasure, act: Act,
                     partition: Partition) -> ConsistencyVerdict:
    """Compare direct evaluation with folding back through a partition.

    The folded value coarsens the measure to the partition, replaces
    each block by the certainty equivalent of the act's restriction
    under the conditioned measure, and evaluates the resulting act.
    """
    direct = ce(op, measure, act)
    restricted = restrict(measure, partition)
    block_values = tuple(
        ce(op, condition(measure, block), condition_act(act, block))
        for block in partition.blocks)
    folded = ce(op, restricted, Act(block_values))
    return ConsistencyVerdict(direct == folded, direct, folded, partition, act,
                              measure.framework)


class _Memo(dict):
    """Values computed on first lookup and kept for one checker call.

    A miss calls `compute`, so each distinct key is evaluated (and
    validated) exactly once, in the order keys are first asked for;
    an evaluation that raises does so at its first use, as it would
    without the memo.
    """

    def __init__(self, compute) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _members(mask: int) -> list[int]:
    """Positions of the set bits of a mask, in increasing order."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _grid_valuation(rule: VacuousRule, grid: tuple[Fraction, ...], pair=ZPair._trusted):
    """The rule on outcome sets given as non-empty bitmasks of grid indices.

    Each value is the one `ce_vacuous` gives the set of grid points, got
    without building the set: grid points rise with their index, so the
    lowest and highest set bits are the set's min and max, and the
    members in bit order are the set in sorted order. `pair` makes the
    pair of the extremes: trusted on grids in [0, 1], or the validating
    `ZPair` where a point may lie outside, refused as by `ce_vacuous`.
    """
    if isinstance(rule, MedianRule):
        def value(mask: int) -> Fraction:
            members = _members(mask)
            return grid[members[(len(members) - 1) // 2]]
        return value
    # a pair rule sees only the extremes, so it is applied once per mask
    # of the two extreme bits, and the sets that share them share a value
    on_ends = _Memo(lambda ends: gamma_apply(rule, pair(
        grid[(ends & -ends).bit_length() - 1], grid[ends.bit_length() - 1])))
    return lambda mask: on_ends[(mask & -mask) | (1 << (mask.bit_length() - 1))]


def check_sequential_exhaustive(op: CeOperator, cfg: SearchConfig) -> list[ConsistencyVerdict]:
    """Sweep all grid acts, partitions, and vacuous measures; return failures.

    Order is canonical: sizes as configured, acts lexicographically by
    outcome vector, partitions in enumeration order, frameworks as
    configured, so the first element is the first counterexample.

    A vacuous measure stays vacuous under restriction and conditioning,
    so every certainty equivalent of a cell is the vacuous rule on an
    outcome set, whatever the framework: each cell's verdict is computed
    once and reported for every configured framework. Values are
    interned as bits, grid point k as bit k, so an outcome set of grid
    points (an act's or a block's) and a set of block values are both
    bitmasks of interned values, and every distinct set is valued once,
    by `ce_vacuous`. Evaluation order (direct, then blocks in order, then
    folded) is that of `check_sequential`, so a rule that raises does so
    on the same input. A failing cell's act is made of grid points and
    its two values are distinct interned values, so its act and verdicts
    are built trusted; the act and its direct value are made once per
    act, and all of a cell's verdicts at once.
    """
    _refuse_work(_sweep_work(cfg.denominator, cfg.sizes),
                 f"check sequential on grid {_grid_name(cfg.denominator)}")
    if max(cfg.sizes) > PARTITION_CAP:
        raise CapExceeded(
            f"sweep capped at n <= {PARTITION_CAP}, asked for {max(cfg.sizes)}")
    rule = op.vacuous_rule
    grid = unit_grid(cfg.denominator)
    interned = list(grid)

    def intern(value: Fraction) -> int:
        interned.append(value)
        return 1 << (len(interned) - 1)

    bit_of = _Memo(intern)
    bit_of.update((x, 1 << k) for k, x in enumerate(grid))
    on_values = _Memo(lambda mask: bit_of[
        ce_vacuous(rule, frozenset(interned[k] for k in _members(mask)))])

    def value(bit: int) -> Fraction:
        return interned[bit.bit_length() - 1]

    # with stop-at-first only the first failure is reported
    frameworks = cfg.frameworks[:1] if cfg.stop_at_first else cfg.frameworks
    failures: list[ConsistencyVerdict] = []
    for n in cfg.sizes:
        # each block as the bitmask of its states
        shapes = [(H, [sum(1 << s for s in block) for block in H.blocks])
                  for H in enumerate_partitions(StateSpace(n))]
        subsets = range(1, 1 << n)
        for act_index in itertools.product(range(len(grid)), repeat=n):
            # outcome set of every non-empty set of states, built by
            # adding its lowest state to the set without it
            sets = [0]
            for states in subsets:
                low = states & -states
                sets.append(sets[states ^ low] | 1 << act_index[low.bit_length() - 1])
            direct = on_values[sets[-1]]
            act = None
            for H, blocks in shapes:
                block_values = 0
                for block in blocks:
                    block_values |= on_values[sets[block]]
                folded = on_values[block_values]
                if folded == direct:
                    continue
                if act is None:
                    act = Act._trusted(tuple(grid[k] for k in act_index))
                    direct_value = value(direct)
                failures += ConsistencyVerdict._trusted_failures(
                    direct_value, value(folded), H, act, frameworks)
                if cfg.stop_at_first:
                    return failures
    return failures


def _constant_probe(c: Fraction) -> Probe:
    # a point-mass probability reproduces the constant independently of the rule
    return Probe((c,), Framework.PROBABILITY, (ONE,))


def _grid_probes(grid: tuple[Fraction, ...]) -> _Memo:
    """The pair probe of each grid index pair (i, j), built on first use,
    so the witnesses of one call that probe the same pair share it."""
    return _Memo(lambda pair: Probe((grid[pair[0]], grid[pair[1]])))


def _pair_witness(probe, label, a, b, left: Fraction, right: Fraction) -> Witness:
    """Witness that the grid pairs at index pairs a and b compare badly;
    `probe` is the call's `_grid_probes`."""
    (i, j), (i2, j2) = a, b
    return Witness((label[i], label[j], label[i2], label[j2]), left, right,
                   probe[a], probe[b])


def _report(law: LawId, witnesses) -> LawReport:
    found = tuple(witnesses)
    return LawReport(law, not found, found)


def _levels(values: dict, denominator: int = 1) -> tuple[int, dict]:
    """Exact integer images of rational values: numerators over one scale.

    The scale is the least common multiple of `denominator` and the
    values' denominators, so grid point k/denominator is k * (scale //
    denominator), and order, equality and differences carry over exactly.
    """
    numerators, scale = _integer_image(values.values(), denominator)
    return scale, dict(zip(values, numerators))


def _check_modulus(lipschitz) -> None:
    """Refuse a Lipschitz modulus that is not exact (a float bound rounds)
    or is negative (no two values are that close). Under 0 only a constant
    rule meets the modulus."""
    if not isinstance(lipschitz, (int, Fraction)):
        raise ValidationError(
            f"the Lipschitz modulus must be an int or a Fraction, got {lipschitz!r}")
    if lipschitz < 0:
        raise ValidationError(f"the Lipschitz modulus must be >= 0, got {lipschitz}")


def check_gamma_laws(rule: GammaFunction, denominator: int, *,
                     lipschitz: Fraction = DEFAULT_LIPSCHITZ) -> list[LawReport]:
    """Check the pair-rule laws on the grid {k/denominator}.

    (i) diagonal identity, (ii) monotonicity in both arguments, (iii)
    iteration: each inner pair of (x, y), "via-lower" (g(x, x), g(x, y))
    and "via-upper" (g(x, y), g(y, y)), is ordered and g of it is
    g(x, y), and the Lipschitz modulus standing in for continuity.
    """
    if isinstance(rule, MedianRule):
        raise ValidationError("the median rule is not a pair rule")
    _check_modulus(lipschitz)
    # every pair is valued, and the iteration law values at most two more
    _refuse_work(3 * _grid_pairs(denominator),
                 f"check gamma-laws on grid {_grid_name(denominator)}")
    grid = unit_grid(denominator)
    label = [format_rational(x) for x in grid]
    pairs = [(i, j) for i in range(len(grid)) for j in range(i, len(grid))]
    # one-step moves generate the whole argwise order on the grid,
    # so neighbor checks decide monotonicity and the modulus exactly
    neighbors = [((i, j), (i2, j2)) for i, j in pairs
                 for i2, j2 in ((i - 1, j), (i, j - 1)) if 0 <= i2 <= j2]
    # grid pairs are ordered and in [0, 1] by construction
    value = {(i, j): gamma_apply(rule, ZPair._trusted(grid[i], grid[j])) for i, j in pairs}
    scale, level = _levels(value, denominator)
    unit = scale // denominator
    fraction = dict(zip(level.values(), value.values()))
    # the rule on pairs of levels, as the iteration law forms them: grid
    # pairs are already valued, any other pair is valued on first use. The
    # law asks only for pairs whose order it has checked on levels, and
    # both values are rule outputs in [0, 1], so each pair is built trusted
    applied = _Memo(lambda pair: gamma_apply(
        rule, ZPair._trusted(fraction[pair[0]], fraction[pair[1]])))
    applied.update(((i * unit, j * unit), v) for (i, j), v in value.items())
    probe = _grid_probes(grid)
    # the iteration law's probe of each pair of levels, keyed as `applied`
    # and built on first use, so the witnesses that probe one pair share it
    level_probe = _Memo(lambda pair: Probe((fraction[pair[0]], fraction[pair[1]])))

    idempotence: list[Witness] = []
    for k, c in enumerate(grid):
        if value[k, k] != c:
            idempotence.append(Witness((label[k],), value[k, k], c,
                                       probe[k, k], _constant_probe(c)))

    monotone: list[Witness] = []
    for a, b in neighbors:
        if level[a] < level[b]:
            monotone.append(_pair_witness(probe, label, a, b, value[a], value[b]))

    iteration: list[Witness] = []
    for i, j in pairs:
        g = value[i, j]
        for side, a, b in (("via-lower", (i, i), (i, j)), ("via-upper", (i, j), (j, j))):
            if level[a] > level[b]:
                # the inner pair is out of order, so the law cannot even be formed
                iteration.append(Witness((label[i], label[j], side, "inner-pair-out-of-order"),
                                         value[a], value[b], probe[a], probe[b]))
                continue
            via = applied[level[a], level[b]]
            if via != g:
                iteration.append(Witness((label[i], label[j], side), via, g,
                                         level_probe[level[a], level[b]], probe[i, j]))

    # the modulus times one grid step, in levels, floored: an integer
    # gap exceeds a rational exactly when it exceeds its floor
    limit = lipschitz * scale // denominator
    lipped: list[Witness] = []
    for a, b in neighbors:
        if abs(level[a] - level[b]) > limit:
            lipped.append(_pair_witness(probe, label, a, b, value[a], value[b]))

    return [
        _report(LawId.GAMMA_IDEMPOTENCE, idempotence),
        _report(LawId.GAMMA_MONOTONE, monotone),
        _report(LawId.GAMMA_ITERATION, iteration),
        _report(LawId.LIPSCHITZ_CONTINUITY, lipped),
    ]


def check_ev_properties(rule: VacuousRule, denominator: int, *,
                        lipschitz: Fraction = DEFAULT_LIPSCHITZ) -> list[LawReport]:
    """The evaluation-model properties on outcome sets over the grid.

    Unanimity on constants; Range (only the extremes matter) on sets of
    up to four grid points, valued for the median only, since a pair rule
    sees only the extremes; Monotonicity and the Lipschitz surrogate on
    dominating pairs.

    Monotonicity and the modulus are first decided on the one-step moves
    (i - 1, j) and (i, j - 1). The moves generate the dominance order and
    join any two pairs by a shortest path, so a law that no move breaks
    has no witness. Only a law that some move breaks is scanned over
    every two pairs, in row order, so its witnesses are a full scan's.
    """
    _check_modulus(lipschitz)
    _refuse_work(_ev_work(denominator),
                 f"check ev-properties on grid {_grid_name(denominator)}")
    grid = unit_grid(denominator)
    label = [format_rational(x) for x in grid]
    # outcome sets as bitmasks over grid indices
    value = _Memo(_grid_valuation(rule, grid))
    probe = _grid_probes(grid)

    unanimity: list[Witness] = []
    for k, c in enumerate(grid):
        got = value[1 << k]
        if got != c:
            unanimity.append(Witness(
                (label[k],), got, c, Probe((c,)), _constant_probe(c)))

    # a pair rule has no witness, so only the median's sets are scanned,
    # in `default_set_family`'s order; for a pair rule the pairs below
    # then meet the off-diagonal pairs first, in the scan's order, so a
    # table missing a pair raises on the same one
    range_law: list[Witness] = []
    bit = [1 << k for k in range(len(grid))]
    for size in range(1, 5) if isinstance(rule, MedianRule) else ():
        for combo in itertools.combinations(range(len(grid)), size):
            lo, hi = combo[0], combo[-1]
            full, extremes = value[sum(map(bit.__getitem__, combo))], value[bit[lo] | bit[hi]]
            if full != extremes:
                range_law.append(Witness(
                    ("{" + ", ".join(label[k] for k in combo) + "}",), full, extremes,
                    Probe(tuple(grid[k] for k in combo)), probe[lo, hi]))

    pairs = [(i, j) for i in range(len(grid)) for j in range(i, len(grid))]
    pair_value = {(i, j): value[1 << i | 1 << j] for i, j in pairs}
    scale, level = _levels(pair_value)
    # the modulus times each index distance |i - i2| + |j - j2|, in grid
    # steps, as a limit on the gap between levels, floored as in the gamma
    # laws' Lipschitz check
    limit = [lipschitz * d * scale // denominator for d in range(2 * len(grid) - 1)]
    # the shortest path of moves between two pairs stays in i <= j, and
    # d * limit[1] <= limit[d], so a modulus no move breaks holds for all
    moves = [(level[i, j], level[i2, j2]) for i, j in pairs
             for i2, j2 in ((i - 1, j), (i, j - 1)) if 0 <= i2 <= j2]
    scan_mono = any(va < vb for va, vb in moves)
    scan_lipped = any(abs(va - vb) > limit[1] for va, vb in moves)
    rows = [(i, j, level[i, j]) for i, j in pairs] if scan_mono or scan_lipped else []
    mono: list[Witness] = []
    lipped: list[Witness] = []
    for i, j, va in rows:
        for i2, j2, vb in rows:
            if scan_mono and va < vb and i >= i2 and j >= j2:
                mono.append(_pair_witness(probe, label, (i, j), (i2, j2),
                                          pair_value[i, j], pair_value[i2, j2]))
            if scan_lipped and abs(va - vb) > limit[abs(i - i2) + abs(j - j2)]:
                lipped.append(_pair_witness(probe, label, (i, j), (i2, j2),
                                            pair_value[i, j], pair_value[i2, j2]))

    return [
        _report(LawId.UNANIMITY, unanimity),
        _report(LawId.RANGE, range_law),
        _report(LawId.MONOTONICITY, mono),
        _report(LawId.LIPSCHITZ_CONTINUITY, lipped),
    ]


def check_set_order_conditions(rule: VacuousRule,
                               family: list) -> list[LawReport]:
    """Order conditions on set preferences over a family of outcome sets.

    Adjoined points are drawn from the union of the family. Context
    independence: adjoining a larger point never hurts. Strong
    independence: adjoining the same point preserves weak preference.
    Set monotonicity: a superset is never strictly worse.

    One set strictly disprefers another (`np_prefer`) when its value is
    lower; each distinct set is valued once, and only the order of the
    values matters, so the loops compare their dense ranks.

    Sets are bitmasks over the family's sorted pool, valued by
    `_grid_valuation` with a validating pair, so a point outside [0, 1]
    is refused on the same set as by `ce_vacuous`. Adjoining a point is
    an or, a subset test is a mask test, and each set's text and probe
    are made once, keyed by mask.

    Strong independence scans the right sets of a left set only when its
    row of ranks falls below its ceiling at some pool point. The ceiling
    of a rank holds, at each pool point, the highest row rank of the sets
    valued at most that high, so any other left set has no witness. The
    work is counted as every two sets at every pool point, the cost of a
    rule that breaks the law from every set; for a rule that never does,
    the law costs about the family's sets times its pool.
    """
    outcome_sets = [frozenset(member) for member in family]
    pool = sorted(set().union(*outcome_sets)) if outcome_sets else []
    _refuse_set_order(len(outcome_sets), len(pool))
    on_mask = _grid_valuation(rule, pool, ZPair)
    # the empty set is 0, refused as `ce_vacuous` refuses it
    bit = {x: 1 << k for k, x in enumerate(pool)}
    sets = [sum(map(bit.__getitem__, outcomes)) for outcomes in outcome_sets]
    value = _Memo(lambda mask: on_mask(mask) if mask else ce_vacuous(rule, ()))
    # every family set with each pool point adjoined, pool points ascending
    grown = [[base | x for x in bit.values()] for base in sets]
    # valued up front in the order the loops below first read the sets
    # (each row from its second entry on, then the family, each set
    # before its row), so a rule that raises does so on the same set
    for mask in itertools.chain(
            (s for row in grown if len(row) > 1 for s in (row[1], row[0], *row[2:])),
            (s for base, row in zip(sets, grown) for s in (base, *row))):
        value[mask]
    # dense ranks, taken on the values' exact integer images
    level = _levels(value)[1]
    rank = {v: r for r, v in enumerate(sorted(set(level.values())))}
    base_rank = [rank[level[base]] for base in sets]
    row_rank = [[rank[level[s]] for s in row] for row in grown]
    label = _Memo(lambda k: format_rational(pool[k]))
    set_text = _Memo(lambda mask: "{" + ", ".join(label[k] for k in _members(mask)) + "}")
    # each set's probe built on first use, keyed as its value is
    probe = _Memo(lambda mask: Probe(tuple(pool[k] for k in _members(mask))))

    def witness(inputs: tuple, worse: int, better: int) -> Witness:
        return Witness(inputs, value[worse], value[better], probe[worse], probe[better])

    cond_i: list[Witness] = []
    for base, row, ranks in zip(sets, grown, row_rank):
        for p, with_x in enumerate(ranks):
            for q in range(p):
                if with_x < ranks[q]:
                    cond_i.append(witness(
                        (set_text[base], label[p], label[q]), row[p], row[q]))

    # the right sets of a left set are those at or below its base rank
    ceiling: dict = {}
    top = [-1] * len(pool)
    for k in sorted(range(len(sets)), key=base_rank.__getitem__):
        top = ceiling[base_rank[k]] = list(map(max, top, row_rank[k]))
    cond_si: list[Witness] = []
    for left, left_row, left_rank, left_ranks in zip(sets, grown, base_rank, row_rank):
        # the ceiling takes in the left set's own row, so a row that meets
        # its ceiling at every point is never below a right set's
        if left_ranks == ceiling[left_rank]:
            continue
        for right, right_row, right_rank, right_ranks in zip(sets, grown, base_rank, row_rank):
            if left_rank < right_rank:
                continue
            for p, (left_x, right_x) in enumerate(zip(left_ranks, right_ranks)):
                if left_x < right_x:
                    cond_si.append(witness(
                        (set_text[left], set_text[right], label[p]),
                        left_row[p], right_row[p]))

    cond_m: list[Witness] = []
    for small, small_rank in zip(sets, base_rank):
        for big, big_rank in zip(sets, base_rank):
            # sets of different ranks differ, so a subset is a proper one
            if big_rank < small_rank and small & big == small:
                cond_m.append(witness((set_text[small], set_text[big]), big, small))

    return [
        _report(LawId.CONDITION_I, cond_i),
        _report(LawId.CONDITION_SI, cond_si),
        _report(LawId.CONDITION_M, cond_m),
    ]


def _refuse_set_order(sets: int, points: int) -> None:
    # strong independence compares every two sets at every pool point
    _refuse_work(sets ** 2 * points,
                 f"check set-order on a family of {sets:,} sets over {points:,} points")


def _family_sets(denominator: int, max_size: int) -> int:
    """The sets `default_set_family` builds, counted without building them
    and refused past the limit; the count stops once it passes it."""
    _check_denominator(denominator)
    points, sets = denominator + 1, 0
    for size in range(1, min(max_size, points) + 1):
        sets += math.comb(points, size)
        if sets > MAX_WORK:
            break  # counted past the limit already
    _refuse_work(sets, f"a family of the sets of up to {_steps(max_size)} points"
                 f" on grid {_grid_name(denominator)}")
    return sets


def _check_default_set_order(rule: VacuousRule, denominator: int,
                             max_size: int) -> list[LawReport]:
    """`check_set_order_conditions` on `default_set_family(denominator,
    max_size)`, refused before the family is built: a non-empty family's
    pool is the whole grid."""
    _refuse_set_order(_family_sets(denominator, max_size), denominator + 1)
    return check_set_order_conditions(rule, default_set_family(denominator, max_size))


def default_set_family(denominator: int = 8, max_size: int = 3) -> list[frozenset]:
    """All non-empty subsets of the grid up to a size, in canonical order."""
    if not _family_sets(denominator, max_size):
        return []  # so no grid is built either
    grid = unit_grid(denominator)
    family = []
    for size in range(1, min(max_size, len(grid)) + 1):
        for combo in itertools.combinations(grid, size):
            family.append(frozenset(combo))
    return family


def tabulate(rule: GammaFunction, denominator: int) -> Tabulated:
    """Freeze a pair rule's values on the grid into an explicit table."""
    _refuse_work(_grid_pairs(denominator), f"tabulate on grid {_grid_name(denominator)}")
    grid = unit_grid(denominator)
    # grid pairs are ordered and in [0, 1] by construction
    pairs = [ZPair._trusted(x, y) for i, x in enumerate(grid) for y in grid[i:]]
    return Tabulated(tuple((z, gamma_apply(rule, z)) for z in pairs))


def _lawful_trees(points: int, reach: int, empty, join, total):
    """Fold the binary search trees on 0..points-1 with edges of at most `reach` steps.

    `empty` is the fold of the empty tree. `join(root, lo, hi, left,
    right)` folds the trees on lo..hi with that root from the folds of
    its two subtrees, and `total` adds up a range's folds over its
    roots. A subtree's folds depend only on its range and the roots its
    parent allows, so each is made once per call, on an explicit stack:
    a chain of subtrees is as deep as the grid.
    """
    if reach < 1:
        return total([])  # every tree on a grid's two or more points has an edge

    top = (0, points - 1, 0, points - 1)
    folds, stack = {None: empty}, [top]
    while stack:
        key = stack.pop()
        if key in folds:  # pushed by two parents
            continue
        lo, hi, first, last = key
        # each allowed root with its two subtrees, None for an empty one
        parts = [(root,
                  (lo, root - 1, max(lo, root - reach), root - 1) if lo < root else None,
                  (root + 1, hi, root + 1, min(hi, root + reach)) if root < hi else None)
                 for root in range(first, last + 1)]
        pending = [tree for _, left, right in parts for tree in (left, right)
                   if tree not in folds]
        if pending:  # back once its subtrees are folded
            stack += key, *pending
        else:
            folds[key] = total([join(root, lo, hi, folds[left], folds[right])
                                for root, left, right in parts])
    return folds[top]


def _reach(lipschitz) -> int:
    """The grid steps a tree edge may span under the modulus.

    A value may exceed its neighbor's by the modulus times one grid
    step, so by this many whole grid steps.
    """
    _check_modulus(lipschitz)
    return math.floor(lipschitz)


def count_lawful_gamma_tables(denominator: int = 4, *,
                              lipschitz: Fraction = DEFAULT_LIPSCHITZ) -> int:
    """How many tables `enumerate_lawful_gamma_tables` returns, none built.

    Without the modulus that is the Catalan number C(denominator + 1).
    """
    _check_denominator(denominator)
    return _lawful_trees(denominator + 1, _reach(lipschitz), 1,
                         lambda root, lo, hi, left, right: left * right, sum)


def enumerate_lawful_gamma_tables(denominator: int = 4, *,
                                  lipschitz: Fraction = DEFAULT_LIPSCHITZ) -> list[Tabulated]:
    """All grid tables passing every pair-rule law, sorted by their cells.

    The lawful tables are the lowest-common-ancestor (LCA) maps of the
    binary search trees on the grid indices: gamma(x_i, x_j) is x_r for
    the root r of the smallest subtree holding both i and j. Every such
    map meets the identity, monotonicity and iteration laws. Conversely,
    a lawful table's corner value gamma(0, 1) = x_r is the value of
    every pair around r, and the pairs on either side of r form two
    lawful tables: the root's subtrees. The modulus holds exactly when
    no tree edge spans more than floor(lipschitz) grid steps, so each
    child's root is drawn within that reach of its parent and no tree is
    built only to be discarded. Under modulus 1 the trees are the chains
    that give the anchored tables.

    Tables come sorted by their cell values, rows by x and then by y.

    A grid whose tables hold more than `MAX_WORK` cells in all is refused
    with CapExceeded before any is built: under a modulus of at least 1
    first by its D + 1 anchored tables, which are lawful, so that a large
    grid is refused before its tables are counted; then by
    `count_lawful_gamma_tables`.
    """
    _check_denominator(denominator)
    reach = _reach(lipschitz)
    pairs = _grid_pairs(denominator)  # a step is one cell of one table
    anchored = (denominator + 1) * pairs
    if reach >= 1 and anchored > MAX_WORK:
        raise CapExceeded(
            f"at least {_steps(denominator + 1)} lawful tables of {_steps(pairs)} cells on grid"
            f" {_grid_name(denominator)} need at least {_steps(anchored)} steps of work;"
            f" the limit is {MAX_WORK:,}")
    tables = count_lawful_gamma_tables(denominator, lipschitz=lipschitz)
    if tables * pairs > MAX_WORK:
        raise CapExceeded(
            f"{_steps(tables)} lawful tables of {_steps(pairs)} cells on grid"
            f" {_grid_name(denominator)} need {_steps(tables * pairs)} steps of work;"
            f" the limit is {MAX_WORK:,}")

    def join(root: int, lo: int, hi: int, left: list, right: list) -> list[dict]:
        # the pairs with an end at the root or one on each side meet there
        split = {(i, j): root for i in range(lo, root + 1) for j in range(root, hi + 1)}
        return [split | left_map | right_map for left_map in left for right_map in right]

    maps = _lawful_trees(denominator + 1, reach, [{}], join,
                         lambda parts: [lca for part in parts for lca in part])
    if not maps:
        return []
    grid = unit_grid(denominator)
    pairs = [(i, j) for i in range(len(grid)) for j in range(i, len(grid))]
    vectors = sorted(tuple(lca[pair] for pair in pairs) for lca in maps)
    return [Tabulated(tuple((ZPair._trusted(grid[i], grid[j]), grid[k])
                            for (i, j), k in zip(pairs, vector)))
            for vector in vectors]
