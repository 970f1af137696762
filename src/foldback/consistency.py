"""Checkers for folding-back consistency and the rule laws.

Everything here is a finite, exact sweep: no tolerances, no sampling.
Reports carry witnesses that are replayable: each witness records the
probe acts whose re-evaluation reproduces its left/right values bit for
bit, and sequential verdicts record the full (act, partition, framework)
cell they came from.
"""

from __future__ import annotations

import enum
import functools
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
from .rationals import ONE, _integer_image, format_rational, unit_grid

DEFAULT_LIPSCHITZ = ONE


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
    framework: Optional[Framework] = None

    def __init__(self, holds: bool, direct_value: Fraction, folded_value: Fraction,
                 partition: Partition, act: Act,
                 framework: Optional[Framework] = None) -> None:
        if holds != (direct_value == folded_value):
            raise ValidationError("verdict flag contradicts its values")
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "direct_value", direct_value)
        object.__setattr__(self, "folded_value", folded_value)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "framework", framework)

    @classmethod
    def _trusted_failure(cls, direct_value: Fraction, folded_value: Fraction,
                         partition: Partition, act: Act,
                         framework: Framework) -> ConsistencyVerdict:
        """A failing verdict whose values the engine knows differ, unchecked."""
        verdict = object.__new__(cls)
        vars(verdict).update(holds=False, direct_value=direct_value,
                             folded_value=folded_value, partition=partition,
                             act=act, framework=framework)
        return verdict


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


def _grid_valuation(rule: VacuousRule, grid: tuple[Fraction, ...]):
    """The rule on grid outcome sets given as non-empty bitmasks of indices.

    Each value is the one `ce_vacuous` gives the set of grid points, got
    without building the set: grid points lie in [0, 1] and rise with
    their index, so the lowest and highest set bits are the set's min
    and max, the pair they make is valid by construction, and the
    members in bit order are the set in sorted order.
    """
    if isinstance(rule, MedianRule):
        def value(mask: int) -> Fraction:
            members = _members(mask)
            return grid[members[(len(members) - 1) // 2]]
    else:
        def value(mask: int) -> Fraction:
            return gamma_apply(rule, ZPair._trusted(
                grid[(mask & -mask).bit_length() - 1], grid[mask.bit_length() - 1]))
    return value


def check_sequential_exhaustive(op: CeOperator, cfg: SearchConfig) -> list[ConsistencyVerdict]:
    """Sweep all grid acts, partitions, and vacuous measures; return failures.

    Order is canonical: sizes as configured, acts lexicographically by
    outcome vector, partitions in enumeration order, frameworks as
    configured, so the first element is the first counterexample.

    A vacuous measure stays vacuous under restriction and conditioning,
    so every certainty equivalent of a cell is the vacuous rule on an
    outcome set, whatever the framework: each cell's verdict is computed
    once and reported for every configured framework. Outcome sets are
    bitmasks over grid indices, values are interned as bits of another
    mask, and evaluation order (direct, then blocks in order, then
    folded) is that of `check_sequential`, so a rule that raises does so
    on the same input. A failing cell's act is made of grid points and
    its two values are distinct interned values, so its act and verdicts
    are built trusted.
    """
    if max(cfg.sizes) > PARTITION_CAP:
        raise CapExceeded(
            f"sweep capped at n <= {PARTITION_CAP}, asked for {max(cfg.sizes)}")
    rule = op.vacuous_rule
    grid = unit_grid(cfg.denominator)
    interned: list[Fraction] = []

    def intern(value: Fraction) -> int:
        interned.append(value)
        return 1 << (len(interned) - 1)

    bit_of = _Memo(intern)
    on_grid_value = _grid_valuation(rule, grid)
    on_grid = _Memo(lambda mask: bit_of[on_grid_value(mask)])
    on_values = _Memo(lambda mask: bit_of[
        ce_vacuous(rule, frozenset(interned[k] for k in _members(mask)))])

    def value(bit: int) -> Fraction:
        return interned[bit.bit_length() - 1]

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
            direct = on_grid[sets[-1]]
            act = None
            for H, blocks in shapes:
                block_values = 0
                for block in blocks:
                    block_values |= on_grid[sets[block]]
                folded = on_values[block_values]
                if folded == direct:
                    continue
                if act is None:
                    act = Act._trusted(tuple(grid[k] for k in act_index))
                direct_value, folded_value = value(direct), value(folded)
                for fw in cfg.frameworks:
                    failures.append(ConsistencyVerdict._trusted_failure(
                        direct_value, folded_value, H, act, fw))
                    if cfg.stop_at_first:
                        return failures
    return failures


def _pair_probe(x: Fraction, y: Fraction) -> Probe:
    return Probe((x, y))


def _constant_probe(c: Fraction) -> Probe:
    # a point-mass probability reproduces the constant independently of the rule
    return Probe((c,), Framework.PROBABILITY, (ONE,))


def _fmt(value: Fraction) -> str:
    return format_rational(value)


def _fmt_set(values) -> str:
    return "{" + ", ".join(_fmt(v) for v in sorted(values)) + "}"


def _pair_witness(grid, label, a, b, left: Fraction, right: Fraction) -> Witness:
    """Witness that the grid pairs at index pairs a and b compare badly."""
    (i, j), (i2, j2) = a, b
    return Witness((label[i], label[j], label[i2], label[j2]), left, right,
                   _pair_probe(grid[i], grid[j]), _pair_probe(grid[i2], grid[j2]))


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

    (i) diagonal identity, (ii) monotonicity in both arguments,
    (iii) stability under replacing either argument by its own
    equivalent, and the Lipschitz modulus standing in for continuity.
    """
    _check_modulus(lipschitz)
    grid = unit_grid(denominator)
    label = [_fmt(x) for x in grid]
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
    # pairs are already valued, any other pair is valued on first use
    applied = _Memo(lambda pair: gamma_apply(rule, ZPair(fraction[pair[0]], fraction[pair[1]])))
    applied.update(((i * unit, j * unit), v) for (i, j), v in value.items())

    idempotence: list[Witness] = []
    for k, c in enumerate(grid):
        if value[k, k] != c:
            idempotence.append(Witness((label[k],), value[k, k], c,
                                       _pair_probe(c, c), _constant_probe(c)))

    monotone: list[Witness] = []
    for a, b in neighbors:
        if level[a] < level[b]:
            monotone.append(_pair_witness(grid, label, a, b, value[a], value[b]))

    iteration: list[Witness] = []
    for i, j in pairs:
        x, y = grid[i], grid[j]
        g, gxx, gyy = value[i, j], value[i, i], value[j, j]
        if level[i, i] <= level[i, j]:
            via_lower = applied[level[i, i], level[i, j]]
            if via_lower != g:
                iteration.append(Witness(
                    (label[i], label[j], "via-lower"), via_lower, g,
                    _pair_probe(gxx, g), _pair_probe(x, y)))
        else:
            # the inner pair is out of order, so the law cannot even be formed
            iteration.append(Witness(
                (label[i], label[j], "via-lower", "inner-pair-out-of-order"),
                gxx, g, _pair_probe(x, x), _pair_probe(x, y)))
        if level[i, j] <= level[j, j]:
            via_upper = applied[level[i, j], level[j, j]]
            if via_upper != g:
                iteration.append(Witness(
                    (label[i], label[j], "via-upper"), via_upper, g,
                    _pair_probe(g, gyy), _pair_probe(x, y)))
        else:
            iteration.append(Witness(
                (label[i], label[j], "via-upper", "inner-pair-out-of-order"),
                g, gyy, _pair_probe(x, y), _pair_probe(y, y)))

    # the modulus times one grid step, in levels, floored: an integer
    # gap exceeds a rational exactly when it exceeds its floor
    limit = lipschitz * scale // denominator
    lipped: list[Witness] = []
    for a, b in neighbors:
        if abs(level[a] - level[b]) > limit:
            lipped.append(_pair_witness(grid, label, a, b, value[a], value[b]))

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
    up to four grid points; Monotonicity and the Lipschitz surrogate on
    dominating pairs.
    """
    _check_modulus(lipschitz)
    grid = unit_grid(denominator)
    label = [_fmt(x) for x in grid]
    # outcome sets as bitmasks over grid indices
    value = _Memo(_grid_valuation(rule, grid))

    unanimity: list[Witness] = []
    for k, c in enumerate(grid):
        got = value[1 << k]
        if got != c:
            unanimity.append(Witness(
                (label[k],), got, c, Probe((c,)), _constant_probe(c)))

    range_law: list[Witness] = []
    for size in range(1, 5):
        for combo in itertools.combinations(range(len(grid)), size):
            lo, hi = combo[0], combo[-1]
            full = value[sum(1 << k for k in combo)]
            extremes = value[1 << lo | 1 << hi]
            if full != extremes:
                range_law.append(Witness(
                    ("{" + ", ".join(label[k] for k in combo) + "}",), full, extremes,
                    Probe(tuple(grid[k] for k in combo)),
                    _pair_probe(grid[lo], grid[hi])))

    pairs = [(i, j) for i in range(len(grid)) for j in range(i, len(grid))]
    pair_value = {(i, j): value[1 << i | 1 << j] for i, j in pairs}
    scale, level = _levels(pair_value)
    # the modulus times each index distance |i - i2| + |j - j2|, in grid
    # steps, as a limit on the gap between levels, floored as in the gamma
    # laws' Lipschitz check
    limit = [lipschitz * d * scale // denominator for d in range(2 * len(grid) - 1)]
    rows = [(i, j, level[i, j]) for i, j in pairs]
    mono: list[Witness] = []
    lipped: list[Witness] = []
    for i, j, va in rows:
        for i2, j2, vb in rows:
            if va < vb and i >= i2 and j >= j2:
                mono.append(_pair_witness(grid, label, (i, j), (i2, j2),
                                          pair_value[i, j], pair_value[i2, j2]))
            if abs(va - vb) > limit[abs(i - i2) + abs(j - j2)]:
                lipped.append(_pair_witness(grid, label, (i, j), (i2, j2),
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
    """
    sets = [frozenset(member) for member in family]
    pool = sorted(set().union(*sets)) if sets else []
    # every family set with each pool point adjoined, pool points ascending
    grown = [[base | {x} for x in pool] for base in sets]
    # valued up front in the order the loops below first read the sets
    # (each row from its second entry on, then the family, each set
    # before its row), so a rule that raises does so on the same set
    value: dict = {}
    for outcomes in itertools.chain(
            (s for row in grown if len(row) > 1 for s in (row[1], row[0], *row[2:])),
            (s for base, row in zip(sets, grown) for s in (base, *row))):
        if outcomes not in value:
            value[outcomes] = ce_vacuous(rule, outcomes)
    rank = {v: r for r, v in enumerate(sorted(set(value.values())))}
    base_rank = [rank[value[base]] for base in sets]
    row_rank = [[rank[value[s]] for s in row] for row in grown]
    set_text = _Memo(_fmt_set)

    def witness(inputs: tuple, worse: frozenset, better: frozenset) -> Witness:
        return Witness(inputs, value[worse], value[better],
                       Probe(tuple(sorted(worse))), Probe(tuple(sorted(better))))

    cond_i: list[Witness] = []
    for base, row, ranks in zip(sets, grown, row_rank):
        for p, with_x in enumerate(ranks):
            for q in range(p):
                if with_x < ranks[q]:
                    cond_i.append(witness(
                        (set_text[base], _fmt(pool[p]), _fmt(pool[q])), row[p], row[q]))

    cond_si: list[Witness] = []
    for left, left_row, left_rank, left_ranks in zip(sets, grown, base_rank, row_rank):
        for right, right_row, right_rank, right_ranks in zip(sets, grown, base_rank, row_rank):
            if left_rank < right_rank:
                continue
            for p, (left_x, right_x) in enumerate(zip(left_ranks, right_ranks)):
                if left_x < right_x:
                    cond_si.append(witness(
                        (set_text[left], set_text[right], _fmt(pool[p])),
                        left_row[p], right_row[p]))

    cond_m: list[Witness] = []
    for small, small_rank in zip(sets, base_rank):
        for big, big_rank in zip(sets, base_rank):
            if big_rank < small_rank and small < big:
                cond_m.append(witness((set_text[small], set_text[big]), big, small))

    return [
        _report(LawId.CONDITION_I, cond_i),
        _report(LawId.CONDITION_SI, cond_si),
        _report(LawId.CONDITION_M, cond_m),
    ]


def default_set_family(denominator: int = 8, max_size: int = 3) -> list[frozenset]:
    """All non-empty subsets of the grid up to a size, in canonical order."""
    grid = unit_grid(denominator)
    family = []
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(grid, size):
            family.append(frozenset(combo))
    return family


def tabulate(rule: GammaFunction, denominator: int) -> Tabulated:
    """Freeze a pair rule's values on the grid into an explicit table."""
    grid = unit_grid(denominator)
    entries = tuple(
        (ZPair(x, y), gamma_apply(rule, ZPair(x, y)))
        for x in grid for y in grid if x <= y)
    return Tabulated(entries)


def _lawful_trees(points: int, reach: int, empty, join, total):
    """Fold the binary search trees on 0..points-1 with edges of at most `reach` steps.

    `empty` is the fold of the empty tree. `join(root, lo, hi, left,
    right)` folds the trees on lo..hi with that root from the folds of
    its two subtrees, and `total` adds up a range's folds over its
    roots. A subtree's folds depend only on its range and the roots its
    parent allows, so each is made once per call.
    """
    @functools.cache
    def trees(lo: int, hi: int, first: int, last: int):
        """The fold of the trees on lo..hi rooted in first..last."""
        if lo > hi:
            return empty
        parts = []
        for root in range(max(lo, first), min(hi, last) + 1):
            near = (root - reach, root + reach)
            parts.append(join(root, lo, hi, trees(lo, root - 1, *near),
                              trees(root + 1, hi, *near)))
        return total(parts)

    return trees(0, points - 1, 0, points - 1)


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
    if denominator < 1:
        raise ValidationError(f"grid denominator must be >= 1, got {denominator}")
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
    """
    reach = _reach(lipschitz)
    grid = unit_grid(denominator)

    def join(root: int, lo: int, hi: int, left: list, right: list) -> list[dict]:
        if not (left and right):
            return []
        # the pairs with an end at the root or one on each side meet there
        split = {(i, j): root for i in range(lo, root + 1) for j in range(root, hi + 1)}
        return [split | left_map | right_map for left_map in left for right_map in right]

    maps = _lawful_trees(len(grid), reach, [{}], join,
                         lambda parts: [lca for part in parts for lca in part])
    if not maps:
        return []
    pairs = [(i, j) for i in range(len(grid)) for j in range(i, len(grid))]
    vectors = sorted(tuple(lca[pair] for pair in pairs) for lca in maps)
    return [Tabulated(tuple((ZPair._trusted(grid[i], grid[j]), grid[k])
                            for (i, j), k in zip(pairs, vector)))
            for vector in vectors]
