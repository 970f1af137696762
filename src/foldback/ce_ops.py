"""Certainty-equivalence operators.

A vacuous rule turns an act's outcome set into a single indifferent
utility. Gamma rules see only the pair (min, max) of the set: the
anchored rule clamps its anchor into that interval, the Hurwicz rule
mixes the endpoints, min/max keep one endpoint, and tabulated rules
look the pair up on a finite grid. The median rule is set-level (it
consumes the whole outcome set) and exists as a foil.

The `ce` dispatcher routes (operator, measure, act) to expected utility
for single probabilities, to the vacuous rule when the measure carries
no information, and optionally to the rule applied to the measure's
expectation bounds when the credal extension is enabled.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from fractions import Fraction
from typing import AbstractSet, Iterable, Union

from .acts import Act, Frozen, outcome_set
from .errors import (
    EmptyOutcomeSet,
    NotTabulated,
    SpaceMismatch,
    UnsupportedCombination,
    ValidationError,
)
from .plausibility import (
    Framework,
    PlausibilityMeasure,
    ZPair,
    expectation_bounds,
    is_vacuous,
)
from .rationals import _fraction, ensure_unit


class Anchored(Frozen):
    """Clamp the anchor into [lower, upper]: the interval absorbs it."""

    anchor: Fraction

    def __init__(self, anchor: Fraction) -> None:
        object.__setattr__(self, "anchor", ensure_unit(anchor, "anchor"))


class Hurwicz(Frozen):
    """alpha weighs the lower endpoint, 1 - alpha the upper."""

    alpha: Fraction

    def __init__(self, alpha: Fraction) -> None:
        object.__setattr__(self, "alpha", ensure_unit(alpha, "alpha"))


class MinRule(Frozen):
    """Always the lower endpoint.

    Its values equal Anchored(0)'s, but it keeps its own class for the
    wire format: it parses from and echoes as {"kind": "min"}, and
    reports depend on that spelling.
    """


class MaxRule(Frozen):
    """Always the upper endpoint.

    Its values equal Anchored(1)'s, but it keeps its own class for the
    wire format: it parses from and echoes as {"kind": "max"}, and
    reports depend on that spelling.
    """


class Tabulated(Frozen):
    """An explicit finite map from pairs to utilities; off-grid is an error.

    The pairs are indexed by their bounds as integer numerators over one
    scale, the lcm of the bounds' denominators, so a lookup hashes two
    ints rather than two `Fraction`s, and the entries sort on the same
    keys.
    """

    entries: tuple[tuple[ZPair, Fraction], ...]

    def __init__(self, entries: tuple[tuple[ZPair, Fraction], ...]) -> None:
        raw = list(entries.items() if isinstance(entries, Mapping) else entries)
        scale = math.lcm(*(b.denominator for z, _ in raw for b in (z.lower, z.upper)))
        index: dict[tuple[int, int], Fraction] = {}
        items = []
        for z, value in raw:
            value = _fraction(value)
            lower, upper = z.lower, z.upper
            key = (lower.numerator * (scale // lower.denominator),
                   upper.numerator * (scale // upper.denominator))
            stored = index.get(key)
            if stored is None:
                index[key] = value
                items.append((key, (z, value)))
            elif stored != value:
                raise ValidationError(f"conflicting entries for {z}")
            ensure_unit(value, "table value")
        # the keys are distinct, so the sort never compares two entries
        object.__setattr__(self, "entries", tuple(item for _, item in sorted(items)))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_scale", scale)

    def lookup(self, z: ZPair) -> Fraction:
        # a bound whose denominator does not divide the scale is off the table
        scale = self._scale
        lower, upper = z.lower, z.upper
        low, low_rest = divmod(scale, lower.denominator)
        up, up_rest = divmod(scale, upper.denominator)
        if not (low_rest or up_rest):
            value = self._index.get((lower.numerator * low, upper.numerator * up))
            if value is not None:
                return value
        raise NotTabulated(f"pair {z} is not tabulated")


GammaFunction = Union[Anchored, Hurwicz, MinRule, MaxRule, Tabulated]


class MedianRule(Frozen):
    """Lower median of the distinct outcomes; not a pair function."""


VacuousRule = Union[GammaFunction, MedianRule]


class Preference(enum.Enum):
    STRICTLY_PREFERS = "StrictlyPrefers"
    INDIFFERENT = "Indifferent"
    STRICTLY_DISPREFERS = "StrictlyDisprefers"


class CeOperator(Frozen):
    """An evaluation model: which routes are enabled, and the vacuous rule."""

    vacuous_rule: VacuousRule
    probabilistic_rule: bool = True
    credal_extension: bool = False

    def __init__(self, vacuous_rule: VacuousRule, probabilistic_rule: bool = True,
                 credal_extension: bool = False) -> None:
        if vacuous_rule is None:
            raise UnsupportedCombination("an operator needs a vacuous rule")
        object.__setattr__(self, "vacuous_rule", vacuous_rule)
        object.__setattr__(self, "probabilistic_rule", probabilistic_rule)
        object.__setattr__(self, "credal_extension", credal_extension)


def gamma_apply(rule: GammaFunction, z: ZPair) -> Fraction:
    """Evaluate a pair rule on lower/upper bounds."""
    if isinstance(rule, Anchored):
        if z.upper <= rule.anchor:
            return z.upper
        if z.lower >= rule.anchor:
            return z.lower
        return rule.anchor
    if isinstance(rule, Hurwicz):
        # alpha * lower + (1 - alpha) * upper over one common denominator,
        # normalised once: for a/b on (p/q, r/s), (a p s + (b - a) r q) / (b q s)
        alpha, lower, upper = rule.alpha, z.lower, z.upper
        a, b = alpha.numerator, alpha.denominator
        p, q = lower.numerator, lower.denominator
        r, s = upper.numerator, upper.denominator
        return Fraction(a * p * s + (b - a) * r * q, b * q * s)
    if isinstance(rule, MinRule):
        return z.lower
    if isinstance(rule, MaxRule):
        return z.upper
    if isinstance(rule, Tabulated):
        return rule.lookup(z)
    raise UnsupportedCombination(f"not a pair rule: {rule!r}")


def ce_vacuous(rule: VacuousRule, outcomes: AbstractSet) -> Fraction:
    """Certainty equivalent of an outcome set under total ignorance.

    Pair rules see only (min, max) of the set; the median rule is the
    one implemented rule that uses more of it, the lower median of the
    distinct outcomes (ties broken downward).
    """
    if not outcomes:
        raise EmptyOutcomeSet("no outcomes to evaluate")
    if isinstance(rule, MedianRule):
        ordered = sorted(outcomes)
        return ordered[(len(ordered) - 1) // 2]
    return gamma_apply(rule, ZPair(min(outcomes), max(outcomes)))


def ce(op: CeOperator, measure: PlausibilityMeasure, act: Act) -> Fraction:
    """Certainty equivalent of an act under a measure.

    Routes, in order: expected utility for single probabilities (when
    the probabilistic rule is on); the vacuous rule on the outcome set
    when the measure is fully ignorant; the pair rule on the measure's
    expectation bounds when the credal extension is on. Anything else
    has no defined value.
    """
    if measure.space != act.space:
        raise SpaceMismatch("measure and act live on different spaces")
    probability = measure.framework is Framework.PROBABILITY
    if probability and op.probabilistic_rule:
        # a single probability's bounds meet at its expected utility
        return expectation_bounds(measure, act).lower
    if is_vacuous(measure):
        return ce_vacuous(op.vacuous_rule, outcome_set(act))
    if (op.credal_extension and not probability
            and not isinstance(op.vacuous_rule, MedianRule)):
        return gamma_apply(op.vacuous_rule, expectation_bounds(measure, act))
    raise UnsupportedCombination(
        "no evaluation route for this measure under this operator")


def np_prefer(rule: VacuousRule, left: AbstractSet, right: AbstractSet) -> Preference:
    """Complete preference between outcome sets via their equivalents."""
    a = ce_vacuous(rule, left)
    b = ce_vacuous(rule, right)
    if a > b:
        return Preference.STRICTLY_PREFERS
    if a < b:
        return Preference.STRICTLY_DISPREFERS
    return Preference.INDIFFERENT


def lambda_prefer(anchor: Fraction, left: Iterable, right: Iterable) -> bool:
    """Three-clause interval comparison of outcome sets around an anchor."""
    left = frozenset(left)
    right = frozenset(right)
    if not left or not right:
        raise EmptyOutcomeSet("preference over an empty outcome set")
    lo_a, hi_a = min(left), max(left)
    lo_b, hi_b = min(right), max(right)
    if anchor >= hi_a >= hi_b:
        return True
    if lo_a >= lo_b >= anchor:
        return True
    if hi_a >= anchor >= lo_b:
        return True
    return False
