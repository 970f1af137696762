"""Cross-framework agreement checks.

Under certainty and under total ignorance, every uncertainty framework
should value an act identically; and as a contaminated probability
loses weight on its center, its certainty equivalent should approach
the ignorant one, within an explicit linear envelope. A contaminated
member's bounds follow from the base and the act, so none is built.
"""

from __future__ import annotations

from fractions import Fraction

from .acts import Act, Frozen, StateSpace, outcome_set
from .ce_ops import CeOperator, GammaFunction, ce, ce_vacuous, gamma_apply
from .errors import SpaceMismatch, ValidationError
from .plausibility import (
    VACUOUS_FRAMEWORKS,
    BeliefFunctionMeasure,
    CredalSetMeasure,
    PossibilityMeasure,
    ZPair,
    vacuous,
)
from .rationals import ONE, ZERO, _fraction


class ConsensusReport(Frozen):
    """Per-framework certainty equivalents of one act, and their agreement."""

    act: Act
    credal_value: Fraction
    belief_value: Fraction
    possibility_value: Fraction
    agree: bool

    def __init__(self, act: Act, credal_value: Fraction, belief_value: Fraction,
                 possibility_value: Fraction, agree: bool) -> None:
        if agree != (credal_value == belief_value == possibility_value):
            raise ValidationError("agreement flag contradicts the values")
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "credal_value", credal_value)
        object.__setattr__(self, "belief_value", belief_value)
        object.__setattr__(self, "possibility_value", possibility_value)
        object.__setattr__(self, "agree", agree)


class ContaminationFamily(Frozen):
    """Mixtures (1-eps)*base + eps*q over all probability vectors q.

    The member at eps is the credal set whose extreme points are the
    base shifted toward each unit vector: eps=1 is the full simplex, and
    smaller eps shrinks the set toward the base point.
    """

    base: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __init__(self, base: tuple[Fraction, ...], weights: tuple[Fraction, ...]) -> None:
        base = tuple(map(_fraction, base))
        if not base or any(w < 0 for w in base) or sum(base) != 1:
            raise ValidationError("base must be a probability vector")
        weights = tuple(map(_fraction, weights))
        if not weights:
            raise ValidationError("at least one contamination weight required")
        if any(not ZERO < e <= ONE for e in weights):
            raise ValidationError("contamination weights must lie in (0, 1]")
        if any(a <= b for a, b in zip(weights, weights[1:])):
            raise ValidationError("contamination weights must strictly descend")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "weights", weights)

    @property
    def space(self) -> StateSpace:
        return StateSpace(len(self.base))


class ConvergenceRow(Frozen):
    epsilon: Fraction
    lower: Fraction
    upper: Fraction
    value: Fraction
    within_bound: bool

    def __init__(self, epsilon: Fraction, lower: Fraction, upper: Fraction,
                 value: Fraction, within_bound: bool) -> None:
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "within_bound", within_bound)


class ConvergenceReport(Frozen):
    act: Act
    rule: GammaFunction
    rows: tuple[ConvergenceRow, ...]
    limit_value: Fraction
    bound_satisfied: bool

    def __init__(self, act: Act, rule: GammaFunction, rows: tuple[ConvergenceRow, ...],
                 limit_value: Fraction, bound_satisfied: bool) -> None:
        if bound_satisfied != all(row.within_bound for row in rows):
            raise ValidationError("bound flag contradicts the rows")
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "limit_value", limit_value)
        object.__setattr__(self, "bound_satisfied", bound_satisfied)


def consensus_check(rule: GammaFunction, act: Act) -> ConsensusReport:
    """Value the act under each framework's ignorant measure."""
    if act.space.n < 2:
        raise ValidationError("consensus needs at least two states")
    op = CeOperator(rule)
    values = [ce(op, vacuous(act.space, fw), act) for fw in VACUOUS_FRAMEWORKS]
    credal, belief, possibility = values
    return ConsensusReport(act, credal, belief, possibility,
                           credal == belief == possibility)


def certainty_check(rule: GammaFunction, act: Act, state: int) -> ConsensusReport:
    """Value the act under each framework's point mass on one state."""
    space = act.space
    if not 0 <= state < space.n:
        raise SpaceMismatch(f"state {state} not in a space of size {space.n}")
    point = tuple(int(s == state) for s in space.states)
    measures = (
        CredalSetMeasure._trusted(space, (point,), 1),
        BeliefFunctionMeasure._trusted(space, {frozenset((state,)): 1}, 1),
        PossibilityMeasure._trusted(point, 1),
    )
    op = CeOperator(rule, credal_extension=True)
    credal, belief, possibility = (ce(op, m, act) for m in measures)
    return ConsensusReport(act, credal, belief, possibility,
                           credal == belief == possibility)


def limit_check(rule: GammaFunction, act: Act,
                family: ContaminationFamily) -> ConvergenceReport:
    """Track the ce along a contamination family toward full ignorance.

    The member at eps has the expectation bounds (1-eps)*E_base[f] +
    eps*(min f, max f), Huber's eps-contamination identity. Each row
    values them by the pair rule, as the credal extension does (the
    median has no such value and is refused), and compares that against
    the ignorant value; the gap can never exceed the weight remaining on
    the base point times the act's outcome spread.
    """
    if family.space != act.space:
        raise SpaceMismatch("family and act live on different spaces")
    limit_value = ce_vacuous(rule, outcome_set(act))
    low, high = min(act.outcomes), max(act.outcomes)
    centre = sum(w * f for w, f in zip(family.base, act.outcomes))
    rows = []
    for epsilon in family.weights:
        # convex combinations of outcomes: low <= centre <= high in [0, 1]
        kept = (ONE - epsilon) * centre
        bounds = ZPair._trusted(kept + epsilon * low, kept + epsilon * high)
        value = gamma_apply(rule, bounds)
        within = abs(value - limit_value) <= (ONE - epsilon) * (high - low)
        rows.append(ConvergenceRow(epsilon, bounds.lower, bounds.upper, value, within))
    return ConvergenceReport(act, rule, tuple(rows), limit_value,
                             all(row.within_bound for row in rows))
