"""Plausibility measures over finite state spaces.

Four frameworks share one interface: single probabilities, credal sets
(finite generator lists, with the full simplex as a symbolic special
case), belief functions, and possibility distributions. Each measure
maps events to a pair of exact bounds in [0, 1]; restriction pushes a
measure onto a partition's blocks, conditioning focuses it on an event
with states relabeled 0..k-1 in increasing original order.

Each measure class names its framework and carries its own branch of
every operation as a private method; the module functions below check
their arguments once and then call that method.

Total ignorance is the measure valuing every non-trivial event at the
unit interval. Both restriction and conditioning keep ignorant measures
ignorant, which is what makes folding through a partition meaningful.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .acts import Act, Event, Partition, StateSpace, event_key
from .errors import (
    EmptyEvent,
    FrameworkMismatch,
    NoVacuousRepresentation,
    SpaceMismatch,
    ValidationError,
    ZeroPlausibilityEvent,
)
from .rationals import ONE, ZERO, ensure_unit


@dataclass(frozen=True)
class ZPair:
    """A pair of bounds 0 <= lower <= upper <= 1."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        lower = ensure_unit(Fraction(self.lower), "lower bound")
        upper = ensure_unit(Fraction(self.upper), "upper bound")
        if lower > upper:
            raise ValidationError(f"bounds out of order: {lower} > {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


Z_BOTTOM = ZPair(ZERO, ZERO)
Z_TOP = ZPair(ONE, ONE)
Z_VACUOUS = ZPair(ZERO, ONE)


class Framework(enum.Enum):
    PROBABILITY = "probability"
    CREDAL_SET = "credal-set"
    BELIEF_FUNCTION = "belief-function"
    POSSIBILITY = "possibility"


# the frameworks that can express total ignorance (see `vacuous`)
VACUOUS_FRAMEWORKS = (
    Framework.CREDAL_SET, Framework.BELIEF_FUNCTION, Framework.POSSIBILITY)


def _validate_weights(weights: tuple[Fraction, ...], label: str) -> tuple[Fraction, ...]:
    values = tuple(Fraction(w) for w in weights)
    if not values:
        raise ValidationError(f"{label} must cover at least one state")
    for w in values:
        if w < 0:
            raise ValidationError(f"{label} has a negative entry: {w}")
    if sum(values) != 1:
        raise ValidationError(f"{label} must sum to 1, got {sum(values)}")
    return values


@dataclass(frozen=True)
class ProbabilityMeasure:
    """A single probability vector; evaluates events to point pairs."""

    framework = Framework.PROBABILITY
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _validate_weights(self.weights, "probability"))

    @property
    def space(self) -> StateSpace:
        return StateSpace(len(self.weights))

    def _value(self, event: Event) -> ZPair:
        p = sum((self.weights[s] for s in event), ZERO)
        return ZPair(p, p)

    def _restrict(self, partition: Partition) -> ProbabilityMeasure:
        return ProbabilityMeasure(tuple(
            sum((self.weights[s] for s in block), ZERO) for block in partition.blocks))

    def _condition(self, kept: list[int]) -> ProbabilityMeasure:
        total = sum((self.weights[s] for s in kept), ZERO)
        if total == 0:
            raise ZeroPlausibilityEvent(f"event {kept} has probability zero")
        return ProbabilityMeasure(tuple(self.weights[s] / total for s in kept))

    def _expectation(self, outcomes: tuple[Fraction, ...]) -> ZPair:
        value = sum((w * u for w, u in zip(self.weights, outcomes)), ZERO)
        return ZPair(value, value)

    def _vacuous_by_shape(self) -> bool:
        # on two or more states a singleton's value is a point, not [0, 1]
        return False


@dataclass(frozen=True)
class CredalSetMeasure:
    """The convex hull of finitely many probability vectors.

    generators=None marks the full simplex symbolically, so ignorance
    stays exact at any size instead of materializing all vertices.
    """

    framework = Framework.CREDAL_SET
    space: StateSpace
    generators: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.generators is None:
            return
        if not self.generators:
            raise ValidationError("a credal set needs at least one generator")
        checked = []
        for gen in self.generators:
            values = _validate_weights(tuple(gen), "credal generator")
            if len(values) != self.space.n:
                raise SpaceMismatch(
                    f"generator of length {len(values)} on a space of size {self.space.n}")
            checked.append(values)
        object.__setattr__(self, "generators", tuple(checked))

    @property
    def is_full_simplex(self) -> bool:
        return self.generators is None

    @classmethod
    def full_simplex(cls, space: StateSpace) -> CredalSetMeasure:
        return cls(space, None)

    def _value(self, event: Event) -> ZPair:
        if self.is_full_simplex:
            if not event:
                return Z_BOTTOM
            if len(event) == self.space.n:
                return Z_TOP
            return Z_VACUOUS
        sums = [sum((gen[s] for s in event), ZERO) for gen in self.generators]
        return ZPair(min(sums), max(sums))

    def _restrict(self, partition: Partition) -> CredalSetMeasure:
        if self.is_full_simplex:
            return CredalSetMeasure.full_simplex(partition.quotient)
        pushed = tuple(
            tuple(sum((gen[s] for s in block), ZERO) for block in partition.blocks)
            for gen in self.generators)
        return CredalSetMeasure(partition.quotient, pushed)

    def _condition(self, kept: list[int]) -> CredalSetMeasure:
        if self.is_full_simplex:
            return CredalSetMeasure.full_simplex(StateSpace(len(kept)))
        conditioned = []
        for gen in self.generators:
            total = sum((gen[s] for s in kept), ZERO)
            if total == 0:
                continue
            conditioned.append(tuple(gen[s] / total for s in kept))
        if not conditioned:
            raise ZeroPlausibilityEvent(f"event {kept} has upper probability zero")
        return CredalSetMeasure(StateSpace(len(kept)), tuple(conditioned))

    def _expectation(self, outcomes: tuple[Fraction, ...]) -> ZPair:
        if self.is_full_simplex:
            return ZPair(min(outcomes), max(outcomes))
        values = [sum((w * u for w, u in zip(gen, outcomes)), ZERO)
                  for gen in self.generators]
        return ZPair(min(values), max(values))

    def _vacuous_by_shape(self) -> bool:
        # a singleton's upper value is 1 only under its own unit vector
        if self.is_full_simplex:
            return True
        # an entry 1 leaves the others 0, so these are the unit vectors' states
        units = {gen.index(ONE) for gen in self.generators if ONE in gen}
        return len(units) == self.space.n


@dataclass(frozen=True)
class BeliefFunctionMeasure:
    """A mass assignment on non-empty events.

    Masses are stored zero-free and sorted by event, so equal mass
    assignments compare and hash equal regardless of input order.
    """

    framework = Framework.BELIEF_FUNCTION
    space: StateSpace
    masses: tuple[tuple[Event, Fraction], ...]

    def __post_init__(self) -> None:
        raw = self.masses.items() if isinstance(self.masses, Mapping) else self.masses
        combined: dict[Event, Fraction] = {}
        for event, mass in raw:
            event = frozenset(event)
            mass = Fraction(mass)
            if not event:
                raise EmptyEvent("belief functions put no mass on the empty event")
            if not self.space.contains_event(event):
                raise SpaceMismatch(f"focal element {sorted(event)} leaves the space")
            if mass < 0:
                raise ValidationError(f"negative mass {mass}")
            combined[event] = combined.get(event, ZERO) + mass
        total = sum(combined.values(), ZERO)
        if total != 1:
            raise ValidationError(f"masses must sum to 1, got {total}")
        cleaned = tuple(sorted(
            ((e, m) for e, m in combined.items() if m > 0),
            key=lambda pair: event_key(pair[0])))
        object.__setattr__(self, "masses", cleaned)

    def _value(self, event: Event) -> ZPair:
        belief = sum((m for focal, m in self.masses if focal <= event), ZERO)
        plaus = sum((m for focal, m in self.masses if focal & event), ZERO)
        return ZPair(belief, plaus)

    def _restrict(self, partition: Partition) -> BeliefFunctionMeasure:
        # a focal element coarsens to the set of blocks it meets
        coarsened: dict[Event, Fraction] = {}
        for focal, mass in self.masses:
            image = frozenset(i for i, block in enumerate(partition.blocks) if block & focal)
            coarsened[image] = coarsened.get(image, ZERO) + mass
        return BeliefFunctionMeasure(partition.quotient, tuple(coarsened.items()))

    def _condition(self, kept: list[int]) -> BeliefFunctionMeasure:
        event = frozenset(kept)
        relabel = {s: i for i, s in enumerate(kept)}
        plaus = self._value(event).upper
        if plaus == 0:
            raise ZeroPlausibilityEvent(f"event {kept} has plausibility zero")
        transferred: dict[Event, Fraction] = {}
        for focal, mass in self.masses:
            trace = focal & event
            if not trace:
                continue
            image = frozenset(relabel[s] for s in trace)
            transferred[image] = transferred.get(image, ZERO) + mass / plaus
        return BeliefFunctionMeasure(StateSpace(len(kept)), tuple(transferred.items()))

    def _expectation(self, outcomes: tuple[Fraction, ...]) -> ZPair:
        lower = sum((m * min(outcomes[s] for s in focal) for focal, m in self.masses), ZERO)
        upper = sum((m * max(outcomes[s] for s in focal) for focal, m in self.masses), ZERO)
        return ZPair(lower, upper)

    def _vacuous_by_shape(self) -> bool:
        # any other focal element is a proper event with positive belief
        return self.masses == ((self.space.full_event(), ONE),)


@dataclass(frozen=True)
class PossibilityMeasure:
    """A possibility distribution: per-state grades with max 1."""

    framework = Framework.POSSIBILITY
    grades: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(ensure_unit(Fraction(g), "grade") for g in self.grades)
        if not values:
            raise ValidationError("a possibility distribution needs at least one state")
        if max(values) != 1:
            raise ValidationError("some state must be fully possible (grade 1)")
        object.__setattr__(self, "grades", values)

    @property
    def space(self) -> StateSpace:
        return StateSpace(len(self.grades))

    def _value(self, event: Event) -> ZPair:
        possible = max((self.grades[s] for s in event), default=ZERO)
        complement_possible = max(
            (self.grades[s] for s in self.space.states if s not in event), default=ZERO)
        return ZPair(ONE - complement_possible, possible)

    def _restrict(self, partition: Partition) -> PossibilityMeasure:
        return PossibilityMeasure(
            tuple(max(self.grades[s] for s in block) for block in partition.blocks))

    def _condition(self, kept: list[int]) -> PossibilityMeasure:
        peak = max(self.grades[s] for s in kept)
        if peak == 0:
            raise ZeroPlausibilityEvent(f"event {kept} has possibility zero")
        return PossibilityMeasure(tuple(self.grades[s] / peak for s in kept))

    def _expectation(self, outcomes: tuple[Fraction, ...]) -> ZPair:
        return _consonant_masses(self)._expectation(outcomes)

    def _vacuous_by_shape(self) -> bool:
        # a state graded below 1 is a singleton whose upper value is below 1
        return all(g == ONE for g in self.grades)


PlausibilityMeasure = Union[
    ProbabilityMeasure, CredalSetMeasure, BeliefFunctionMeasure, PossibilityMeasure]


def _check_event(measure: PlausibilityMeasure, event: Event) -> Event:
    event = frozenset(event)
    if not measure.space.contains_event(event):
        raise SpaceMismatch(f"event {sorted(event)} leaves the measure's space")
    return event


def evaluate(measure: PlausibilityMeasure, event: Event) -> ZPair:
    """Lower and upper value of an event under the measure."""
    return measure._value(_check_event(measure, event))


def vacuous(space: StateSpace, framework: Framework) -> PlausibilityMeasure:
    """The canonical fully ignorant measure of a framework.

    A single probability vector pins every event to a point, so the
    probability framework has no such measure at any size.
    """
    if framework is Framework.PROBABILITY:
        raise NoVacuousRepresentation("a single probability cannot express ignorance")
    if framework is Framework.CREDAL_SET:
        return CredalSetMeasure.full_simplex(space)
    if framework is Framework.BELIEF_FUNCTION:
        return BeliefFunctionMeasure(space, ((space.full_event(), ONE),))
    if framework is Framework.POSSIBILITY:
        return PossibilityMeasure((ONE,) * space.n)
    raise FrameworkMismatch(f"unknown framework: {framework!r}")


def is_vacuous(measure: PlausibilityMeasure) -> bool:
    """Decide total ignorance: every proper non-empty event valued [0, 1].

    A single state has no proper non-empty event to fail on; on more
    states the measure's shape decides exactly, so no event is valued.
    """
    return measure.space.n == 1 or measure._vacuous_by_shape()


def restrict(measure: PlausibilityMeasure, partition: Partition) -> PlausibilityMeasure:
    """Push the measure onto the partition's blocks.

    The result lives on the quotient space whose state i is block i.
    """
    if partition.space != measure.space:
        raise SpaceMismatch("partition and measure live on different spaces")
    return measure._restrict(partition)


def condition(measure: PlausibilityMeasure, event: Event) -> PlausibilityMeasure:
    """Condition on an event; surviving states are relabeled 0..k-1.

    Probabilities and credal generators renormalize by the event's
    weight (generators giving the event no weight drop out), belief
    masses transfer to their trace on the event and renormalize by the
    upper value, possibility grades rescale by the event's maximum.
    """
    event = _check_event(measure, event)
    if not event:
        raise EmptyEvent("cannot condition on the empty event")
    return measure._condition(sorted(event))


def _consonant_masses(measure: PossibilityMeasure) -> BeliefFunctionMeasure:
    """The belief function whose nested focal elements are the level sets."""
    levels = sorted(set(measure.grades), reverse=True)
    masses = []
    for i, grade in enumerate(levels):
        cut = frozenset(s for s in measure.space.states if measure.grades[s] >= grade)
        below = levels[i + 1] if i + 1 < len(levels) else ZERO
        masses.append((cut, grade - below))
    return BeliefFunctionMeasure(measure.space, tuple(masses))


def expectation_bounds(measure: PlausibilityMeasure, act: Act) -> ZPair:
    """Tight lower and upper expected utility of an act under the measure."""
    if act.space != measure.space:
        raise SpaceMismatch("act and measure live on different spaces")
    return measure._expectation(act.outcomes)
