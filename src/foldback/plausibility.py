"""Plausibility measures over finite state spaces.

Four frameworks share one interface: single probabilities, credal sets
(finite generator lists, with the full simplex as a symbolic special
case), belief functions, and possibility distributions. Each measure
values an event as the lower and upper expectation of its indicator;
restriction pushes a measure onto a partition's blocks, conditioning
focuses it on an event with states relabeled 0..k-1 in increasing
original order.

Each measure class names its framework and carries its own branch of
every other operation as a private method; the module functions below
check their arguments once and then call that method.

The methods compute on integers: each measure caches its weights,
generators, masses or grades as numerators over one common denominator
(`_ints`), as each act does its outcomes, and a result is divided out
once. What they return is valid by construction, so it is built by the
type's `_trusted` constructor, which skips the checks that public
construction runs; equality, hashing and repr cannot tell the two apart.

Total ignorance is the measure valuing every non-trivial event at the
unit interval. Both restriction and conditioning keep ignorant measures
ignorant, which is what makes folding through a partition meaningful.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .acts import Act, Event, Frozen, Partition, StateSpace, event_key
from .errors import (
    EmptyEvent,
    FrameworkMismatch,
    NoVacuousRepresentation,
    SpaceMismatch,
    ValidationError,
    ZeroPlausibilityEvent,
)
from .rationals import ONE, ZERO, _fraction, _integer_image, ensure_unit


class ZPair(Frozen):
    """A pair of bounds 0 <= lower <= upper <= 1."""

    lower: Fraction
    upper: Fraction

    def __init__(self, lower: Fraction, upper: Fraction) -> None:
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        self.__post_init__()

    def __post_init__(self) -> None:
        lower = ensure_unit(self.lower, "lower bound")
        upper = ensure_unit(self.upper, "upper bound")
        # lower > upper, over the product of the (positive) denominators
        if lower.numerator * upper.denominator > upper.numerator * lower.denominator:
            raise ValidationError(f"bounds out of order: {lower} > {upper}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def _trusted(cls, lower: Fraction, upper: Fraction) -> ZPair:
        """Bounds the engine derived and knows ordered in [0, 1], unchecked."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "lower", lower)
        object.__setattr__(pair, "upper", upper)
        return pair


class Framework(enum.Enum):
    PROBABILITY = "probability"
    CREDAL_SET = "credal-set"
    BELIEF_FUNCTION = "belief-function"
    POSSIBILITY = "possibility"


def _bounds(lower: int, upper: int, scale: int) -> ZPair:
    """The pair (lower / scale, upper / scale) of integer images."""
    return ZPair._trusted(Fraction(lower, scale), Fraction(upper, scale))


# the frameworks that can express total ignorance (see `vacuous`)
VACUOUS_FRAMEWORKS = (
    Framework.CREDAL_SET, Framework.BELIEF_FUNCTION, Framework.POSSIBILITY)


def _validate_weights(weights: tuple[Fraction, ...], label: str
                      ) -> tuple[tuple[Fraction, ...], tuple[tuple[int, ...], int]]:
    """The weights as Fractions and their integer image, once checked.

    They must be non-negative and sum to 1: on the image, numerators
    that are non-negative and sum to the scale.
    """
    values = tuple(_fraction(w) for w in weights)
    if not values:
        raise ValidationError(f"{label} must cover at least one state")
    for w in values:
        if w.numerator < 0:
            raise ValidationError(f"{label} has a negative entry: {w}")
    numerators, scale = image = _integer_image(values)
    total = sum(numerators)
    if total != scale:
        raise ValidationError(f"{label} must sum to 1, got {Fraction(total, scale)}")
    return values, image


class ProbabilityMeasure(Frozen):
    """A single probability vector; evaluates events to point pairs."""

    framework = Framework.PROBABILITY
    weights: tuple[Fraction, ...]

    def __init__(self, weights: tuple[Fraction, ...]) -> None:
        weights, image = _validate_weights(weights, "probability")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_ints", image)

    @classmethod
    def _trusted(cls, weights: tuple[int, ...], scale: int) -> ProbabilityMeasure:
        """The weights w / scale, known to be a probability vector."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "weights", tuple(Fraction(w, scale) for w in weights))
        object.__setattr__(measure, "_ints", (weights, scale))
        return measure

    @cached_property
    def space(self) -> StateSpace:
        return StateSpace(len(self.weights))

    def _restrict(self, partition: Partition) -> ProbabilityMeasure:
        weights, scale = self._ints
        return ProbabilityMeasure._trusted(tuple(
            sum(weights[s] for s in block) for block in partition.blocks), scale)

    def _condition(self, kept: list[int]) -> ProbabilityMeasure:
        weights, _ = self._ints
        total = sum(weights[s] for s in kept)
        if total == 0:
            raise ZeroPlausibilityEvent(f"event {kept} has probability zero")
        return ProbabilityMeasure._trusted(tuple(weights[s] for s in kept), total)

    def _expectation(self, act: Act) -> ZPair:
        weights, scale = self._ints
        outcomes, denominator = act._ints
        value = sum(w * u for w, u in zip(weights, outcomes))
        return _bounds(value, value, scale * denominator)

    def _vacuous_by_shape(self) -> bool:
        # on two or more states a singleton's value is a point, not [0, 1]
        return False


class CredalSetMeasure(Frozen):
    """The convex hull of finitely many probability vectors.

    generators=None marks the full simplex symbolically, so ignorance
    stays exact at any size instead of materializing all vertices.
    """

    framework = Framework.CREDAL_SET
    space: StateSpace
    generators: Optional[tuple[tuple[Fraction, ...], ...]] = None

    def __init__(self, space: StateSpace,
                 generators: Optional[tuple[tuple[Fraction, ...], ...]] = None) -> None:
        if generators is not None:
            if not generators:
                raise ValidationError("a credal set needs at least one generator")
            checked = []
            for gen in generators:
                values, _ = _validate_weights(tuple(gen), "credal generator")
                if len(values) != space.n:
                    raise SpaceMismatch(
                        f"generator of length {len(values)} on a space of size {space.n}")
                checked.append(values)
            generators = tuple(checked)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generators", generators)

    @classmethod
    def _trusted(cls, space: StateSpace, generators: tuple[tuple[int, ...], ...],
                 scale: int) -> CredalSetMeasure:
        """Generators g / scale, each known to be a probability vector on space."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "space", space)
        object.__setattr__(measure, "generators", tuple(
            tuple(Fraction(w, scale) for w in gen) for gen in generators))
        object.__setattr__(measure, "_ints", (generators, scale))
        return measure

    @cached_property
    def _ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        # only finite generator lists have an image
        n = self.space.n
        flat, scale = _integer_image([w for gen in self.generators for w in gen])
        return tuple(flat[i:i + n] for i in range(0, len(flat), n)), scale

    @property
    def is_full_simplex(self) -> bool:
        return self.generators is None

    @classmethod
    def full_simplex(cls, space: StateSpace) -> CredalSetMeasure:
        return cls(space, None)

    def _restrict(self, partition: Partition) -> CredalSetMeasure:
        if self.is_full_simplex:
            return CredalSetMeasure.full_simplex(partition.quotient)
        generators, scale = self._ints
        pushed = tuple(
            tuple(sum(gen[s] for s in block) for block in partition.blocks)
            for gen in generators)
        return CredalSetMeasure._trusted(partition.quotient, pushed, scale)

    def _condition(self, kept: list[int]) -> CredalSetMeasure:
        if self.is_full_simplex:
            return CredalSetMeasure.full_simplex(StateSpace(len(kept)))
        generators, _ = self._ints
        totals = (sum(gen[s] for s in kept) for gen in generators)
        # generators giving the event no weight drop out
        weighted = [(gen, total) for gen, total in zip(generators, totals) if total]
        if not weighted:
            raise ZeroPlausibilityEvent(f"event {kept} has upper probability zero")
        # gen[s] / total is gen[s] * (scale // total) / scale
        scale = math.lcm(*(total for _, total in weighted))
        return CredalSetMeasure._trusted(StateSpace(len(kept)), tuple(
            tuple(gen[s] * (scale // total) for s in kept) for gen, total in weighted),
            scale)

    def _expectation(self, act: Act) -> ZPair:
        if self.is_full_simplex:
            return ZPair._trusted(min(act.outcomes), max(act.outcomes))
        generators, scale = self._ints
        outcomes, denominator = act._ints
        values = [sum(w * u for w, u in zip(gen, outcomes)) for gen in generators]
        return _bounds(min(values), max(values), scale * denominator)

    def _vacuous_by_shape(self) -> bool:
        # a singleton's upper value is 1 only under its own unit vector
        if self.is_full_simplex:
            return True
        # an entry 1 leaves the others 0, so these are the unit vectors' states
        generators, scale = self._ints
        units = {gen.index(scale) for gen in generators if scale in gen}
        return len(units) == self.space.n


class BeliefFunctionMeasure(Frozen):
    """A mass assignment on non-empty events.

    Masses are stored zero-free and sorted by event, so equal mass
    assignments compare and hash equal regardless of input order.
    """

    framework = Framework.BELIEF_FUNCTION
    space: StateSpace
    masses: tuple[tuple[Event, Fraction], ...]

    def __init__(self, space: StateSpace, masses: tuple[tuple[Event, Fraction], ...]) -> None:
        raw = masses.items() if isinstance(masses, Mapping) else masses
        events: list[Event] = []
        values: list[Fraction] = []
        for event, mass in raw:
            event = frozenset(event)
            mass = _fraction(mass)
            if not event:
                raise EmptyEvent("belief functions put no mass on the empty event")
            if not space.contains_event(event):
                raise SpaceMismatch(f"focal element {sorted(event)} leaves the space")
            if mass.numerator < 0:
                raise ValidationError(f"negative mass {mass}")
            events.append(event)
            values.append(mass)
        # the masses of an event given twice add up, on the integer image
        numerators, scale = _integer_image(values)
        combined: dict[Event, int] = {}
        for event, m in zip(events, numerators):
            combined[event] = combined.get(event, 0) + m
        total = sum(combined.values())
        if total != scale:
            raise ValidationError(f"masses must sum to 1, got {Fraction(total, scale)}")
        trusted = BeliefFunctionMeasure._trusted(
            space, {e: m for e, m in combined.items() if m > 0}, scale)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "masses", trusted.masses)
        object.__setattr__(self, "_ints", trusted._ints)

    @classmethod
    def _trusted(cls, space: StateSpace, masses: Mapping[Event, int],
                 scale: int) -> BeliefFunctionMeasure:
        """Positive masses m / scale on events of space, known to sum to 1."""
        ordered = tuple(sorted(masses.items(), key=lambda pair: event_key(pair[0])))
        measure = object.__new__(cls)
        object.__setattr__(measure, "space", space)
        object.__setattr__(measure, "masses", tuple(
            (event, Fraction(m, scale)) for event, m in ordered))
        object.__setattr__(measure, "_ints", (ordered, scale))
        return measure

    def _restrict(self, partition: Partition) -> BeliefFunctionMeasure:
        # a focal element coarsens to the set of blocks it meets
        masses, scale = self._ints
        coarsened: dict[Event, int] = {}
        for focal, mass in masses:
            image = frozenset(i for i, block in enumerate(partition.blocks) if block & focal)
            coarsened[image] = coarsened.get(image, 0) + mass
        return BeliefFunctionMeasure._trusted(partition.quotient, coarsened, scale)

    def _condition(self, kept: list[int]) -> BeliefFunctionMeasure:
        event = frozenset(kept)
        relabel = {s: i for i, s in enumerate(kept)}
        masses, _ = self._ints
        transferred: dict[Event, int] = {}
        for focal, mass in masses:
            trace = focal & event
            if trace:
                image = frozenset(relabel[s] for s in trace)
                transferred[image] = transferred.get(image, 0) + mass
        # the masses meeting the event add up to its plausibility
        plaus = sum(transferred.values())
        if plaus == 0:
            raise ZeroPlausibilityEvent(f"event {kept} has plausibility zero")
        return BeliefFunctionMeasure._trusted(StateSpace(len(kept)), transferred, plaus)

    def _expectation(self, act: Act) -> ZPair:
        masses, scale = self._ints
        outcomes, denominator = act._ints
        lower = sum(m * min(outcomes[s] for s in focal) for focal, m in masses)
        upper = sum(m * max(outcomes[s] for s in focal) for focal, m in masses)
        return _bounds(lower, upper, scale * denominator)

    def _vacuous_by_shape(self) -> bool:
        # any other focal element is a proper event with positive belief
        return self.masses == ((self.space.full_event(), ONE),)


class PossibilityMeasure(Frozen):
    """A possibility distribution: per-state grades with max 1."""

    framework = Framework.POSSIBILITY
    grades: tuple[Fraction, ...]

    def __init__(self, grades: tuple[Fraction, ...]) -> None:
        values = tuple(ensure_unit(g, "grade") for g in grades)
        if not values:
            raise ValidationError("a possibility distribution needs at least one state")
        # in lowest terms, the grade 1 is the one whose numerator is its denominator
        if not any(g.numerator == g.denominator for g in values):
            raise ValidationError("some state must be fully possible (grade 1)")
        object.__setattr__(self, "grades", values)

    @classmethod
    def _trusted(cls, grades: tuple[int, ...], scale: int) -> PossibilityMeasure:
        """Grades g / scale, known to lie in [0, 1] with some g == scale."""
        measure = object.__new__(cls)
        object.__setattr__(measure, "grades", tuple(Fraction(g, scale) for g in grades))
        object.__setattr__(measure, "_ints", (grades, scale))
        return measure

    @cached_property
    def space(self) -> StateSpace:
        return StateSpace(len(self.grades))

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], int]:
        return _integer_image(self.grades)

    def _restrict(self, partition: Partition) -> PossibilityMeasure:
        grades, scale = self._ints
        return PossibilityMeasure._trusted(
            tuple(max(grades[s] for s in block) for block in partition.blocks), scale)

    def _condition(self, kept: list[int]) -> PossibilityMeasure:
        grades, _ = self._ints
        peak = max(grades[s] for s in kept)
        if peak == 0:
            raise ZeroPlausibilityEvent(f"event {kept} has possibility zero")
        return PossibilityMeasure._trusted(tuple(grades[s] for s in kept), peak)

    def _expectation(self, act: Act) -> ZPair:
        """The Choquet integrals of the act under necessity and possibility.

        With the distinct outcomes x(1) < ... < x(m) and x(0) = 0, the
        upper bound is sum (x(k) - x(k-1)) * Pi(f >= x(k)), and the lower
        one the same with N(f >= x(k)) = 1 - Pi(f < x(k)). Summed by
        parts, each is the sum of outcome times the rise of the running
        maximum grade it causes: over the states in ascending order of
        outcome for the lower bound, in descending order for the upper.
        """
        grades, scale = self._ints
        outcomes, denominator = act._ints
        order = sorted(range(len(outcomes)), key=outcomes.__getitem__)

        def rises(states) -> int:
            total = peak = 0
            for s in states:
                if grades[s] > peak:
                    total += outcomes[s] * (grades[s] - peak)
                    peak = grades[s]
            return total

        return _bounds(rises(order), rises(reversed(order)), scale * denominator)

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
    """Lower and upper value of an event: the expectation of its indicator.

    That is P(E) for a probability, the envelope over a credal set's
    generators, Bel(E) and Pl(E) for a belief function, and N(E) and
    Pi(E) for a possibility distribution.
    """
    event = _check_event(measure, event)
    return measure._expectation(Act._trusted(
        tuple(ONE if s in event else ZERO for s in measure.space.states)))


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


def expectation_bounds(measure: PlausibilityMeasure, act: Act) -> ZPair:
    """Tight lower and upper expected utility of an act under the measure."""
    if act.space != measure.space:
        raise SpaceMismatch("act and measure live on different spaces")
    return measure._expectation(act)
