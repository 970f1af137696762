"""State spaces, events, partitions, and acts.

States are the integers 0..n-1. An act assigns an exact utility in [0, 1]
to each state. Partitions are kept in canonical order (blocks sorted by
their least element), which is also the order their restricted-growth
encodings produce, so enumeration order and block indexing agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .errors import CapExceeded, EmptyEvent, SpaceMismatch, ValidationError
from .rationals import _integer_image, ensure_unit

Utility = Fraction
Event = frozenset  # frozenset[int]

PARTITION_CAP = 8


@dataclass(frozen=True)
class StateSpace:
    """A finite set of states, identified with range(n)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"state space needs at least one state, got {self.n}")

    @property
    def states(self) -> range:
        return range(self.n)

    def full_event(self) -> Event:
        return frozenset(self.states)

    def contains_event(self, event: Event) -> bool:
        return all(0 <= s < self.n for s in event)


def event_key(event: Event) -> tuple[int, ...]:
    """Sort key giving the lexicographic order on events by member tuple."""
    return tuple(sorted(event))


@dataclass(frozen=True)
class Partition:
    """An ordered partition of a state space into non-empty blocks.

    Blocks are canonicalized to ascending least-element order on
    construction, so two partitions with the same blocks compare equal.
    """

    space: StateSpace
    blocks: tuple[Event, ...]

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(b) for b in self.blocks)
        if any(not b for b in blocks):
            raise ValidationError("partitions may not contain an empty block")
        seen: set[int] = set()
        for block in blocks:
            if not self.space.contains_event(block):
                raise ValidationError(f"block {sorted(block)} leaves the state space")
            if seen & block:
                raise ValidationError("partition blocks overlap")
            seen |= block
        if seen != set(self.space.states):
            raise ValidationError("partition blocks do not cover the state space")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=min)))

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def quotient(self) -> StateSpace:
        """The space whose states are this partition's block indices."""
        return StateSpace(len(self.blocks))


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of length n in lexicographic order.

    a[0] = 0 and a[i] <= 1 + max(a[:i]); each string encodes one partition.
    """
    def extend(prefix: list[int], peak: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for digit in range(peak + 2):
            prefix.append(digit)
            yield from extend(prefix, max(peak, digit))
            prefix.pop()

    yield from extend([0], 0)


def partition_from_rgs(space: StateSpace, rgs: tuple[int, ...]) -> Partition:
    blocks: dict[int, set[int]] = {}
    for state, digit in enumerate(rgs):
        blocks.setdefault(digit, set()).add(state)
    ordered = tuple(frozenset(blocks[d]) for d in sorted(blocks))
    return Partition(space, ordered)


def enumerate_partitions(space: StateSpace) -> list[Partition]:
    """All partitions of the space, in restricted-growth string order.

    The count is the Bell number of n, so refuse spaces above the cap.
    """
    if space.n > PARTITION_CAP:
        raise CapExceeded(
            f"partition enumeration capped at n <= {PARTITION_CAP}, got {space.n}")
    return [partition_from_rgs(space, rgs) for rgs in restricted_growth_strings(space.n)]


@dataclass(frozen=True)
class Act:
    """A utility-valued act on range(len(outcomes))."""

    outcomes: tuple[Utility, ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValidationError("an act needs at least one state")
        object.__setattr__(
            self, "outcomes",
            tuple(ensure_unit(Fraction(u), "outcome") for u in self.outcomes))

    @classmethod
    def _trusted(cls, outcomes: tuple[Utility, ...]) -> Act:
        """An act the engine derived from valid outcomes, built unchecked."""
        act = object.__new__(cls)
        object.__setattr__(act, "outcomes", outcomes)
        return act

    @cached_property
    def space(self) -> StateSpace:
        return StateSpace(len(self.outcomes))

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], int]:
        """The outcomes as integer numerators over one denominator."""
        return _integer_image(self.outcomes)


def outcome_set(act: Act) -> frozenset:
    """The distinct outcomes an act can produce."""
    return frozenset(act.outcomes)


def condition_act(act: Act, event: Event) -> Act:
    """Restrict an act to the states inside event, relabeled 0..k-1.

    Survivors keep their increasing original order, matching how
    measures are conditioned.
    """
    if not event:
        raise EmptyEvent("cannot condition an act on the empty event")
    if not act.space.contains_event(event):
        raise SpaceMismatch(f"event {sorted(event)} leaves the act's space")
    return Act._trusted(tuple(act.outcomes[s] for s in sorted(event)))
