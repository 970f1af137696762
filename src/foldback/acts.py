"""State spaces, events, partitions, and acts.

States are the integers 0..n-1. An act assigns an exact utility in [0, 1]
to each state. Partitions are kept in canonical order (blocks sorted by
their least element), which is also the order their restricted-growth
encodings produce, so enumeration order and block indexing agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterator

from .errors import CapExceeded, EmptyEvent, SpaceMismatch, ValidationError
from .rationals import _integer_image, ensure_unit

Utility = Fraction
Event = frozenset  # frozenset[int]

PARTITION_CAP = 8


class Frozen:
    """Base of the engine's immutable value classes.

    A subclass declares its fields as annotations, in order, and its own
    `__init__` checks its arguments and then stores each field once with
    `object.__setattr__`. Two instances of one class are equal when their
    fields are, and an instance hashes as the tuple of its fields and
    prints as `Name(field=value, ...)`, as a frozen dataclass would.
    Unlike a dataclass, nothing is compiled for each class, which keeps
    importing the engine cheap. Instances keep their `__dict__`, which
    `cached_property` writes to.

    Only `Act` and `plausibility.ZPair` check in a separate
    `__post_init__`, which their `__init__` calls: `perfbench/tracing.py`
    counts the constructions of those two classes by wrapping that hook.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._key = staticmethod(lambda obj: (get(obj),))
        else:
            # with two or more names an attrgetter returns the tuple itself
            cls._key = staticmethod(attrgetter(*fields) if fields else lambda obj: ())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class StateSpace(Frozen):
    """A finite set of states, identified with range(n)."""

    n: int

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValidationError(f"state space needs at least one state, got {n}")
        object.__setattr__(self, "n", n)

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


class Partition(Frozen):
    """An ordered partition of a state space into non-empty blocks.

    Blocks are canonicalized to ascending least-element order on
    construction, so two partitions with the same blocks compare equal.
    """

    space: StateSpace
    blocks: tuple[Event, ...]

    def __init__(self, space: StateSpace, blocks: tuple[Event, ...]) -> None:
        blocks = tuple(frozenset(b) for b in blocks)
        if any(not b for b in blocks):
            raise ValidationError("partitions may not contain an empty block")
        seen: set[int] = set()
        for block in blocks:
            if not space.contains_event(block):
                raise ValidationError(f"block {sorted(block)} leaves the state space")
            if seen & block:
                raise ValidationError("partition blocks overlap")
            seen |= block
        if seen != set(space.states):
            raise ValidationError("partition blocks do not cover the state space")
        object.__setattr__(self, "space", space)
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


class Act(Frozen):
    """A utility-valued act on range(len(outcomes))."""

    outcomes: tuple[Utility, ...]

    def __init__(self, outcomes: tuple[Utility, ...]) -> None:
        object.__setattr__(self, "outcomes", outcomes)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValidationError("an act needs at least one state")
        object.__setattr__(
            self, "outcomes",
            tuple(ensure_unit(u, "outcome") for u in self.outcomes))

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
