"""State spaces, events, partitions, and acts restricted to events."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cst
from foldback import (
    Act,
    CapExceeded,
    EmptyEvent,
    Partition,
    SpaceMismatch,
    StateSpace,
    condition_act,
    enumerate_partitions,
    outcome_set,
)
from foldback.acts import PARTITION_CAP, event_key

F = Fraction

# Bell numbers via the Bell triangle, independent of the enumerator.
_BELL = [1]
_row = [1]
for _ in range(6):
    _next = [_row[-1]]
    for value in _row:
        _next.append(_next[-1] + value)
    _row = _next
    _BELL.append(_row[0])


def _growth_string_partitions(space):
    """The partitions of the space, one per restricted-growth string in
    lexicographic order: state s goes to block a[s], where a[0] = 0 and
    a[s] <= 1 + max(a[:s])."""
    strings = [(0,)]
    for _ in range(space.n - 1):
        strings = [a + (digit,) for a in strings for digit in range(max(a) + 2)]
    partitions = []
    for a in strings:
        blocks = [set() for _ in range(max(a) + 1)]
        for state, digit in enumerate(a):
            blocks[digit].add(state)
        partitions.append(Partition(space, tuple(frozenset(b) for b in blocks)))
    return partitions


class TestPartitionEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_matches_bell_numbers(self, n):
        space = StateSpace(n)
        assert len(enumerate_partitions(space)) == _BELL[n]

    def test_known_bell_prefix(self):
        assert _BELL[:7] == [1, 1, 2, 5, 15, 52, 203]

    @pytest.mark.parametrize("n", range(1, PARTITION_CAP + 1))
    def test_order_matches_the_growth_string_reference(self, n):
        space = StateSpace(n)
        partitions = enumerate_partitions(space)
        reference = _growth_string_partitions(space)
        assert partitions == reference
        assert [p.blocks for p in partitions] == [p.blocks for p in reference]

    def test_partition_order_on_three_states(self):
        space = StateSpace(3)
        blocks = [tuple(sorted(tuple(sorted(b)) for b in p.blocks))
                  for p in enumerate_partitions(space)]
        assert blocks == [
            ((0, 1, 2),),
            ((0, 1), (2,)),
            ((0, 2), (1,)),
            ((0,), (1, 2)),
            ((0,), (1,), (2,)),
        ]

    def test_no_duplicates(self):
        space = StateSpace(4)
        seen = {tuple(sorted(p.blocks, key=min)) for p in enumerate_partitions(space)}
        assert len(seen) == _BELL[4]

    def test_cap_is_enforced(self):
        with pytest.raises(CapExceeded):
            enumerate_partitions(StateSpace(9))


class TestPartitionStructure:
    def test_blocks_sorted_by_minimum(self):
        space = StateSpace(4)
        partition = Partition(space, (frozenset({3, 1}), frozenset({2, 0})))
        assert partition.blocks == (frozenset({0, 2}), frozenset({1, 3}))
        assert partition.quotient == StateSpace(2)

    def test_rejects_overlap(self):
        space = StateSpace(3)
        with pytest.raises(ValueError):
            Partition(space, (frozenset({0, 1}), frozenset({1, 2})))

    def test_rejects_gap(self):
        space = StateSpace(3)
        with pytest.raises(ValueError):
            Partition(space, (frozenset({0}), frozenset({2})))

    def test_rejects_empty_block(self):
        space = StateSpace(2)
        with pytest.raises(ValueError):
            Partition(space, (frozenset(), frozenset({0, 1})))


class TestActs:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Act((F(0), F(5, 4)))


class TestConditioning:
    def test_conditioning_on_everything_is_identity(self):
        act = Act((F(0), F(1, 4), F(1)))
        assert condition_act(act, act.space.full_event()) == act

    def test_conditioning_keeps_selected_states_reindexed(self):
        act = Act((F(0), F(1, 4), F(1)))
        assert condition_act(act, frozenset({2, 0})).outcomes == (F(0), F(1))
        assert condition_act(act, frozenset({1})).outcomes == (F(1, 4),)

    def test_conditioning_rejects_empty_event(self):
        act = Act((F(0), F(1)))
        with pytest.raises(EmptyEvent):
            condition_act(act, frozenset())

    def test_conditioning_rejects_foreign_states(self):
        act = Act((F(0), F(1)))
        with pytest.raises(SpaceMismatch):
            condition_act(act, frozenset({0, 5}))

    @given(cst.acts_on_spaces(max_n=4), st.data())
    def test_block_outcomes_union_to_the_acts(self, act, data):
        partition = data.draw(cst.partitions(act.space.n))
        pieces = [condition_act(act, block) for block in partition.blocks]
        assert outcome_set(act) == frozenset().union(
            *(outcome_set(piece) for piece in pieces))


class TestEventKey:
    def test_orders_events_by_member_tuple(self):
        got = [tuple(sorted(e)) for e in sorted(cst.all_events(3), key=event_key)]
        assert got == [
            (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]
