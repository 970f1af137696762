"""State spaces, partitions, and the decompose/recompose identity."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cst
from foldback import (
    Act,
    CapExceeded,
    ConditionalAct,
    DomainMismatch,
    EmptyEvent,
    Partition,
    SpaceMismatch,
    StateSpace,
    acts_equivalent,
    compose_partition_act,
    condition_act,
    enumerate_partitions,
    outcome_set,
)
from foldback.acts import enumerate_events, event_key, restricted_growth_strings

F = Fraction

# Bell numbers via the Bell triangle, independent of the enumerator.
_BELL = [1]
_row = [1]
for _ in range(9):
    _next = [_row[-1]]
    for value in _row:
        _next.append(_next[-1] + value)
    _row = _next
    _BELL.append(_row[0])


def grid_acts(n: int, denominator: int = 4):
    grid = [F(k, denominator) for k in range(denominator + 1)]
    for values in itertools.product(grid, repeat=n):
        yield Act(values)


class TestPartitionEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_matches_bell_numbers(self, n):
        space = StateSpace(n)
        assert len(enumerate_partitions(space)) == _BELL[n]

    def test_known_bell_prefix(self):
        assert _BELL[:7] == [1, 1, 2, 5, 15, 52, 203]

    def test_growth_string_order_on_three_states(self):
        assert list(restricted_growth_strings(3)) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

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

    def test_cap_can_be_raised(self):
        got = enumerate_partitions(StateSpace(9), cap=9)
        assert len(got) == _BELL[9]


class TestPartitionStructure:
    def test_blocks_sorted_by_minimum(self):
        space = StateSpace(4)
        partition = Partition(space, (frozenset({3, 1}), frozenset({2, 0})))
        assert partition.blocks == (frozenset({0, 2}), frozenset({1, 3}))

    def test_block_of_gives_quotient_index(self):
        space = StateSpace(3)
        partition = Partition(space, (frozenset({0, 2}), frozenset({1})))
        assert partition.block_of(2) == 0
        assert partition.block_of(1) == 1
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

    def test_trivial_flags(self):
        space = StateSpace(3)
        one = Partition(space, (space.full_event(),))
        assert one.is_trivial()
        singletons = Partition(space, tuple(frozenset({s}) for s in space.states))
        assert singletons.is_trivial()
        split = Partition(space, (frozenset({0}), frozenset({1, 2})))
        assert not split.is_trivial()


class TestActs:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Act((F(0), F(5, 4)))

    def test_level_sets_partition_the_space(self):
        act = Act((F(0), F(1, 2), F(0)))
        rules = act.rules()
        assert rules == ((frozenset({0, 2}), F(0)), (frozenset({1}), F(1, 2)))
        union = frozenset().union(*(event for event, _ in rules))
        assert union == act.space.full_event()

    @given(cst.acts_on_spaces(max_n=5))
    def test_rules_recover_the_act(self, act):
        for event, value in act.rules():
            for state in event:
                assert act.at(state) == value

    def test_conditional_act_reindexes(self):
        cact = ConditionalAct(((2, F(1)), (0, F(0))))
        assert cact.domain == frozenset({0, 2})
        assert cact.as_act().outcomes == (F(0), F(1))

    def test_conditional_act_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ConditionalAct(((0, F(0)), (0, F(1))))


class TestConditioningAndComposition:
    def test_conditioning_on_everything_is_identity(self):
        act = Act((F(0), F(1, 4), F(1)))
        cond = condition_act(act, act.space.full_event())
        assert cond.as_act().outcomes == act.outcomes

    def test_conditioning_keeps_selected_states(self):
        act = Act((F(0), F(1, 4), F(1)))
        cond = condition_act(act, frozenset({0, 2}))
        assert cond.entries == ((0, F(0)), (2, F(1)))

    def test_conditioning_rejects_empty_event(self):
        act = Act((F(0), F(1)))
        with pytest.raises(EmptyEvent):
            condition_act(act, frozenset())

    def test_conditioning_rejects_foreign_states(self):
        act = Act((F(0), F(1)))
        with pytest.raises(SpaceMismatch):
            condition_act(act, frozenset({0, 5}))

    def test_composition_needs_matching_domains(self):
        space = StateSpace(3)
        partition = Partition(space, (frozenset({0, 1}), frozenset({2})))
        good = ConditionalAct(((0, F(0)), (1, F(1))))
        bad = ConditionalAct(((2, F(0)), (0, F(1))))
        with pytest.raises(DomainMismatch):
            compose_partition_act(partition, (good, good))
        with pytest.raises(DomainMismatch):
            compose_partition_act(partition, (bad, bad))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decompose_then_recompose_is_identity(self, n):
        # Exhaustive over quarter-grid acts and all partitions of the space.
        space = StateSpace(n)
        all_partitions = enumerate_partitions(space)
        for act in grid_acts(n):
            for partition in all_partitions:
                pieces = tuple(condition_act(act, block) for block in partition.blocks)
                rebuilt = compose_partition_act(partition, pieces)
                assert acts_equivalent(rebuilt, act)

    @given(cst.acts_on_spaces(max_n=4), st.data())
    def test_composition_outcomes_are_the_union(self, act, data):
        partition = data.draw(cst.partitions(act.space.n))
        pieces = tuple(condition_act(act, block) for block in partition.blocks)
        rebuilt = compose_partition_act(partition, pieces)
        assert outcome_set(rebuilt) == frozenset().union(
            *(outcome_set(piece) for piece in pieces))

    def test_equivalence_requires_shared_space(self):
        with pytest.raises(SpaceMismatch):
            acts_equivalent(Act((F(0),)), Act((F(0), F(1))))


class TestEventEnumeration:
    def test_events_sorted_by_member_tuples(self):
        space = StateSpace(3)
        got = [tuple(sorted(e)) for e in enumerate_events(space)]
        assert got == [
            (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]

    def test_event_key_is_the_sort_key(self):
        space = StateSpace(4)
        got = enumerate_events(space)
        assert got == sorted(got, key=event_key)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    @pytest.mark.parametrize("include_empty,include_full",
                             [(False, True), (True, True), (False, False)])
    def test_events_match_the_sorted_list_of_every_subset(self, n, include_empty,
                                                          include_full):
        subsets = [frozenset(s for s in range(n) if mask >> s & 1)
                   for mask in range(2 ** n)]
        expected = sorted((e for e in subsets
                           if (e or include_empty) and (len(e) < n or include_full)),
                          key=event_key)
        assert enumerate_events(StateSpace(n), include_empty=include_empty,
                                include_full=include_full) == expected

    def test_empty_event_excluded_by_default(self):
        space = StateSpace(2)
        assert frozenset() not in enumerate_events(space)
        assert frozenset() in enumerate_events(space, include_empty=True)
