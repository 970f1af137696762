"""Plausibility measures: evaluation, vacuity, restriction, conditioning."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cst
from foldback import (
    Anchored,
    BeliefFunctionMeasure,
    CredalSetMeasure,
    EmptyEvent,
    Framework,
    Hurwicz,
    NoVacuousRepresentation,
    Partition,
    PossibilityMeasure,
    ProbabilityMeasure,
    SpaceMismatch,
    StateSpace,
    Tabulated,
    ValidationError,
    ZPair,
    ZeroPlausibilityEvent,
    condition,
    enumerate_partitions,
    evaluate,
    expectation_bounds,
    is_vacuous,
    restrict,
    vacuous,
)
from foldback.acts import Act, event_key

F = Fraction

ALL_FRAMEWORKS = (
    Framework.PROBABILITY, Framework.CREDAL_SET,
    Framework.BELIEF_FUNCTION, Framework.POSSIBILITY)

VACUOUS_FRAMEWORKS = (
    Framework.CREDAL_SET, Framework.BELIEF_FUNCTION, Framework.POSSIBILITY)


def brute_vacuity(measure):
    """Whether every proper non-empty event is valued ⟨0,1⟩.

    Every proper non-empty event is built and sorted before the search.
    """
    n = measure.space.n
    proper = sorted((frozenset(s for s in range(n) if mask >> s & 1)
                     for mask in range(1, 2 ** n - 1)), key=event_key)
    return all(evaluate(measure, event) == ZPair(F(0), F(1)) for event in proper)


class TestZPair:
    def test_orders_its_ends(self):
        with pytest.raises(ValueError):
            ZPair(F(1), F(0))


class TestEvaluate:
    def test_full_simplex_gives_vacuous_on_proper_events(self):
        measure = CredalSetMeasure.full_simplex(StateSpace(3))
        assert evaluate(measure, frozenset({0})) == ZPair(F(0), F(1))

    def test_total_mass_on_everything_gives_vacuous(self):
        space = StateSpace(2)
        measure = BeliefFunctionMeasure(space, ((space.full_event(), F(1)),))
        assert evaluate(measure, frozenset({0})) == ZPair(F(0), F(1))

    def test_probability_collapses_the_pair(self):
        measure = ProbabilityMeasure((F(1, 3), F(1, 3), F(1, 3)))
        assert evaluate(measure, frozenset({0, 1})) == ZPair(F(2, 3), F(2, 3))

    def test_belief_function_sums_masses(self):
        space = StateSpace(3)
        measure = BeliefFunctionMeasure(space, (
            (frozenset({0}), F(1, 2)), (frozenset({0, 1}), F(1, 4)),
            (space.full_event(), F(1, 4))))
        # lower: masses inside {0,1}; upper: masses meeting {0,1}
        assert evaluate(measure, frozenset({0, 1})) == ZPair(F(3, 4), F(1))
        assert evaluate(measure, frozenset({2})) == ZPair(F(0), F(1, 4))

    def test_possibility_uses_complement_max(self):
        measure = PossibilityMeasure((F(1), F(1, 2), F(1, 4)))
        assert evaluate(measure, frozenset({0})) == ZPair(F(1, 2), F(1))
        assert evaluate(measure, frozenset({1, 2})) == ZPair(F(0), F(1, 2))

    def test_credal_generators_bound_the_event(self):
        space = StateSpace(2)
        measure = CredalSetMeasure(space, (
            (F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))))
        assert evaluate(measure, frozenset({0})) == ZPair(F(1, 4), F(1, 2))

    @given(st.integers(1, 4), st.data())
    def test_bounds_of_empty_and_full(self, n, data):
        measure = data.draw(cst.measures(n))
        space = StateSpace(n)
        assert evaluate(measure, frozenset()) == ZPair(F(0), F(0))
        assert evaluate(measure, space.full_event()) == ZPair(F(1), F(1))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60)
    def test_monotone_in_the_event(self, n, data):
        measure = data.draw(cst.measures(n))
        events = cst.all_events(n, empty=True)
        for small, big in itertools.combinations(events, 2):
            if not small <= big:
                continue
            lo = evaluate(measure, small)
            hi = evaluate(measure, big)
            assert lo.lower <= hi.lower and lo.upper <= hi.upper

    def test_rejects_foreign_event(self):
        measure = ProbabilityMeasure((F(1, 2), F(1, 2)))
        with pytest.raises(Exception):
            evaluate(measure, frozenset({7}))


class TestVacuous:
    def test_probability_has_no_ignorance_representation(self):
        with pytest.raises(NoVacuousRepresentation):
            vacuous(StateSpace(2), Framework.PROBABILITY)

    def test_each_framework_builds_its_own(self):
        space = StateSpace(3)
        credal = vacuous(space, Framework.CREDAL_SET)
        assert credal.is_full_simplex
        belief = vacuous(space, Framework.BELIEF_FUNCTION)
        assert belief.masses == ((space.full_event(), F(1)),)
        possibility = vacuous(space, Framework.POSSIBILITY)
        assert possibility.grades == (F(1), F(1), F(1))

    @pytest.mark.parametrize("framework", VACUOUS_FRAMEWORKS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_proper_event_is_maximally_uncertain(self, framework, n):
        space = StateSpace(n)
        measure = vacuous(space, framework)
        for event in cst.all_events(n, full=False):
            assert evaluate(measure, event) == ZPair(F(0), F(1))


class TestIsVacuous:
    def test_accepts_the_canonical_representations(self):
        space = StateSpace(3)
        for framework in VACUOUS_FRAMEWORKS:
            assert is_vacuous(vacuous(space, framework)) is True

    def test_vertex_generators_span_the_simplex(self):
        space = StateSpace(2)
        vertices = CredalSetMeasure(space, ((F(1), F(0)), (F(0), F(1))))
        assert is_vacuous(vertices)

    def test_point_probability_is_not_vacuous(self):
        assert is_vacuous(ProbabilityMeasure((F(1, 2), F(1, 2)))) is False

    def test_missing_unit_vector_is_not_vacuous(self):
        space = StateSpace(3)
        # vacuous on singletons {0} and {2} but pinned on {1}
        measure = CredalSetMeasure(space, ((F(1), F(0), F(0)), (F(0), F(0), F(1))))
        assert is_vacuous(measure) is False

    def test_single_state_space_is_always_vacuous(self):
        assert is_vacuous(ProbabilityMeasure((F(1),)))

    @pytest.mark.parametrize("n", [2, 3, 6, 13, 20])
    def test_shape_decides_at_any_size(self, n):
        # n <= 6 confirms each case's verdict by valuing every event
        for label, measure, expected in cst.shape_cases(n):
            assert is_vacuous(measure) is expected, label
            if n <= 6:
                assert brute_vacuity(measure) is expected, label

    @pytest.mark.parametrize("n", [13, 20])
    def test_credal_generators_without_unit_vectors_are_not_vacuous(self, n):
        uniform = tuple(F(1, n) for _ in range(n))
        assert is_vacuous(CredalSetMeasure(StateSpace(n), (uniform,))) is False

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=80)
    def test_structural_shortcut_agrees_with_enumeration(self, n, data):
        measure = data.draw(cst.measures(n))
        assert is_vacuous(measure) is brute_vacuity(measure)


    @given(st.integers(2, 6), st.data())
    @settings(max_examples=120)
    def test_shape_agrees_with_enumeration_up_to_six_states(self, n, data):
        measure = data.draw(st.one_of(
            cst.credal_measures(n), cst.belief_measures(n), cst.possibility_measures(n)))
        assert is_vacuous(measure) is brute_vacuity(measure)

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=120)
    def test_unit_vector_generators_decide_credal_vacuity(self, n, data):
        measure = data.draw(cst.credal_measures_near_unit_vectors(n))
        assert is_vacuous(measure) is brute_vacuity(measure)


class TestRestriction:
    def test_probability_restriction_sums_blocks(self):
        measure = ProbabilityMeasure((F(1, 2), F(1, 4), F(1, 4)))
        partition = Partition(StateSpace(3), (frozenset({0, 2}), frozenset({1})))
        got = restrict(measure, partition)
        assert got.weights == (F(3, 4), F(1, 4))

    def test_possibility_restriction_takes_block_max(self):
        measure = PossibilityMeasure((F(1, 4), F(1), F(1, 2)))
        partition = Partition(StateSpace(3), (frozenset({0, 2}), frozenset({1})))
        got = restrict(measure, partition)
        assert got.grades == (F(1, 2), F(1))

    def test_belief_restriction_coarsens_focal_elements(self):
        space = StateSpace(3)
        measure = BeliefFunctionMeasure(space, (
            (frozenset({0, 1}), F(1, 2)), (frozenset({2}), F(1, 2))))
        partition = Partition(space, (frozenset({0}), frozenset({1, 2})))
        got = restrict(measure, partition)
        # {0,1} meets both blocks, {2} only the second
        assert got.masses == ((frozenset({0, 1}), F(1, 2)), (frozenset({1}), F(1, 2)))

    def test_trivial_partition_gives_the_certain_atom(self):
        space = StateSpace(3)
        measure = vacuous(space, Framework.BELIEF_FUNCTION)
        got = restrict(measure, Partition(space, (space.full_event(),)))
        assert evaluate(got, frozenset({0})) == ZPair(F(1), F(1))

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60)
    def test_restriction_preserves_block_union_values(self, n, data):
        # The quotient measure must agree with the original on every
        # union of blocks, at both ends of the pair.
        measure = data.draw(cst.measures(n))
        partition = data.draw(cst.partitions(n))
        restricted = restrict(measure, partition)
        k = len(partition.blocks)
        for mask in range(1, 2 ** k):
            indices = frozenset(i for i in range(k) if mask >> i & 1)
            union = frozenset().union(*(partition.blocks[i] for i in indices))
            assert evaluate(restricted, indices) == evaluate(measure, union)

    @pytest.mark.parametrize("framework", VACUOUS_FRAMEWORKS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ignorance_survives_every_restriction(self, framework, n):
        space = StateSpace(n)
        measure = vacuous(space, framework)
        for partition in enumerate_partitions(space):
            assert is_vacuous(restrict(measure, partition))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ignorance_survives_restriction_of_vertex_generators(self, n):
        space = StateSpace(n)
        rows = []
        for s in space.states:
            rows.append(tuple(F(1) if t == s else F(0) for t in space.states))
        measure = CredalSetMeasure(space, tuple(rows))
        assert is_vacuous(measure)
        for partition in enumerate_partitions(space):
            assert is_vacuous(restrict(measure, partition))


class TestConditioning:
    def test_probability_conditioning_renormalizes(self):
        measure = ProbabilityMeasure((F(1, 2), F(1, 4), F(1, 4)))
        got = condition(measure, frozenset({1, 2}))
        assert got.weights == (F(1, 2), F(1, 2))

    def test_survivors_are_reindexed_in_ascending_order(self):
        measure = ProbabilityMeasure((F(1, 2), F(1, 4), F(1, 4)))
        got = condition(measure, frozenset({0, 2}))
        assert got.weights == (F(2, 3), F(1, 3))

    def test_belief_conditioning_moves_mass_inside(self):
        space = StateSpace(3)
        measure = vacuous(space, Framework.BELIEF_FUNCTION)
        got = condition(measure, frozenset({1, 2}))
        assert got.space == StateSpace(2)
        assert got.masses == ((frozenset({0, 1}), F(1)),)

    def test_possibility_conditioning_rescales_grades(self):
        measure = PossibilityMeasure((F(1, 2), F(1), F(1, 4)))
        got = condition(measure, frozenset({0, 2}))
        assert got.grades == (F(1), F(1, 2))

    def test_credal_conditioning_drops_zero_mass_generators(self):
        space = StateSpace(3)
        measure = CredalSetMeasure(space, (
            (F(1), F(0), F(0)), (F(0), F(1, 2), F(1, 2))))
        got = condition(measure, frozenset({1, 2}))
        assert got.generators == ((F(1, 2), F(1, 2)),)

    def test_empty_event_is_rejected(self):
        measure = ProbabilityMeasure((F(1, 2), F(1, 2)))
        with pytest.raises(EmptyEvent):
            condition(measure, frozenset())

    def test_zero_probability_event_is_rejected(self):
        measure = ProbabilityMeasure((F(1), F(0), F(0)))
        with pytest.raises(ZeroPlausibilityEvent):
            condition(measure, frozenset({1, 2}))

    def test_zero_plausibility_event_is_rejected_for_beliefs(self):
        space = StateSpace(2)
        measure = BeliefFunctionMeasure(space, ((frozenset({0}), F(1)),))
        with pytest.raises(ZeroPlausibilityEvent):
            condition(measure, frozenset({1}))

    def test_impossible_event_is_rejected_for_possibilities(self):
        measure = PossibilityMeasure((F(1), F(0)))
        with pytest.raises(ZeroPlausibilityEvent):
            condition(measure, frozenset({1}))

    @pytest.mark.parametrize("framework", VACUOUS_FRAMEWORKS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ignorance_survives_every_conditioning(self, framework, n):
        space = StateSpace(n)
        measure = vacuous(space, framework)
        for event in cst.all_events(n):
            assert is_vacuous(condition(measure, event))

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=40)
    def test_probability_conditioning_matches_direct_ratio(self, n, data):
        weights = data.draw(cst.probability_vectors(n))
        measure = ProbabilityMeasure(weights)
        event = data.draw(cst.events(n))
        total = sum(weights[s] for s in event)
        if total == 0:
            with pytest.raises(ZeroPlausibilityEvent):
                condition(measure, event)
            return
        got = condition(measure, event)
        for i, s in enumerate(sorted(event)):
            assert got.weights[i] == weights[s] / total


class TestExpectationBounds:
    def test_probability_bounds_collapse_to_the_mean(self):
        measure = ProbabilityMeasure((F(1, 4), F(3, 4)))
        act = Act((F(0), F(1)))
        assert expectation_bounds(measure, act) == ZPair(F(3, 4), F(3, 4))

    def test_full_simplex_spans_the_outcome_range(self):
        measure = CredalSetMeasure.full_simplex(StateSpace(3))
        act = Act((F(1, 4), F(1, 2), F(1)))
        assert expectation_bounds(measure, act) == ZPair(F(1, 4), F(1))

    def test_generator_bounds_are_extreme_expectations(self):
        space = StateSpace(3)
        measure = CredalSetMeasure(space, (
            (F(1), F(0), F(0)), (F(0), F(0), F(1))))
        act = Act((F(0), F(0), F(1)))
        assert expectation_bounds(measure, act) == ZPair(F(0), F(1))

    def test_belief_bounds_weight_block_extremes(self):
        # each focal element contributes its own worst and best outcome
        space = StateSpace(3)
        measure = BeliefFunctionMeasure(space, (
            (frozenset({0, 1}), F(1, 2)), (frozenset({2}), F(1, 2))))
        act = Act((F(0), F(1, 2), F(1)))
        assert expectation_bounds(measure, act) == ZPair(F(1, 2), F(3, 4))

    def test_possibility_bounds_via_nested_focal_sets(self):
        measure = PossibilityMeasure((F(1), F(1, 2)))
        act = Act((F(0), F(1)))
        assert expectation_bounds(measure, act) == ZPair(F(0), F(1, 2))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60)
    def test_bounds_sit_inside_the_outcome_range(self, n, data):
        measure = data.draw(cst.measures(n))
        act = data.draw(cst.acts(n))
        bounds = expectation_bounds(measure, act)
        assert min(act.outcomes) <= bounds.lower <= bounds.upper <= max(act.outcomes)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60)
    def test_constant_acts_have_point_bounds(self, n, data):
        measure = data.draw(cst.measures(n))
        c = data.draw(cst.unit_fractions())
        act = Act((c,) * n)
        assert expectation_bounds(measure, act) == ZPair(c, c)


class TestFramework:
    def test_each_measure_names_its_framework(self):
        space = StateSpace(2)
        assert ProbabilityMeasure((F(1), F(0))).framework is Framework.PROBABILITY
        assert CredalSetMeasure.full_simplex(space).framework is Framework.CREDAL_SET
        assert vacuous(space, Framework.BELIEF_FUNCTION).framework is \
            Framework.BELIEF_FUNCTION
        assert PossibilityMeasure((F(1), F(1))).framework is Framework.POSSIBILITY

    @pytest.mark.parametrize("framework", VACUOUS_FRAMEWORKS)
    def test_vacuous_measures_belong_to_their_framework(self, framework):
        assert vacuous(StateSpace(3), framework).framework is framework


class TestMeasureValidation:
    def test_probability_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ProbabilityMeasure((F(1, 2), F(1, 4)))

    def test_belief_masses_must_sum_to_one(self):
        space = StateSpace(2)
        with pytest.raises(ValueError):
            BeliefFunctionMeasure(space, ((frozenset({0}), F(1, 2)),))

    def test_belief_masses_combine_duplicates_and_drop_zeros(self):
        space = StateSpace(2)
        measure = BeliefFunctionMeasure(space, (
            (frozenset({0}), F(1, 4)), (frozenset({0}), F(1, 4)),
            (frozenset({1}), F(0)), (space.full_event(), F(1, 2))))
        assert measure.masses == ((frozenset({0}), F(1, 2)), (space.full_event(), F(1, 2)))

    def test_possibility_needs_a_fully_possible_state(self):
        with pytest.raises(ValueError):
            PossibilityMeasure((F(1, 2), F(1, 2)))

    @pytest.mark.parametrize("call,message", [
        (lambda: restrict(ProbabilityMeasure((F(1, 2), F(1, 2))),
                          Partition(StateSpace(3), (frozenset({0, 1, 2}),))),
         "partition and measure live on different spaces"),
        (lambda: expectation_bounds(ProbabilityMeasure((F(1, 2), F(1, 2))),
                                    Act((F(0), F(1), F(1)))),
         "act and measure live on different spaces"),
    ], ids=["restrict", "expectation-bounds"])
    def test_a_measure_refuses_what_lives_on_another_space(self, call, message):
        with pytest.raises(SpaceMismatch, match=f"^{message}$"):
            call()

    def test_credal_set_needs_a_generator_or_the_simplex_flag(self):
        space = StateSpace(2)
        with pytest.raises(ValueError):
            CredalSetMeasure(space, ())

    def test_generators_must_match_the_space(self):
        space = StateSpace(2)
        with pytest.raises(Exception):
            CredalSetMeasure(space, ((F(1), F(0), F(0)),))

    # the engine builds the values it derives without these checks;
    # public construction keeps every one of them, and its message
    @pytest.mark.parametrize("build,message", [
        (lambda: ZPair(F(1, 2), F(1, 4)), "bounds out of order: 1/2 > 1/4"),
        (lambda: ZPair(F(-1, 4), F(1, 2)), "lower bound must lie in [0, 1], got -1/4"),
        (lambda: ZPair(F(1, 2), F(5, 4)), "upper bound must lie in [0, 1], got 5/4"),
        (lambda: ProbabilityMeasure((F(5, 4), F(-1, 4))),
         "probability has a negative entry: -1/4"),
        (lambda: ProbabilityMeasure((F(1, 2), F(1, 3))), "probability must sum to 1, got 5/6"),
        (lambda: CredalSetMeasure(StateSpace(2), ((F(1), F(0)), (F(3, 2), F(-1, 2)))),
         "credal generator has a negative entry: -1/2"),
        (lambda: CredalSetMeasure(StateSpace(2), ((F(1), F(0)), (F(1, 2), F(1, 3)))),
         "credal generator must sum to 1, got 5/6"),
        (lambda: BeliefFunctionMeasure(StateSpace(2), (
            (frozenset({0}), F(3, 2)), (frozenset({1}), F(-1, 2)))), "negative mass -1/2"),
        (lambda: BeliefFunctionMeasure(StateSpace(2), ((frozenset({0, 1}), F(2, 3)),)),
         "masses must sum to 1, got 2/3"),
        (lambda: PossibilityMeasure((F(1), F(-1, 2))), "grade must lie in [0, 1], got -1/2"),
        (lambda: PossibilityMeasure((F(1), F(3, 2))), "grade must lie in [0, 1], got 3/2"),
        (lambda: PossibilityMeasure((F(3, 4), F(1, 2))),
         "some state must be fully possible (grade 1)"),
        (lambda: Act((F(1, 2), F(-1, 2))), "outcome must lie in [0, 1], got -1/2"),
        (lambda: Act((F(3, 2),)), "outcome must lie in [0, 1], got 3/2"),
        (lambda: Anchored(F(-1, 2)), "anchor must lie in [0, 1], got -1/2"),
        (lambda: Anchored(F(3, 2)), "anchor must lie in [0, 1], got 3/2"),
        (lambda: Hurwicz(F(-1, 3)), "alpha must lie in [0, 1], got -1/3"),
        (lambda: Hurwicz(F(4, 3)), "alpha must lie in [0, 1], got 4/3"),
        (lambda: Tabulated(((ZPair(F(0), F(1)), F(1, 2)), (ZPair(F(0), F(1)), F(1, 3)))),
         "conflicting entries for ZPair(lower=Fraction(0, 1), upper=Fraction(1, 1))"),
        (lambda: Tabulated(((ZPair(F(0), F(1)), F(3, 2)),)),
         "table value must lie in [0, 1], got 3/2"),
        (lambda: Tabulated(((ZPair(F(0), F(0)), F(0)), (ZPair(F(0), F(1)), F(-1, 2)))),
         "table value must lie in [0, 1], got -1/2"),
    ], ids=["pair-out-of-order", "pair-below-0", "pair-above-1",
            "probability-negative", "probability-not-summing",
            "credal-negative", "credal-not-summing",
            "belief-negative", "belief-not-summing",
            "possibility-below-0", "possibility-above-1", "possibility-max-below-1",
            "act-below-0", "act-above-1", "anchored-below-0", "anchored-above-1",
            "hurwicz-below-0", "hurwicz-above-1", "table-conflict", "table-above-1",
            "table-below-0"])
    def test_public_construction_refuses_bad_input(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()
