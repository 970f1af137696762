"""Certainty-equivalent rules, the vacuous evaluator, and preferences."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cst
from foldback import (
    Act,
    Anchored,
    BeliefFunctionMeasure,
    CeOperator,
    CredalSetMeasure,
    EmptyOutcomeSet,
    Framework,
    FrameworkMismatch,
    Hurwicz,
    MaxRule,
    MedianRule,
    MinRule,
    NotTabulated,
    Preference,
    ProbabilityMeasure,
    SpaceMismatch,
    StateSpace,
    Tabulated,
    UnsupportedCombination,
    ZPair,
    ce,
    ce_vacuous,
    expected_utility,
    gamma_apply,
    lambda_prefer,
    median_ce,
    np_prefer,
    vacuous,
)
from foldback.rationals import unit_grid

F = Fraction


def grid_pairs(denominator: int):
    grid = unit_grid(denominator)
    return [ZPair(x, y) for x in grid for y in grid if x <= y]


def clamp_oracle(anchor: Fraction, z: ZPair) -> Fraction:
    """Three-clause form: mutually consistent where clauses overlap."""
    values = set()
    if z.upper <= anchor:
        values.add(z.upper)
    if z.lower <= anchor <= z.upper:
        values.add(anchor)
    if anchor <= z.lower:
        values.add(z.lower)
    assert len(values) == 1, (anchor, z, values)
    return values.pop()


class TestGammaApply:
    def test_anchor_inside_the_interval_wins(self):
        assert gamma_apply(Anchored(F(1, 2)), ZPair(F(0), F(1))) == F(1, 2)

    def test_anchor_below_the_interval_clamps_up(self):
        assert gamma_apply(Anchored(F(1, 2)), ZPair(F(3, 4), F(1))) == F(3, 4)

    def test_anchor_above_the_interval_clamps_down(self):
        assert gamma_apply(Anchored(F(1, 2)), ZPair(F(0), F(1, 4))) == F(1, 4)

    def test_hurwicz_weights_the_lower_end(self):
        assert gamma_apply(Hurwicz(F(1, 2)), ZPair(F(0), F(1))) == F(1, 2)
        assert gamma_apply(Hurwicz(F(1, 4)), ZPair(F(0), F(1))) == F(3, 4)

    def test_min_and_max_pick_the_ends(self):
        z = ZPair(F(1, 4), F(3, 4))
        assert gamma_apply(MinRule(), z) == F(1, 4)
        assert gamma_apply(MaxRule(), z) == F(3, 4)

    def test_clamp_matches_the_three_clause_oracle(self):
        for anchor in unit_grid(16):
            rule = Anchored(anchor)
            for z in grid_pairs(16):
                assert gamma_apply(rule, z) == clamp_oracle(anchor, z)

    def test_min_is_anchored_at_zero_and_max_at_one(self):
        for z in grid_pairs(16):
            assert gamma_apply(MinRule(), z) == gamma_apply(Anchored(F(0)), z)
            assert gamma_apply(MaxRule(), z) == gamma_apply(Anchored(F(1)), z)

    def test_hurwicz_interior_differs_from_every_clamp(self):
        rule = Hurwicz(F(1, 2))
        probes = grid_pairs(16)
        for anchor in unit_grid(16):
            clamp = Anchored(anchor)
            assert any(
                gamma_apply(rule, z) != gamma_apply(clamp, z) for z in probes)

    @given(cst.unit_fractions(), cst.unit_fractions())
    def test_degenerate_pairs_are_fixed_points(self, anchor, x):
        z = ZPair(x, x)
        assert gamma_apply(Anchored(anchor), z) == x
        assert gamma_apply(Hurwicz(anchor), z) == x

    @given(cst.unit_fractions(), st.data())
    def test_value_stays_inside_the_pair(self, anchor, data):
        lo = data.draw(cst.unit_fractions())
        hi = data.draw(cst.unit_fractions())
        if lo > hi:
            lo, hi = hi, lo
        z = ZPair(lo, hi)
        for rule in (Anchored(anchor), Hurwicz(anchor), MinRule(), MaxRule()):
            assert lo <= gamma_apply(rule, z) <= hi


class TestTabulated:
    def test_lookup_on_grid(self):
        entries = {z: gamma_apply(Anchored(F(1, 2)), z) for z in grid_pairs(2)}
        rule = Tabulated(tuple(entries.items()))
        assert gamma_apply(rule, ZPair(F(0), F(1))) == F(1, 2)

    def test_off_grid_is_an_error(self):
        rule = Tabulated(((ZPair(F(0), F(1)), F(1, 2)),))
        with pytest.raises(NotTabulated):
            gamma_apply(rule, ZPair(F(0), F(1, 3)))


class TestCeVacuous:
    def test_anchor_inside_the_outcome_range(self):
        assert ce_vacuous(Anchored(F(3, 10)), {F(0), F(1)}) == F(3, 10)

    def test_anchor_at_the_top_of_the_range(self):
        assert ce_vacuous(Anchored(F(3, 10)), {F(0), F(3, 10)}) == F(3, 10)

    def test_only_the_extremes_matter_for_gamma_rules(self):
        assert ce_vacuous(Anchored(F(1, 2)), {F(0), F(1, 8), F(1)}) == \
            ce_vacuous(Anchored(F(1, 2)), {F(0), F(1)})

    def test_median_uses_the_whole_set(self):
        assert ce_vacuous(MedianRule(), {F(0), F(1, 2), F(1)}) == F(1, 2)
        assert ce_vacuous(MedianRule(), {F(0), F(1)}) == F(0)
        assert ce_vacuous(MedianRule(), {F(1, 4)}) == F(1, 4)

    def test_empty_set_is_an_error(self):
        with pytest.raises(EmptyOutcomeSet):
            ce_vacuous(MinRule(), frozenset())

    @given(cst.unit_fractions())
    def test_singletons_are_fixed(self, c):
        for rule in (Anchored(F(1, 3)), Hurwicz(F(2, 3)), MinRule(),
                     MaxRule(), MedianRule()):
            assert ce_vacuous(rule, {c}) == c


class TestMedian:
    def test_lower_median_on_even_sets(self):
        assert median_ce({F(0), F(1, 4), F(1, 2), F(1)}) == F(1, 4)

    def test_duplicates_do_not_count_twice(self):
        assert median_ce(frozenset({F(0), F(1)})) == F(0)


class TestExpectedUtility:
    def test_weighted_sum(self):
        measure = ProbabilityMeasure((F(1, 2), F(1, 4), F(1, 4)))
        act = Act((F(0), F(1, 2), F(1)))
        assert expected_utility(measure, act) == F(3, 8)

    def test_point_mass_reads_the_state(self):
        measure = ProbabilityMeasure((F(0), F(1), F(0)))
        act = Act((F(1, 4), F(3, 4), F(1)))
        assert expected_utility(measure, act) == F(3, 4)


class TestCeDispatch:
    def test_probability_route_uses_expectation(self):
        op = CeOperator(Anchored(F(1, 2)))
        measure = ProbabilityMeasure((F(1, 2), F(1, 2)))
        assert ce(op, measure, Act((F(0), F(1)))) == F(1, 2)

    @pytest.mark.parametrize("framework", [
        Framework.CREDAL_SET, Framework.BELIEF_FUNCTION, Framework.POSSIBILITY])
    def test_ignorance_route_uses_the_outcome_set(self, framework):
        op = CeOperator(Anchored(F(3, 10)))
        space = StateSpace(3)
        measure = vacuous(space, framework)
        assert ce(op, measure, Act((F(0), F(1, 2), F(1)))) == F(3, 10)

    @pytest.mark.parametrize("n", [13, 20])
    @pytest.mark.parametrize("framework", [
        Framework.CREDAL_SET, Framework.BELIEF_FUNCTION, Framework.POSSIBILITY])
    def test_ignorance_route_needs_no_event_search(self, framework, n):
        # the canonical vacuous measures are recognised by shape at any size
        op = CeOperator(Anchored(F(1, 2)))
        act = Act((F(0),) * (n - 1) + (F(1),))
        assert ce(op, vacuous(StateSpace(n), framework), act) == F(1, 2)

    @pytest.mark.parametrize("n", [13, 20])
    def test_shape_decides_the_route_at_any_size(self, n):
        op = CeOperator(Hurwicz(F(1, 2)))
        act = Act((F(0), F(1, 2)) + (F(1, 4),) * (n - 2))
        for label, measure, vacuous_shape in cst.shape_cases(n):
            if measure.framework is Framework.PROBABILITY:
                assert ce(op, measure, act) == expected_utility(measure, act), label
            elif vacuous_shape:
                assert ce(op, measure, act) == F(1, 4), label
            else:
                with pytest.raises(UnsupportedCombination):
                    ce(op, measure, act)

    def test_ignorance_route_accepts_the_median(self):
        op = CeOperator(MedianRule())
        measure = vacuous(StateSpace(3), Framework.CREDAL_SET)
        assert ce(op, measure, Act((F(0), F(1, 2), F(1)))) == F(1, 2)

    def test_extension_route_applies_gamma_to_expectation_bounds(self):
        op = CeOperator(Anchored(F(1, 2)), credal_extension=True)
        space = StateSpace(3)
        measure = CredalSetMeasure(space, ((F(1), F(0), F(0)), (F(0), F(0), F(1))))
        assert ce(op, measure, Act((F(0), F(0), F(1)))) == F(1, 2)

    def test_extension_route_handles_belief_functions(self):
        op = CeOperator(Anchored(F(1, 2)), credal_extension=True)
        space = StateSpace(3)
        measure = BeliefFunctionMeasure(space, (
            (frozenset({0, 1}), F(1, 2)), (frozenset({2}), F(1, 2))))
        assert ce(op, measure, Act((F(0), F(1, 2), F(1)))) == F(1, 2)

    def test_informative_measure_without_extension_is_unsupported(self):
        op = CeOperator(Anchored(F(1, 2)))
        space = StateSpace(3)
        measure = CredalSetMeasure(space, ((F(1), F(0), F(0)), (F(0), F(0), F(1))))
        with pytest.raises(UnsupportedCombination):
            ce(op, measure, Act((F(0), F(0), F(1))))

    def test_median_never_takes_the_extension_route(self):
        op = CeOperator(MedianRule(), credal_extension=True)
        space = StateSpace(3)
        measure = CredalSetMeasure(space, ((F(1), F(0), F(0)), (F(0), F(0), F(1))))
        with pytest.raises(UnsupportedCombination):
            ce(op, measure, Act((F(0), F(0), F(1))))

    def test_probability_route_can_be_disabled(self):
        op = CeOperator(Anchored(F(1, 2)), probabilistic_rule=False)
        measure = ProbabilityMeasure((F(1, 2), F(1, 2)))
        with pytest.raises(UnsupportedCombination):
            ce(op, measure, Act((F(0), F(1))))

    def test_single_state_probability_is_vacuous_hence_supported(self):
        op = CeOperator(Anchored(F(1, 2)), probabilistic_rule=False)
        measure = ProbabilityMeasure((F(1),))
        assert ce(op, measure, Act((F(3, 4),))) == F(3, 4)


class TestNpPreference:
    def test_interval_straddling_the_anchor_is_indifferent(self):
        got = np_prefer(Anchored(F(1, 2)), {F(0), F(1)}, {F(1, 2)})
        assert got == Preference.INDIFFERENT

    def test_higher_value_is_preferred(self):
        got = np_prefer(Anchored(F(1, 2)), {F(1)}, {F(0)})
        assert got == Preference.STRICTLY_PREFERS

    def test_lower_value_is_dispreferred(self):
        got = np_prefer(Anchored(F(1, 2)), {F(0)}, {F(3, 4)})
        assert got == Preference.STRICTLY_DISPREFERS

    def test_interior_outcomes_are_ignored(self):
        got = np_prefer(Anchored(F(1, 2)), {F(0), F(1)}, {F(0), F(1, 4), F(1)})
        assert got == Preference.INDIFFERENT


class TestLambdaPreference:
    def test_both_below_the_anchor_compares_maxima(self):
        assert lambda_prefer(F(1, 2), {F(1, 4), F(1, 2)}, {F(0), F(1, 4)})

    def test_both_above_the_anchor_compares_minima(self):
        assert lambda_prefer(F(1, 4), {F(1, 2), F(1)}, {F(1, 4), F(3, 4)})

    def test_straddle_needs_the_anchor_between(self):
        assert lambda_prefer(F(1, 2), {F(0), F(1)}, {F(0), F(1, 4)})
        assert not lambda_prefer(F(1, 2), {F(0), F(1, 4)}, {F(3, 4), F(1)})

    def test_reflexive_on_any_set(self):
        outcomes = {F(0), F(1, 2), F(1)}
        assert lambda_prefer(F(1, 4), outcomes, outcomes)

    @given(st.data())
    @settings(max_examples=80)
    def test_agrees_with_the_value_comparison(self, data):
        # weak preference by the three clauses must coincide with
        # comparing the two clamp values
        grid = unit_grid(4)
        anchor = data.draw(st.sampled_from(grid))
        left = frozenset(data.draw(
            st.lists(st.sampled_from(grid), min_size=1, max_size=3)))
        right = frozenset(data.draw(
            st.lists(st.sampled_from(grid), min_size=1, max_size=3)))
        rule = Anchored(anchor)
        values = lambda_prefer(anchor, left, right)
        direct = ce_vacuous(rule, left) >= ce_vacuous(rule, right)
        assert values == direct


class TestRuleValidation:
    def test_anchor_must_be_a_unit_value(self):
        with pytest.raises(ValueError):
            Anchored(F(3, 2))

    def test_hurwicz_weight_must_be_a_unit_value(self):
        with pytest.raises(ValueError):
            Hurwicz(F(-1, 2))

    def test_tabulated_rejects_conflicting_rows(self):
        z = ZPair(F(0), F(1))
        with pytest.raises(ValueError):
            Tabulated(((z, F(0)), (z, F(1))))

    @pytest.mark.parametrize("call,error,message", [
        (lambda: CeOperator(None), UnsupportedCombination, "an operator needs a vacuous rule"),
        (lambda: median_ce(()), EmptyOutcomeSet, "median of an empty outcome set"),
        (lambda: expected_utility(vacuous(StateSpace(2), Framework.CREDAL_SET),
                                  Act((F(0), F(1)))),
         FrameworkMismatch, "expected utility needs a single probability"),
        (lambda: ce(CeOperator(MinRule()), ProbabilityMeasure((F(1, 2), F(1, 2))),
                    Act((F(0), F(1), F(1)))),
         SpaceMismatch, "measure and act live on different spaces"),
        (lambda: lambda_prefer(F(1, 2), (), (F(0),)), EmptyOutcomeSet,
         "preference over an empty outcome set"),
    ], ids=["operator-without-rule", "median-of-nothing", "expected-utility-of-a-set",
            "ce-across-spaces", "lambda-prefer-empty"])
    def test_calls_outside_a_rule_s_domain_are_refused(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()
