"""Agreement across frameworks and convergence toward ignorance."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cst
from foldback import (
    Act,
    Anchored,
    ContaminationFamily,
    Framework,
    Hurwicz,
    MaxRule,
    MinRule,
    SpaceMismatch,
    StateSpace,
    ZPair,
    certainty_check,
    consensus_check,
    expectation_bounds,
    limit_check,
    vacuous,
)
from foldback.rationals import unit_grid

F = Fraction


class TestConsensus:
    def test_three_frameworks_agree_on_a_bet(self):
        report = consensus_check(Anchored(F(1, 2)), Act((F(0), F(0), F(1))))
        assert report.agree
        assert report.credal_value == F(1, 2)
        assert report.belief_value == F(1, 2)
        assert report.possibility_value == F(1, 2)

    def test_interpolating_rules_agree_too(self):
        report = consensus_check(Hurwicz(F(1, 4)), Act((F(0), F(1))))
        assert report.agree
        assert report.credal_value == F(3, 4)

    def test_constant_acts_keep_their_value(self):
        report = consensus_check(MaxRule(), Act((F(2, 5), F(2, 5))))
        assert report.agree
        assert report.credal_value == F(2, 5)

    def test_single_state_spaces_are_rejected(self):
        with pytest.raises(ValueError):
            consensus_check(MinRule(), Act((F(1),)))

    def test_agreement_over_the_whole_small_grid(self):
        # exhaustive: every eighth-grid anchor, every quarter-grid act, n <= 3
        anchors = unit_grid(8)
        grid = unit_grid(4)
        for n in (2, 3):
            for outcomes in itertools.product(grid, repeat=n):
                act = Act(outcomes)
                for anchor in anchors:
                    assert consensus_check(Anchored(anchor), act).agree

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60)
    def test_agreement_is_rule_independent(self, n, data):
        act = data.draw(cst.acts(n))
        rule = data.draw(st.sampled_from([
            Anchored(F(2, 7)), Hurwicz(F(3, 5)), MinRule(), MaxRule()]))
        assert consensus_check(rule, act).agree

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60)
    def test_ignorant_bounds_reduce_to_the_outcome_range(self, n, data):
        # the reduction that consensus rides on: under ignorance every
        # framework's expectation interval is the outcome range itself
        act = data.draw(cst.acts(n))
        lo, hi = min(act.outcomes), max(act.outcomes)
        for fw in (Framework.CREDAL_SET, Framework.BELIEF_FUNCTION,
                   Framework.POSSIBILITY):
            measure = vacuous(act.space, fw)
            assert expectation_bounds(measure, act) == ZPair(lo, hi)


class TestCertainty:
    def test_point_mass_reads_off_the_state(self):
        act = Act((F(0), F(0), F(1)))
        report = certainty_check(Anchored(F(1, 2)), act, 2)
        assert report.agree
        assert report.credal_value == F(1)
        report = certainty_check(Anchored(F(1, 2)), act, 0)
        assert report.agree
        assert report.credal_value == F(0)

    def test_interior_state(self):
        report = certainty_check(Hurwicz(F(1, 3)), Act((F(0), F(1, 2), F(1))), 1)
        assert report.agree
        assert report.credal_value == F(1, 2)

    def test_state_must_exist(self):
        with pytest.raises(SpaceMismatch):
            certainty_check(MinRule(), Act((F(0), F(1))), 5)

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=60)
    def test_certainty_agrees_everywhere(self, n, data):
        act = data.draw(cst.acts(n))
        state = data.draw(st.integers(0, n - 1))
        report = certainty_check(Anchored(F(1, 2)), act, state)
        assert report.agree
        assert report.credal_value == act.outcomes[state]


class TestContaminationFamily:
    def test_base_must_be_a_probability_vector(self):
        with pytest.raises(ValueError):
            ContaminationFamily((F(1, 2), F(1, 4)), (F(1, 2),))

    def test_weights_must_descend_strictly(self):
        with pytest.raises(ValueError):
            ContaminationFamily((F(1), F(0)), (F(1, 2), F(1, 2)))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            ContaminationFamily((F(1), F(0)), (F(1, 2), F(0)))


class TestLimit:
    def test_point_base_half_contamination(self):
        family = ContaminationFamily((F(1), F(0), F(0)), (F(1, 2),))
        report = limit_check(Anchored(F(1, 2)), Act((F(0), F(0), F(1))), family)
        row = report.rows[0]
        assert (row.lower, row.upper) == (F(0), F(1, 2))
        assert row.value == F(1, 2)
        assert report.limit_value == F(1, 2)
        assert report.bound_satisfied

    def test_full_contamination_hits_the_limit_exactly(self):
        family = ContaminationFamily((F(1, 3), F(1, 3), F(1, 3)), (F(1),))
        act = Act((F(0), F(1, 2), F(1)))
        for rule in (Anchored(F(1, 4)), MinRule(), MaxRule()):
            report = limit_check(rule, act, family)
            assert report.rows[0].value == report.limit_value
            assert report.bound_satisfied

    def test_rows_follow_the_given_weights(self):
        weights = (F(1), F(1, 2), F(1, 4))
        family = ContaminationFamily((F(1, 3), F(1, 3), F(1, 3)), weights)
        report = limit_check(Anchored(F(1, 2)), Act((F(0), F(0), F(1))), family)
        assert tuple(row.epsilon for row in report.rows) == weights

    def test_envelope_narrows_as_weight_fades(self):
        weights = (F(1), F(1, 2), F(1, 4), F(1, 8))
        family = ContaminationFamily((F(1, 4), F(1, 4), F(1, 2)), weights)
        report = limit_check(Anchored(F(1, 2)), Act((F(0), F(1, 2), F(1))), family)
        lowers = [row.lower for row in report.rows]
        uppers = [row.upper for row in report.rows]
        assert lowers == sorted(lowers)
        assert uppers == sorted(uppers, reverse=True)

    def test_space_mismatch_is_rejected(self):
        family = ContaminationFamily((F(1), F(0)), (F(1, 2),))
        with pytest.raises(SpaceMismatch):
            limit_check(MinRule(), Act((F(0), F(1), F(1))), family)

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=50)
    def test_clamp_rules_never_leave_the_envelope(self, n, data):
        act = data.draw(cst.acts(n))
        base = data.draw(cst.probability_vectors(n))
        anchor = data.draw(cst.unit_fractions(8))
        family = ContaminationFamily(base, (F(1), F(1, 2), F(1, 4), F(1, 8)))
        report = limit_check(Anchored(anchor), act, family)
        assert report.bound_satisfied

    @given(st.integers(2, 3), st.data())
    @settings(max_examples=40)
    def test_member_bounds_interpolate_base_and_extremes(self, n, data):
        # lower = (1-eps)*E_base + eps*min f, and dually for the upper end
        act = data.draw(cst.acts(n))
        base = data.draw(cst.probability_vectors(n))
        eps = data.draw(st.sampled_from((F(1), F(1, 2), F(1, 4))))
        row, = limit_check(MinRule(), act, ContaminationFamily(base, (eps,))).rows
        mean = sum(w * act.outcomes[s] for s, w in enumerate(base))
        assert row.lower == (1 - eps) * mean + eps * min(act.outcomes)
        assert row.upper == (1 - eps) * mean + eps * max(act.outcomes)
