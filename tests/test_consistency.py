"""Folding-back consistency, the pair-rule laws, and rule synthesis."""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as cst
from foldback import (
    Act,
    Anchored,
    CapExceeded,
    CeOperator,
    ConsistencyVerdict,
    Framework,
    Hurwicz,
    LawId,
    LawReport,
    MaxRule,
    MedianRule,
    MinRule,
    Partition,
    ProbabilityMeasure,
    SearchConfig,
    StateSpace,
    Tabulated,
    ValidationError,
    ZPair,
    ce,
    check_ev_properties,
    check_gamma_laws,
    check_sequential,
    check_sequential_exhaustive,
    check_set_order_conditions,
    default_set_family,
    enumerate_lawful_gamma_tables,
    gamma_apply,
    tabulate,
    vacuous,
)
from foldback import consistency
from foldback.ce_ops import ce_vacuous
from foldback.consistency import Probe, Witness, count_lawful_gamma_tables
from foldback.rationals import unit_grid

F = Fraction

SMALL = SearchConfig(sizes=(2, 3), denominator=4)


def replay_probe(probe: Probe, rule) -> Fraction:
    """Re-run a probe exactly as recorded: the weights pin a probability,
    otherwise the act is evaluated under the framework's vacuous measure."""
    op = CeOperator(rule)
    act = Act(probe.outcomes)
    if probe.weights is not None:
        measure = ProbabilityMeasure(probe.weights)
    else:
        measure = vacuous(act.space, probe.framework)
    return ce(op, measure, act)


class TestCheckSequential:
    def test_clamp_rule_folds_exactly(self):
        op = CeOperator(Anchored(F(1, 2)))
        space = StateSpace(3)
        measure = vacuous(space, Framework.CREDAL_SET)
        act = Act((F(0), F(0), F(1)))
        partition = Partition(space, (frozenset({0}), frozenset({1, 2})))
        verdict = check_sequential(op, measure, act, partition)
        assert verdict.holds
        assert verdict.direct_value == F(1, 2)
        assert verdict.folded_value == F(1, 2)

    def test_interpolating_rule_shrinks_under_folding(self):
        op = CeOperator(Hurwicz(F(1, 2)))
        space = StateSpace(3)
        measure = vacuous(space, Framework.CREDAL_SET)
        act = Act((F(0), F(0), F(1)))
        partition = Partition(space, (frozenset({0}), frozenset({1, 2})))
        verdict = check_sequential(op, measure, act, partition)
        assert not verdict.holds
        assert verdict.direct_value == F(1, 2)
        assert verdict.folded_value == F(1, 4)
        assert verdict.framework == Framework.CREDAL_SET

    @given(st.data())
    @settings(max_examples=40)
    def test_one_block_fold_always_holds(self, data):
        n = data.draw(st.integers(1, 4))
        act = data.draw(cst.acts(n))
        rule = data.draw(st.sampled_from([
            Anchored(F(1, 3)), Hurwicz(F(1, 4)), MinRule(), MaxRule(), MedianRule()]))
        space = StateSpace(n)
        measure = vacuous(space, Framework.BELIEF_FUNCTION)
        partition = Partition(space, (space.full_event(),))
        assert check_sequential(CeOperator(rule), measure, act, partition).holds

    @given(st.data())
    @settings(max_examples=40)
    def test_expected_utility_folds_through_any_partition(self, data):
        # the classical tower property, with strictly positive weights so
        # every block can be conditioned on
        n = data.draw(st.integers(2, 4))
        raw = data.draw(st.tuples(*([st.integers(1, 6)] * n)))
        total = sum(raw)
        measure = ProbabilityMeasure(tuple(F(w, total) for w in raw))
        act = data.draw(cst.acts(n))
        partition = data.draw(cst.partitions(n))
        op = CeOperator(Anchored(F(1, 2)))
        assert check_sequential(op, measure, act, partition).holds


class TestExhaustiveSweep:
    def test_clamp_family_never_fails_small(self):
        op = CeOperator(Anchored(F(1, 2)))
        assert check_sequential_exhaustive(op, SMALL) == []

    def test_two_state_spaces_never_fail(self):
        for rule in (Hurwicz(F(1, 2)), MedianRule()):
            cfg = SearchConfig(sizes=(2,), denominator=4)
            assert check_sequential_exhaustive(CeOperator(rule), cfg) == []

    def test_first_interpolating_failure_is_canonical(self):
        op = CeOperator(Hurwicz(F(1, 2)))
        cfg = SearchConfig(sizes=(2, 3), denominator=4, stop_at_first=True)
        failures = check_sequential_exhaustive(op, cfg)
        assert len(failures) == 1
        first = failures[0]
        assert first.act.outcomes == (F(0), F(0), F(1, 4))
        assert first.partition.blocks == (frozenset({0, 2}), frozenset({1}))
        assert first.direct_value == F(1, 8)
        assert first.folded_value == F(1, 16)
        assert first.framework == Framework.CREDAL_SET

    def test_stop_at_first_prefix_of_the_full_list(self):
        op = CeOperator(Hurwicz(F(1, 2)))
        full = check_sequential_exhaustive(op, SMALL)
        first = check_sequential_exhaustive(
            op, SearchConfig(sizes=(2, 3), denominator=4, stop_at_first=True))
        assert full[:1] == first
        assert full

    def test_failures_reproduce_individually(self):
        op = CeOperator(Hurwicz(F(1, 2)))
        failures = check_sequential_exhaustive(op, SMALL)
        for verdict in failures[:40]:
            measure = vacuous(verdict.act.space, verdict.framework)
            again = check_sequential(op, measure, verdict.act, verdict.partition)
            assert not again.holds
            assert again.direct_value == verdict.direct_value
            assert again.folded_value == verdict.folded_value

    def test_median_rule_fails_somewhere(self):
        op = CeOperator(MedianRule())
        cfg = SearchConfig(sizes=(3,), denominator=2)
        assert check_sequential_exhaustive(op, cfg)

    def test_sweep_is_deterministic(self):
        op = CeOperator(Hurwicz(F(1, 2)))
        assert check_sequential_exhaustive(op, SMALL) == \
            check_sequential_exhaustive(op, SMALL)

    def test_config_rejects_point_probability_framework(self):
        with pytest.raises(ValueError):
            SearchConfig(frameworks=(Framework.PROBABILITY,))

    def test_sizes_beyond_the_partition_cap_are_refused(self):
        op = CeOperator(Anchored(F(0)))
        with pytest.raises(CapExceeded):
            check_sequential_exhaustive(op, SearchConfig(sizes=(2, 9)))


class TestGammaLaws:
    def test_clamp_rules_pass_all_laws(self):
        for anchor in (F(0), F(1, 3), F(1)):
            reports = check_gamma_laws(Anchored(anchor), 8)
            assert all(report.passed for report in reports)

    def test_ends_pass_all_laws(self):
        for rule in (MinRule(), MaxRule()):
            assert all(r.passed for r in check_gamma_laws(rule, 8))

    def test_interpolating_rule_fails_only_iteration(self):
        reports = {r.law: r for r in check_gamma_laws(Hurwicz(F(1, 2)), 16)}
        assert reports[LawId.GAMMA_IDEMPOTENCE].passed
        assert reports[LawId.GAMMA_MONOTONE].passed
        assert reports[LawId.LIPSCHITZ_CONTINUITY].passed
        iteration = reports[LawId.GAMMA_ITERATION]
        assert not iteration.passed
        wanted = [w for w in iteration.witnesses if w.inputs[:3] == ("0", "1", "via-lower")]
        assert wanted
        assert wanted[0].left == F(1, 4)
        assert wanted[0].right == F(1, 2)

    def test_iteration_witnesses_replay(self):
        rule = Hurwicz(F(1, 2))
        reports = {r.law: r for r in check_gamma_laws(rule, 4)}
        for witness in reports[LawId.GAMMA_ITERATION].witnesses:
            assert replay_probe(witness.probe_left, rule) == witness.left
            assert replay_probe(witness.probe_right, rule) == witness.right

    def test_steep_table_fails_only_the_modulus(self):
        # lawful under (i)-(iii) yet jumping a full unit across half a step,
        # which is why the modulus is part of the synthesis filter
        half = F(1, 2)
        table = Tabulated((
            (ZPair(F(0), F(0)), F(0)),
            (ZPair(F(0), half), F(0)),
            (ZPair(F(0), F(1)), F(0)),
            (ZPair(half, half), half),
            (ZPair(half, F(1)), F(1)),
            (ZPair(F(1), F(1)), F(1)),
        ))
        reports = {r.law: r for r in check_gamma_laws(table, 2)}
        assert reports[LawId.GAMMA_IDEMPOTENCE].passed
        assert reports[LawId.GAMMA_MONOTONE].passed
        assert reports[LawId.GAMMA_ITERATION].passed
        assert not reports[LawId.LIPSCHITZ_CONTINUITY].passed

    def test_reports_are_deterministic(self):
        assert check_gamma_laws(Hurwicz(F(1, 3)), 8) == \
            check_gamma_laws(Hurwicz(F(1, 3)), 8)


class TestEvProperties:
    def test_clamp_rules_pass(self):
        for anchor in unit_grid(4):
            assert all(r.passed for r in check_ev_properties(Anchored(anchor), 4))

    def test_extreme_rules_pass(self):
        for rule in (MinRule(), MaxRule()):
            assert all(r.passed for r in check_ev_properties(rule, 4))

    def test_median_fails_range_with_interior_witness(self):
        reports = {r.law: r for r in check_ev_properties(MedianRule(), 4)}
        assert reports[LawId.UNANIMITY].passed
        range_report = reports[LawId.RANGE]
        assert not range_report.passed
        wanted = [w for w in range_report.witnesses
                  if w.probe_left.outcomes == (F(0), F(1, 4), F(1))]
        assert wanted
        assert wanted[0].left == F(1, 4)
        assert wanted[0].right == F(0)

    def test_interpolating_rule_passes_set_level_properties(self):
        # the failure of folding is not visible at the one-shot level
        assert all(r.passed for r in check_ev_properties(Hurwicz(F(1, 2)), 4))


class TestSetOrderConditions:
    FAMILY = default_set_family(denominator=4, max_size=2)

    def test_clamp_passes_independence_conditions(self):
        reports = {r.law: r for r in check_set_order_conditions(
            Anchored(F(1, 2)), self.FAMILY)}
        assert reports[LawId.CONDITION_I].passed
        assert reports[LawId.CONDITION_SI].passed

    def test_clamp_fails_set_monotonicity(self):
        reports = {r.law: r for r in check_set_order_conditions(
            Anchored(F(1, 2)), self.FAMILY)}
        m_report = reports[LawId.CONDITION_M]
        assert not m_report.passed
        # growing {3/4} to {0, 3/4} drags the value down to the anchor
        witness = m_report.witnesses[0]
        assert witness.left < witness.right

    def test_interpolating_rule_fails_strong_independence(self):
        reports = {r.law: r for r in check_set_order_conditions(
            Hurwicz(F(1, 2)), self.FAMILY)}
        assert reports[LawId.CONDITION_I].passed
        si_report = reports[LawId.CONDITION_SI]
        assert not si_report.passed
        rule = Hurwicz(F(1, 2))
        for witness in si_report.witnesses[:20]:
            assert replay_probe(witness.probe_left, rule) == witness.left
            assert replay_probe(witness.probe_right, rule) == witness.right
            assert witness.left < witness.right

    def test_max_passes_set_monotonicity_min_fails_it(self):
        max_reports = {r.law: r for r in check_set_order_conditions(
            MaxRule(), self.FAMILY)}
        assert max_reports[LawId.CONDITION_M].passed
        min_reports = {r.law: r for r in check_set_order_conditions(
            MinRule(), self.FAMILY)}
        m_report = min_reports[LawId.CONDITION_M]
        assert not m_report.passed
        witness = m_report.witnesses[0]
        small = set(witness.probe_right.outcomes)
        big = set(witness.probe_left.outcomes)
        assert small < big
        assert min(big) < min(small)

    def test_default_family_covers_all_small_subsets(self):
        family = default_set_family()
        assert len(family) == 9 + 36 + 84
        assert all(1 <= len(s) <= 3 for s in family)


def monotone_tables(denominator: int) -> list[Tabulated]:
    """Every table on k/denominator that is idempotent and monotone in both
    arguments, by brute force over the cells' ranges [x, y]."""
    grid = unit_grid(denominator)
    cells = [(i, j) for i in range(len(grid)) for j in range(i + 1, len(grid))]
    tables = []
    for values in itertools.product(*(range(i, j + 1) for i, j in cells)):
        level = {(k, k): k for k in range(len(grid))} | dict(zip(cells, values))
        if all(level[i, j] >= level[i, j - 1] and (i == 0 or level[i, j] >= level[i - 1, j])
               for i, j in cells):
            tables.append(Tabulated(tuple(
                (ZPair(grid[i], grid[j]), grid[k]) for (i, j), k in level.items())))
    return tables


class TestSynthesis:
    @pytest.mark.parametrize("denominator", [*range(1, 9), 16])
    def test_exactly_the_clamp_tables_survive(self, denominator):
        survivors = enumerate_lawful_gamma_tables(denominator)
        anchored = [tabulate(Anchored(a), denominator) for a in unit_grid(denominator)]
        assert len(survivors) == denominator + 1
        assert set(survivors) == set(anchored)

    def test_survivors_are_pinned_by_their_corner_value(self):
        for table in enumerate_lawful_gamma_tables(4):
            anchor = gamma_apply(table, ZPair(F(0), F(1)))
            expected = tabulate(Anchored(anchor), 4)
            assert table == expected

    # without the modulus the lawful tables on k/d number the Catalan C(d + 1)
    @pytest.mark.parametrize("denominator,count", [
        (1, 2), (2, 5), (3, 14), (4, 42), (5, 132), (6, 429), (7, 1430)])
    def test_dropping_the_modulus_admits_steeper_tables(self, denominator, count):
        relaxed = enumerate_lawful_gamma_tables(denominator, lipschitz=F(10 ** 6))
        assert len(relaxed) == count
        strict = set(enumerate_lawful_gamma_tables(denominator))
        # on k/1 the two anchored tables are the only monotone tables at all
        assert strict == set(relaxed) if denominator == 1 else strict < set(relaxed)

    # a tree on two or more points has an edge of at least one step, so a
    # modulus below 1 admits no table; each root's pairs were once mapped
    # before its empty subtree was seen, over 20 s on k/1000
    @pytest.mark.parametrize("lipschitz", [0, F(1, 2)], ids=str)
    def test_a_modulus_below_one_finds_no_table_at_once(self, lipschitz):
        started = time.perf_counter()
        assert enumerate_lawful_gamma_tables(1000, lipschitz=lipschitz) == []
        assert count_lawful_gamma_tables(1000, lipschitz=lipschitz) == 0
        assert time.perf_counter() - started < 5

    def test_counting_lawful_tables_builds_no_grid(self, monkeypatch):
        monkeypatch.setattr(consistency, "unit_grid", None)
        assert count_lawful_gamma_tables(4) == 5
        with pytest.raises(ValidationError, match="grid denominator must be >= 1, got 0"):
            count_lawful_gamma_tables(0)

    # grids past the reference enumerator's reach, with moduli that keep
    # some steep tables and drop others
    STEEP = pytest.mark.parametrize("denominator,lipschitz", [
        (denominator, lipschitz) for denominator in (5, 6, 7)
        for lipschitz in (F(3, 2), 2, 3, F(10 ** 6))], ids=str)

    @STEEP
    def test_every_table_passes_the_gamma_laws(self, denominator, lipschitz):
        for table in enumerate_lawful_gamma_tables(denominator, lipschitz=lipschitz):
            reports = check_gamma_laws(table, denominator, lipschitz=lipschitz)
            assert [r.witnesses for r in reports] == [()] * len(reports), table

    @STEEP
    def test_tables_ascend_strictly_by_their_cells(self, denominator, lipschitz):
        cells = [tuple(value for z, value in table.entries if z.lower < z.upper)
                 for table in enumerate_lawful_gamma_tables(denominator, lipschitz=lipschitz)]
        assert all(a < b for a, b in zip(cells, cells[1:]))

    @pytest.mark.parametrize("denominator", [2, 3, 4])
    def test_monotone_tables_fold_back_exactly_when_lawful(self, denominator):
        # the paper's condition, across two kernels: among monotone,
        # idempotent tables the folding sweep fails on none exactly when
        # the gamma laws (without the modulus) hold, that is, exactly on
        # the LCA rules of the binary search trees on the grid
        tables = monotone_tables(denominator)
        assert len(tables) == 2 ** (denominator * (denominator + 1) // 2)
        lawful = set(enumerate_lawful_gamma_tables(denominator, lipschitz=F(10 ** 6)))
        cfg = SearchConfig(sizes=(2, 3), denominator=denominator,
                           frameworks=(Framework.CREDAL_SET,), stop_at_first=True)
        for table in tables:
            folds = not check_sequential_exhaustive(CeOperator(table), cfg)
            assert folds == (table in lawful), table

    def test_a_non_monotone_table_folds_yet_breaks_the_laws(self):
        # gamma(x, x) = x and gamma(x, y) = 0 for x < y: monotonicity is a
        # premise of the equivalence above, not a consequence of folding
        grid = unit_grid(3)
        table = Tabulated(tuple((ZPair(x, y), x if x == y else F(0))
                                for x in grid for y in grid if x <= y))
        cfg = SearchConfig(sizes=(2, 3, 4), denominator=3)
        assert check_sequential_exhaustive(CeOperator(table), cfg) == []
        reports = {r.law: r for r in check_gamma_laws(table, 3)}
        assert not reports[LawId.GAMMA_MONOTONE].passed


class TestGridScaleCharacterization:
    RULES = [Anchored(a) for a in unit_grid(4)] + [
        MinRule(), MaxRule(), Hurwicz(F(1, 2)), MedianRule()]

    def grid_restriction(self, rule):
        family = default_set_family(denominator=4, max_size=4)
        return tuple(ce_vacuous(rule, outcomes) for outcomes in family)

    def test_consistent_iff_clamp_shaped(self):
        clamp_restrictions = {
            self.grid_restriction(Anchored(a)) for a in unit_grid(4)}
        for rule in self.RULES:
            op = CeOperator(rule)
            consistent = not check_sequential_exhaustive(op, SMALL) and all(
                report.passed for report in check_ev_properties(rule, SMALL.denominator))
            clamp_shaped = self.grid_restriction(rule) in clamp_restrictions
            assert consistent == clamp_shaped, rule

    def test_the_ends_are_clamp_shaped(self):
        assert self.grid_restriction(MinRule()) == self.grid_restriction(Anchored(F(0)))
        assert self.grid_restriction(MaxRule()) == self.grid_restriction(Anchored(F(1)))


class TestReportShapes:
    def test_law_report_flags_must_match_witnesses(self):
        witness = Witness(("0",), F(0), F(1), Probe((F(0),)), Probe((F(1),)))
        with pytest.raises(ValueError):
            LawReport(LawId.RANGE, True, (witness,))
        with pytest.raises(ValueError):
            LawReport(LawId.RANGE, False, ())

    def test_verdict_flag_must_match_values(self):
        space = StateSpace(2)
        partition = Partition(space, (space.full_event(),))
        act = Act((F(0), F(1)))
        with pytest.raises(ValueError):
            ConsistencyVerdict(True, F(0), F(1), partition, act)
