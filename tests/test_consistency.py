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
    enumerate_partitions,
    gamma_apply,
    tabulate,
    vacuous,
)
from foldback import consistency
from foldback.acts import PARTITION_CAP
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

    @pytest.mark.parametrize("fields,message", [
        ({"denominator": 0}, "grid denominator must be >= 1"),
        ({"frameworks": ()}, "at least one framework required"),
    ], ids=["denominator", "frameworks"])
    def test_config_refuses_an_empty_grid_or_framework_list(self, fields, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SearchConfig(**fields)

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
    # before its empty subtree was seen, over 20 s on k/1000, and k/10**6
    # once built its whole grid and visited every root
    @pytest.mark.parametrize("denominator", [1000, 10 ** 6])
    @pytest.mark.parametrize("lipschitz", [0, F(1, 2)], ids=str)
    def test_a_modulus_below_one_finds_no_table_at_once(self, lipschitz, denominator):
        started = time.perf_counter()
        assert enumerate_lawful_gamma_tables(denominator, lipschitz=lipschitz) == []
        assert count_lawful_gamma_tables(denominator, lipschitz=lipschitz) == 0
        assert time.perf_counter() - started < 1

    # a chain of subtrees is as deep as the grid, past Python's recursion limit
    def test_counting_a_long_grid_needs_no_recursion(self):
        assert count_lawful_gamma_tables(500) == 501

    # the library refuses the grids enumerate_tables.py refuses, with the
    # same messages: under a modulus >= 1 by the D + 1 anchored tables,
    # before the tables are counted, and otherwise by their count
    @pytest.mark.parametrize("denominator,lipschitz,message", [
        (500, F(10 ** 6), "at least 501 lawful tables of 125,751 cells on grid k/500 need at"
                          " least 63,001,251 steps of work; the limit is 250,000"),
        (120, 1, "at least 121 lawful tables of 7,381 cells on grid k/120 need at least"
                 " 893,101 steps of work; the limit is 250,000"),
        (9, F(10 ** 6), "16,796 lawful tables of 55 cells on grid k/9 need 923,780 steps of"
                        " work; the limit is 250,000"),
        (10 ** 5000, 1, "at least 10^4,999 lawful tables of 10^9,999 cells on grid k/n with"
                        " n >= 10^4,999 need at least 10^14,998 steps of work;"
                        " the limit is 250,000"),
    ], ids=["k/500-unbounded", "k/120", "k/9-unbounded", "past-the-digits"])
    def test_a_grid_past_the_work_limit_is_refused_at_once(
            self, denominator, lipschitz, message, monkeypatch):
        if "at least" in message:
            monkeypatch.setattr(consistency, "count_lawful_gamma_tables", None)
        started = time.perf_counter()
        with pytest.raises(CapExceeded) as refused:
            enumerate_lawful_gamma_tables(denominator, lipschitz=lipschitz)
        assert str(refused.value) == message
        assert time.perf_counter() - started < 1

    def test_the_work_limit_is_the_library_s_and_admits_the_grids_in_use(self):
        assert consistency.MAX_WORK == 250_000
        assert len(enumerate_lawful_gamma_tables(16)) == 17
        assert len(enumerate_lawful_gamma_tables(8, lipschitz=F(10 ** 6))) == 4862

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


class Admitted(Exception):
    """Raised by the first thing an admitted call builds."""


def _admit(*args):
    raise Admitted(args)


# each library entry point whose work grows as a power of its grid, on a
# grid one step past the work limit, with its refusal, and on the last
# grid under it, with the name of the first thing it builds once admitted
MIN_SWEEP = CeOperator(MinRule())
FAMILY_K8, FAMILY_K9 = default_set_family(8, 3), default_set_family(9, 3)
PAST_THE_LIMIT = {
    "gamma-laws": (lambda: check_gamma_laws(MinRule(), 407),
                   "check gamma-laws on grid k/407 needs at least 250,308 steps of work"),
    "ev-properties": (lambda: check_ev_properties(MinRule(), 30),
                      "check ev-properties on grid k/30 needs at least 282,472 steps of work"),
    "set-order": (lambda: check_set_order_conditions(MinRule(), FAMILY_K9),
                  "check set-order on a family of 175 sets over 10 points needs at least"
                  " 306,250 steps of work"),
    "set-family": (lambda: default_set_family(114, 3),
                   "a family of the sets of up to 3 points on grid k/114 needs at least"
                   " 253,575 steps of work"),
    "sequential": (lambda: check_sequential_exhaustive(
                       MIN_SWEEP, SearchConfig(sizes=(2, 3, 4), denominator=11)),
                   "check sequential on grid k/11 needs at least 319,968 steps of work"),
    "tabulate": (lambda: tabulate(MinRule(), 706),
                 "tabulate on grid k/706 needs at least 250,278 steps of work"),
}
UNDER_THE_LIMIT = {
    "gamma-laws": (lambda: check_gamma_laws(MinRule(), 406), "unit_grid"),
    "ev-properties": (lambda: check_ev_properties(MinRule(), 29), "unit_grid"),
    "set-order": (lambda: check_set_order_conditions(MinRule(), FAMILY_K8), "_grid_valuation"),
    "set-family": (lambda: default_set_family(113, 3), "unit_grid"),
    "sequential": (lambda: check_sequential_exhaustive(
                       MIN_SWEEP, SearchConfig(sizes=(2, 3, 4), denominator=10)), "unit_grid"),
    "tabulate": (lambda: tabulate(MinRule(), 705), "unit_grid"),
}


class TestWorkLimit:
    @pytest.mark.parametrize("call,message", PAST_THE_LIMIT.values(), ids=PAST_THE_LIMIT)
    def test_a_grid_past_the_limit_is_refused_before_anything_is_built(
            self, monkeypatch, call, message):
        monkeypatch.setattr(consistency, "unit_grid", None)
        monkeypatch.setattr(consistency, "ce_vacuous", None)
        monkeypatch.setattr(consistency, "_grid_valuation", None)
        started = time.perf_counter()
        with pytest.raises(CapExceeded) as refused:
            call()
        assert time.perf_counter() - started < 1
        assert str(refused.value) == message + "; the limit is 250,000"

    @pytest.mark.parametrize("call,first_built", UNDER_THE_LIMIT.values(), ids=UNDER_THE_LIMIT)
    def test_the_last_grid_under_the_limit_is_admitted(self, monkeypatch, call, first_built):
        monkeypatch.setattr(consistency, first_built, _admit)
        with pytest.raises(Admitted):
            call()

    def test_a_family_of_exactly_the_limit_is_admitted_and_one_more_size_refused(self):
        # k/249,999 has 250,000 points: its one-point sets reach the limit
        # exactly, and its two-point sets pass it
        assert consistency._family_sets(249_999, 1) == consistency.MAX_WORK
        with pytest.raises(CapExceeded, match="needs at least 31,250,125,000 steps"):
            consistency._family_sets(249_999, 3)

    def test_a_huge_family_is_refused_while_it_is_counted(self):
        started = time.perf_counter()
        with pytest.raises(CapExceeded, match="needs at least 1,000,001 steps"):
            default_set_family(10 ** 6, 10 ** 6)
        assert time.perf_counter() - started < 1

    @pytest.mark.parametrize("call", [lambda: default_set_family(0, 3),
                                      lambda: default_set_family(-10 ** 9, 0),
                                      lambda: check_gamma_laws(MinRule(), -10 ** 9),
                                      lambda: check_ev_properties(MinRule(), -1),
                                      lambda: tabulate(MinRule(), -10 ** 9)],
                             ids=["family", "family-empty", "gamma-laws", "ev-properties",
                                  "tabulate"])
    def test_a_grid_below_one_is_invalid_before_it_is_counted(self, call):
        with pytest.raises(ValidationError, match="grid denominator must be >= 1"):
            call()

    # the sweep's count takes the partitions of each size from a table
    @pytest.mark.parametrize("n", range(1, PARTITION_CAP + 1))
    def test_the_sweep_counts_every_partition(self, n):
        assert consistency._sweep_work(2, (n,)) == 3 ** n * len(
            enumerate_partitions(StateSpace(n)))

    def test_a_family_of_no_size_builds_no_grid(self, monkeypatch):
        monkeypatch.setattr(consistency, "unit_grid", None)
        assert default_set_family(10 ** 9, 0) == []

    def test_the_median_is_refused_before_a_gamma_law_grid_is_built(self, monkeypatch):
        monkeypatch.setattr(consistency, "unit_grid", None)
        with pytest.raises(ValidationError, match="^the median rule is not a pair rule$"):
            check_gamma_laws(MedianRule(), 2)


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


def _grid_pairs(denominator):
    return [(i, j) for i in range(denominator + 1) for j in range(i, denominator + 1)]


def _in_range_table(denominator, picks):
    """The table whose value at the grid pair (x_i, x_j) is x_k, for the
    pairs in `_grid_pairs` order and each k from `picks`."""
    grid = unit_grid(denominator)
    return Tabulated(tuple((ZPair(grid[i], grid[j]), grid[k])
                           for (i, j), k in zip(_grid_pairs(denominator), picks)))


def in_range_tables(denominator):
    """Every table on the grid whose value at each pair (x, y) is a grid
    point of [x, y]."""
    for picks in itertools.product(*(range(i, j + 1) for i, j in _grid_pairs(denominator))):
        yield _in_range_table(denominator, picks)


def in_range_table_samples(denominator):
    """A random table on the grid whose value at each pair (x, y) is a grid
    point of [x, y]."""
    return st.tuples(*(st.integers(i, j) for i, j in _grid_pairs(denominator))).map(
        lambda picks: _in_range_table(denominator, picks))


class TestTheoremOnEveryTable:
    """The paper's characterisation, on every in-range table of a grid: the
    folding sweep is clean exactly when the pair-rule laws (i)-(iii) hold,
    and exactly for the lawful tables the search trees give.

    The sweep and the laws are two independent paths through the engine,
    so a fault that one of them shares with its own reference still shows
    here. Tables with a value outside [x, y] are left out: the theorem is
    about certainty equivalents, which meet unanimity and stay within
    their range, and a constant table folds everywhere yet breaks law (i).
    """

    LOOSE = F(10 ** 6)

    @pytest.mark.parametrize("denominator,tables", [(2, 12), (3, 288)])
    def test_sweep_clean_iff_laws_hold_iff_lawful_tree(self, denominator, tables):
        cfg = SearchConfig(sizes=(2, 3, 4), denominator=denominator, stop_at_first=True)
        lawful = set(enumerate_lawful_gamma_tables(denominator, lipschitz=self.LOOSE))
        clamps = {tabulate(Anchored(x), denominator) for x in unit_grid(denominator)}
        seen = clean = 0
        for table in in_range_tables(denominator):
            seen += 1
            folds = not check_sequential_exhaustive(CeOperator(table), cfg)
            reports = check_gamma_laws(table, denominator, lipschitz=self.LOOSE)
            laws_hold = all(report.passed for report in reports[:3])
            assert folds == laws_hold == (table in lawful), table
            clean += folds
            # under modulus 1 only the clamps of the grid's points survive
            strict = check_gamma_laws(table, denominator)
            assert (folds and strict[3].passed) == (table in clamps), table
        assert (seen, clean) == (tables, len(lawful))

    # the 42 lawful tables of k/4: a sample draws one of them about as
    # often as a random in-range table, nearly all of which are unlawful
    LAWFUL_K4 = enumerate_lawful_gamma_tables(4, lipschitz=LOOSE)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(LAWFUL_K4) | in_range_table_samples(4))
    def test_a_sample_of_k4_tables_agrees(self, table):
        # sizes (3,) alone separate every in-range table of k/4
        cfg = SearchConfig(sizes=(3,), denominator=4, stop_at_first=True)
        folds = not check_sequential_exhaustive(CeOperator(table), cfg)
        reports = check_gamma_laws(table, 4, lipschitz=self.LOOSE)
        assert folds == all(report.passed for report in reports[:3]) == (
            table in self.LAWFUL_K4)


class TestReportShapes:
    def test_law_report_flags_must_match_witnesses(self):
        witness = Witness(("0",), F(0), F(1), Probe((F(0),)), Probe((F(1),)))
        with pytest.raises(ValueError):
            LawReport(LawId.RANGE, True, (witness,))
        with pytest.raises(ValueError):
            LawReport(LawId.RANGE, False, ())

    @pytest.mark.parametrize("check", [
        lambda: check_gamma_laws(Hurwicz(F(1, 3)), 8, lipschitz=0),
        lambda: check_ev_properties(MedianRule(), 4, lipschitz=0),
        lambda: check_set_order_conditions(MedianRule(), default_set_family(4, 3)),
    ], ids=["gamma-laws", "ev-properties", "set-order"])
    def test_witnesses_that_probe_one_pair_or_set_share_its_probe(self, check):
        # every probe of a grid pair or a family set is built once per call;
        # the iteration law's probes of two rule values are built per witness
        probes = [probe for report in check() if report.law is not LawId.GAMMA_ITERATION
                  for witness in report.witnesses
                  for probe in (witness.probe_left, witness.probe_right)]
        assert len(probes) > len(set(probes))
        assert len({id(probe) for probe in probes}) == len(set(probes))

    def test_verdict_flag_must_match_values(self):
        space = StateSpace(2)
        partition = Partition(space, (space.full_event(),))
        act = Act((F(0), F(1)))
        with pytest.raises(ValueError):
            ConsistencyVerdict(True, F(0), F(1), partition, act)
