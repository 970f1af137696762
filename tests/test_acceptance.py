"""End-to-end acceptance gate.

Ten criteria, each printing a single PASS/FAIL ledger line. Everything
is exact rational arithmetic; no tolerances anywhere. Reports produced
along the way are stashed so the final criterion can replay every
recorded witness through the command layer bit-exactly.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import conftest

from foldback import (
    Act,
    Anchored,
    CeOperator,
    ContaminationFamily,
    Framework,
    Hurwicz,
    LawId,
    MaxRule,
    MinRule,
    Partition,
    SearchConfig,
    StateSpace,
    ZPair,
    ce_vacuous,
    certainty_check,
    check_ev_properties,
    check_gamma_laws,
    check_sequential,
    check_sequential_exhaustive,
    check_set_order_conditions,
    consensus_check,
    default_set_family,
    enumerate_lawful_gamma_tables,
    enumerate_partitions,
    gamma_apply,
    is_vacuous,
    lambda_prefer,
    limit_check,
    restrict,
    condition,
    tabulate,
    vacuous,
)
from foldback.cli import (
    ReportFile,
    cmd_check,
    cmd_evaluate,
    emit_report,
    encode_law_report,
    encode_operator,
    parse_problem,
    probe_problem,
    verdict_problem,
)
from foldback.rationals import unit_grid

F = Fraction

VACUOUS_FRAMEWORKS = (
    Framework.CREDAL_SET, Framework.BELIEF_FUNCTION, Framework.POSSIBILITY)

# (operator record, law-report records, verdict records), each read back
# from emitted report text, stashed by the earlier criteria and replayed
# by the last one.
RECORDED_REPORTS: list = []


def announce(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {detail}")
    conftest.ACCEPTANCE_LEDGER.append((number, ok, detail))


def record_law_reports(op: CeOperator, reports) -> None:
    text = emit_report(ReportFile({"reports": [encode_law_report(r) for r in reports]}, 0))
    RECORDED_REPORTS.append((encode_operator(op), json.loads(text)["reports"], []))


def test_criterion_01_clamp_family_folds_exactly_everywhere():
    # zero folding failures plus the four set-level properties: together
    # the five properties the clamp family is meant to satisfy
    started = time.perf_counter()
    cfg = SearchConfig()
    ok = True
    for anchor in unit_grid(4):
        op = CeOperator(Anchored(anchor))
        failures = check_sequential_exhaustive(op, cfg)
        properties = check_ev_properties(op.vacuous_rule, cfg.denominator)
        ok = ok and not failures and all(r.passed for r in properties)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30
    announce(1, ok, f"clamp family folds exactly everywhere ({elapsed:.1f}s)")
    assert ok


def test_criterion_02_interpolating_rule_breaks_under_folding():
    op = CeOperator(Hurwicz(F(1, 2)))
    space = StateSpace(3)
    measure = vacuous(space, Framework.CREDAL_SET)
    act = Act((F(0), F(0), F(1)))
    partition = Partition(space, (frozenset({0}), frozenset({1, 2})))
    verdict = check_sequential(op, measure, act, partition)
    instance_ok = (not verdict.holds
                   and verdict.direct_value == F(1, 2)
                   and verdict.folded_value == F(1, 4))

    problem = parse_problem({
        "operator": {"kind": "hurwicz", "alpha": "1/2"},
        "suite": "sequential", "stop-at-first": True})
    report = cmd_check(problem)
    sweep_ok = report.exit_code == 1 and len(report.payload["failures"]) == 1
    parsed = json.loads(emit_report(report))
    RECORDED_REPORTS.append((parsed["problem"]["operator"], [], parsed["failures"]))

    ok = instance_ok and sweep_ok
    announce(2, ok, "interpolating rule breaks under folding, 1/2 vs 1/4")
    assert ok


def test_criterion_03_pair_rule_laws_on_the_fine_grid():
    started = time.perf_counter()
    clamp_ok = all(
        report.passed
        for anchor in unit_grid(16)
        for report in check_gamma_laws(Anchored(anchor), 16))

    rule = Hurwicz(F(1, 2))
    reports = check_gamma_laws(rule, 16)
    by_law = {r.law: r for r in reports}
    iteration = by_law[LawId.GAMMA_ITERATION]
    witnesses = [w for w in iteration.witnesses
                 if w.inputs[:3] == ("0", "1", "via-lower")]
    hurwicz_ok = (not iteration.witnesses) is False and bool(witnesses) \
        and witnesses[0].left == F(1, 4) and witnesses[0].right == F(1, 2)
    record_law_reports(CeOperator(rule), reports)

    elapsed = time.perf_counter() - started
    ok = clamp_ok and hurwicz_ok and elapsed < 5
    announce(3, ok, f"pair-rule laws separate clamp from interpolation ({elapsed:.1f}s)")
    assert ok


def test_criterion_04_lawful_tables_are_exactly_the_clamps():
    started = time.perf_counter()
    survivors = enumerate_lawful_gamma_tables(4)
    anchored = {tabulate(Anchored(anchor), 4) for anchor in unit_grid(4)}
    ok = len(survivors) == 5 and set(survivors) == anchored
    for table in survivors:
        anchor = gamma_apply(table, ZPair(F(0), F(1)))
        ok = ok and table == tabulate(Anchored(anchor), 4)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120
    announce(4, ok, f"five lawful tables, all clamp-shaped ({elapsed:.1f}s)")
    assert ok


def test_criterion_05_set_preference_agrees_with_values():
    grid = unit_grid(8)
    family = [frozenset(c)
              for size in (1, 2, 3)
              for c in itertools.combinations(grid, size)]
    findings = []
    for anchor in grid:
        rule = Anchored(anchor)
        values = {outcomes: ce_vacuous(rule, outcomes) for outcomes in family}
        for left in family:
            for right in family:
                ordered = lambda_prefer(anchor, left, right)
                direct = values[left] >= values[right]
                if ordered != direct:
                    findings.append(
                        f"anchor={anchor} left={sorted(left)} right={sorted(right)}"
                        f" three-clause={ordered} value-comparison={direct}")
    ok = not findings
    announce(5, ok, f"three-clause preference matches value order"
                    f" ({len(family) ** 2 * len(grid)} comparisons)")
    assert ok, "disagreements found:\n" + "\n".join(findings)


def test_criterion_06_ignorance_is_closed_under_coarsening_and_updating():
    ok = True
    for n in (2, 3, 4, 5):
        space = StateSpace(n)
        for framework in VACUOUS_FRAMEWORKS:
            measure = vacuous(space, framework)
            for partition in enumerate_partitions(space):
                ok = ok and bool(is_vacuous(restrict(measure, partition)))
            for event in conftest.all_events(n, full=False):
                ok = ok and bool(is_vacuous(condition(measure, event)))
    announce(6, ok, "ignorance closed under every restriction and conditioning, n <= 5")
    assert ok


def test_criterion_07_frameworks_agree_under_ignorance_and_certainty():
    rng = random.Random(1729)
    anchors = unit_grid(8)
    grid = unit_grid(4)
    ok = True
    for _ in range(1000):
        n = rng.randint(2, 4)
        act = Act(tuple(rng.choice(grid) for _ in range(n)))
        for anchor in anchors:
            ok = ok and consensus_check(Anchored(anchor), act).agree
        for state in range(n):
            for anchor in anchors:
                report = certainty_check(Anchored(anchor), act, state)
                ok = ok and report.agree and report.credal_value == act.outcomes[state]
    announce(7, ok, "1000 sampled acts agree across frameworks, ignorant and certain")
    assert ok


def test_criterion_08_contamination_stays_inside_the_linear_envelope():
    rng = random.Random(8128)
    epsilons = (F(1), F(1, 2), F(1, 4), F(1, 8), F(1, 16))
    grid = unit_grid(4)
    ok = True
    for _ in range(100):
        n = rng.randint(2, 4)
        act = Act(tuple(rng.choice(grid) for _ in range(n)))
        base = tuple(F(1, n) for _ in range(n))
        family = ContaminationFamily(base, epsilons)
        for anchor in unit_grid(8):
            report = limit_check(Anchored(anchor), act, family)
            ok = ok and report.bound_satisfied
    announce(8, ok, "100 sampled acts stay inside the contamination envelope")
    assert ok


def test_criterion_09_order_condition_matrix():
    family = default_set_family(denominator=8, max_size=3)

    def by_law(rule):
        reports = check_set_order_conditions(rule, family)
        record_law_reports(CeOperator(rule), reports)
        return {r.law: r for r in reports}

    ok = True
    for anchor in unit_grid(8):
        reports = by_law(Anchored(anchor))
        ok = ok and reports[LawId.CONDITION_I].passed
        ok = ok and reports[LawId.CONDITION_SI].passed

    hurwicz = by_law(Hurwicz(F(1, 2)))
    ok = ok and hurwicz[LawId.CONDITION_I].passed
    ok = ok and not hurwicz[LawId.CONDITION_SI].passed
    ok = ok and len(hurwicz[LawId.CONDITION_SI].witnesses) > 0

    ok = ok and by_law(MaxRule())[LawId.CONDITION_M].passed
    min_m = by_law(MinRule())[LawId.CONDITION_M]
    ok = ok and not min_m.passed and len(min_m.witnesses) > 0

    announce(9, ok, "independence and monotonicity conditions sort the rules")
    assert ok


def test_criterion_10_every_witness_replays_bit_exactly():
    if not RECORDED_REPORTS:
        # running in isolation: regenerate a canonical witness-bearing set
        problem = parse_problem({
            "operator": {"kind": "hurwicz", "alpha": "1/2"},
            "suite": "gamma-laws", "grid-denominator": 8})
        report = json.loads(emit_report(cmd_check(problem)))
        RECORDED_REPORTS.append((report["problem"]["operator"], report["reports"], []))
        problem = parse_problem({
            "operator": {"kind": "hurwicz", "alpha": "1/2"},
            "suite": "sequential", "stop-at-first": True})
        report = json.loads(emit_report(cmd_check(problem)))
        RECORDED_REPORTS.append((report["problem"]["operator"], [], report["failures"]))

    ok = True
    replayed = 0
    for operator_record, law_reports, verdicts in RECORDED_REPORTS:
        for law_report in law_reports:
            for witness in law_report["witnesses"]:
                for side, value in (("probe-left", witness["left"]),
                                    ("probe-right", witness["right"])):
                    problem = parse_problem(
                        probe_problem(witness[side], operator_record))
                    ok = ok and cmd_evaluate(problem).payload["ce"] == value
                    replayed += 1
        for verdict in verdicts:
            problem = parse_problem(verdict_problem(verdict, operator_record))
            payload = cmd_evaluate(problem).payload
            ok = ok and payload["ce"] == verdict["direct"]
            ok = ok and payload["folded"] == verdict["folded"]
            replayed += 1

    deterministic = emit_report(cmd_check(parse_problem(
        {"operator": {"kind": "hurwicz", "alpha": "1/2"},
         "suite": "gamma-laws"}))) == emit_report(cmd_check(parse_problem(
        {"operator": {"kind": "hurwicz", "alpha": "1/2"},
         "suite": "gamma-laws"})))

    ok = ok and replayed > 0 and deterministic
    announce(10, ok, f"{replayed} recorded witnesses replayed through evaluate")
    assert ok
