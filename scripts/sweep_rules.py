#!/usr/bin/env python3
"""Sweep evaluation rules for folding failures.

Runs `foldback check`'s sequential and ev-properties suites for a family
of anchored rules and a few interpolating ones, and prints one summary
line per rule with its first counterexample, if any. Each run is the
CLI's own, from its problem parser to its report, so a sweep the CLI
refuses (past the library's work limit, say) is refused here too.

Example:
    python3 scripts/sweep_rules.py --max-states 4 --denominator 4
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from foldback import Anchored, CapExceeded, CeOperator, Hurwicz, MaxRule, MedianRule, MinRule
from foldback.cli import (
    cmd_check, emit_report, encode_operator, encode_rule, parse_problem, run_entry_point)
from foldback.consistency import MAX_WORK, _ev_work, _sweep_work
from foldback.plausibility import VACUOUS_FRAMEWORKS
from foldback.rationals import _steps, parse_rational, unit_grid


def describe(rule) -> str:
    kind, *fields = encode_rule(rule).values()
    return f"{kind}({fields[0]})" if fields else kind


def problems(rule, args: argparse.Namespace) -> tuple[dict, dict]:
    """The rule's `check sequential` and `check ev-properties` problems."""
    operator = encode_operator(CeOperator(rule))
    return (parse_problem({"operator": operator, "suite": "sequential",
                           "grid-denominator": args.denominator,
                           "max-states": args.max_states,
                           "stop-at-first": args.stop_at_first}),
            parse_problem({"operator": operator, "suite": "ev-properties",
                           "grid-denominator": args.denominator}))


def sweep(rule, sequential: dict, properties: dict) -> str:
    started = time.perf_counter()
    folding = json.loads(emit_report(cmd_check(sequential)))
    reports = cmd_check(properties).payload["reports"]
    elapsed = time.perf_counter() - started
    broken = [report["law"] for report in reports if not report["passed"]]
    parts = [f"{describe(rule):<16}"]
    violations = folding["summary"]["violations"]
    if violations:
        count = "1+" if sequential["stop-at-first"] else str(violations)
        first = folding["failures"][0]
        parts.append(
            f"folding failures: {count:>6}  first: f=({', '.join(first['act'])})"
            f" H={first['partition']} {first['direct']} vs {first['folded']}")
    else:
        parts.append("folding failures:      0")
    if broken:
        parts.append(f"broken properties: {', '.join(broken)}")
    parts.append(f"[{elapsed:.2f}s]")
    return "  ".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-states", type=int, default=4,
                        help="sweep state spaces 2..N (default 4)")
    parser.add_argument("--denominator", type=int, default=4,
                        help="outcome grid k/D (default 4)")
    parser.add_argument("--anchor-denominator", type=int, default=4,
                        help="anchor grid k/D (default 4)")
    parser.add_argument("--alpha", default="1/2",
                        help="interpolation weight to contrast (default 1/2)")
    parser.add_argument("--stop-at-first", action="store_true",
                        help="stop each sweep at its first counterexample")
    args = parser.parse_args()

    # the rules share every flag, so a flag the problem parser refuses for
    # one is refused here, and so is a run past the library's work limit
    # in all, before any rule is built or the header printed
    sequential, _ = problems(MinRule(), args)
    count = args.anchor_denominator + 1 + 4  # the anchors, min, max, Hurwicz, median
    per_rule = _sweep_work(args.denominator, sequential["sizes"]) + _ev_work(args.denominator)
    if count * per_rule > MAX_WORK:
        raise CapExceeded(f"{count:,} rules of {_steps(per_rule)} steps each on grid"
                          f" k/{args.denominator} need {_steps(count * per_rule)} steps of"
                          f" work; the limit is {MAX_WORK:,}")
    rules = [Anchored(a) for a in unit_grid(args.anchor_denominator)]
    rules += [MinRule(), MaxRule(), Hurwicz(parse_rational(args.alpha)), MedianRule()]
    print(f"sweep: n in {list(sequential['sizes'])}, grid k/{args.denominator}, "
          f"{len(VACUOUS_FRAMEWORKS)} frameworks")
    for rule in rules:
        print(sweep(rule, *problems(rule, args)))
    return 0


if __name__ == "__main__":
    sys.exit(run_entry_point(main))
