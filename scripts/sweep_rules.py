#!/usr/bin/env python3
"""Sweep evaluation rules for folding failures.

Runs the exhaustive sequential-consistency search for a family of
anchored rules and a few interpolating ones, and prints one summary
line per rule with its first counterexample, if any.

Example:
    python3 scripts/sweep_rules.py --max-states 4 --denominator 4
"""

import argparse
import dataclasses
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from foldback import (
    Anchored,
    CeOperator,
    EngineError,
    Hurwicz,
    MaxRule,
    MedianRule,
    MinRule,
    SearchConfig,
    check_ev_properties,
    check_sequential_exhaustive,
)
from foldback.rationals import format_rational, parse_rational, unit_grid


def describe(rule) -> str:
    if isinstance(rule, Anchored):
        return f"anchored({format_rational(rule.anchor)})"
    if isinstance(rule, Hurwicz):
        return f"hurwicz({format_rational(rule.alpha)})"
    return type(rule).__name__.replace("Rule", "").lower()


def sweep(rule, cfg: SearchConfig, stop_at_first: bool) -> str:
    op = CeOperator(rule)
    run_cfg = dataclasses.replace(cfg, stop_at_first=stop_at_first)
    started = time.perf_counter()
    failures = check_sequential_exhaustive(op, run_cfg)
    properties = check_ev_properties(rule, cfg.denominator)
    elapsed = time.perf_counter() - started
    broken = [r.law.value for r in properties if not r.passed]
    parts = [f"{describe(rule):<16}"]
    if failures:
        count = "1+" if stop_at_first else str(len(failures))
        first = failures[0]
        blocks = [sorted(b) for b in first.partition.blocks]
        parts.append(
            f"folding failures: {count:>6}  first: f="
            f"({', '.join(format_rational(u) for u in first.act.outcomes)})"
            f" H={blocks} {format_rational(first.direct_value)}"
            f" vs {format_rational(first.folded_value)}")
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

    cfg = SearchConfig(sizes=tuple(range(2, args.max_states + 1)),
                       denominator=args.denominator)
    rules = [Anchored(a) for a in unit_grid(args.anchor_denominator)]
    rules += [MinRule(), MaxRule(), Hurwicz(parse_rational(args.alpha)), MedianRule()]

    print(f"sweep: n in {list(cfg.sizes)}, grid k/{cfg.denominator}, "
          f"{len(cfg.frameworks)} frameworks")
    for rule in rules:
        print(sweep(rule, cfg, args.stop_at_first))
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except EngineError as exc:
        # the CLI's contract: one line on stderr and exit 2, no traceback
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    except BrokenPipeError:
        # the reader closed stdout, handled as the CLI does: what is left
        # goes to devnull, so the flush at exit raises nothing more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 2
    sys.exit(status)
