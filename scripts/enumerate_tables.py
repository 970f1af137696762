#!/usr/bin/env python3
"""Enumerate every lawful pair-rule table on a grid.

Builds the tables satisfying the pair-rule laws, which are the
lowest-common-ancestor maps of the binary search trees on the grid
whose edges span at most floor(modulus) grid steps, and prints each
next to the anchored rule it coincides with. Under the default
Lipschitz modulus 1 the tables on k/D are exactly the D + 1 anchored
(clamp) tables. Without the modulus (a huge --lipschitz) the lawful
class is larger: the Catalan number C(D + 1) of tables, 42 on k/4.
The tables are counted first, and a run whose tables hold more cells
in all than the CLI's work limit (`foldback.cli.MAX_WORK`) is refused
before any is built. Under a modulus of at least 1 the D + 1 anchored
tables alone can pass the limit, and then the run is refused before
the tables are counted.

Example:
    python3 scripts/enumerate_tables.py --denominator 4
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from foldback import (
    Anchored,
    CapExceeded,
    ZPair,
    enumerate_lawful_gamma_tables,
    gamma_apply,
    tabulate,
)
from foldback.cli import MAX_WORK, run_entry_point
from foldback.consistency import count_lawful_gamma_tables
from foldback.rationals import format_rational, parse_rational, unit_grid


def render(table, denominator: int) -> str:
    grid = unit_grid(denominator)
    header = "        " + " ".join(f"{format_rational(y):>5}" for y in grid)
    lines = [header]
    for x in grid:
        cells = []
        for y in grid:
            if x <= y:
                cells.append(f"{format_rational(gamma_apply(table, ZPair(x, y))):>5}")
            else:
                cells.append("     ")
        lines.append(f"x={format_rational(x):>4}  " + " ".join(cells))
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--denominator", type=int, default=4,
                        help="grid k/D to enumerate over (default 4)")
    parser.add_argument("--lipschitz", default="1",
                        help="modulus for the continuity surrogate (default 1)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary line")
    args = parser.parse_args()

    modulus = parse_rational(args.lipschitz)
    # a step is one cell of one table
    pairs = (args.denominator + 1) * (args.denominator + 2) // 2
    # under a modulus >= 1 the D + 1 anchored tables are lawful: a bound
    # that refuses a large grid before its tables are counted
    anchored = (args.denominator + 1) * pairs
    if modulus >= 1 and anchored > MAX_WORK:
        raise CapExceeded(
            f"at least {args.denominator + 1:,} lawful tables of {pairs:,} cells on grid"
            f" k/{args.denominator} need at least {anchored:,} steps of work;"
            f" the limit is {MAX_WORK:,}")
    tables = count_lawful_gamma_tables(args.denominator, lipschitz=modulus)
    if tables * pairs > MAX_WORK:
        raise CapExceeded(
            f"{tables:,} lawful tables of {pairs:,} cells on grid k/{args.denominator}"
            f" need {tables * pairs:,} steps of work; the limit is {MAX_WORK:,}")
    started = time.perf_counter()
    survivors = enumerate_lawful_gamma_tables(args.denominator, lipschitz=modulus)
    elapsed = time.perf_counter() - started

    print(f"{len(survivors)} lawful tables on grid k/{args.denominator}"
          f" (modulus {args.lipschitz}) in {elapsed:.2f}s")
    for i, table in enumerate(survivors):
        # the one anchored table that can match is the one anchored at the corner
        corner = gamma_apply(table, ZPair(Fraction(0), Fraction(1)))
        if table == tabulate(Anchored(corner), args.denominator):
            label = f"anchored({format_rational(corner)})"
        else:
            label = f"not anchored; corner value {format_rational(corner)}"
        print(f"\ntable {i}: {label}")
        if not args.quiet:
            print(render(table, args.denominator))
    return 0


if __name__ == "__main__":
    sys.exit(run_entry_point(main))
