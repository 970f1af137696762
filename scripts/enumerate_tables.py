#!/usr/bin/env python3
"""Enumerate every lawful pair-rule table on a grid.

Builds the tables satisfying the pair-rule laws, which are the
lowest-common-ancestor maps of the binary search trees on the grid
whose edges span at most floor(modulus) grid steps, and prints each
next to the anchored rule it coincides with. Under the default
Lipschitz modulus 1 the tables on k/D are exactly the D + 1 anchored
(clamp) tables. Without the modulus (a huge --lipschitz) the lawful
class is larger: the Catalan number C(D + 1) of tables, 42 on k/4.
`enumerate_lawful_gamma_tables` refuses a grid whose tables hold more
cells in all than the work limit (`foldback.consistency.MAX_WORK`)
before it builds any: under a modulus of at least 1 by the D + 1
anchored tables alone, before the tables are counted, and otherwise
by their count.

Example:
    python3 scripts/enumerate_tables.py --denominator 4
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from foldback import Anchored, ZPair, enumerate_lawful_gamma_tables, gamma_apply, tabulate
from foldback.cli import run_entry_point
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
