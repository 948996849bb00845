#!/usr/bin/env python3
"""Sample the set of elasticities of a cyclic rational semiring.

Enumerates every monoid element up to a value bound, tabulates its exact
elasticity, and reports how the observed values fill out [1, bound on rho].
Useful for eyeballing the density of the elasticity set; writes the same
CSV as `cyclofact elasticity-scan`.

Example:
    python3 scripts/density_scan.py --q 3/2 --bound 30 --out scan.csv
"""

import argparse
from collections import Counter
from fractions import Fraction

from cyclofact.cli import write_scan_csv
from cyclofact.elasticity import elasticity_scan
from cyclofact.rationals import format_rat, parse_rat
from cyclofact.semiring import RationalBase


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", type=parse_rat, default=Fraction(3, 2))
    parser.add_argument("--bound", type=parse_rat, default=Fraction(30))
    parser.add_argument("--budget", type=int, default=10**6)
    parser.add_argument("--out", help="optional CSV path")
    args = parser.parse_args()

    base = RationalBase.from_rational(args.q)
    scan = elasticity_scan(base, args.bound, budget=args.budget)
    print(f"q = {base}: {len(scan.rows)} elements up to {format_rat(args.bound)}"
          f" ({'complete' if scan.complete else 'PARTIAL - budget hit'})")

    by_value = Counter(row.elasticity for row in scan.rows)
    distinct = sorted(by_value)
    print(f"{len(distinct)} distinct elasticities; extremes "
          f"{format_rat(distinct[0])} .. {format_rat(distinct[-1])}")
    print("most common:")
    for rho, count in by_value.most_common(8):
        print(f"  rho = {format_rat(rho):>8}  x{count}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            write_scan_csv(scan, handle)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
