#!/usr/bin/env python3
"""Sample the set of elasticities of a cyclic rational semiring.

Runs `cyclofact elasticity-scan` in-process on every monoid element up to a
value bound and reports how the observed elasticities fill out [1, bound on
rho].  Useful for eyeballing the density of the elasticity set; --out
writes the CLI's CSV unchanged, before the summary (a path it cannot write
exits 1 with one line on stderr and nothing on stdout), and a CLI error
passes through (its JSON on stderr, its exit code).

Example:
    python3 scripts/density_scan.py --q 3/2 --bound 30 --out scan.csv
"""

import argparse
import contextlib
import csv
import io
import sys
from collections import Counter
from fractions import Fraction

from cyclofact.cli import main as cyclofact_main, quiet_when_stdout_closes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q", default="3/2")
    parser.add_argument("--bound", default="30")
    parser.add_argument("--budget", help="the CLI's --oracle-cap, passed on only when given")
    parser.add_argument("--out", help="optional CSV path")
    args = parser.parse_args()

    argv = ["elasticity-scan", f"--q={args.q}", f"--bound={args.bound}"]
    if args.budget is not None:
        argv.append(f"--oracle-cap={args.budget}")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cyclofact_main(argv)
    if code:
        return code
    text = captured.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"--out: cannot write {args.out!r}: {exc.strerror}", file=sys.stderr)
            return 1
    *table, manifest = text.splitlines()
    rows = list(csv.DictReader(table))
    complete = manifest.startswith("# manifest: complete")
    print(f"q = {args.q}: {len(rows)} elements up to {args.bound}"
          f" ({'complete' if complete else 'PARTIAL - budget hit'})")

    by_value = Counter(Fraction(row["elasticity"]) for row in rows)
    distinct = sorted(by_value)
    if distinct:
        print(f"{len(distinct)} distinct elasticities; extremes {distinct[0]} .. {distinct[-1]}")
        print("most common:")
        for rho, count in by_value.most_common(8):
            print(f"  rho = {str(rho):>8}  x{count}")
    else:
        print("0 distinct elasticities")

    if args.out:
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(quiet_when_stdout_closes(main))
