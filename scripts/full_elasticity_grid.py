#!/usr/bin/env python3
"""Realize every target elasticity s/t on a grid and summarize the certificates.

For each base q and each coprime target s/t with s up to --smax, runs
`cyclofact construct-elasticity` in-process and prints the chosen base
element, the shift count, and the final tracked lengths.  Everything is
exact; a certificate that missed its target ratio would raise.  A target
the CLI fails on gets one line with its exit code and error type, and the
script exits 1 if any target failed.

Example:
    python3 scripts/full_elasticity_grid.py --smax 9 --bases 3/2 5/3 5/2
"""

import argparse
import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction

from cyclofact.cli import main as cyclofact_main, quiet_when_stdout_closes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smax", type=int, default=9)
    parser.add_argument("--bases", nargs="+", default=["3/2", "5/3", "5/2"])
    parser.add_argument("--scan-cap", help="the CLI's --scan-cap, passed on only when given")
    args = parser.parse_args()

    targets = [(s, t) for s in range(2, args.smax + 1) for t in range(1, s) if math.gcd(s, t) == 1]
    cap = [] if args.scan_cap is None else [f"--scan-cap={args.scan_cap}"]
    failed = 0
    start = time.monotonic()
    for q in args.bases:
        print(f"\n== q = {q} ==")
        for s, t in targets:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cyclofact_main(["construct-elasticity", f"--q={q}", f"--target={s}/{t}", *cap])
            if code:
                failed += 1
                print(f"  {s}/{t}: exit {code}, {json.loads(err.getvalue())['error']['type']}")
                continue
            cert = json.loads(out.getvalue())
            select = next(e for e in cert["construction_log"] if e["step"] == "select")
            shift = next(e for e in cert["construction_log"] if e["step"] == "shift")
            assert Fraction(cert["achieved"]) == Fraction(s, t)
            print(f"  {s}/{t}: base element {select['element']} "
                  f"({select['kind']}), {shift['count']} forced atoms, "
                  f"lengths ({cert['min_length']}, {cert['max_length']})")
    total = len(targets) * len(args.bases)
    failures = f", {failed} targets failed" if failed else ""
    print(f"\n{total - failed} certificates, all exact{failures}, in {time.monotonic() - start:.2f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(quiet_when_stdout_closes(main))
