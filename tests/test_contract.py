"""The CLI contract as a corpus: fixed argv families, each pinned by two digests.

README, "Install and test", says what a pin holds and how to run the corpus:
under pytest, or without it as ``PYTHONPATH=src python tests/test_contract.py``.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from fractions import Fraction as F
from math import gcd
from unittest import mock

from cyclofact.cli import main

# family -> (ok digest, rest digest, ok count, argvs); sha256 prefixes, e3b0c44298fc1c14 for no argv.
PINS = {
    "construct-elasticity": ("9af3455d43cf16bf", "f0b405e9550a62d5", 3523, 9240),
    "enumerate": ("018b962c6f5d2a6b", "7732eabaeaaca1ab", 468, 1496),
    "member": ("3112b4d747abfb7a", "ddc699304a25cf3f", 220, 276),
    "antiprime": ("9b63c2b000b5dc88", "109fa9d273dc03d6", 84, 165),
    "elasticity-scan": ("d7672a8d392c0bb2", "c4b2f507a645885b", 88, 139),
    "omega-interval": ("4b525f609f69809d", "65974719555b32e6", 60, 88),
    "minimal-pair": ("01316e7072e5e2a5", "5132c3c30be2c187", 14, 22),
    "parser": ("ec526036a29d5c92", "91b814d611d6a9a1", 33, 130),
    "exit-2": ("e3b0c44298fc1c14", "6adf964881ae5ab1", 0, 4),
    "open-founds": ("cbdf666921a30f1b", "54d93b1abe1d8ab0", 3, 4),
}


def outcomes(argvs):
    """Each (argv, exit code, stdout, stderr), with COLUMNS=80, no CYCLOFACT_ORACLE_CAP, in an empty cwd."""
    with mock.patch.dict(os.environ, COLUMNS="80"), tempfile.TemporaryDirectory() as tmp:
        os.environ.pop("CYCLOFACT_ORACLE_CAP", None)
        cwd = os.getcwd()
        os.chdir(tmp)  # elasticity-scan --out writes here
        try:
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(list(argv))
                    except SystemExit as exc:
                        code = exc.code
                yield argv, code, out.getvalue(), err.getvalue()
        finally:
            os.chdir(cwd)


def digests(argvs):
    """The pin of `argvs`: the exit-0 and other records' sha256 prefixes and the counts."""
    ok, rest, n_ok = hashlib.sha256(), hashlib.sha256(), 0
    for record in outcomes(argvs):
        n_ok += record[1] == 0
        (rest if record[1] else ok).update(repr(record).encode())
    return ok.hexdigest()[:16], rest.hexdigest()[:16], n_ok, len(argvs)


def pinned_outcomes(name, argvs):
    """outcomes(argvs), once family `name` is seen to hold each argv, so that its pin covers their bytes."""
    assert {tuple(argv) for argv in argvs} <= {tuple(argv) for argv in FAMILIES[name]}
    return outcomes(argvs)


VALID_ARGV = {
    "minimal-pair": ["--rational", "3/2"],
    "member": ["--q", "3/2", "--value", "13/4"],
    "factorize": ["--q", "3/2", "--value", "9", "--enumerate"],
    "lengths": ["--q", "3/2", "--value", "9", "--oracle-cap", "7"],
    "construct-elasticity": ["--q", "3/2", "--target", "5/3"],
    "elasticity-scan": ["--q", "3/2", "--bound", "20", "--out", "scan.csv"],
    "omega-interval": ["--q", "3/2", "--atom", "5/4"],
    "antiprime": ["--q", "2/3", "--k", "0", "--K", "10"],
}


def parser_shapes(name):
    """Sixteen argvs around `name`'s valid one: help, usage errors, odd tokens, repeats."""
    flag, valid = "--rational" if name == "minimal-pair" else "--q", VALID_ARGV[name]
    shapes = [["--help"], [], valid, [flag], [flag, "x/y"], [*valid, "--bogus"], [*valid, "extra"]]
    shapes += [[*valid[:2], "-h"], ["--", flag], [f"{flag}=3/2"], ["--val", "-3"], ["--value", "-3"]]
    shapes += [valid * 2, ["--", *valid], ["-"], [*valid, "--q"]]
    return [[name, *shape] for shape in shapes]


rat = "{0.numerator}/{0.denominator}".format  # 2 as "2/1"
# The targets 0, 1/2, 1 and s/t in lowest terms with t < s <= 30, in (s, t) order.
TARGETS = [F(0), F(1, 2), F(1)] + [F(s, t) for s in range(2, 31) for t in range(1, s) if gcd(s, t) == 1]
BASES = ["3/2", "5/3", "7/4", "5/2", "7/5", "8/5", "11/10", "13/6", "3", "2", "1", "1/2"]
# The bench's enumerated values; 339/32, 250/9, 457/16 and 121/10 have denominators b^k; 5 at q = 3; 0.
VALUES = ["27", "54", "81", "75", "125", "49", "100", "64", "339/32", "250/9", "457/16", "121/10", "5", "0"]
ELEMENTS = [["--q", q, "--value", v] for q in BASES for v in [*VALUES, "1", "9", "13/4", "1/2", "7/8", "-1"]]
# The smallest --oracle-cap N on which factorize and lengths --enumerate answer, per value of
# VALUES with N >= 2 (5 at q = 3 answers at cap 1, and so does 0 but for lengths, which refuses
# it); the family holds caps N and N - 1.
ENUMERATE_BOUNDARIES = {
    ("3/2", "27"): (596, 23), ("3/2", "54"): (6584, 50), ("3/2", "81"): (40072, 77),
    ("5/3", "75"): (1611, 34), ("5/3", "125"): (10626, 59), ("7/4", "49"): (149, 15), ("7/4", "100"): (1113, 30),
    ("5/2", "125"): (1020, 41), ("7/5", "49"): (492, 19), ("8/5", "64"): (322, 18), ("3/2", "339/32"): (21, 2),
    ("5/3", "250/9"): (91, 12), ("7/4", "457/16"): (36, 7), ("11/10", "121/10"): (78, 3),
}
BIG_VALUES = [str(3**2000), f"{3**2000 + 1}/{2**40}", str(2**4000 - 1)]  # 3,170 to 4,000 bits
POLYNOMIALS = [["X^2 - 3X + 1"], ["X^2 - X - 1"], ["X^3 - 2"], ["X^3 - 3X^2 + 1"], ["X - 3/2"], ["X + 1"], ["X^2 + 1"]]
POLYNOMIALS += [["2X^2 - 1"], ["X^2 - 2X + 1"], ["X^2 - 2", "--rational", "3/2"], [""], ["X^"], ["Y - 2"]]
RATIONALS = ["3/2", "2", "1", "2/3", "13/7", "1001/1000", "0", "-3/2", "x/y"]
# The bench's conductors c, at q = (c+1)/c, follow the first four.
OMEGA_BASES = [F(3, 2), F(4, 3), F(7, 5), F(101, 100)]
OMEGA_BASES += [F(c + 1, c) for c in (10, 30, 300, 1000, 3000, 10**4, 3 * 10**4, 10**5)]
# The bench's scan bases at their largest nominal bounds (about 1,200 elements each).
SCAN_BOUNDS = {"3/2": "31", "5/3": "28", "7/4": "27", "5/2": "211/2", "7/5": "31/2", "8/5": "21"}

FAMILIES = {
    "construct-elasticity": [
        ["construct-elasticity", "--q", q, "--target", rat(x), *cap]
        for cap in ([], ["--scan-cap", "1"], ["--scan-cap", "7"])
        for q in ["3/2", "5/3", "5/2", "7/4", "7/5", "8/5", "11/10", "13/6", "21/13", "3", "1"] for x in TARGETS
    ],
    "enumerate": [
        [name, *element, "--enumerate", *cap]
        for name in ("factorize", "lengths") for element in ELEMENTS
        for cap in ([], ["--oracle-cap", "1"], ["--oracle-cap", "10"])
    ] + [
        [name, "--q", q, "--value", v, "--enumerate", "--oracle-cap", str(cap)]
        for (q, v), caps in ENUMERATE_BOUNDARIES.items() for name, n in zip(("factorize", "lengths"), caps)
        for cap in (n, n - 1)
    ],
    "member": [["member", *e] for e in ELEMENTS]
    + [["member", "--q", q, "--value", v] for q in BASES for v in BIG_VALUES],
    "antiprime": [
        ["antiprime", "--q", q, "--k", str(k), "--K", str(big_k)]
        for q in ("2/3", "3/4", "9/10", "99/100", "999/1000", "5/7", "13/17", "1", "3/2", "1/2", "1/5")
        for k in (0, 1, 3) for big_k in (0, 1, 2, 5, 10)
    ],
    # Complete, partial (cut by the cap) and empty (below 1); 3, 1 and -1 are refused. Then the
    # bench's scans: SCAN_BOUNDS complete and cut at 50, and its largest, 3/2 up to 80.
    "elasticity-scan": [
        ["elasticity-scan", "--q", q, "--bound", bound, *cap]
        for q in ("3/2", "5/3", "7/4", "7/5", "11/10", "3", "1") for bound in ("-1", "0", "1/2", "1", "13/2", "10")
        for cap in ([], ["--oracle-cap", "1"], ["--oracle-cap", "50"])
    ] + [
        ["elasticity-scan", "--q", q, "--bound", bound, *cap]
        for q, bound in SCAN_BOUNDS.items() for cap in ([], ["--oracle-cap", "50"])
    ] + [["elasticity-scan", "--q", "3/2", "--bound", "80"]],
    # Atoms 1, q and three between, one below 1 and one above q; then q out of (1, 2).
    "omega-interval": [
        ["omega-interval", "--q", rat(q), "--atom", rat(1 + j * (q - 1) / 4)] for q in OMEGA_BASES for j in range(-1, 6)
    ] + [["omega-interval", "--q", q, "--atom", "1"] for q in ("1", "2", "1/2", "5/2")],
    "minimal-pair": [["minimal-pair", *a] for a in POLYNOMIALS + [["--rational", r] for r in RATIONALS]],
    # The top-level help is left out: CPython 3.13 wraps its usage line differently.
    "parser": [shape for name in VALID_ARGV for shape in parser_shapes(name)] + [[], ["bogus"]],
    "exit-2": [
        ["member", "--q", f"{10**400 + 1}/{10**400}", "--value", "2"],
        ["construct-elasticity", "--q", "10001/10000", "--target", "2"],
        ["construct-elasticity", "--q", "7/5", "--target", f"{10**1000}/1"],
        ["antiprime", "--q", "2/3", "--k", "200000000", "--K", "1"],
    ],
    # Outputs that await a contract decision (ROADMAP, "Open FOUNDs").
    "open-founds": [
        ["lengths", "--q", "3/2", "--value", "0"],
        ["minimal-pair", "X^2 -- 1"],
        ["minimal-pair", "X +- 1"],
        ["member", "--q", "3/2", "--value", "13/4", "--oracle-cap", "1"],
    ],
}


def moved_pins():
    return {name: got for name, pin in PINS.items() if (got := digests(FAMILIES[name])) != pin}


def test_every_family_keeps_its_pin():
    assert moved_pins() == {}


if __name__ == "__main__":
    if sys.argv[1:]:  # one line per argv of the named families: exit code, record digest, argv
        for name in sys.argv[1:]:
            for record in outcomes(FAMILIES[name]):
                print(record[1], hashlib.sha256(repr(record).encode()).hexdigest()[:16], *record[0])
    else:
        moved = moved_pins()
        for name, got in moved.items():
            print(f"{name}: pinned {PINS[name]}, now {got}")
        print(f"{len(PINS) - len(moved)} of {len(PINS)} families keep their pins")
        sys.exit(1 if moved else 0)
