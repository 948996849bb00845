"""Command-line front end: subcommand routing, JSON/CSV emission, budgets.

Exit codes: 0 success, 1 domain or usage error (machine-readable JSON on
stderr), 2 budget exhaustion.  Every exact rational crosses the boundary as
a "num/den" string -- never a float -- and polynomials as [degree, coeff]
pair lists sorted by degree, so emitted documents re-parse losslessly.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Optional, TextIO

from .elasticity import (
    DEFAULT_SCAN_CAP,
    ScanCapExceeded,
    construct_elasticity,
    elasticity_scan,
)
from .minimal_pair import minimal_pair, minimal_pair_of_rational
from .omega import (
    IntervalMonoid,
    omega_interval_atom,
    omega_lower_bound,
)
from .polynomials import parse_polynomial
from .rationals import format_rat, format_ratio, parse_rat
from .semiring import (
    DEFAULT_ORACLE_CAP,
    NotInMonoidError,
    OracleBudgetExceeded,
    RationalBase,
    down_normal_form,
    iter_factorizations,
    length_stats,
    member_witness,
)

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_BUDGET = 2

ORACLE_CAP_ENV = "CYCLOFACT_ORACLE_CAP"
# member takes --oracle-cap but spends none, so only these read the variable.
ORACLE_CAP_READERS = ("factorize", "lengths", "elasticity-scan")


class CliError(Exception):
    """Usage or domain error; reported as JSON with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _rational(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}") from None


def _int_at_least(low: int, kind: str):
    """An argparse type for integers >= low, named `kind` in its error message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_nonneg_int = _int_at_least(0, "nonnegative")


def _default_oracle_cap() -> int:
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise CliError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise CliError(f"{ORACLE_CAP_ENV} must be positive, got {raw!r}")
    return cap


def _base_for(q: Fraction) -> RationalBase:
    if q <= 1:
        raise CliError(f"--q: factorization commands require q > 1, got {format_rat(q)}")
    return RationalBase.from_rational(q)


def _element_base(args) -> RationalBase:
    """The base of member, factorize and lengths, once --value is checked too."""
    base = _base_for(args.q)
    if args.value < 0:
        raise CliError(f"--value: monoid elements are nonnegative, got {format_rat(args.value)}")
    return base


def _cmd_minimal_pair(args) -> dict:
    if (args.polynomial is None) == (args.rational is None):
        raise CliError("minimal-pair: provide exactly one of a polynomial string or --rational")
    if args.rational is not None:
        if args.rational <= 0:
            raise CliError(f"--rational: expected a positive rational, got {format_rat(args.rational)}")
        pair = minimal_pair_of_rational(args.rational)
    else:
        pair = minimal_pair(parse_polynomial(args.polynomial))
    return {"ell": pair.ell, "p": pair.p.to_pairs(), "q0": pair.q0.to_pairs()}


def _cmd_member(args) -> dict:
    base = _element_base(args)
    witness = member_witness(base, args.value)
    return {
        "q": str(base),
        "value": format_rat(args.value),
        "member": witness is not None,
        "witness": witness.to_pairs() if witness is not None else None,
    }


def _cmd_factorize(args) -> dict:
    base = _element_base(args)
    witness = member_witness(base, args.value)
    if witness is None:
        raise NotInMonoidError(
            f"--value: {format_rat(args.value)} is not an element of the monoid at q={base}"
        )
    doc = {
        "q": str(base),
        "value": format_rat(args.value),
        "min_factorization": witness.to_pairs(),
        "max_factorization": down_normal_form(base, witness).to_pairs(),
    }
    if args.enumerate:
        doc["factorizations"] = list(iter_factorizations(base, args.value, args.oracle_cap))
    return doc


def _cmd_lengths(args) -> dict:
    base = _element_base(args)
    try:
        stats = length_stats(base, args.value)
    except NotInMonoidError as exc:
        raise NotInMonoidError(f"--value: {exc}") from None
    # The cap bounds the listed set; a slice, as len() overflows past 2^63 lengths.
    if args.enumerate and stats.length_set[args.oracle_cap:]:
        raise OracleBudgetExceeded()
    doc = {
        "q": str(base),
        "value": format_rat(args.value),
        "min_length": stats.min_len,
        "max_length": stats.max_len,
        "elasticity": format_rat(stats.elasticity),
    }
    if args.enumerate:
        doc["length_set"] = list(stats.length_set)
    doc["min_factorization"] = stats.min_factorization.to_pairs()
    return doc


def _cmd_construct_elasticity(args) -> dict:
    base = _base_for(args.q)
    if args.target < 1:
        raise CliError(f"--target: elasticities are >= 1, got {format_rat(args.target)}")
    cert = construct_elasticity(base, args.target, scan_cap=args.scan_cap)
    return {
        "q": str(base),
        "target": f"{args.target.numerator}/{args.target.denominator}",
        "element": format_rat(cert.element),
        "presentation": cert.presentation.to_pairs(),
        "min_length": cert.min_len,
        "max_length": cert.max_len,
        "achieved": format_rat(cert.achieved),
        "construction_log": cert.construction_log,
    }


def write_scan_csv(scan, stream: TextIO) -> None:
    """Write an elasticity scan as CSV rows followed by its manifest row.

    Rows repeat few pieces of text, so each is formatted once per scan, from
    integers: a (min_len, max_len) pair's "min,max,elasticity" tail, and the
    ",den," between a value's numerator and its tail for each gcd of a value
    with the scale. A row costs one gcd, one integer division and the decimal
    text of its numerator.
    """
    scale = scan.scale
    tails, dens = {}, {}
    lines = ["value_num,value_den,min_len,max_len,elasticity\n"]
    for value, low, high in scan.rows:
        tail = tails.get((low, high))
        if tail is None:
            g = math.gcd(high, low)
            tail = tails[low, high] = f"{low},{high},{format_ratio(high // g, low // g)}\n"
        g = math.gcd(value, scale)
        den = dens.get(g)
        if den is None:
            den = dens[g] = f",{scale // g},"
        lines.append(f"{value // g}{den}{tail}")
    status = "complete" if scan.complete else "partial"
    lines.append(f"# manifest: {status} rows={len(scan.rows)}\n")
    stream.write("".join(lines))


def _cmd_elasticity_scan(args) -> None:
    base = _base_for(args.q)
    if args.bound < 0:
        raise CliError(f"--bound: expected a nonnegative rational, got {format_rat(args.bound)}")
    scan = elasticity_scan(base, args.bound, budget=args.oracle_cap)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                write_scan_csv(scan, handle)
        except OSError as exc:
            raise CliError(f"--out: cannot write {args.out!r}: {exc.strerror}") from None
    else:
        write_scan_csv(scan, sys.stdout)


def _cmd_omega_interval(args) -> dict:
    if not Fraction(1) < args.q < Fraction(2):
        raise CliError(f"--q: omega-interval requires 1 < q < 2, got {format_rat(args.q)}")
    monoid = IntervalMonoid.for_ratio(args.q)
    if not Fraction(1) <= args.atom <= monoid.q:
        raise CliError(f"--atom: expected an atom in [1, {format_rat(monoid.q)}], got {format_rat(args.atom)}")
    result = omega_interval_atom(monoid, args.atom)
    return {
        "q": format_rat(monoid.q),
        "atom": format_rat(result.atom),
        "omega": result.omega,
        "conductor": result.conductor,
        "witness": format_rat(result.lower_witness),
        "checks": {
            "blocked_value": format_rat(result.lower_blocked),
            "blocked_outside_monoid": True,
            "divisible_value": format_rat(result.lower_divisible),
            "divisible_inside_monoid": True,
        },
    }


# Decimal arithmetic with unbounded precision that raises instead of rounding.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])


def _pairs_json(poly) -> list[str]:
    """The pieces of ``json.dumps(poly.to_pairs(), separators=(",", ":"))``.

    Converting an int to decimal is quadratic in its length, and certificate
    quotients hold thousands of coefficients of thousands of digits, each a
    short multiple of the one before.  A coefficient within 64 bits of the
    previous one that divmod shows to be an exact multiple of it gets its
    digits from the exact Decimal product; that divmod is linear, since its
    quotient is short.  Any other coefficient is converted in full.
    """
    pieces = []
    prev = exact = None
    for deg, coeff in poly.items():
        rem = 1
        if prev and coeff.bit_length() - prev.bit_length() <= 64:
            ratio, rem = divmod(coeff, prev)
        exact = decimal.Decimal(coeff) if rem else _EXACT.multiply(exact, ratio)
        pieces += (",[" if pieces else "[[", str(deg), ",", str(exact), "]")
        prev = coeff
    pieces.append("]" if pieces else "[]")
    return pieces


def _cmd_antiprime(args) -> None:
    if not Fraction(0) < args.q < Fraction(1):
        raise CliError(f"--q: antiprime requires 0 < q < 1, got {format_rat(args.q)}")
    witness = omega_lower_bound(args.q, args.k, args.K)
    x = format_rat(witness.x)  # also the certificate's dividend, as witness_checks verified
    doc = {
        "q": format_rat(args.q),
        "k": witness.atom_power,
        "K": witness.K,
        "N": witness.N,
        "x": x,
        "presentation": witness.x_presentation.to_pairs(),
        "certificate": {
            "dividend": x,
            "divisor": format_rat(witness.certificate.divisor),
            "quotient": "@quotient@",
        },
        "checks": {name: ("pass" if ok else "fail") for name, ok in witness.checks.items()},
    }
    head, tail = json.dumps(doc, separators=(",", ":"), check_circular=False).split('"@quotient@"')
    quotient = _pairs_json(witness.certificate.quotient_presentation)
    sys.stdout.write("".join([head, *quotient, tail, "\n"]))


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


_ELEMENT = [
    ("--q", {"type": _rational, "required": True, "help": "base q = a/b"}),
    ("--value", {"type": _rational, "required": True, "help": "element value"}),
]
_ENUMERATE = ("--enumerate", {"action": "store_true", "help": "run the exhaustive oracle"})
_STATE_CAP = ("--oracle-cap", {"type": _positive_int, "help": "enumeration state budget"})

# name -> (handler, add_parser keywords, [(flag, add_argument keywords)]), in help order
COMMANDS = {
    "minimal-pair": (_cmd_minimal_pair, {"help": "minimal pair of a monic polynomial or a rational"}, [
        ("polynomial", {"nargs": "?", "help": 'polynomial string, e.g. "X^2 - 3X + 1"'}),
        ("--rational", {"type": _rational, "help": "positive rational, e.g. 3/2"}),
    ]),
    "member": (_cmd_member, {}, [*_ELEMENT, _STATE_CAP]),
    "factorize": (_cmd_factorize, {}, [*_ELEMENT, _ENUMERATE, _STATE_CAP]),
    "lengths": (_cmd_lengths, {}, [*_ELEMENT, _ENUMERATE, _STATE_CAP]),
    "construct-elasticity": (_cmd_construct_elasticity, {}, [
        ("--q", {"type": _rational, "required": True}),
        ("--target", {"type": _rational, "required": True, "help": "target ratio s/t >= 1"}),
        ("--scan-cap", {"type": _positive_int, "default": DEFAULT_SCAN_CAP}),
    ]),
    "elasticity-scan": (_cmd_elasticity_scan, {}, [
        ("--q", {"type": _rational, "required": True}),
        ("--bound", {"type": _rational, "required": True, "help": "enumerate elements up to this value"}),
        ("--out", {"help": "CSV output path (stdout when omitted)"}),
        ("--oracle-cap", {"type": _positive_int, "help": "element discovery budget"}),
    ]),
    "omega-interval": (_cmd_omega_interval, {}, [
        ("--q", {"type": _rational, "required": True, "help": "rational in (1, 2)"}),
        ("--atom", {"type": _rational, "required": True, "help": "atom in [1, q]"}),
    ]),
    "antiprime": (_cmd_antiprime, {}, [
        ("--q", {"type": _rational, "required": True, "help": "rational in (0, 1)"}),
        ("--k", {"type": _nonneg_int, "required": True, "help": "atom power"}),
        ("--K", {"type": _positive_int, "required": True, "help": "lower bound to beat"}),
    ]),
}


def build_parser() -> _Parser:
    """The whole tree: the top-level parser with every subcommand under it.

    ``main`` builds it only for an argv that ``_parse_exact`` leaves to
    argparse: help, usage errors and any other spelling.
    """
    parser = _Parser(prog="cyclofact", description=__doc__.splitlines()[0])
    # Given the prog, argparse does not format a usage line to derive it.
    sub = parser.add_subparsers(dest="subcommand", required=True, prog="cyclofact")
    for name, (_, options, arguments) in COMMANDS.items():
        p = sub.add_parser(name, **options)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
    return parser


def _parse_exact(name: str, argv: list[str]) -> Optional[argparse.Namespace]:
    """What ``build_parser().parse_args([name, *argv])`` returns, or None if unsure.

    A plain argv is read off the subcommand's rows in ``COMMANDS``: exact
    option strings, each valued one followed by a value that does not start
    with "-" or joined by "=" to any value, and a positional only as the sole
    token. Anything else, a value its type rejects or a missing required
    option gives None, and argparse then parses (or reports) the argv.
    """
    rows = COMMANDS[name][2]
    specs = {flag: spec for flag, spec in rows if flag.startswith("-")}
    values = {flag: spec.get("default", False if "action" in spec else None) for flag, spec in rows}
    positional = values.keys() - specs.keys()
    if positional and len(argv) == 1 and not argv[0].startswith("-"):
        values[positional.pop()] = argv[0]
        argv = []
    tokens = iter(argv)
    for token in tokens:
        flag, joined, text = token.partition("=")
        spec = specs.get(flag)
        if spec is None or joined and "action" in spec:  # argparse reports a store_true given a value
            return None
        if "action" in spec:  # store_true
            values[flag] = True
            continue
        if not joined:
            text = next(tokens, "-")  # a missing value is argparse's to report
            if text.startswith("-"):
                return None
        try:
            values[flag] = spec.get("type", str)(text)  # each occurrence, as argparse does
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    if any(spec.get("required") and values[flag] is None for flag, spec in specs.items()):
        return None
    args = {flag.lstrip("-").replace("-", "_"): value for flag, value in values.items()}
    return argparse.Namespace(**args, subcommand=name)


def quiet_when_stdout_closes(run: Callable[[], int]) -> int:
    """``run()``, then a flush of stdout; a reader that went away ends the call with exit 0.

    Help is flushed too: argparse leaves it in the buffer and raises
    SystemExit. On a closed pipe, fd 1 is pointed at os.devnull, so the
    interpreter's own flush at exit writes nowhere and prints nothing on
    stderr. Any other exception propagates unflushed, traceback and all.
    """
    try:
        try:
            code = run()
        except SystemExit:
            sys.stdout.flush()
            raise
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    """Run one call (``sys.argv[1:]`` when ``argv`` is None); return its exit code.

    A plain argv (see ``_parse_exact``) and an unknown subcommand build no
    parser; the latter's error is argparse's up to CPython 3.13.0, choices
    quoted. Any other argv builds the whole tree, for help and usage errors.
    A closed stdout ends the call quietly (``quiet_when_stdout_closes``).
    """
    # Certificates carry integers of thousands of digits, and the documents
    # must re-parse in the calling process: the limit stays lifted.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    return quiet_when_stdout_closes(lambda: _run(argv))


def _run(argv: list[str]) -> int:
    try:
        if argv and argv[0] not in COMMANDS and not argv[0].startswith("-"):
            choices = ", ".join(map(repr, COMMANDS))
            raise CliError(f"argument subcommand: invalid choice: {argv[0]!r} (choose from {choices})")
        args = _parse_exact(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
        if args is None:
            args = build_parser().parse_args(argv)
        if args.subcommand in ORACLE_CAP_READERS and args.oracle_cap is None:
            args.oracle_cap = _default_oracle_cap()
        doc = COMMANDS[args.subcommand][0](args)
    except (OracleBudgetExceeded, ScanCapExceeded) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_BUDGET
    except (CliError, ValueError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_DOMAIN_ERROR
    if doc is not None:
        # Each handler builds a fresh tree, so no cycle to check for (one would raise RecursionError).
        sys.stdout.write(json.dumps(doc, separators=(",", ":"), check_circular=False) + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
