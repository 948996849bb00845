"""Seeded op lists for the benchmark workloads.

Each workload is a fixed list of *slots*: a subcommand, a base and a size
class.  The seed draws the concrete instance of every slot (the value, the
exact bound, the atom, the polynomial) but never moves a slot out of its
size class or its place in the run order.  So two seeds give different
inputs with the same cost profile, and the op-time percentiles land inside
the same group of slots on every seed.  Slots whose cost depends on more
than their size (the --enumerate ladder, the certificate grid, the omega and
anti-prime series) are the same on every seed.

Every op carries what the checker needs to re-check its output without
trusting the program: the generator's own ground truth (membership, the
polynomial it parsed, the scan bound), and the op's input size for the
traced run's scaling table.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 1

WORKLOADS = ("semiring", "certify")

WHY = {
    "semiring": (
        "elasticity-scan on 10^2..1.4*10^4 elements plus member, factorize and lengths on "
        "8..5000-bit values: digit ladder, normal forms, length-set DP; no construction or omega code"
    ),
    "certify": (
        "construct-elasticity, omega-interval, antiprime and minimal-pair: the certificate "
        "code that the semiring workload never runs"
    ),
}

# Ops that exit non-zero at the commit that introduced the benchmark, with
# their exit codes.  A later change that removes one of these failures shows
# up as a lower failure count; the checker then checks the new output.
KNOWN_FAILURES: dict[str, dict[tuple[str, ...], int]] = {
    "semiring": {
        ("lengths", "--q", "3/2", "--value", "6561", "--enumerate", "--oracle-cap", "20000"): 2,
        ("factorize", "--q", "3/2", "--value", "729", "--enumerate", "--oracle-cap", "20000"): 2,
    },
    "certify": {
        ("construct-elasticity", "--q", "5/3", "--target", "19/2"): 2,
        ("construct-elasticity", "--q", "7/4", "--target", "17/1"): 2,
        ("construct-elasticity", "--q", "7/4", "--target", "18/1"): 2,
        ("construct-elasticity", "--q", "7/4", "--target", "19/1"): 2,
        ("antiprime", "--q", "999/1000", "--k", "0", "--K", "5"): 1,
    },
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation with the facts the checker compares it against.

    size is the op's input size in size_kind units (None when it is only
    known from the output, as for a scan's element count).
    """

    argv: tuple[str, ...]
    size_kind: str
    size: int | None
    expect: dict = field(default_factory=dict, compare=False)


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _jitter(rng: random.Random, x: Fraction, rel: Fraction) -> Fraction:
    """x scaled by a seeded factor in [1 - rel, 1 + rel], denominator 1000."""
    u = Fraction(rng.randrange(-1000, 1001), 1000)
    return Fraction(round(x * (1 + rel * u) * 1000), 1000)


# ---------------------------------------------------------------------------
# semiring: scans
# ---------------------------------------------------------------------------

SCAN_BASES = ("3/2", "5/3", "7/4", "5/2", "7/5", "8/5")

# Nominal bounds giving about 100, 400 and 1200 elements per base.
SCAN_CLASSES = {
    "S": {"3/2": "23/2", "5/3": "23/2", "7/4": "23/2", "5/2": "49/2", "7/5": "8", "8/5": "10"},
    "M": {"3/2": "20", "5/3": "19", "7/4": "19", "5/2": "111/2", "7/5": "23/2", "8/5": "31/2"},
    "L": {"3/2": "31", "5/3": "28", "7/4": "27", "5/2": "211/2", "7/5": "31/2", "8/5": "21"},
}
# Slots per class.
SCAN_COUNTS = {"S": 40, "M": 45, "L": 14}
SCAN_ANCHOR = ("3/2", "80")  # about 1.4*10^4 elements, the largest scan


def _scan_ops(rng: random.Random) -> list[Op]:
    ops = []
    for cls, count in SCAN_COUNTS.items():
        for i in range(count):
            q = SCAN_BASES[i % len(SCAN_BASES)]
            bound = _jitter(rng, Fraction(SCAN_CLASSES[cls][q]), Fraction(1, 100))
            ops.append(_scan_op(q, bound))
    ops.append(_scan_op(SCAN_ANCHOR[0], Fraction(SCAN_ANCHOR[1])))
    return ops


def _scan_op(q: str, bound: Fraction) -> Op:
    return Op(
        ("elasticity-scan", "--q", q, "--bound", _fmt(bound)),
        "elements",
        None,
        {"q": q, "bound": _fmt(bound)},
    )


# ---------------------------------------------------------------------------
# semiring: member, factorize and lengths
# ---------------------------------------------------------------------------

LENGTHS_BASES = ("3/2", "5/3", "7/4", "5/2", "7/5")
LENGTHS_BITS = (8, 32, 128, 512)
NONMEMBER_BITS = (8, 128, 512)
# (subcommand, bits, kind) at q = 3/2; 5000 bits is about 3^3150.
LENGTHS_TOP = (
    ("member", 2048, "rational"),
    ("factorize", 2048, "rational"),
    ("lengths", 2048, "rational"),
    ("member", 5000, "integer"),
    ("factorize", 5000, "integer"),
    ("lengths", 5000, "integer"),
)
# The exhaustive oracle's cost depends on a value's digit structure, not just
# its size, so the --enumerate values are a fixed ladder rather than seeded:
# up to 3^6 at 3/2 and 2000 at 5/3 and 7/4.
ENUMERATE_LENGTHS = {
    "3/2": (27, 81, 243, 729),
    "5/3": (25, 125, 625, 2000),
    "7/4": (49, 343, 1000, 2000),
    "5/2": (125, 625),
    "7/5": (49, 343),
}
ENUMERATE_FACTORIZE = {"3/2": (27, 54, 81), "5/3": (75, 125), "7/4": (49, 100), "5/2": (125,)}


def _random_integer(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits) | (1 << (bits - 1))


def _random_member(rng: random.Random, q: Fraction, bits: int) -> Fraction:
    """f(q) for a random nonnegative polynomial f whose value has about `bits` bits."""
    a, b = q.numerator, q.denominator
    degree = max(1, round(bits / math.log2(a)))
    coeffs = [rng.randrange(0, a + b) for _ in range(degree)] + [rng.randrange(1, a + b)]
    num, apow, bpow = 0, 1, b**degree  # num = sum c_i a^i b^(degree-i)
    for c in coeffs:
        num += c * apow * bpow
        apow *= a
        bpow //= b
    return Fraction(num, b**degree)


def _nonmember(rng: random.Random, q: Fraction, bits: int) -> Fraction:
    """A value whose reduced denominator has a prime factor not dividing b.

    Every element f(a/b) has a power of b as its denominator, so such a
    value is provably outside the monoid.
    """
    b = q.denominator
    p = next(p for p in (7, 11, 13, 17) if b % p)
    m = _random_integer(rng, bits)
    if m % p == 0:
        m += 1
    return Fraction(m, p)


def _lengths_op(sub: str, q: str, value: Fraction, member: bool, extra: tuple = ()) -> Op:
    return Op(
        (sub, "--q", q, "--value", _fmt(value)) + extra,
        "bits",
        value.numerator.bit_length(),
        {"q": q, "value": _fmt(value), "member": member},
    )


def _lengths_ops(rng: random.Random) -> list[Op]:
    ops = []
    subs = ("member", "factorize", "lengths")
    for qi, q in enumerate(LENGTHS_BASES):
        qf = Fraction(q)
        for bi, bits in enumerate(LENGTHS_BITS):
            for si, sub in enumerate(subs):
                if (qi + bi + si) % 2:
                    value = _random_member(rng, qf, bits)
                else:
                    value = Fraction(_random_integer(rng, bits))
                ops.append(_lengths_op(sub, q, value, True))
        for bits in NONMEMBER_BITS:
            ops.append(_lengths_op("member", q, _nonmember(rng, qf, bits), False))
    for sub, bits, kind in LENGTHS_TOP:
        if kind == "rational":
            value = _random_member(rng, Fraction(3, 2), bits)
        else:
            value = Fraction(_random_integer(rng, bits))
        ops.append(_lengths_op(sub, "3/2", value, True))
    for sub, ladder in (("lengths", ENUMERATE_LENGTHS), ("factorize", ENUMERATE_FACTORIZE)):
        for q, values in ladder.items():
            for value in values:
                ops.append(_lengths_op(sub, q, Fraction(value), True, ("--enumerate",)))
    for argv in KNOWN_FAILURES["semiring"]:
        ops.append(_lengths_op(argv[0], argv[2], Fraction(argv[4]), True, argv[5:]))
    return ops


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

CONSTRUCT_GRIDS = (("5/3", 19), ("7/4", 19), ("3/2", 9), ("5/2", 9))
OMEGA_CONDUCTORS = (10, 30, 100, 300, 1000, 3000, 10**4, 3 * 10**4, 10**5)
OMEGA_ATOM_IS_Q = (10, 30, 100, 300, 1000)  # Stern-Brocot worst case, q = (c+1)/c
# (q, k range, K values); k = 0 is fixed for 999/1000 so its K series is the
# same growth series on every seed.
ANTIPRIME_SERIES = (
    ("2/3", (0, 5), (10, 100, 1000)),
    ("9/10", (0, 3), (10, 100)),
    ("99/100", (0, 2), (2, 5, 10)),
    ("999/1000", (0, 0), (2, 4, 5)),
)


def _antiprime_n(q: Fraction, k: int, big_k: int) -> int:
    """Smallest N with K*q^N < q^k, the chain depth the witness needs."""
    a, b = q.numerator, q.denominator
    n = 0
    # K*q^N < q^k  <=>  K * a^N * b^k < a^k * b^N
    lhs, rhs = big_k * b**k, a**k
    while not lhs < rhs:
        n += 1
        lhs *= a
        rhs *= b
    return n


def _random_poly(rng: random.Random) -> tuple[str, list[tuple[int, Fraction]]]:
    """A monic rational polynomial as a CLI string and its (degree, coeff) terms."""
    degree = rng.randrange(2, 5)
    terms = [(degree, Fraction(1))]
    for d in range(degree - 1, -1, -1):
        if d and rng.random() < 0.3:
            continue
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if c:
            terms.append((d, c))
    text = ""
    for d, c in terms:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if (mag == 1 and d) else _fmt(mag)
        var = "" if d == 0 else ("X" if d == 1 else f"X^{d}")
        term = f"{coeff}*{var}" if coeff and var else (coeff or var)
        text += f" {sign} {term}" if text else (f"-{term}" if c < 0 else term)
    return text, [(d, c) for d, c in terms]


def _certify_ops(rng: random.Random) -> list[Op]:
    ops = []
    for q, smax in CONSTRUCT_GRIDS:
        for s in range(1, smax + 1):
            for t in range(1, s + 1):
                if math.gcd(s, t) == 1:
                    ops.append(
                        Op(
                            ("construct-elasticity", "--q", q, "--target", f"{s}/{t}"),
                            "s",
                            s,
                            {"q": q, "target": f"{s}/{t}"},
                        )
                    )
    for c in OMEGA_CONDUCTORS:
        q = Fraction(c + 1, c)
        for _ in range(1 if c >= 3 * 10**4 else 2):
            # Atoms strictly inside (1, q): their witness search is short, so the
            # cost is the O(c) conductor and membership loops.  Other q with the
            # same conductor or atom = q make the search cost erratic; atom = q,
            # the worst case, is its own series below.
            atom = 1 + Fraction(rng.randrange(1, 1000), 1000) * (q - 1)
            ops.append(_omega_op(q, atom, c))
    for c in OMEGA_ATOM_IS_Q:
        q = Fraction(c + 1, c)
        ops.append(_omega_op(q, q, c))
    for q, (klo, khi), big_ks in ANTIPRIME_SERIES:
        qf = Fraction(q)
        for big_k in big_ks:
            k = rng.randrange(klo, khi + 1)
            n = _antiprime_n(qf, k, big_k)
            ops.append(
                Op(
                    ("antiprime", "--q", q, "--k", str(k), "--K", str(big_k)),
                    "N",
                    n,
                    {"q": q, "k": k, "K": big_k, "N": n},
                )
            )
    for _ in range(4):
        text, terms = _random_poly(rng)
        ops.append(
            Op(
                ("minimal-pair", text),
                "degree",
                terms[0][0],
                {"poly": [[d, _fmt(c)] for d, c in terms]},
            )
        )
    for _ in range(2):
        r = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        ops.append(
            Op(
                ("minimal-pair", "--rational", _fmt(r)),
                "degree",
                1,
                {"poly": [[1, "1"], [0, _fmt(-r)]]},
            )
        )
    return ops


def _omega_op(q: Fraction, atom: Fraction, c: int) -> Op:
    return Op(
        ("omega-interval", "--q", _fmt(q), "--atom", _fmt(atom)),
        "c",
        c,
        {"q": _fmt(q), "atom": _fmt(atom)},
    )


def _semiring_ops(rng: random.Random) -> list[Op]:
    # The scans and the value ladders share one workload so that each run can
    # be long enough for steady times within the benchmark's time budget.
    return _scan_ops(rng) + _lengths_ops(rng)


_GENERATORS = {"semiring": _semiring_ops, "certify": _certify_ops}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one pass over `workload` for `seed`, in run order."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    ops = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    # Interleave the slots in one fixed order for every seed: the heap then
    # grows and fragments the same way on every seed, which keeps peak RSS steady.
    random.Random(workload).shuffle(ops)
    return ops
