"""Re-check cyclofact CLI outputs without importing cyclofact.

Every exit-0 document is checked against facts that hold for any correct
answer, computed here from first principles with exact integer and
``Fraction`` arithmetic:

* presentations and factorizations evaluate to the value they claim, with
  every digit below a in a minimum form and below b above degree 0 in a
  maximum form;
* all factorization lengths of one element agree modulo a - b;
* max_length / min_length equals the reported elasticity, and a
  certificate's achieved ratio equals its target;
* omega = conductor + ceil(atom), with the blocking witness checked against
  the interval monoid's closed-form membership test;
* the anti-prime witness satisfies its four checks, re-done here, and all
  four are reported as "pass";
* a minimal pair splits ell*f with disjoint supports;
* a scan has as many rows as its manifest states, sorted, within the bound.

Only ``fractions`` and ``json`` are imported, so a bug in the library cannot
also hide in its checker.
"""

import json
from fractions import Fraction


class CheckError(AssertionError):
    """An exit-0 output that a correct program could not have printed."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _keys(doc, keys, optional=()):
    extra = set(doc) - set(keys) - set(optional)
    missing = set(keys) - set(doc)
    _require(not extra and not missing, f"fields: missing {sorted(missing)}, unexpected {sorted(extra)}")


def _pairs(pairs):
    """[[degree, coeff], ...] sorted by degree with positive coefficients."""
    _require(isinstance(pairs, list), f"presentation is not a pair list: {pairs!r}")
    degrees = [d for d, _ in pairs]
    _require(degrees == sorted(set(degrees)), f"degrees not strictly increasing: {degrees}")
    _require(all(isinstance(c, int) and c > 0 for _, c in pairs), "non-positive coefficient")
    _require(all(isinstance(d, int) and d >= 0 for d in degrees), "negative degree")
    return pairs


def evaluate(pairs, q):
    """sum c * q^d, exactly, by one pass over the degrees."""
    if not pairs:
        return Fraction(0)
    a, b = q.numerator, q.denominator
    top = pairs[-1][0]
    coeffs = dict(pairs)
    num, apow, bpow = 0, 1, b**top
    for d in range(top + 1):
        c = coeffs.get(d)
        if c:
            num += c * apow * bpow
        apow *= a
        bpow //= b
    return Fraction(num, b**top)


def _gcd(x, y):
    while y:
        x, y = y, x % y
    return x


def _divides_power(n, b):
    """n divides some power of b."""
    g = _gcd(n, b)
    while g > 1:
        n //= g
        g = _gcd(n, b)
    return n == 1


def _length(pairs):
    return sum(c for _, c in pairs)


def _check_min_form(pairs, q, value, what):
    _pairs(pairs)
    _require(evaluate(pairs, q) == value, f"{what} does not evaluate to {value}")
    _require(all(c < q.numerator for _, c in pairs), f"{what} has a digit >= a")


def _check_max_form(pairs, q, value, what):
    _pairs(pairs)
    _require(evaluate(pairs, q) == value, f"{what} does not evaluate to {value}")
    _require(all(c < q.denominator for d, c in pairs if d >= 1), f"{what} has a digit >= b above degree 0")


def _check_base_value(doc, expect):
    _require(Fraction(doc["q"]) == Fraction(expect["q"]), f"q {doc['q']} != {expect['q']}")
    _require(Fraction(doc["value"]) == Fraction(expect["value"]), f"value {doc['value']} != {expect['value']}")
    return Fraction(expect["q"]), Fraction(expect["value"])


def check_member(doc, expect):
    _keys(doc, ("q", "value", "member", "witness"))
    q, value = _check_base_value(doc, expect)
    _require(doc["member"] is expect["member"], f"member is {doc['member']}, expected {expect['member']}")
    if expect["member"]:
        _check_min_form(doc["witness"], q, value, "witness")
    else:
        _require(doc["witness"] is None, "non-member has a witness")


def check_factorize(doc, expect):
    _keys(doc, ("q", "value", "min_factorization", "max_factorization"), ("factorizations",))
    q, value = _check_base_value(doc, expect)
    _check_min_form(doc["min_factorization"], q, value, "min_factorization")
    _check_max_form(doc["max_factorization"], q, value, "max_factorization")
    if "factorizations" in doc:
        zs = doc["factorizations"]
        _require(zs == sorted(zs), "factorizations not sorted")
        keys = [json.dumps(z) for z in zs]
        _require(len(set(keys)) == len(keys), "duplicate factorization")
        for z in zs:
            _pairs(z)
            _require(evaluate(z, q) == value, f"factorization {z} does not evaluate to {value}")
        _require(doc["min_factorization"] in zs, "min_factorization missing from the full set")
        _require(doc["max_factorization"] in zs, "max_factorization missing from the full set")
        lo, hi = _length(doc["min_factorization"]), _length(doc["max_factorization"])
        _require(all(lo <= _length(z) <= hi for z in zs), "a factorization is shorter than min or longer than max")


def check_lengths(doc, expect):
    _keys(doc, ("q", "value", "min_length", "max_length", "elasticity", "min_factorization"), ("length_set",))
    q, value = _check_base_value(doc, expect)
    lo, hi = doc["min_length"], doc["max_length"]
    _check_min_form(doc["min_factorization"], q, value, "min_factorization")
    _require(_length(doc["min_factorization"]) == lo, "min_length is not the min factorization's length")
    _require(1 <= lo <= hi, f"lengths out of order: {lo}, {hi}")
    _require(Fraction(hi, lo) == Fraction(doc["elasticity"]), "max_length/min_length != elasticity")
    step = q.numerator - q.denominator
    _require((hi - lo) % step == 0, "min and max lengths differ by a non-multiple of a-b")
    if "length_set" in doc:
        ls = doc["length_set"]
        _require(ls == sorted(set(ls)) and ls[0] == lo and ls[-1] == hi, f"length_set {ls[:5]}... not [min..max]")
        _require(all((n - lo) % step == 0 for n in ls), "a length differs from min by a non-multiple of a-b")


def check_construct(doc, expect):
    _keys(doc, ("q", "target", "element", "presentation", "min_length", "max_length", "achieved", "construction_log"))
    q, target = Fraction(expect["q"]), Fraction(expect["target"])
    _require(Fraction(doc["q"]) == q, "q changed")
    _require(Fraction(doc["target"]) == target, f"target {doc['target']} != {expect['target']}")
    _require(Fraction(doc["achieved"]) == target, f"achieved {doc['achieved']} != target {expect['target']}")
    lo, hi = doc["min_length"], doc["max_length"]
    _require(lo >= 1 and Fraction(hi, lo) == target, "max_length/min_length != target")
    pres = _pairs(doc["presentation"])
    _require(evaluate(pres, q) == Fraction(doc["element"]), "presentation does not evaluate to element")
    _require(lo <= _length(pres) <= hi, "presentation length outside [min_length, max_length]")
    _require(isinstance(doc["construction_log"], list) and doc["construction_log"], "empty construction log")


def _ceil(x):
    return -((-x.numerator) // x.denominator)


def _floor(x):
    return x.numerator // x.denominator


def interval_member(x, q, conductor):
    """x in the monoid generated by [1, q]: 0, >= conductor, or in some [k, kq]."""
    if x < 0:
        return False
    if x == 0 or x >= conductor:
        return True
    return 1 <= _ceil(x / q) <= _floor(x)


def check_omega(doc, expect):
    _keys(doc, ("q", "atom", "omega", "conductor", "witness", "checks"))
    q, atom = Fraction(expect["q"]), Fraction(expect["atom"])
    _require(Fraction(doc["q"]) == q and Fraction(doc["atom"]) == atom, "q or atom changed")
    c = doc["conductor"]
    _require(c == _ceil(1 / (q - 1)), f"conductor {c} != ceil(1/(q-1))")
    _require(doc["omega"] == c + _ceil(atom), f"omega {doc['omega']} != conductor + ceil(atom)")
    w = Fraction(doc["witness"])
    _require(1 <= w <= q, "witness outside [1, q]")
    checks = doc["checks"]
    _keys(checks, ("blocked_value", "blocked_outside_monoid", "divisible_value", "divisible_inside_monoid"))
    blocked, divisible = (doc["omega"] - 1) * w - atom, doc["omega"] * w - atom
    _require(Fraction(checks["blocked_value"]) == blocked, "blocked_value != (omega-1)*witness - atom")
    _require(Fraction(checks["divisible_value"]) == divisible, "divisible_value != omega*witness - atom")
    _require(not interval_member(blocked, q, c), "blocked value lies in the monoid")
    _require(interval_member(divisible, q, c), "divisible value lies outside the monoid")
    _require(checks["blocked_outside_monoid"] is True and checks["divisible_inside_monoid"] is True, "check flag false")


def check_antiprime(doc, expect):
    _keys(doc, ("q", "k", "K", "N", "x", "presentation", "certificate", "checks"))
    q = Fraction(expect["q"])
    _require(Fraction(doc["q"]) == q and doc["k"] == expect["k"] and doc["K"] == expect["K"], "q, k or K changed")
    k, big_k, n = doc["k"], doc["K"], doc["N"]
    _require(n == expect["N"], f"N {n} != smallest N with K*q^N < q^k ({expect['N']})")
    x = Fraction(doc["x"])
    pres = _pairs(doc["presentation"])
    _require(evaluate(pres, q) == x, "presentation does not evaluate to x")
    _require(not pres or pres[0][0] >= n, "presentation has support below N")
    _require(big_k * q**n < q**k, "K*q^N >= q^k")
    cert = doc["certificate"]
    _keys(cert, ("dividend", "divisor", "quotient"))
    _require(Fraction(cert["dividend"]) == x and Fraction(cert["divisor"]) == q**k, "certificate is not for q^k | x")
    _require(evaluate(_pairs(cert["quotient"]), q) == x - q**k, "quotient does not evaluate to x - q^k")
    names = ("presentation_evaluates_to_x", "support_at_or_above_N", "K_atoms_cannot_reach", "certificate_quotient_valid")
    _require(doc["checks"] == {name: "pass" for name in names}, f"checks not all pass: {doc['checks']}")


def check_minimal_pair(doc, expect):
    _keys(doc, ("ell", "p", "q0"))
    f = {d: Fraction(c) for d, c in expect["poly"]}
    ell = 1
    for c in f.values():
        ell = ell * c.denominator // _gcd(ell, c.denominator)
    _require(doc["ell"] == ell, f"ell {doc['ell']} != lcm of denominators {ell}")
    p, q0 = dict(_pairs(doc["p"])), dict(_pairs(doc["q0"]))
    _require(not set(p) & set(q0), "p and q0 share a degree")
    scaled = {d: ell * c for d, c in f.items() if c}
    diff = {d: p.get(d, 0) - q0.get(d, 0) for d in set(p) | set(q0)}
    _require(diff == scaled, "p - q0 != ell*f")


def check_scan(text, expect):
    q, bound = Fraction(expect["q"]), Fraction(expect["bound"])
    lines = text.split("\n")
    _require(lines[-1] == "", "scan output does not end with a newline")
    _require(lines[0] == "value_num,value_den,min_len,max_len,elasticity", "bad scan header")
    manifest, rows = lines[-2], lines[1:-2]
    _require(manifest == f"# manifest: complete rows={len(rows)}", f"manifest {manifest!r} != {len(rows)} complete rows")
    b, prev = q.denominator, Fraction(0)
    step = q.numerator - q.denominator
    for row in rows:
        num, den, lo, hi, el = row.split(",")
        value, lo, hi, den = Fraction(int(num), int(den)), int(lo), int(hi), int(den)
        _require(prev < value <= bound, f"row value {value} out of order or above the bound")
        _require(value.denominator == den, f"row value {num}/{den} not in lowest terms")
        _require(_divides_power(den, b), f"denominator of {value} does not divide a power of b")
        _require(1 <= lo <= hi and (hi - lo) % step == 0, f"row lengths {lo}, {hi} inconsistent")
        _require(Fraction(el) == Fraction(hi, lo), f"row elasticity {el} != {hi}/{lo}")
        prev = value
    _require(not rows or rows[0].startswith("1,1,"), "the first scan row is not the atom 1")
    return len(rows)


_JSON_CHECKS = {
    "member": check_member,
    "factorize": check_factorize,
    "lengths": check_lengths,
    "construct-elasticity": check_construct,
    "omega-interval": check_omega,
    "antiprime": check_antiprime,
    "minimal-pair": check_minimal_pair,
}


def check(argv, expect, stdout):
    """Raise CheckError unless stdout is a correct answer to argv.

    Returns the row count for a scan and None otherwise.
    """
    sub = argv[0]
    if sub == "elasticity-scan":
        return check_scan(stdout, expect)
    _require(stdout.endswith("\n") and stdout.count("\n") == 1, "expected one JSON line")
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "output is not a JSON object")
    _JSON_CHECKS[sub](doc, expect)
    return None
