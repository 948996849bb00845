"""In-memory spans around the calls into each cyclofact layer.

The tracer wraps the public functions listed in LAYERS.  A wrapper records a
span -- layer, op index, parent span, start, end -- and, from the call's
arguments and result only, the layer's work counts.  Each wrapper replaces
the original in every module namespace that bound it (``cli`` imports
``member_witness`` and ``format_rat`` directly, ``elasticity`` imports from
``semiring``), so calls made inside the package are traced too.  Nothing is
installed until ``install`` and everything is restored by ``uninstall``; the
untraced runs never see a wrapper.

Self time is a span's duration minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

PACKAGE = "cyclofact"

# (module, attribute path) of every traced callable, in report order.
LAYERS = (
    ("cli", "main"),
    ("rationals", "format_rat"),
    ("elasticity", "monoid_elements_up_to"),
    ("elasticity", "elasticity_scan"),
    ("semiring", "member_witness"),
    ("semiring", "up_normal_form"),
    ("semiring", "down_normal_form"),
    ("semiring", "length_stats"),
    ("semiring", "enumerate_length_set"),
    ("semiring", "iter_factorizations"),
    ("elasticity", "construct_elasticity"),
    ("elasticity", "forced_atom_shift"),
    ("omega", "IntervalMonoid.for_ratio"),
    ("omega", "interval_membership"),
    ("omega", "omega_interval_atom"),
    ("rationals", "simplest_in_open"),
    ("omega", "omega_lower_bound"),
    ("omega", "antiprime_witness_chain"),
    ("omega", "witness_checks"),
    ("polynomials", "NatPoly.eval"),
    ("polynomials", "parse_polynomial"),
    ("minimal_pair", "minimal_pair"),
)
LAYER_NAMES = tuple(f"{m}.{a}" for m, a in LAYERS)
_INDEX = {name: i for i, name in enumerate(LAYER_NAMES)}

# Work counts beyond calls and self_s, per layer: (stat, unit, better).
COUNTS = {
    "elasticity.monoid_elements_up_to": (("elements", "count", "lower"),),
    "elasticity.elasticity_scan": (("rows", "count", "lower"), ("witness_calls_per_row", "calls/row", "lower")),
    "semiring.member_witness": (("nonmembers", "count", "lower"),),
    "semiring.enumerate_length_set": (("budget_exits", "count", "lower"), ("lengths_out", "count", "lower")),
    "semiring.iter_factorizations": (("yielded", "count", "lower"), ("budget_exits", "count", "lower")),
    "elasticity.construct_elasticity": (
        ("scan_cap_exits", "count", "lower"),
        ("candidates", "count", "lower"),
        ("certs_per_candidate", "certs/cand", "higher"),
    ),
    "elasticity.forced_atom_shift": (("atoms", "count", "lower"),),
    "omega.IntervalMonoid.for_ratio": (("conductor_sum", "count", "lower"),),
    "rationals.simplest_in_open": (("mediant_steps", "count", "lower"),),
    "omega.antiprime_witness_chain": (("entries", "count", "lower"),),
}
NO_SELF_TIME = {"polynomials.parse_polynomial"}
CLI_COUNTS = (("stdout_bytes", "byte", "lower"), ("exit1", "count", "lower"), ("exit2", "count", "lower"))


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in LAYER_NAMES:
        specs.append((f"{name}.calls", "count", "lower"))
        if name not in NO_SELF_TIME:
            specs.append((f"{name}.self_s", "s", "lower"))
        specs.extend((f"{name}.{stat}", unit, better) for stat, unit, better in COUNTS.get(name, ()))
        if name == "cli.main":
            specs.extend((f"cli.{stat}", unit, better) for stat, unit, better in CLI_COUNTS)
    specs.append(("trace.overhead_frac", "frac", "lower"))
    return specs


def _cf_sum(x: Fraction) -> int:
    """Sum of the continued-fraction partial quotients of x >= 0."""
    n, d, total = x.numerator, x.denominator, 0
    while d:
        q, r = divmod(n, d)
        total += q
        n, d = d, r
    return total


def _raised(exc, name: str) -> bool:
    return exc is not None and type(exc).__name__ == name


# Hooks turn one call's result or exception into work counts.
def _count_member_witness(counts, result, exc):
    if exc is None and result is None:
        counts["semiring.member_witness.nonmembers"] += 1


def _count_length_set(counts, result, exc):
    if _raised(exc, "OracleBudgetExceeded"):
        counts["semiring.enumerate_length_set.budget_exits"] += 1
    elif exc is None:
        counts["semiring.enumerate_length_set.lengths_out"] += len(result)


def _count_elements(counts, result, exc):
    if exc is None:
        counts["elasticity.monoid_elements_up_to.elements"] += len(result[0])


def _count_rows(counts, result, exc):
    if exc is None:
        counts["elasticity.elasticity_scan.rows"] += len(result.rows)


def _count_construct(counts, result, exc):
    if _raised(exc, "ScanCapExceeded"):
        counts["elasticity.construct_elasticity.scan_cap_exits"] += 1
    elif exc is None:
        counts["elasticity.construct_elasticity.certs"] += 1


def _count_shift(counts, result, exc):
    if exc is None:
        counts["elasticity.forced_atom_shift.atoms"] += len(result.forced_exponents)


def _count_conductor(counts, result, exc):
    if exc is None:
        counts["omega.IntervalMonoid.for_ratio.conductor_sum"] += result.conductor


def _count_mediants(counts, result, exc):
    if exc is None:
        counts["rationals.simplest_in_open.mediant_steps"] += _cf_sum(result)


def _count_chain(counts, result, exc):
    if exc is None:
        counts["omega.antiprime_witness_chain.entries"] += len(result)


HOOKS = {
    "semiring.member_witness": _count_member_witness,
    "semiring.enumerate_length_set": _count_length_set,
    "elasticity.monoid_elements_up_to": _count_elements,
    "elasticity.elasticity_scan": _count_rows,
    "elasticity.construct_elasticity": _count_construct,
    "elasticity.forced_atom_shift": _count_shift,
    "omega.IntervalMonoid.for_ratio": _count_conductor,
    "rationals.simplest_in_open": _count_mediants,
    "omega.antiprime_witness_chain": _count_chain,
}

# Span fields, in the order a span list stores them.
SPAN_FIELDS = ("layer", "op", "parent", "start", "end")


class Tracer:
    """Spans and counts for the calls into the layers while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        for (mod_name, path), name in zip(LAYERS, LAYER_NAMES):
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            layer = _INDEX[name]
            hook = HOOKS.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__.get(attr)
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(raw.__func__, layer, hook)))
                else:
                    setattr(cls, attr, self._wrap(getattr(cls, attr), layer, hook))
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, layer, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, fn, layer: int, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):  # iter_factorizations, the only one

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                span = [layer, self.op, stack[-1] if stack else -1, clock(), 0.0]
                index = len(spans)
                spans.append(span)
                stack.append(index)
                yielded = 0
                try:
                    for item in fn(*args, **kwargs):
                        yielded += 1
                        yield item
                except Exception as exc:
                    if _raised(exc, "OracleBudgetExceeded"):
                        counts["semiring.iter_factorizations.budget_exits"] += 1
                    raise
                finally:
                    span[4] = clock()
                    if stack and stack[-1] == index:
                        stack.pop()
                    elif index in stack:
                        stack.remove(index)
                    counts["semiring.iter_factorizations.yielded"] += yielded

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, self.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = clock()
                stack.pop()
                if hook is not None:
                    hook(counts, None, exc)
                raise
            span[4] = clock()
            stack.pop()
            if hook is not None:
                hook(counts, result, None)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[4] - s[3]
        return own

    def layer_totals(self) -> tuple[list[int], list[float], dict[int, list[float]]]:
        """Calls and self time per layer, and self time per op and layer."""
        calls = [0] * len(LAYER_NAMES)
        self_s = [0.0] * len(LAYER_NAMES)
        per_op: dict[int, list[float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span[0]
            calls[layer] += 1
            self_s[layer] += own
            per_op.setdefault(span[1], [0.0] * len(LAYER_NAMES))[layer] += own
        return calls, self_s, per_op

    def derived_counts(self) -> dict[str, int]:
        """Counts that depend on where a span sits in the tree."""
        member = _INDEX["semiring.member_witness"]
        stats = _INDEX["semiring.length_stats"]
        scan = _INDEX["elasticity.elasticity_scan"]
        construct = _INDEX["elasticity.construct_elasticity"]
        spans = self.spans
        under_scan = [False] * len(spans)
        witness_in_scan = candidates = 0
        for i, s in enumerate(spans):
            parent = s[2]
            under_scan[i] = s[0] == scan or (parent >= 0 and under_scan[parent])
            if s[0] == member and under_scan[i]:
                witness_in_scan += 1
            if s[0] in (member, stats) and parent >= 0 and spans[parent][0] == construct:
                candidates += 1
        return {"witness_calls_in_scan": witness_in_scan, "candidates": candidates}
