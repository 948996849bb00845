"""Exact factorization invariants of cyclic rational semirings.

Length sets, elasticity and omega-primality for the additive monoids of
nonnegative-integer polynomial evaluations at a positive rational, plus the
interval Puiseux monoids -- all in exact rational arithmetic, with
certificate-producing constructions.
"""

__version__ = "0.1.0"
