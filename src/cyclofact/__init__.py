"""Exact factorization invariants of cyclic rational semirings.

Length sets, elasticity and omega-primality for the additive monoids of
nonnegative-integer polynomial evaluations at a positive rational, plus the
interval Puiseux monoids -- all in exact rational arithmetic, with
certificate-producing constructions.
"""

from .algebraic import AlgebraicNumber, power_coordinates
from .elasticity import (
    ElasticityCertificate,
    ElasticityScan,
    ElasticityTarget,
    FormulaResult,
    ForcedShift,
    LowerBoundStep,
    ScanCapExceeded,
    ScanRow,
    construct_elasticity,
    elasticity_formula,
    elasticity_lower_bound_sequence,
    elasticity_scan,
    forced_atom_shift,
    monoid_elements_up_to,
)
from .minimal_pair import MinimalPair, minimal_pair, minimal_pair_of_rational
from .omega import (
    ChainEntry,
    DivisibilityCertificate,
    IntervalMonoid,
    OmegaIntervalResult,
    OmegaWitness,
    antiprime_witness_chain,
    interval_membership,
    omega_interval_atom,
    omega_lower_bound,
    witness_checks,
)
from .polynomials import NatPoly, RatPoly, ZeroPolynomialError, parse_polynomial
from .rationals import format_rat, parse_rat, simplest_in_open
from .semiring import (
    DEFAULT_ORACLE_CAP,
    LengthStats,
    NotInMonoidError,
    OracleBudgetExceeded,
    RationalBase,
    down_normal_form,
    enumerate_factorizations,
    enumerate_length_set,
    iter_factorizations,
    length_stats,
    max_atom_exponent,
    member_witness,
    up_normal_form,
)

__version__ = "0.1.0"
