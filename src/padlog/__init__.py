"""padlog: exact truncated p-adic integers and p-adic solutions of a^x = b.

The package is organized around one data type and one question.  The data
type is :class:`PAdicInt`, a base-p integer truncated to N digits, held as
its residue mod p^N.  The question is: for which p-adic
integers x does a^x = b hold, and what are the digits of x?  The remaining
modules supply the machinery -- unit-group structure, stable primitive
roots, the multiplicative digit lift, exp/log on principal units, quotients
by k-th powers, the special pairs whose solutions are unique, and formal
power series over the rationals.
"""

from .errors import (
    AIsOne,
    BaseMismatch,
    DomainError,
    InsufficientPrecision,
    InternalInvariantError,
    ModulusTooLarge,
    NonzeroConstantTerm,
    NotAPrimitiveRoot,
    NotAUnit,
    NotCoprime,
    NotInRange,
    NotPrime,
    NotPrincipalUnit,
    PadlogError,
    UnknownTable,
    UnsolvableError,
    WrongConstantTerm,
    WrongResidueClass,
    ZeroInput,
)
from .padic import PAdicInt, ValuationBound, from_integer, parse_padic
from .primroot import (
    RootCertificate,
    StableRoot,
    all_stable_roots,
    gauss_search,
    has_primitive_root,
    is_primitive_root,
    is_stable_root,
    sqrt_minus_one,
    stabilize,
)
from .quotient import (
    PowerMapReport,
    SymbolicAbelian,
    power_map_report,
    predicted_finite_cokernel,
    verify_cokernel_finite_level,
)
from .residue import (
    AbelianStructure,
    OrderProfile,
    brute_dlog,
    euler_phi,
    group_structure,
    order_mod,
    order_profile,
)
from .series import FormalSeries, compose, derive, integrate, series_exp, series_log
from .solver import (
    ExistenceVerdict,
    LiftingRow,
    LiftingTrace,
    LogRatioResult,
    UnitsSolution,
    check_existence,
    convergence_certificate,
    solution_is_unit,
    solve_by_lifting,
    solve_log_ratio,
    solve_units,
)
from .special import (
    CycleDecomposition,
    SpecialPairReport,
    analyze_pair,
    cycle_decomposition,
)
from .teichmuller import decompose_unit, depth, lift_trace, teichmuller_lift
from .translog import padic_exp, padic_log, padic_pow

__version__ = "0.1.0"

__all__ = [
    # digits
    "PAdicInt",
    "ValuationBound",
    "from_integer",
    "parse_padic",
    # residue groups
    "AbelianStructure",
    "OrderProfile",
    "brute_dlog",
    "euler_phi",
    "group_structure",
    "order_mod",
    "order_profile",
    # stable primitive roots
    "RootCertificate",
    "StableRoot",
    "all_stable_roots",
    "gauss_search",
    "has_primitive_root",
    "is_primitive_root",
    "is_stable_root",
    "sqrt_minus_one",
    "stabilize",
    # multiplicative digit lift
    "decompose_unit",
    "depth",
    "lift_trace",
    "teichmuller_lift",
    # exp / log on principal units
    "padic_exp",
    "padic_log",
    "padic_pow",
    # the solver
    "ExistenceVerdict",
    "LiftingRow",
    "LiftingTrace",
    "LogRatioResult",
    "UnitsSolution",
    "check_existence",
    "convergence_certificate",
    "solution_is_unit",
    "solve_by_lifting",
    "solve_log_ratio",
    "solve_units",
    # quotients by k-th powers
    "PowerMapReport",
    "SymbolicAbelian",
    "power_map_report",
    "predicted_finite_cokernel",
    "verify_cokernel_finite_level",
    # special pairs
    "CycleDecomposition",
    "SpecialPairReport",
    "analyze_pair",
    "cycle_decomposition",
    # formal series
    "FormalSeries",
    "compose",
    "derive",
    "integrate",
    "series_exp",
    "series_log",
    # errors
    "PadlogError",
    "DomainError",
    "AIsOne",
    "BaseMismatch",
    "InsufficientPrecision",
    "InternalInvariantError",
    "ModulusTooLarge",
    "NonzeroConstantTerm",
    "NotAPrimitiveRoot",
    "NotAUnit",
    "NotCoprime",
    "NotInRange",
    "NotPrime",
    "NotPrincipalUnit",
    "UnknownTable",
    "UnsolvableError",
    "WrongConstantTerm",
    "WrongResidueClass",
    "ZeroInput",
    "__version__",
]
