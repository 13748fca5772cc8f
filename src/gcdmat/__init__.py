"""Exact arithmetic for gcd/lcm matrices of ordered integer sets.

Builds gcd and lcm matrices, decides total nonnegativity four independent
ways, evaluates the closed-form tridiagonal inverse and the closed-form
integer quotient of the lcm matrix by the gcd matrix, and settles matrix
divisibility questions against an exact linear-solve oracle.
"""

from .divisibility import (
    DivisibilityReport,
    divide,
    divide_oracle,
    divide_power,
    search_gcd_closed_nondivisor,
)
from .exactmatrix import (
    ExactMatrix,
    MinorsReport,
    all_minors_nonnegative,
    determinant,
    gcd_matrix,
    is_positive_definite,
    lcm_matrix,
    solve_right,
)
from .numtheory import factorize, gcd, is_prime, lcm, totient
from .setmodel import (
    ColumnMonotoneReport,
    ExponentMatrix,
    OrderedSet,
    classify_coprime_divisor_chains,
    find_monotone_order,
    greatest_type_divisors,
    is_column_monotone,
    is_factor_closed,
    is_gcd_closed,
    pow_matrix,
    power_set,
    reconstruct,
)
from .tncore import (
    QuadrupleReport,
    TnVerdict,
    TridiagonalInverse,
    check_quadruple_identity,
    check_tn_monotone,
    check_tn_triple,
    lcm_from_gcds,
    quotient_closed_form,
    single_pair_identities_hold,
    tridiagonal_inverse,
)

__all__ = [
    "ColumnMonotoneReport",
    "DivisibilityReport",
    "ExactMatrix",
    "ExponentMatrix",
    "MinorsReport",
    "OrderedSet",
    "QuadrupleReport",
    "TnVerdict",
    "TridiagonalInverse",
    "all_minors_nonnegative",
    "check_quadruple_identity",
    "check_tn_monotone",
    "check_tn_triple",
    "classify_coprime_divisor_chains",
    "determinant",
    "divide",
    "divide_oracle",
    "divide_power",
    "factorize",
    "find_monotone_order",
    "gcd",
    "gcd_matrix",
    "greatest_type_divisors",
    "is_column_monotone",
    "is_factor_closed",
    "is_gcd_closed",
    "is_positive_definite",
    "is_prime",
    "lcm",
    "lcm_from_gcds",
    "lcm_matrix",
    "pow_matrix",
    "power_set",
    "quotient_closed_form",
    "reconstruct",
    "search_gcd_closed_nondivisor",
    "single_pair_identities_hold",
    "solve_right",
    "totient",
    "tridiagonal_inverse",
]

__version__ = "0.1.0"
