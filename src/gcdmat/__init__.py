"""Exact arithmetic for gcd/lcm matrices of ordered integer sets.

Builds gcd and lcm matrices, decides total nonnegativity three ways (the
O(n) single-pair identities, the O(n^2) triple scan that names a witness,
and Neville elimination of the gcd matrix), evaluates the closed-form
tridiagonal inverse and the closed-form integer quotient of the lcm matrix
by the gcd matrix, and settles matrix divisibility questions against an
exact linear-solve oracle.
"""

from .divisibility import (
    DivisibilityReport,
    divide,
    divide_oracle,
    search_gcd_closed_nondivisor,
)
from .exactmatrix import (
    ExactMatrix,
    determinant,
    gcd_matrix,
    is_positive_definite,
    is_totally_nonnegative,
    lcm_matrix,
    solve_right,
)
from .numtheory import factorize, is_prime
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
    TnVerdict,
    TridiagonalInverse,
    check_tn_triple,
    quotient_closed_form,
    single_pair_identities_hold,
    tridiagonal_inverse,
)

__all__ = [
    "ColumnMonotoneReport",
    "DivisibilityReport",
    "ExactMatrix",
    "ExponentMatrix",
    "OrderedSet",
    "TnVerdict",
    "TridiagonalInverse",
    "check_tn_triple",
    "classify_coprime_divisor_chains",
    "determinant",
    "divide",
    "divide_oracle",
    "factorize",
    "find_monotone_order",
    "gcd_matrix",
    "greatest_type_divisors",
    "is_column_monotone",
    "is_factor_closed",
    "is_gcd_closed",
    "is_positive_definite",
    "is_prime",
    "is_totally_nonnegative",
    "lcm_matrix",
    "pow_matrix",
    "power_set",
    "quotient_closed_form",
    "reconstruct",
    "search_gcd_closed_nondivisor",
    "single_pair_identities_hold",
    "solve_right",
    "tridiagonal_inverse",
]

__version__ = "0.1.0"
