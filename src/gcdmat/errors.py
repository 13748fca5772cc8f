"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all errors raised by gcdmat."""


class InvalidArgumentError(Error, ValueError):
    """An argument is outside its allowed range (a size, exponent, base or index)."""


class ZeroInputError(Error):
    """Zero was passed where a positive integer is required."""


class InvalidSetError(Error):
    """Violation of the ordered-set invariants (positive, distinct, nonempty)."""


class NotSquareError(Error):
    """A square matrix is required."""


class SingularMatrixError(Error):
    """The matrix is singular where an inverse/solve is required."""


class DimensionMismatchError(Error):
    """Matrix dimensions are incompatible for the requested operation."""


class NotSymmetricError(Error):
    """A symmetric matrix is required."""


class TooLargeForExhaustiveMinorsError(Error):
    """Matrix order exceeds the cap for exhaustive minor enumeration."""


class NotAMemberError(Error):
    """The given value is not an element of the set."""


class DuplicateRowsError(Error):
    """Exponent rows must be pairwise distinct."""


class NotPrimeError(Error):
    """A listed prime failed the primality test."""


class PrimesNotIncreasingError(Error):
    """The prime list must be strictly increasing."""


class NotTnError(Error):
    """The gcd matrix is not totally nonnegative, so the closed form does not apply."""


class IndexOrderError(Error):
    """Indices must satisfy i <= j."""


class SizeTooSmallError(Error):
    """The closed form is only defined for sets of at least three elements."""


class InternalConsistencyError(Error):
    """An exactness guarantee was violated; indicates a bug or invalid input."""
