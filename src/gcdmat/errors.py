"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all errors raised by gcdmat."""


class InvalidArgumentError(Error, ValueError):
    """An argument is outside its allowed range: a size, exponent, base or
    index out of range, zero where a positive integer is required, indices
    out of order, or a value that is not a member of the set."""


class InvalidSetError(Error):
    """Violation of the ordered-set invariants (positive, distinct, nonempty)
    or of the exponent-matrix invariants (increasing primes, each prime,
    distinct rows)."""


class NotSquareError(Error):
    """A square matrix is required."""


class SingularMatrixError(Error):
    """The matrix is singular where an inverse/solve is required."""


class DimensionMismatchError(Error):
    """Matrix dimensions are incompatible for the requested operation."""


class NotSymmetricError(Error):
    """A symmetric matrix is required."""


class NotTnError(Error):
    """The gcd matrix is not totally nonnegative, so the closed form does not apply."""


class InternalConsistencyError(Error):
    """An exactness guarantee was violated; indicates a bug or invalid input."""
