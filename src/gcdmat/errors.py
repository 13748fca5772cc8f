"""Exception types shared across the package, and `excerpt` for quoting a
rejected value in their messages (`cut` is its last step)."""

_EXCERPT_CHARS = 80


def excerpt(value: object) -> str:
    """repr(value) cut to about 80 characters, for an error message.

    An integer too long to print in full is named by its bit length, never
    converted: CPython's int -> str takes time quadratic in the length. A
    list or tuple is quoted item by item until the excerpt is full; a dict,
    and a list or tuple nested in one, shows as {...}, [...] or (...).
    """
    if isinstance(value, (list, tuple)):
        parts: list[str] = []
        for item in value:
            if sum(map(len, parts)) > _EXCERPT_CHARS:
                parts.append("...")
                break
            parts.append(_scalar_excerpt(item))
        text = ", ".join(parts).join("[]" if isinstance(value, list) else "()")
    else:
        text = _scalar_excerpt(value)
    return cut(text)


def cut(text: str, chars: int = _EXCERPT_CHARS) -> str:
    """text, or its first chars characters and "..." when it is longer."""
    return text if len(text) <= chars else text[:chars] + "..."


def _scalar_excerpt(value: object) -> str:
    if isinstance(value, dict):
        return "{...}"
    if isinstance(value, (list, tuple)):
        return "[...]" if isinstance(value, list) else "(...)"
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) >= 10**_EXCERPT_CHARS:
        return f"<{'negative ' if value < 0 else ''}integer of {value.bit_length()} bits>"
    return repr(value[: _EXCERPT_CHARS + 1] if isinstance(value, str) else value)


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
