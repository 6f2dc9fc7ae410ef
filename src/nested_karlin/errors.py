"""Exception types shared across the package, and the one check of whole-number
arguments (generations, levels, ball counts).

The CLI maps these onto exit codes: validation failures exit 1, numeric /
budget failures exit 2, failed verification runs exit 3.
"""

import math
import operator


class ValidationError(ValueError):
    """Bad user input: malformed family parameters, grids, or CLI flags."""


class NumericalError(RuntimeError):
    """A numeric procedure could not meet its accuracy or budget contract.

    Raised e.g. when adaptive quadrature does not converge, when a
    covariance matrix needs more diagonal jitter than the policy allows,
    or when an enumeration budget is exhausted.
    """


def check_whole(name: str, value, minimum) -> int:
    """``value`` as an int >= ``minimum`` (no lower bound when ``minimum``
    is None).  Integers and whole floats pass; NaN, infinities and
    fractional values raise ``ValidationError`` instead of being truncated."""
    try:
        n = operator.index(value)
    except TypeError:
        x = float(value)
        if not (math.isfinite(x) and x == math.floor(x)):
            raise ValidationError(f"{name} must be a whole number, got {value!r}") from None
        n = int(x)
    if minimum is not None and n < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    return n
