"""Exception types shared across the package, the one check of whole-number
arguments (generations, levels, ball counts) and the one check of real
arguments (times, budgets, family parameters, grids).

The CLI maps these onto exit codes: validation failures exit 1, numeric /
budget failures exit 2, failed verification runs exit 3.
"""

import math
import operator

import numpy as np


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
    is None).  Integers and whole floats pass; non-numbers, NaN, infinities
    and fractional values raise ``ValidationError`` instead of being
    truncated."""
    try:
        n = operator.index(value)
    except TypeError:
        x = check_real(name, value)
        if x != math.floor(x):
            raise ValidationError(f"{name} must be a whole number, got {value!r}") from None
        n = int(x)
    if minimum is not None and n < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    return n


def check_real(name: str, value, low=None, high=None, *, strict=False, array=False):
    """``value`` as a float in [low, high], or in (low, high) when ``strict``;
    an omitted bound still requires it finite, and ``high=math.inf`` admits
    +inf.  With ``array`` it may be an array-like, returned as a float array
    whose every element is checked; otherwise it must be a single number (a
    list or an array is refused).  Non-numbers, NaN and values out of range
    raise ``ValidationError`` naming ``name``."""
    try:
        if array:
            x = np.asarray(value, dtype=float)
            # two reductions, no per-element temporaries; NaN fails below
            lo, hi = x.min(initial=math.inf), x.max(initial=-math.inf)
        elif getattr(value, "ndim", 0):
            raise TypeError
        else:
            x = lo = hi = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be {'real numbers' if array else 'a real number'}, "
                              f"got {value!r}") from None
    above = lo > -math.inf if low is None else (lo > low if strict else lo >= low)
    below = hi < math.inf if high is None else (hi < high if strict else hi <= high)
    if not (above and below):
        ops = (">", "<") if strict else (">=", "<=")
        rules = [] if high == math.inf else ["finite"]
        rules += [f"{op} {b}" for op, b in zip(ops, (low, high)) if b not in (None, math.inf)]
        raise ValidationError(f"{name} must be {' and '.join(rules)}, got {value!r}")
    return x
