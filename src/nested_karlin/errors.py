"""Exception types shared across the package and the three checks of user
arguments: ``check_whole`` for whole numbers (generations, levels, ball
counts), ``check_real`` for real numbers (times, budgets, family parameters)
and ``check_grid`` for lists of them (times, offsets, ball counts, weights).

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


def check_grid(name: str, values, low=None, high=None, *, strict=False, whole=False, size=1,
               order=None) -> np.ndarray:
    """``values``, a flat list of at least ``size`` numbers, each bounded as
    by ``check_real`` (and whole and below 2**62 when ``whole``), in
    ``order`` ("nondecreasing" or "strictly increasing") if one is given, as
    a float array, or int64 when ``whole``; else ``ValidationError``."""
    try:
        arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
        if arr.ndim != 1 or arr.dtype.kind not in "biufO":
            raise TypeError
        x = arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a flat list of numbers, got {values!r}") from None
    a, b = x[:-1], x[1:]  # compared, not subtracted: a difference may overflow
    if x.size < size or order and np.any(b <= a if order == "strictly increasing" else b < a):
        raise ValidationError(f"{name} must be {order or 'a list'} with >= {size} "
                              f"point{'s' * (size > 1)}, got {values!r}")
    # checked as a list, so that a refusal shows the values and not an array
    check_real(name, x.tolist(), low, high, strict=strict, array=True)
    if whole and not np.all((x == np.floor(x)) & (np.abs(x) < 2.0**62)):
        raise ValidationError(f"{name} must be whole numbers below 2**62, got {values!r}")
    return (arr if arr.dtype.kind in "iu" else x).astype(np.int64) if whole else x
