"""Special functions and combinatorial identities shared by all modules.

Recurring objects: the Poisson weights ``psi_l(x) = x^l e^{-x} / l!`` and
their tails, binomial tails for the deterministic (fixed ball count) scheme,
the limiting variance constants ``b_l`` (at-least counts) and ``b*_l``
(exact counts), and two binomial-coefficient identities the covariance
algebra rests on.  The normalization ``(c_j, f_j(T))`` depends on the weight
family and is ``WeightFamily.normalization``.

Everything here is a pure function; exact integer / rational arithmetic is
used where equality is claimed exact, log-space floats everywhere sums can
overflow or underflow.  At a whole level both tails are finite sums of
pmfs, formed here from the pmf recurrences on whichever side keeps full
relative precision; no special-function library is needed.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .errors import NumericalError, ValidationError, check_real, check_whole

__all__ = [
    "psi",
    "psi_table",
    "poisson_low",
    "poisson_tail",
    "binomial_tail",
    "b_constants",
    "convolution_identity",
    "binomial_identity_lhs",
]

# a tail series is cut where its remainder is below this fraction of its sum
_CUT = 2.0**-56


def psi(l: int, x) -> Union[float, np.ndarray]:
    """Poisson weight ``psi_l(x) = x^l exp(-x) / l!``.

    ``psi_0(x) = exp(-x)``.  For ``l >= 1`` the value is computed as
    ``exp(l*log(x) - x - lgamma(l+1))`` so that huge ``x`` underflows
    cleanly to 0.0 instead of tripping an overflow in ``x**l``.

    Accepts a scalar or array of finite ``x >= 0``; ``psi(l, 0) = 1`` iff
    ``l == 0``.

    Accuracy: the exponent carries an absolute error of a few ulp of its
    largest part, so the relative error is at most
    ``4 eps (1 + |l log x| + x + lgamma(l+1))`` (tested against mpmath at 50
    digits; 463 ulp at most on x in [1e-12, 700], l <= 20).
    """
    l = check_whole("level", l, 0)
    arr = check_real("x", x, 0.0, array=True)
    if l == 0:
        out = np.exp(-arr)
    else:
        with np.errstate(divide="ignore"):
            out = np.exp(l * np.log(arr) - arr - math.lgamma(l + 1))
    if arr.ndim == 0:
        return float(out)
    return out


def _psi_rows(n: int, flat: np.ndarray) -> Iterator[np.ndarray]:
    """Yield ``psi_0(flat), ..., psi_{n-1}(flat)`` for validated 1-D ``flat``:
    ``psi_{i+1} = psi_i * x / (i+1)`` from ``psi_0 = exp(-x)``, one ``exp``
    per element for all n rows.  Where ``exp(-x)`` would be subnormal or zero
    (x > 700) the rows take the log form of ``psi``, except at the x where
    that form underflows to 0 in every row, as the recurrence does there."""
    row = np.exp(-flat)
    far = np.flatnonzero(flat > 700.0)
    if far.size:
        log_far = np.log(flat[far])
        # (n-1) log x - x bounds every row's exponent; exp is 0 below -746
        keep = (n - 1) * log_far - flat[far] > -746.0
        far, log_far = far[keep], log_far[keep]
    for i in range(n):
        if i:
            row = row * (flat / i)
        if far.size:
            row[far] = np.exp(i * log_far - flat[far] - math.lgamma(i + 1))
        yield row


def psi_table(n: int, x) -> np.ndarray:
    """Rows ``psi_0(x), ..., psi_{n-1}(x)``, shape ``(n,) + x.shape``.

    Built by ``psi_{i+1} = psi_i * x / (i+1)`` from ``psi_0 = exp(-x)``: one
    ``exp`` per element for all n levels.  Where ``exp(-x)`` would be
    subnormal or zero (x > 700) the rows fall back to the log form of ``psi``.

    Accuracy: for x <= 700 row i is within ``(4 + 2 i)`` ulp (an ulp or two
    from ``exp``, then two roundings per step; tested against mpmath at 50
    digits, 5.7 ulp at most over rows < 21), beyond that ``psi``'s bound.
    """
    n = check_whole("level count", n, 0)
    arr = check_real("x", x, 0.0, array=True)
    out = np.empty((n, arr.size))
    for i, row in enumerate(_psi_rows(n, arr.reshape(-1))):
        out[i] = row
    return out.reshape((n,) + arr.shape)


def _low_sum(l: int, flat: np.ndarray) -> tuple:
    """(sum_{i<l} psi_i(x), psi_l(x)) for validated 1-D ``flat``: the one
    place the Poisson lower sum is formed."""
    total = np.zeros(flat.size)
    for i, row in enumerate(_psi_rows(l + 1, flat)):
        if i < l:
            total += row
    return total, row


def poisson_low(l: int, m) -> Union[float, np.ndarray]:
    """P{Poisson(m) < l} = sum_{i<l} psi_i(m), summed directly so it stays
    accurate when it is tiny (the complement 1 - poisson_tail would not).
    Within ``(4 + 2 l)`` ulp for m <= 700 (each row's bound, and the terms
    are positive); clipped to 1."""
    l = check_whole("level", l, 0)
    arr = check_real("m", m, 0.0, array=True)
    out = np.minimum(_low_sum(l, arr.reshape(-1))[0], 1.0).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=None)
def _tail_series(l: int) -> np.ndarray:
    """Coefficients a_k = prod_{i<=k} l / (l+i), k < N, of the series
    sum_k a_k y^k = sum_{k>=0} psi_{l+k}(m) / psi_l(m) in y = m / l.  Past
    the cut N the terms shrink by y l / (l+k+1) <= l / (l+N+1) for y < 1,
    so the remainder is at most a_N (l+N+1) / (N+1), which N keeps below
    ``_CUT`` (the sum is at least 1)."""
    coef = [1.0]
    while True:
        n = len(coef)
        nxt = coef[-1] * (l / (l + n))
        if nxt * (l + n + 1) / (n + 1) <= _CUT:
            out = np.array(coef)
            out.setflags(write=False)  # cached: shared by every caller
            return out
        coef.append(nxt)


def _polyval(coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k coef[k] y^k by Horner's rule; with coef >= 0 and y >= 0 each
    step adds positive terms."""
    out = np.full(y.size, coef[-1])
    for c in coef[-2::-1]:
        out *= y
        out += c
    return out


def poisson_tail(l: int, m) -> Union[float, np.ndarray]:
    """P{Poisson(m) >= l} for a whole level l (1 for l <= 0) and finite
    means m >= 0, with full relative precision in both tails.

    Where m >= l the tail is at least about 1/2 and is formed as
    ``1 - sum_{i<l} psi_i(m)`` (the sum of ``poisson_low``).  Below, it is
    the sum of positive terms ``psi_l(m) sum_k a_k (m/l)^k``
    (``_tail_series``).  Both come from the recurrence of ``psi_table``.

    Accuracy: within ``(8 + 2 l)`` ulp for m <= 700 (tested against mpmath
    at 50 digits for l <= 30, on both sides of m = l); above 700 the rows
    carry ``psi``'s bound, and the tail is 1 to the last bit unless l comes
    within a few hundred of m.
    """
    l = check_whole("level", l, None)
    arr = check_real("m", m, 0.0, array=True)
    if l <= 0:
        out = np.ones(arr.shape)
    else:
        flat = arr.reshape(-1)
        low, psi_l = _low_sum(l, flat)
        out = 1.0 - np.minimum(low, 1.0)
        below = np.flatnonzero(flat < l)
        if below.size:
            out[below] = psi_l[below] * _polyval(_tail_series(l), flat[below] / l)
        out = out.reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


def binomial_tail(n: int, p, l: int) -> Union[float, np.ndarray]:
    """P{Binomial(n, p) >= l} for whole n >= 0 and l (1 for l <= 0, 0 for
    l > n), vectorized over ``p`` in [0, 1] (the moments module sums it over
    large arrays of box weights), with full relative precision in both tails.

    The pmf b_k(p) = C(n, k) p^k (1-p)^(n-k) is formed at k = l from logs:
    ``log C(n, l) - l log n = sum_{i<l} log((1 - i/n) / (i+1))`` (by
    ``math.fsum``) plus ``l log(n p) + (n - l) log1p(-p)``.  Where n p >= l
    the tail is at least about 1/2 and is formed as ``1 - sum_{k<l} b_k``,
    recursing down by b_{k-1} = b_k k (1-p) / ((n-k+1) p).  Below, it is the
    sum of positive terms ``b_l sum_j a_j e_j y^j`` in y = (n-l) p / ((1-p) l)
    < 1, with the Poisson tail's ``a_j`` (``_tail_series``) and
    e_j = prod_{i<j} (1 - i/(n-l)) <= 1, which ends the sum at j = n - l.

    Accuracy: the log form carries an absolute error of a few ulp of
    ``l |log(n p)| + n p + lgamma(l+1)``, so the relative error is within
    ``4 eps (8 + 2 l + l |log(n p)| + n p + lgamma(l+1))`` (tested against
    mpmath at 100 digits for n up to 1e5 on both sides of n p = l).  Ball
    counts beyond the float range raise ``NumericalError``.
    """
    n = check_whole("ball count", n, 0)
    l = check_whole("level", l, None)
    p_arr = check_real("p", p, 0.0, 1.0, array=True)
    if l <= 0:
        out = np.ones(p_arr.shape)
    elif l > n:
        out = np.zeros(p_arr.shape)
    else:
        try:
            nf, rest = float(n), float(n - l)
        except OverflowError:
            raise NumericalError(
                f"a {len(str(n))}-digit ball count exceeds the float range") from None
        flat = p_arr.reshape(-1)
        mean = nf * flat
        with np.errstate(divide="ignore"):
            log_pmf = math.fsum(math.log1p(-i / nf) - math.log(i + 1) for i in range(l)) \
                + l * np.log(mean)
            if n > l:
                log_pmf += rest * np.log1p(-flat)
        pmf = np.exp(log_pmf)
        out = np.empty(flat.size)
        below = mean < l
        up = np.flatnonzero(~below)
        if up.size:
            q = flat[up]
            b, odds = pmf[up], (1.0 - q) / q
            low = np.zeros(up.size)
            for k in range(l, 0, -1):
                b = b * odds * (k / (nf - k + 1.0))
                low += b
            out[up] = 1.0 - np.minimum(low, 1.0)
        down = np.flatnonzero(below)
        if down.size:
            a = _tail_series(l)
            e = np.cumprod(np.concatenate([[1.0], 1.0 - np.arange(a.size - 1) / max(rest, 1.0)]))
            x = flat[down]
            out[down] = pmf[down] * _polyval(a * e, rest * x / ((1.0 - x) * l))
        out = out.reshape(p_arr.shape)
    return float(out) if out.ndim == 0 else out


def _x_series_term(k: int) -> Fraction:
    """Exact term (2k-1)! / ((k!)^2 * 4^k) of the b_l series."""
    return Fraction(math.factorial(2 * k - 1), math.factorial(k) ** 2 * 4**k)


def b_constants(l: int) -> tuple[float, float]:
    """Limiting variance constants ``(b_l, b*_l)``.

    ``b_l = log 2 - sum_{k=1}^{l-1} (2k-1)! / ((k!)^2 2^{2k})`` (empty sum
    for l=1, so b_1 = log 2) and ``b*_l = (1 - binom(2l, l) 2^{-2l-1}) / l``.
    The series is accumulated in exact rationals and converted to float once.
    """
    l = check_whole("level", l, 1)
    s = Fraction(0)
    for k in range(1, l):
        s += _x_series_term(k)
    b = math.log(2.0) - float(s)
    bstar = float(
        (1 - Fraction(math.comb(2 * l, l), 2 ** (2 * l + 1))) / Fraction(l)
    )
    return b, bstar


def convolution_identity(a: int, r: int, n: int, max_value: int = 30) -> tuple[int, int]:
    """Both sides of the binomial convolution
    ``sum_{k=0}^n C(a+k, k) C(r+n-k, n-k) = C(a+r+n+1, n)`` as exact ints.

    Inputs are capped (default 30, override via ``max_value``) per the
    configured exact-arithmetic range.
    """
    a, r, n = (check_whole(name, v, 0) for name, v in (("a", a), ("r", r), ("n", n)))
    if max(a, r, n) > max_value:
        raise ValidationError(
            f"inputs up to {max(a, r, n)} exceed the configured bound {max_value}"
        )
    lhs = sum(math.comb(a + k, k) * math.comb(r + n - k, n - k) for k in range(n + 1))
    rhs = math.comb(a + r + n + 1, n)
    return lhs, rhs


def binomial_identity_lhs(l: int, a: float, b: float) -> float:
    """Left side of
    ``sum_{k=0}^{l-1} C(k+l, l) (a^k b^l + a^l b^k) / ((a+b)^{k+l} (k+l)) = 1/l``.

    Evaluated with the normalized ratios a/(a+b), b/(a+b) after scaling a, b
    by the power of two of max(a, b), an exact step, so nothing overflows.
    """
    l = check_whole("level", l, 1)
    a, b = check_real("a", a, 0.0, strict=True), check_real("b", b, 0.0, strict=True)
    e = math.frexp(max(a, b))[1]
    a, b = math.ldexp(a, -e), math.ldexp(b, -e)
    u, v = a / (a + b), b / (a + b)
    total = 0.0
    for k in range(l):
        total += math.comb(k + l, l) * (u**k * v**l + u**l * v**k) / (k + l)
    return total
