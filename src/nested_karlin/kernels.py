"""Special functions and combinatorial identities shared by all modules.

Recurring objects: the Poisson weights ``psi_l(x) = x^l e^{-x} / l!`` and
their tails, binomial tails for the deterministic (fixed ball count) scheme,
the limiting variance constants ``b_l`` (at-least counts) and ``b*_l``
(exact counts), and two binomial-coefficient identities the covariance
algebra rests on.  The normalization ``(c_j, f_j(T))`` depends on the weight
family and is ``WeightFamily.normalization``.

Everything here is a pure function; exact integer / rational arithmetic is
used where equality is claimed exact, log-space floats everywhere sums can
overflow or underflow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import NumericalError, ValidationError, check_whole

__all__ = [
    "psi",
    "psi_table",
    "poisson_tail",
    "binomial_tail",
    "b_constants",
    "convolution_identity",
    "binomial_identity_lhs",
]


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
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValidationError("psi requires finite x >= 0")
    if l == 0:
        out = np.exp(-arr)
    else:
        with np.errstate(divide="ignore"):
            out = np.exp(l * np.log(arr) - arr - math.lgamma(l + 1))
    if arr.ndim == 0:
        return float(out)
    return out


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
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    if not np.all((flat >= 0.0) & (flat < np.inf)):
        raise ValidationError("psi_table requires finite x >= 0")
    out = np.empty((n, flat.size))
    out[:1] = np.exp(-flat)
    for i in range(1, n):
        out[i] = out[i - 1] * (flat / i)
    big = flat > 700.0
    if np.any(big):
        far = flat[big]
        for i in range(n):
            out[i, big] = psi(i, far)
    return out.reshape((n,) + arr.shape)


def poisson_tail(l: int, m) -> Union[float, np.ndarray]:
    """P{Poisson(m) >= l} as the regularized lower incomplete gamma function
    P(l, m), which keeps full relative precision in both tails (the tail
    itself when it is many orders of magnitude below 1, the complement near
    1).  Accuracy: within 256 ulp of mpmath at 50 digits for l <= 5 and m in
    [1e-12, 1e6].  Any whole l is a level; for l <= 0 the tail is 1.  The
    mean m must be finite and >= 0."""
    l = check_whole("level", l, None)
    m_arr = np.asarray(m, dtype=float)
    if not np.all((m_arr >= 0.0) & (m_arr < np.inf)):
        raise ValidationError("poisson_tail requires finite m >= 0")
    scalar = m_arr.ndim == 0
    m_arr = np.atleast_1d(m_arr)
    if l <= 0:
        out = np.ones_like(m_arr)
    else:
        from scipy.special import gammainc  # imported where it runs: it is slow to load

        out = gammainc(l, m_arr)
    return float(out[0]) if scalar else out


def binomial_tail(n: int, p, l: int) -> Union[float, np.ndarray]:
    """P{Binomial(n, p) >= l} via the regularized incomplete beta function.

    Vectorized over ``p`` (the moments module sums this over large arrays of
    box weights).  The identity P{Bin(n, p) >= l} = I_p(l, n - l + 1) keeps
    full relative precision in both tails, where direct pmf accumulation
    against ``1 - lower_sum`` cancels.

    Accuracy: scipy's ``betainc`` loses precision about linearly in n; the
    relative error is at most ``max(256, n)`` ulp (tested against mpmath at
    100 digits for p in [1e-9, 1): 5 ulp at n = 10, 106 at n = 1e3 and
    1.9e4 at n = 1e5).  Where ``betainc`` gives no finite value (ball counts
    above about 1e200) this raises ``NumericalError``.  Any whole l is a
    level; for l <= 0 the tail is 1.
    """
    n = check_whole("ball count", n, 0)
    l = check_whole("level", l, None)
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):
        raise ValidationError("binomial_tail requires 0 <= p <= 1")
    scalar = p_arr.ndim == 0
    p_arr = np.atleast_1d(p_arr).astype(float)
    if l <= 0:
        out = np.ones_like(p_arr)
    elif l > n:
        out = np.zeros_like(p_arr)
    else:
        from scipy.special import betainc

        out = betainc(l, n - l + 1, p_arr)
        if not np.all(np.isfinite(out)):
            raise NumericalError(
                f"binomial tail at l={l} is not finite for a {len(str(n))}-digit n")
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


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
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValidationError(f"binomial_identity_lhs requires finite a, b > 0, got {a}, {b}")
    e = math.frexp(max(a, b))[1]
    a, b = math.ldexp(a, -e), math.ldexp(b, -e)
    u, v = a / (a + b), b / (a + b)
    total = 0.0
    for k in range(l):
        total += math.comb(k + l, l) * (u**k * v**l + u**l * v**k) / (k + l)
    return total
