"""Closed-form limit covariances and an independent quadrature oracle.

The limit objects are centered stationary Gaussian processes: ``Z_l`` (the
limit of normalized at-least-l counts) and ``X_l = Z_l - Z_{l+1}`` (exactly-l
counts), plus the fixed-time marginals ``Y_l = X_l(0)``.

One convention throughout: ``delta = u - v``, with level ``l1`` at ``u``.

``quadrature_cov`` re-derives the same quantities along an independent route:
the white-noise integral representations reduce every covariance to
one-dimensional integrals of products of Poisson weights
``psi_l(e^{-(x-u)})``, which are integrated adaptively over ``[-A, A]``;
Z-quantities are assembled from ``Z_1``/``X_k`` pieces by bilinearity
(``Z_l = Z_1 - sum_{k<l} X_k``).  All integrands are evaluated in log space —
the naive products hit 0*inf at the window edges.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from scipy import integrate

from .errors import NumericalError, ValidationError, check_whole
from .kernels import b_constants

__all__ = ["closed_cov", "quadrature_cov", "comparison_table"]

_WINDOW = 40.0
_MAX_LEVEL = 6
_QUAD_BUDGET = 1e-10


def _check_query(kind: str, l1: int, l2: int, delta: float) -> tuple:
    """Validated (l1, l2, delta); Y ignores delta, so it reads as 0."""
    if kind not in ("Z", "X", "Y"):
        raise ValidationError(f"unknown kind {kind!r} (expected 'Z', 'X' or 'Y')")
    d = float(delta)
    if not math.isfinite(d):
        raise ValidationError(f"delta must be finite, got {delta}")
    return check_whole("l1", l1, 1), check_whole("l2", l2, 1), 0.0 if kind == "Y" else d


def _covZ(l: int, delta: float) -> float:
    """Cov(Z_l(u), Z_l(v)), depending on |delta| only:
    ``log(1+e^{-|d|}) - sum_{k<l} (2k-1)! e^{-|d|k} / ((k!)^2 (1+e^{-|d|})^{2k})``.
    """
    d = abs(delta)
    e = math.exp(-d)
    total = math.log1p(e)
    for k in range(1, l):
        total -= math.exp(
            math.lgamma(2 * k) - 2 * math.lgamma(k + 1) - d * k - 2 * k * math.log1p(e)
        )
    return total


def _crossZ(l: int, n: int, delta: float) -> float:
    """E Z_l(u) Z_{l+n}(v) for n >= 0 (asymmetric in delta for n >= 1).

    Equals ``_covZ(l, delta)`` plus a finite double sum whose first part
    carries the positive-part factor ``((1 - e^{u-v})_+)^{l+r-i}``.
    """
    x = delta
    total = _covZ(l, x)
    pos = -math.expm1(x) if x < 0.0 else 0.0  # (1 - e^x)_+
    log1pex = math.log1p(math.exp(x)) if x < 50.0 else x
    for r in range(n):
        for i in range(l):
            t1 = 0.0
            if pos > 0.0:
                t1 = (
                    math.comb(l + r, i)
                    / (l + r)
                    * pos ** (l + r - i)
                    * math.exp(x * i)
                )
            t2 = (
                math.comb(l + r + i, i)
                / (l + r + i)
                * math.exp(x * i - (l + r + i) * log1pex)
            )
            total += t1 - t2
    return total


def _covX(l: int, delta: float) -> float:
    """Cov(X_l(u), X_l(v)), depending on |delta| only:
    ``e^{-|d|l}/l - (2l-1)! e^{-|d|l} / ((l!)^2 (1+e^{-|d|})^{2l})``.

    At delta = 0 this is exactly ``b*_l``.
    """
    d = abs(delta)
    e = math.exp(-d)
    return math.exp(-d * l) / l - math.exp(
        math.lgamma(2 * l) - 2 * math.lgamma(l + 1) - d * l - 2 * l * math.log1p(e)
    )


def _crossX(l1: int, l2: int, delta: float) -> float:
    """E X_{l1}(u) X_{l2}(v) for l1 > l2 >= 1; with y = -delta = v - u,

    ``e^{y*l2} [ C(l1,l2)/l1 * ((1-e^y)_+)^{l1-l2}
                - C(l1+l2,l2)/(l1+l2) * (1+e^y)^{-(l1+l2)} ]``.
    """
    y = -delta
    pos = -math.expm1(y) if y < 0.0 else 0.0
    log1pey = math.log1p(math.exp(y)) if y < 50.0 else y
    t1 = 0.0
    if pos > 0.0:
        t1 = math.comb(l1, l2) / l1 * pos ** (l1 - l2) * math.exp(y * l2)
    t2 = (
        math.comb(l1 + l2, l2)
        / (l1 + l2)
        * math.exp(y * l2 - (l1 + l2) * log1pey)
    )
    return t1 - t2


def _covY(l1: int, l2: int) -> float:
    """Moments of the fixed-time marginals Y_l = X_l(0):
    ``E Y_l^2 = b*_l`` and ``E Y_{l1} Y_{l2} = -C(l1+l2, l1) / ((l1+l2) 2^{l1+l2})``
    for l1 != l2.  Computed in exact rationals, converted once.
    """
    if l1 == l2:
        return b_constants(l1)[1]
    s = l1 + l2
    return float(-Fraction(math.comb(s, l1), s * 2**s))


def closed_cov(kind: str, l1: int, l2: int, delta: float) -> float:
    """Closed-form E W_{l1}(u) W_{l2}(v) for W = Z, X or Y, with
    ``delta = u - v`` and the levels in either order.  Same-level values
    depend on |delta| only; Y ignores delta."""
    l1, l2, d = _check_query(kind, l1, l2, delta)
    if kind == "Y":
        return _covY(l1, l2)
    if kind == "Z":
        if l1 <= l2:
            return _crossZ(l1, l2 - l1, d)
        return _crossZ(l2, l1 - l2, -d)
    if l1 == l2:
        return _covX(l1, d)
    if l1 > l2:
        return _crossX(l1, l2, d)
    return _crossX(l2, l1, -d)


# ---------------------------------------------------------------------------
# Quadrature oracle.
#
# With w = e^{-(x-u)}, the white-noise representations give (u' <= v'):
#   Cov(X_l(u), X_l(v)) = ∫ [ e^{-e^{-(x-v')}} e^{-l(x-u')}/l!
#                              - psi_l(e^{-(x-u')}) psi_l(e^{-(x-v')}) ] dx
# and for l1 > l2 >= 0 (X_0 := -Z_1):
#   u > v:  ∫ [ e^{-e^{-(x-u)}} (e^u-e^v)^{l1-l2} e^{-x(l1-l2)}/(l1-l2)!
#                * e^{(v-x)l2}/l2!  - psi_{l1} psi_{l2} ] dx
#   u <= v: -∫ psi_{l1}(e^{-(x-u)}) psi_{l2}(e^{-(x-v)}) dx
#   E Z_1(u) Z_1(v) = ∫ [ q_{max} - q_u q_v ] dx,  q_u(x) = e^{-e^{-(x-u)}}.
# ---------------------------------------------------------------------------


def _log_psi_factor(l: int, a: float) -> float:
    """log psi_l(e^{-a}) = -l*a - e^{-a} - log l!  (valid for l = 0 too)."""
    return -l * a - math.exp(-a) - math.lgamma(l + 1)


def _quad_piece(fn) -> tuple[float, float]:
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(
                fn, -_WINDOW, _WINDOW, epsabs=1e-13, epsrel=1e-13, limit=400
            )
        except integrate.IntegrationWarning as exc:  # pragma: no cover - defensive
            raise NumericalError(f"quadrature failed to converge: {exc}") from exc
    return val, err


def _qx_same(l: int, u: float, v: float) -> tuple[float, float]:
    u_, v_ = min(u, v), max(u, v)
    lg = math.lgamma(l + 1)

    def integrand(x: float) -> float:
        a, b = x - u_, x - v_
        t1 = math.exp(-math.exp(-b) - l * a - lg)
        t2 = math.exp(_log_psi_factor(l, a) + _log_psi_factor(l, b))
        return t1 - t2

    return _quad_piece(integrand)


def _qx_cross(l1: int, l2: int, u: float, v: float) -> tuple[float, float]:
    """E X_{l1}(u) X_{l2}(v) for l1 > l2 >= 0 by direct integration."""
    if u > v:
        log_diff = u + math.log1p(-math.exp(v - u))  # log(e^u - e^v)
        c1 = (l1 - l2) * log_diff + l2 * v - math.lgamma(l1 - l2 + 1) - math.lgamma(l2 + 1)

        def integrand(x: float) -> float:
            t1 = math.exp(-math.exp(-(x - u)) - (l1 - l2) * x - l2 * x + c1)
            t2 = math.exp(_log_psi_factor(l1, x - u) + _log_psi_factor(l2, x - v))
            return t1 - t2

    else:

        def integrand(x: float) -> float:
            return -math.exp(_log_psi_factor(l1, x - u) + _log_psi_factor(l2, x - v))

    return _quad_piece(integrand)


def _qz1z1(u: float, v: float) -> tuple[float, float]:
    hi, lo = max(u, v), min(u, v)

    def integrand(x: float) -> float:
        qhi = math.exp(-math.exp(-(x - hi)))
        qlo = math.exp(-math.exp(-(x - lo)))
        return qhi * (1.0 - qlo)

    return _quad_piece(integrand)


def _e_xx(i: int, k: int, u: float, v: float) -> tuple[float, float]:
    """E X_i(u) X_k(v) for i, k >= 0 (X_0 = -Z_1), dispatching orientation."""
    if i == k == 0:
        return _qz1z1(u, v)
    if i == k:
        return _qx_same(i, u, v)
    if i > k:
        return _qx_cross(i, k, u, v)
    return _qx_cross(k, i, v, u)


def quadrature_cov(
    kind: str, l1: int, l2: int, delta: float, *, max_level: int = _MAX_LEVEL
) -> float:
    """Independent numeric evaluation of :func:`closed_cov`, with the same
    arguments: E X_{l1}(u) X_{l2}(v) is one integral, and Z is assembled from
    Z_1/X_k pieces by bilinearity.

    The summed quadrature error estimates must stay below 1e-10, else
    :class:`NumericalError` is raised.
    """
    l1, l2, d = _check_query(kind, l1, l2, delta)
    if max(l1, l2) > max_level:
        raise ValidationError(
            f"levels up to {max(l1, l2)} exceed the configured max {max_level}"
        )
    if abs(d) > _WINDOW / 2.0:
        raise ValidationError("offset too large for the integration window")
    if kind == "Z":
        # Z_l = -sum_{i<l} X_i with X_0 = -Z_1, so E Z_{l1} Z_{l2} is the sum
        # of E X_i X_k; the pieces with a Z_1 factor are summed first
        pairs = [(0, k) for k in range(l2)] + [(i, 0) for i in range(1, l1)]
        pairs += [(i, k) for i in range(1, l1) for k in range(1, l2)]
    else:
        pairs = [(l1, l2)]
    total = 0.0
    err = 0.0
    for i, k in pairs:
        val, e = _e_xx(i, k, d, 0.0)
        total += val
        err += e
    if err > _QUAD_BUDGET:
        raise NumericalError(
            f"quadrature error estimate {err:.2e} exceeds budget {_QUAD_BUDGET:.0e} "
            f"for kind={kind} l1={l1} l2={l2} delta={delta}"
        )
    return total


def comparison_table(kinds, level_pairs, deltas):
    """Rows (kind, l1, l2, delta, closed_form, quadrature, abs_diff) for the
    CLI `limits table` CSV."""
    rows = []
    for kind in kinds:
        for l1, l2 in level_pairs:
            l1, l2 = int(l1), int(l2)
            for d in map(float, deltas):
                closed = closed_cov(kind, l1, l2, d)
                quad = quadrature_cov(kind, l1, l2, d)
                rows.append((kind, l1, l2, d, closed, quad, abs(closed - quad)))
    return rows
