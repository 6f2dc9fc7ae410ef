"""Closed-form limit covariances and an independent quadrature oracle.

The limit objects are centered stationary Gaussian processes: ``Z_l`` (the
limit of normalized at-least-l counts) and ``X_l = Z_l - Z_{l+1}`` (exactly-l
counts), plus the fixed-time marginals ``Y_l = X_l(0)``.

One convention throughout: ``delta = u - v``, with level ``l1`` at ``u``.

``quadrature_cov`` re-derives the same quantities along an independent route:
the white-noise integral representations reduce every covariance to
one-dimensional integrals of products of Poisson weights
``psi_l(e^{-(x-u)})`` over ``[-40, 40]``; Z-quantities are assembled from
``Z_1``/``X_k`` pieces by bilinearity (``Z_l = Z_1 - sum_{k<l} X_k``).  All
integrands are evaluated in log space — the naive products hit 0*inf at the
window edges.

Each piece is integrated by an adaptive Gauss-Legendre rule in numpy: 16
panels, each evaluated by the 10- and 21-point rules, and a panel is halved
until |G21 - G10| is at most 1e-13 times its share of the window.  The
piece's value sums the accepted G21; its error estimate sums their
|G21 - G10|, the error of the cruder rule, so it overstates G21's.  A
piece still open after 12 rounds raises :class:`NumericalError`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import NumericalError, ValidationError, check_grid, check_real, check_whole
from .kernels import b_constants

__all__ = ["closed_cov", "quadrature_cov", "comparison_table"]

_WINDOW = 40.0
_FAR = 1e3
_MAX_LEVEL = 6
_QUAD_BUDGET = 1e-10
_PANELS = 16
_PANEL_TOL = 1e-13
_MAX_ROUNDS = 12


def _check_query(kind: str, l1: int, l2: int, delta: float) -> tuple:
    """Validated (l1, l2, delta); Y ignores delta, so it reads as 0."""
    if kind not in ("Z", "X", "Y"):
        raise ValidationError(f"unknown kind {kind!r} (expected 'Z', 'X' or 'Y')")
    d = check_real("delta", delta)
    # every covariance has underflowed to 0 long before |delta| = _FAR;
    # clamping there keeps products such as delta * l finite
    d = max(-_FAR, min(d, _FAR))
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


def _crossX(l1: int, l2: int, delta: float) -> float:
    """E X_{l1}(u) X_{l2}(v) for l1 >= l2 >= 1, and delta >= 0 at l1 = l2;
    with y = -delta = v - u,

    ``e^{y*l2} [ C(l1,l2)/l1 * ((1-e^y)_+)^{l1-l2}
                - C(l1+l2,l2)/(l1+l2) * (1+e^y)^{-(l1+l2)} ]``,

    where the first term is 0 for y > 0 and (.)^0 = 1.  At l1 = l2 this is
    Cov(X_l(u), X_l(v)) at |delta|, and at delta = 0 exactly ``b*_l``.
    """
    y = -delta
    pos = -math.expm1(y) if y < 0.0 else 0.0
    log1pey = math.log1p(math.exp(y)) if y < 50.0 else y
    t1 = 0.0
    if y <= 0.0:  # also keeps exp(y * l2) from overflowing
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
    if (l1, d) >= (l2, -d):  # l1 > l2, or l1 = l2 and delta >= 0
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
# The integrands below take u = delta and v = 0.
# ---------------------------------------------------------------------------


def _log_psi(l: int, a):
    """log psi_l(e^{-a}) = -l*a - e^{-a} - log l!  (valid for l = 0 too)."""
    return -l * a - np.exp(-a) - math.lgamma(l + 1)


def _integrand(i: int, k: int, delta: float):
    """The integrand of E X_i(delta) X_k(0), i, k >= 0 (X_0 = -Z_1), as a
    function of a numpy array of x."""
    if i < k:  # stationarity: E X_i(delta) X_k(0) = E X_k(-delta) X_i(0)
        return _integrand(k, i, -delta)
    lo, hi = min(delta, 0.0), max(delta, 0.0)
    if i == 0:  # q_hi (1 - q_lo)
        return lambda x: np.exp(-np.exp(hi - x)) * -np.expm1(-np.exp(lo - x))
    if i == k:
        lg = math.lgamma(i + 1)
        return lambda x: (np.exp(-np.exp(hi - x) - i * (x - lo) - lg)
                          - np.exp(_log_psi(i, x - lo) + _log_psi(i, x - hi)))
    if delta <= 0.0:
        return lambda x: -np.exp(_log_psi(i, x - delta) + _log_psi(k, x))
    # log of (e^delta - 1)^{i-k} / ((i-k)! k!)
    c = (i - k) * math.log(math.expm1(delta)) - math.lgamma(i - k + 1) - math.lgamma(k + 1)
    return lambda x: (np.exp(c - np.exp(delta - x) - i * x)
                      - np.exp(_log_psi(i, x - delta) + _log_psi(k, x)))


@functools.cache
def _gauss_rules() -> tuple:
    """Nodes of the 10- and 21-point Gauss-Legendre rules on [-1, 1], side by
    side, and the weights of each."""
    t10, w10 = np.polynomial.legendre.leggauss(10)
    t21, w21 = np.polynomial.legendre.leggauss(21)
    return np.concatenate([t10, t21]), w10, w21


def _quad_piece(f) -> tuple[float, float]:
    """(integral of ``f`` over [-_WINDOW, _WINDOW], error estimate) by the
    rule in the module docstring; each round evaluates all open panels in
    one call of ``f``."""
    t, w10, w21 = _gauss_rules()
    mid = np.linspace(-_WINDOW, _WINDOW, 2 * _PANELS + 1)[1::2]
    half = np.full(_PANELS, _WINDOW / _PANELS)
    values, errors = [], []
    for _ in range(_MAX_ROUNDS):
        fx = f(mid[:, None] + half[:, None] * t)
        g10 = half * (fx[:, :10] @ w10)
        g21 = half * (fx[:, 10:] @ w21)
        err = np.abs(g21 - g10)
        done = err <= _PANEL_TOL / _WINDOW * half
        values += g21[done].tolist()
        errors += err[done].tolist()
        if done.all():
            return math.fsum(values), math.fsum(errors)
        mid, half = mid[~done], half[~done] / 2.0
        mid, half = np.concatenate([mid - half, mid + half]), np.concatenate([half, half])
    raise NumericalError(
        f"quadrature failed to converge in {_MAX_ROUNDS} rounds of bisection")


def _e_xx(i: int, k: int, delta: float) -> tuple[float, float]:
    """E X_i(delta) X_k(0) for i, k >= 0 (X_0 = -Z_1): (value, error estimate)."""
    return _quad_piece(_integrand(i, k, delta))


def quadrature_cov(
    kind: str, l1: int, l2: int, delta: float, *, pieces: dict | None = None,
) -> float:
    """Independent numeric evaluation of :func:`closed_cov`, with the same
    arguments: E X_{l1}(u) X_{l2}(v) is one integral, and Z is assembled from
    Z_1/X_k pieces by bilinearity.

    The summed quadrature error estimates must stay below 1e-10, else
    :class:`NumericalError` is raised.  ``pieces``, when given, holds the
    (value, error estimate) of each piece E X_i(delta) X_k(0) under
    ``(i, k, delta)``: a piece found there is not integrated again, and one
    integrated here is added, so calls sharing the dict integrate each piece
    once and still sum and budget their pieces as a lone call would.  (A
    delta of -0.0 shares the key of 0.0; their integrands are equal.)
    """
    l1, l2, d = _check_query(kind, l1, l2, delta)
    if max(l1, l2) > _MAX_LEVEL:
        raise ValidationError(f"levels up to {max(l1, l2)} exceed the max {_MAX_LEVEL}")
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
    if pieces is None:
        pieces = {}
    for i, k in pairs:
        if (i, k, d) not in pieces:
            pieces[i, k, d] = _e_xx(i, k, d)
        val, e = pieces[i, k, d]
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
    CLI `limits table` CSV.  The rows share one table of quadrature pieces,
    so each distinct E X_i X_k integral is computed once across the table."""
    if not np.iterable(kinds):
        raise ValidationError(f"kinds must be a list of kinds, got {kinds!r}")
    try:
        pairs = [(check_whole("l1", l1, 1), check_whole("l2", l2, 1)) for l1, l2 in level_pairs]
    except (TypeError, ValueError):  # ValueError includes check_whole's refusal
        raise ValidationError(f"level_pairs must be pairs of levels >= 1, got {level_pairs!r}") from None
    deltas = check_grid("deltas", deltas, size=0).tolist()
    rows = []
    pieces: dict = {}
    for kind in kinds:
        for l1, l2 in pairs:
            for d in deltas:
                closed = closed_cov(kind, l1, l2, d)
                quad = quadrature_cov(kind, l1, l2, d, pieces=pieces)
                rows.append((kind, l1, l2, d, closed, quad, abs(closed - quad)))
    return rows
