"""Weight families (p_k): construction, counting function, tails, de Haan profile.

A weight family is the box-probability sequence shared by every generation of
the nested scheme.  Three kinds are built in:

* ``weibull_like(alpha)``: ``p_k = C_alpha * exp(-k**alpha)``, ``0 < alpha < 1``.
  The normalizer ``C_alpha`` is computed once at construction by summing
  ``exp(-k**alpha)`` until the tail bound drops below 1e-15 and inverting
  the partial sum.  (Consequence: partial sums of ``p_k`` can exceed 1 by at
  most ~1e-15; no canonical closed form exists.)  Index of regular
  variation ``beta = 1/alpha - 1``, slowly varying part the constant
  ``1/alpha``.  The tail bound, also behind ``tail_mass_bound``, is the
  closed form k e^-x / (alpha x + alpha - 1) at x = k**alpha, an upper
  bound on the integral Gamma(1/alpha, x) / alpha
  (``_weibull_integral_tail``).  An alpha whose normalizer needs more than
  ``_MAX_TABLE`` weights (alpha below about 0.243) is refused.
* ``geometric(p)``: ``p_k = (1-p) * p**(k-1)``.  Its counting function grows
  like ``log t / log(1/p)`` — the auxiliary function is constant rather than
  unbounded, which is exactly why normalized counts for this family do not
  converge; it serves as the negative control.
* ``finite(probs)``: explicit normalized list, used by brute-force oracles.
  It violates the standing assumption that infinitely many weights are
  positive.

Families are immutable after construction (internal lookup tables are lazy
but idempotent).  A family pickles as the spec it was built from, never its
tables, so it is cheap to send to a worker process.  Every index question
(the counting function, the tail cuts) is answered by one search, ``_first``,
and no tail cut is longer than ``_MAX_TABLE`` weights.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import NumericalError, ValidationError, check_grid, check_real, check_whole

__all__ = ["WeightFamily"]

_TABLE_TOL = 2.0**-53
# the longest weight table a family forms (64 MiB of weights)
_MAX_TABLE = 2**23
_GUIDE_SIZE = 2**16  # buckets of the inverse-CDF guide table


@functools.lru_cache(maxsize=None)
def _weibull_normalizer(alpha: float) -> float:
    """C_alpha with 1/C_alpha = sum_{k<=K} exp(-k**alpha), K the first cut
    with the tail bound beyond it below 1e-15.  Raises ValidationError,
    before any table is formed, when K exceeds ``_MAX_TABLE``."""
    K = _first(lambda k: _weibull_integral_tail(alpha, k) <= 1e-15, 2**48)
    if K is None or K > _MAX_TABLE:
        size = "more than 2**48" if K is None else str(K)
        raise ValidationError(
            f"weibull-like alpha={alpha} needs a normalizer table of {size} "
            f"weights; the limit is {_MAX_TABLE}, use a larger alpha"
        )
    ks = np.arange(1, K + 1, dtype=float)
    return 1.0 / float(np.sum(np.exp(-(ks**alpha))))


def _weibull_integral_tail(alpha: float, k: int) -> float:
    """An upper bound on sum_{i>k} exp(-i**alpha): with a = 1/alpha and
    x = k**alpha, k e^-x / (alpha x + alpha - 1) where alpha x > 1 - alpha
    (that is, x > a - 1), capped by Gamma(a + 1) everywhere.

    The integrand is convex and decreasing, so the sum is at most the
    integral from k, Gamma(a, x) / alpha, less the slack
    exp(-(k+1)**alpha) / 2.  The integral is at most Gamma(a) / alpha =
    Gamma(a + 1).  Where x > a - 1: for s >= x, ln(s/x) <= (s - x)/x, so
    s^(a-1) <= x^(a-1) e^((a-1)(s-x)/x), and integrating from x gives
    Gamma(a, x) <= x^a e^-x / (x - a + 1), where x^a = k.  The bound does
    not increase with k and is within a factor 1 + (a-1)/(x-a+1) of the
    integral.

    Rounding cannot break the bound.  Gamma(a + 1) exceeds the integral by
    at least the integral over [0, 1], 1/e, far above its few ulp of error.
    The closed form is within about (x/2 + 8) ulp of its exact value: the
    rounding of x, which e^-x turns into x/2 ulp, and a few roundings more
    (e^-x is formed as e^(-x/2) e^(-x/2), so it stays normal wherever the
    product does).  The exact closed form exceeds the sum by the slack,
    about alpha / (2 k^(1-alpha)) of the integral, plus its own excess over
    the integral.  For alpha >= 0.1 and every k up to 2^48, the largest a
    tail search visits, the two together exceed that error by a factor 6 at
    least (at alpha = 0.4, k = 2^48; near alpha = 0.1, k = 2^48 the slack
    alone falls short, and the excess, about 1%, covers it; tested against
    mpmath).  Gamma(a + 1) overflows beyond a = 171; the bound is then inf."""
    x = float(k) ** alpha
    whole = math.gamma(1.0 / alpha + 1.0) if alpha > 1.0 / 171.0 else math.inf
    if alpha * x > 1.0 - alpha:
        return min(whole, k * math.exp(-x / 2.0) * math.exp(-x / 2.0) / (alpha * x + alpha - 1.0))
    return whole


def _first(pred, limit) -> int | None:
    """Smallest k >= 0 with ``pred(k)``, for a ``pred`` that stays true once
    it turns true: k = 0 first, then doubling and bisection.  None when it
    is still false past ``limit``."""
    if pred(0):
        return 0
    lo, hi = 0, 1
    while not pred(hi):
        if hi >= limit:
            return None
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def guide_table(cum: np.ndarray, size: int) -> np.ndarray:
    """The guide of the ascending table ``cum`` for ``guided_search``, with
    ``size`` (a power of 2) buckets: bucket b answers the draws in
    [b/size, (b+1)/size) with the count of entries <= b/size, or with -1
    when an entry falls inside it."""
    guide = np.searchsorted(cum, np.arange(size) / size, side="right")
    guide[(cum[cum < 1.0] * size).astype(np.intp)] = -1
    guide.setflags(write=False)
    return guide


def guided_search(cum: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="right")`` for draws ``u`` in [0, 1)
    through the guide of ``cum``: ``u * guide.size`` and its floor are
    exact, and the draws in buckets that hold -1 fall back to the binary
    search."""
    out = guide.take((u * guide.size).astype(np.intp))
    miss = np.flatnonzero(out < 0)
    if miss.size:
        out.reshape(-1)[miss] = np.searchsorted(cum, np.reshape(u, -1)[miss], side="right")
    return out


class WeightFamily:
    """A discrete weight sequence with counting function and tail bounds.

    ``WeightFamily(kind, alpha=..., p=..., probs=...)`` converts and
    checks the parameter of ``kind`` and ignores the others; the classmethod
    constructors name it.
    """

    def __init__(self, kind, alpha=None, p=None, probs=None):
        self.kind, self.alpha, self.p, self.probs = kind, None, None, None
        self.normalizer, self.beta = 1.0, 0.0
        if kind == "weibull":
            self.alpha = check_real("weibull-like alpha", alpha, 0.0, 1.0, strict=True)
            self.normalizer = _weibull_normalizer(self.alpha)
            self.beta = 1.0 / self.alpha - 1.0
            self._spec = (kind, self.alpha)
        elif kind == "geometric":
            self.p = check_real("geometric p", p, 0.0, 1.0, strict=True)
            self._spec = (kind, None, self.p)
        elif kind == "finite":
            arr = check_grid("finite family weights", probs, 0.0, strict=True)
            total = float(arr.sum())
            if not 0.0 < 1.0 / total < math.inf:
                raise ValidationError(f"finite family weights sum to {total}, "
                                      "which has no finite nonzero reciprocal")
            self.normalizer = 1.0 / total
            self.probs = arr / total
            self._suffix = np.concatenate(
                [np.cumsum(self.probs[::-1])[::-1][1:], [0.0]]
            )
            # the weights as given: normalizing the normalized ones again
            # could move their last bits
            self._spec = (kind, None, None, tuple(arr.tolist()))
        else:
            raise ValidationError(f"unknown family kind {kind!r}")
        self._cum = None
        self._guide = None
        self._w = np.empty(0)

    def __reduce__(self):
        """Pickle the spec the family was built from, not its lookup tables."""
        return WeightFamily, self._spec

    # -- constructors ------------------------------------------------------

    @classmethod
    def weibull_like(cls, alpha: float) -> "WeightFamily":
        return cls("weibull", alpha=alpha)

    @classmethod
    def geometric(cls, p: float) -> "WeightFamily":
        return cls("geometric", p=p)

    @classmethod
    def finite(cls, probs: Iterable[float]) -> "WeightFamily":
        return cls("finite", probs=probs)

    def __repr__(self):
        if self.kind == "weibull":
            return f"WeightFamily.weibull_like({self.alpha})"
        if self.kind == "geometric":
            return f"WeightFamily.geometric({self.p})"
        return f"WeightFamily.finite({self.probs.tolist()})"

    # -- core quantities ---------------------------------------------------

    def weight(self, k) -> Union[float, np.ndarray]:
        """p_k for 1-based index k (scalar or array of whole numbers).
        Finite families return 0.0 beyond their support."""
        arr = np.asarray(k)
        if arr.dtype.kind not in "iu" and not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
            raise ValidationError(f"box indices must be whole numbers, got {k!r}")
        if np.any(arr < 1):
            raise ValidationError("box indices are 1-based")
        kf = arr.astype(float)
        if self.kind == "weibull":
            out = self.normalizer * np.exp(-(kf**self.alpha))
        elif self.kind == "geometric":
            out = (1.0 - self.p) * self.p ** (kf - 1.0)
        else:
            idx = arr.astype(int) - 1
            out = np.where(idx < self.probs.size, self.probs[np.minimum(idx, self.probs.size - 1)], 0.0)
        if arr.ndim == 0:
            return float(out)
        return out

    def weight_prefix(self, K: int) -> np.ndarray:
        """Read-only view of [p_1, ..., p_K]; grown and cached on demand."""
        K = check_whole("prefix length K", K, 0)
        if K > self._w.size:
            grow = max(K, min(2 * self._w.size, _MAX_TABLE), 64)
            w = np.atleast_1d(self.weight(np.arange(1, grow + 1)))
            w.setflags(write=False)
            self._w = w
        return self._w[:K]

    def rho(self, t: float) -> int:
        """Counting function rho(t) = #{k : p_k >= 1/t}: a count over the
        weights of a finite family, otherwise the first k with p_{k+1} < 1/t
        (the weights decrease)."""
        thr = 1.0 / check_real("t", t, 0.0, strict=True)
        if self.kind == "finite":
            return int(np.count_nonzero(self.probs >= thr))
        return _first(lambda k: self.weight(k + 1) < thr, math.inf)

    def tail_mass_bound(self, K: int) -> float:
        """Upper bound on sum_{k>K} p_k, nonincreasing in K.

        Exact for geometric (p**K) and finite families (suffix sum); for the
        weibull-like family ``C_alpha`` times the closed-form bound on
        sum_{i>K} exp(-i**alpha) of ``_weibull_integral_tail``.
        """
        # beyond 2^64 every bound is 0.0, and K need not fit in a float
        K = min(check_whole("tail_mass_bound K", K, 0), 2**64)
        if K == 0:
            return 1.0
        if self.kind == "geometric":
            return self.p**K
        if self.kind == "finite":
            return float(self._suffix[K - 1]) if K <= self.probs.size else 0.0
        return min(1.0, self.normalizer * _weibull_integral_tail(self.alpha, K))

    def tail_index(self, threshold: float) -> int:
        """Smallest K >= 0 with tail_mass_bound(K) <= threshold: the length
        of the weight table that cuts the tail there.  Raises NumericalError,
        before any table is formed, when that is more than ``_MAX_TABLE``."""
        threshold = check_real("tail threshold", threshold, 0.0, math.inf)
        if threshold <= 0.0 and self.kind != "finite":
            raise ValidationError(
                "infinite families cannot reach tail mass 0; threshold must be > 0"
            )
        K = _first(lambda K: self.tail_mass_bound(K) <= threshold, _MAX_TABLE)
        if K is None:
            raise NumericalError(
                f"tail mass {threshold:.3g} of {self!r} needs a table of more than "
                f"{_MAX_TABLE} weights; use a larger budget or a smaller time"
            )
        return K

    def cumulative_table(self) -> np.ndarray:
        """Cumulative sums of p_k out to mass >= 1 - 2**-53 (inverse-CDF table)."""
        if self._cum is None:
            if self.kind == "finite":
                cum = np.cumsum(self.probs)
            else:
                K = self.tail_index(_TABLE_TOL)
                cum = np.cumsum(self.weight_prefix(K))
            cum.setflags(write=False)
            self._cum = cum
        return self._cum

    def table_search(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cumulative_table(), u, side="right")`` for draws
        ``u`` in [0, 1), through a guide table of 2**16 buckets (indexed
        search, Chen & Asau, AIIE Trans. 6, 1974; see ``guide_table``)."""
        if self._guide is None:
            self._guide = guide_table(self.cumulative_table(), _GUIDE_SIZE)
        return guided_search(self._cum, self._guide, u)

    # -- diagnostics -------------------------------------------------------

    def normalization(self, j: int, T: float) -> tuple[float, float]:
        """``(c_j, f_j(T))`` with ``c_j = Gamma(beta+1)^j / Gamma(j(beta+1))``
        and ``f_j(T) = T^(j beta + j - 1) ell(T)^j``: the variance of the
        generation-j counts at time e^T grows like ``c_j f_j(T)``.
        NumericalError when either leaves the float range."""
        j = check_whole("generation", j, 1)
        T = check_real("T", T, 1.0, strict=True)
        try:
            c = math.gamma(self.beta + 1.0) ** j / math.gamma(j * (self.beta + 1.0))
            f = T ** (j * self.beta + j - 1.0) * self.ell_at(T) ** j
            if math.isfinite(f):
                return c, f
        except OverflowError:
            pass
        raise NumericalError(f"the generation-{j} normalization at T={T!r} leaves the float range")

    def ell_at(self, y: float) -> float:
        """The slowly varying part ell(y): 1/alpha (weibull-like), y/log(1/p)
        (geometric), 1 (finite)."""
        if self.kind == "weibull":
            return 1.0 / self.alpha
        if self.kind == "geometric":
            return y / -math.log(self.p)
        return 1.0

    def dehaan_profile(
        self, lambdas: Sequence[float], times: Sequence[float]
    ) -> list[tuple[float, float, float]]:
        """Rows (lambda, t, (rho(lambda*t) - rho(t)) / ((log t)^beta * ell(log t))).

        For families in the de Haan class the ratio approaches log(lambda);
        the geometric family's constant auxiliary function makes it decay to
        0 instead.  Diagnostic only — no verdict is computed.
        """
        lambdas = check_grid("lambdas", lambdas, 0.0, strict=True, size=0).tolist()
        rows = []
        for t in check_grid("times", times, 1.0, strict=True, size=0).tolist():
            logt = math.log(t)
            denom = logt**self.beta * self.ell_at(logt)
            for lam in lambdas:
                ratio = (self.rho(lam * t) - self.rho(t)) / denom
                rows.append((lam, t, float(ratio)))
        return rows
