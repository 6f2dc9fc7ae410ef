"""Weight families (p_k): construction, counting function, tails, de Haan profile.

A weight family is the box-probability sequence shared by every generation of
the nested scheme.  Three kinds are built in:

* ``weibull_like(alpha)``: ``p_k = C_alpha * exp(-k**alpha)``, ``0 < alpha < 1``.
  The normalizer ``C_alpha`` is computed once at construction by summing
  ``exp(-k**alpha)`` until the integral tail estimate drops below 1e-15 and
  inverting the partial sum.  (Consequence: partial sums of ``p_k`` can
  exceed 1 by at most ~1e-15; no canonical closed form exists.)  Index of
  regular variation ``beta = 1/alpha - 1``, slowly varying part the constant
  ``1/alpha``.
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
(the counting function, the tail cuts) is answered by one search, ``_first``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ValidationError, check_whole

__all__ = ["WeightFamily"]

_TABLE_TOL = 2.0**-53
_GUIDE_SIZE = 2**16  # buckets of the inverse-CDF guide table


@functools.lru_cache(maxsize=None)
def _weibull_normalizer(alpha: float) -> float:
    """C_alpha with 1/C_alpha = sum_{k<=K} exp(-k**alpha), K the first cut
    with the integral tail beyond it below 1e-15."""
    K = _first(lambda k: _weibull_integral_tail(alpha, k) <= 1e-15, 2**40)
    ks = np.arange(1, K + 1, dtype=float)
    return 1.0 / float(np.sum(np.exp(-(ks**alpha))))


def _weibull_integral_tail(alpha: float, k: int) -> float:
    """integral_k^infty exp(-x**alpha) dx = Gamma(1/alpha)/alpha * Q(1/alpha, k**alpha),
    an upper bound for sum_{i>k} exp(-i**alpha)."""
    if k <= 0:
        # crude but valid: full integral plus the k=0 step
        return math.gamma(1.0 / alpha) / alpha + 1.0
    from scipy.special import gammaincc  # imported where it runs: it is slow to load

    return math.gamma(1.0 / alpha) / alpha * float(gammaincc(1.0 / alpha, float(k) ** alpha))


def _first(pred, limit) -> int:
    """Smallest k >= 0 with ``pred(k)``, for a ``pred`` that stays true once
    it turns true: k = 0 first, then doubling and bisection.  Raises
    ValidationError when it is still false past ``limit``."""
    if pred(0):
        return 0
    lo, hi = 0, 1
    while not pred(hi):
        if hi >= limit:
            raise ValidationError("tail threshold unreachably small")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


class WeightFamily:
    """A discrete weight sequence with counting function and tail bounds.

    Use the classmethod constructors; the raw ``__init__`` is internal.
    """

    def __init__(self, kind, alpha=None, p=None, probs=None):
        self.kind = kind
        self.alpha = alpha
        self.p = p
        if kind == "weibull":
            if not (alpha is not None and 0.0 < alpha < 1.0):
                raise ValidationError(f"weibull-like needs alpha in (0,1), got {alpha}")
            self.normalizer = _weibull_normalizer(float(alpha))
            self.beta = 1.0 / alpha - 1.0
            self.probs = None
        elif kind == "geometric":
            if not (p is not None and 0.0 < p < 1.0):
                raise ValidationError(f"geometric needs p in (0,1), got {p}")
            self.normalizer = 1.0
            self.beta = 0.0
            self.probs = None
        elif kind == "finite":
            arr = np.asarray(probs, dtype=float)
            if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr) & (arr > 0.0)):
                raise ValidationError(
                    f"finite family needs a nonempty list of finite positive weights, got {probs}"
                )
            # the weights as given: normalizing the normalized ones again
            # could move their last bits
            probs = tuple(arr.tolist())
            total = float(arr.sum())
            self.normalizer = 1.0 / total
            self.probs = arr / total
            self._suffix = np.concatenate(
                [np.cumsum(self.probs[::-1])[::-1][1:], [0.0]]
            )
            self.beta = 0.0
        else:
            raise ValidationError(f"unknown family kind {kind!r}")
        self._spec = (kind, alpha, p, probs)
        self._cum = None
        self._guide = None
        self._w = np.empty(0)

    def __reduce__(self):
        """Pickle the spec the family was built from, not its lookup tables."""
        return WeightFamily, self._spec

    # -- constructors ------------------------------------------------------

    @classmethod
    def weibull_like(cls, alpha: float) -> "WeightFamily":
        return cls("weibull", alpha=float(alpha))

    @classmethod
    def geometric(cls, p: float) -> "WeightFamily":
        return cls("geometric", p=float(p))

    @classmethod
    def finite(cls, probs: Iterable[float]) -> "WeightFamily":
        return cls("finite", probs=list(probs))

    @classmethod
    def from_spec(cls, kind: str, *, alpha=None, p=None, probs=()) -> "WeightFamily":
        """The family a spec names, as the CLI flags and ExperimentConfig
        give it; only the parameter of ``kind`` is read."""
        if kind == "weibull":
            return cls.weibull_like(alpha)
        if kind == "geometric":
            return cls.geometric(p)
        if kind == "finite":
            return cls.finite(probs)
        raise ValidationError(f"unknown family kind {kind!r}")

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
            grow = max(K, 2 * self._w.size, 64)
            w = np.atleast_1d(self.weight(np.arange(1, grow + 1)))
            w.setflags(write=False)
            self._w = w
        return self._w[:K]

    def rho(self, t: float) -> int:
        """Counting function rho(t) = #{k : p_k >= 1/t}: a count over the
        weights of a finite family, otherwise the first k with p_{k+1} < 1/t
        (the weights decrease)."""
        if not (math.isfinite(t) and t > 0.0):
            raise ValidationError(f"rho needs a finite t > 0, got {t}")
        thr = 1.0 / t
        if self.kind == "finite":
            return int(np.count_nonzero(self.probs >= thr))
        return _first(lambda k: self.weight(k + 1) < thr, math.inf)

    def tail_mass_bound(self, K: int) -> float:
        """Upper bound on sum_{k>K} p_k, nonincreasing in K.

        Exact for geometric (p**K) and finite families (suffix sum); the
        weibull-like bound is the integral comparison
        ``C_alpha * integral_K^infty exp(-x**alpha) dx``.
        """
        K = check_whole("tail_mass_bound K", K, 0)
        if K == 0:
            return 1.0
        if self.kind == "geometric":
            return self.p**K
        if self.kind == "finite":
            return float(self._suffix[K - 1]) if K <= self.probs.size else 0.0
        return min(1.0, self.normalizer * _weibull_integral_tail(self.alpha, K))

    def tail_index(self, threshold: float) -> int:
        """Smallest K >= 0 with tail_mass_bound(K) <= threshold."""
        if not threshold >= 0.0:
            raise ValidationError(f"tail threshold must be >= 0, got {threshold}")
        if threshold <= 0.0 and self.kind != "finite":
            raise ValidationError(
                "infinite families cannot reach tail mass 0; threshold must be > 0"
            )
        return _first(lambda K: self.tail_mass_bound(K) <= threshold, 2**48)

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
        ``u`` in [0, 1), through a guide table (indexed search, Chen & Asau,
        AIIE Trans. 6, 1974).

        Bucket b holds the draws in [b/2**16, (b+1)/2**16); ``u * 2**16`` and
        its floor are exact, so a bucket that no table entry falls inside
        answers with the count of entries <= b/2**16.  Buckets that an entry
        falls inside hold -1, and their draws fall back to the binary search.
        """
        if self._guide is None:
            cum = self.cumulative_table()
            guide = np.searchsorted(cum, np.arange(_GUIDE_SIZE) / _GUIDE_SIZE, side="right")
            guide[(cum[cum < 1.0] * _GUIDE_SIZE).astype(np.intp)] = -1
            guide.setflags(write=False)
            self._guide = guide
        out = self._guide.take((u * _GUIDE_SIZE).astype(np.intp))
        miss = np.flatnonzero(out < 0)
        if miss.size:
            out.reshape(-1)[miss] = np.searchsorted(
                self._cum, np.reshape(u, -1)[miss], side="right"
            )
        return out

    # -- diagnostics -------------------------------------------------------

    def normalization(self, j: int, T: float) -> tuple[float, float]:
        """``(c_j, f_j(T))`` with ``c_j = Gamma(beta+1)^j / Gamma(j(beta+1))``
        and ``f_j(T) = T^(j beta + j - 1) ell(T)^j``: the variance of the
        generation-j counts at time e^T grows like ``c_j f_j(T)``."""
        j = check_whole("generation", j, 1)
        if not 1.0 < T < math.inf:
            raise ValidationError(f"normalizations need a finite T > 1, got {T}")
        c = math.gamma(self.beta + 1.0) ** j / math.gamma(j * (self.beta + 1.0))
        return c, T ** (j * self.beta + j - 1.0) * self.ell_at(T) ** j

    def ell_at(self, y: float) -> float:
        """The slowly varying part ell(y): 1/alpha (weibull-like), y/log(1/p)
        (geometric), 1 (finite)."""
        if self.kind == "weibull":
            return 1.0 / self.alpha
        if self.kind == "geometric":
            return y / math.log(1.0 / self.p)
        return 1.0

    def dehaan_profile(
        self, lambdas: Sequence[float], ts: Sequence[float]
    ) -> list[tuple[float, float, float]]:
        """Rows (lambda, t, (rho(lambda*t) - rho(t)) / ((log t)^beta * ell(log t))).

        For families in the de Haan class the ratio approaches log(lambda);
        the geometric family's constant auxiliary function makes it decay to
        0 instead.  Diagnostic only — no verdict is computed.
        """
        rows = []
        for t in ts:
            if t <= 1.0:
                raise ValidationError("profile requires t > 1")
            logt = math.log(t)
            denom = logt**self.beta * self.ell_at(logt)
            for lam in lambdas:
                if lam <= 0.0:
                    raise ValidationError("profile requires lambda > 0")
                ratio = (self.rho(lam * t) - self.rho(t)) / denom
                rows.append((float(lam), float(t), float(ratio)))
        return rows
