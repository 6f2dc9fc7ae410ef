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
* ``finite(probs)``: explicit normalized list, **test-only** — used by
  brute-force oracles.  It violates the standing assumption that infinitely
  many weights are positive.

Families are immutable after construction (internal lookup tables are lazy
but idempotent), so they can be shared freely across worker processes.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ValidationError
from .kernels import AsymptoticParams

__all__ = ["WeightFamily"]

_TABLE_TOL = 2.0**-53
_GUIDE_SIZE = 2**16  # buckets of the inverse-CDF guide table


@functools.lru_cache(maxsize=None)
def _weibull_normalizer(alpha: float) -> tuple[float, int]:
    """(C_alpha, K) with 1/C_alpha = sum_{k<=K} exp(-k**alpha) and the
    integral tail beyond K below 1e-15."""
    k = _weibull_tail_cut(alpha, 1e-15)
    ks = np.arange(1, k + 1, dtype=float)
    s = float(np.sum(np.exp(-(ks**alpha))))
    return 1.0 / s, k


def _weibull_integral_tail(alpha: float, k: int) -> float:
    """integral_k^infty exp(-x**alpha) dx = Gamma(1/alpha)/alpha * Q(1/alpha, k**alpha),
    an upper bound for sum_{i>k} exp(-i**alpha)."""
    if k <= 0:
        # crude but valid: full integral plus the k=0 step
        return math.gamma(1.0 / alpha) / alpha + 1.0
    from scipy.special import gammaincc  # imported where it runs: it is slow to load

    return math.gamma(1.0 / alpha) / alpha * float(gammaincc(1.0 / alpha, float(k) ** alpha))


def _weibull_tail_cut(alpha: float, threshold: float) -> int:
    """Smallest k with the unnormalized integral tail <= threshold."""
    lo, hi = 0, 1
    while _weibull_integral_tail(alpha, hi) > threshold:
        lo, hi = hi, hi * 2
        if hi > 2**40:
            raise ValidationError("tail threshold unreachable")  # pragma: no cover
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _weibull_integral_tail(alpha, mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


class WeightFamily:
    """A discrete weight sequence with counting function and tail bounds.

    Use the classmethod constructors; the raw ``__init__`` is internal.
    """

    def __init__(self, kind, *, alpha=None, p=None, probs=None):
        self.kind = kind
        self.alpha = alpha
        self.p = p
        self.test_only = False
        if kind == "weibull":
            if not (alpha is not None and 0.0 < alpha < 1.0):
                raise ValidationError(f"weibull-like needs alpha in (0,1), got {alpha}")
            self.normalizer, self._norm_terms = _weibull_normalizer(float(alpha))
            self.beta = 1.0 / alpha - 1.0
            self.ell = 1.0 / alpha
            self.ell_description = f"constant 1/alpha = {1.0 / alpha:g}"
            self.probs = None
        elif kind == "geometric":
            if not (p is not None and 0.0 < p < 1.0):
                raise ValidationError(f"geometric needs p in (0,1), got {p}")
            self.normalizer = 1.0
            self.beta = 0.0
            logq = math.log(1.0 / p)
            self.ell = lambda y: y / logq
            self.ell_description = f"y / log(1/p), log(1/p) = {logq:g} (unbounded)"
            self.probs = None
        elif kind == "finite":
            arr = np.asarray(probs, dtype=float)
            if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr) & (arr > 0.0)):
                raise ValidationError(
                    f"finite family needs a nonempty list of finite positive weights, got {probs}"
                )
            total = float(arr.sum())
            self.normalizer = 1.0 / total
            self.probs = arr / total
            self._suffix = np.concatenate(
                [np.cumsum(self.probs[::-1])[::-1][1:], [0.0]]
            )
            self.beta = 0.0
            self.ell = 1.0
            self.ell_description = "1 (finite test-only family)"
            self.test_only = True
        else:
            raise ValidationError(f"unknown family kind {kind!r}")
        self._cum = None
        self._guide = None
        self._w = np.empty(0)

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
        """p_k for 1-based index k (scalar or array).  Finite families
        return 0.0 beyond their support."""
        arr = np.asarray(k)
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
        K = int(K)
        if K > self._w.size:
            grow = max(K, 2 * self._w.size, 64)
            w = np.atleast_1d(self.weight(np.arange(1, grow + 1)))
            w.setflags(write=False)
            self._w = w
        return self._w[:K]

    def rho(self, t: float) -> int:
        """Counting function rho(t) = #{k : p_k >= 1/t}.

        Closed forms are used for the built-in infinite families
        (floor((log(C*t))**(1/alpha)) for weibull-like, the analogous log
        ratio for geometric), then nudged by +-1 against the exact
        inequality to absorb float boundary dust.
        """
        if not (math.isfinite(t) and t > 0.0):
            raise ValidationError(f"rho needs a finite t > 0, got {t}")
        if t < 1.0:
            return 0
        if self.kind == "finite":
            return int(np.count_nonzero(self.probs >= 1.0 / t))
        if self.kind == "weibull":
            x = math.log(self.normalizer) + math.log(t)
            guess = int(x ** (1.0 / self.alpha)) if x > 0.0 else 0
        else:
            x = math.log(t) + math.log1p(-self.p)
            guess = int(1.0 + x / math.log(1.0 / self.p)) if x >= 0.0 else 0
        thr = 1.0 / t
        while guess >= 1 and self.weight(guess) < thr:
            guess -= 1
        while self.weight(guess + 1) >= thr:
            guess += 1
        return guess

    def tail_mass_bound(self, K: int) -> float:
        """Upper bound on sum_{k>K} p_k, nonincreasing in K.

        Exact for geometric (p**K) and finite families (suffix sum); the
        weibull-like bound is the integral comparison
        ``C_alpha * integral_K^infty exp(-x**alpha) dx``.
        """
        try:
            K = int(K)
        except (OverflowError, ValueError) as exc:
            raise ValidationError(f"tail_mass_bound needs a finite K, got {K}") from exc
        if K < 0:
            raise ValidationError("tail_mass_bound needs K >= 0")
        if K == 0:
            return 1.0
        if self.kind == "geometric":
            return self.p**K
        if self.kind == "finite":
            return float(self._suffix[K - 1]) if K <= self.probs.size else 0.0
        return min(1.0, self.normalizer * _weibull_integral_tail(self.alpha, K))

    def tail_index(self, threshold: float) -> int:
        """Smallest K >= 0 with tail_mass_bound(K) <= threshold."""
        if threshold >= 1.0:
            return 0
        if not threshold >= 0.0:
            raise ValidationError(f"tail threshold must be >= 0, got {threshold}")
        if self.kind == "finite":
            # support is short; linear scan is simplest and exact
            for K in range(self.probs.size + 1):
                if self.tail_mass_bound(K) <= threshold:
                    return K
            return self.probs.size
        if threshold <= 0.0:
            raise ValidationError(
                "infinite families cannot reach tail mass 0; threshold must be > 0"
            )
        lo, hi = 0, 1
        while self.tail_mass_bound(hi) > threshold:
            lo, hi = hi, hi * 2
            if hi > 2**48:  # pragma: no cover - guards absurd budgets
                raise ValidationError("tail threshold unreachably small")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.tail_mass_bound(mid) <= threshold:
                hi = mid
            else:
                lo = mid
        return hi

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

    def asymptotic_params(self, j: int) -> AsymptoticParams:
        return AsymptoticParams(beta=self.beta, j=int(j), ell=self.ell)

    def ell_at(self, y: float) -> float:
        return self.ell(y) if callable(self.ell) else float(self.ell)

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
