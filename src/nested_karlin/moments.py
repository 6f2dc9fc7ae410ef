"""Exact finite-time moments by pruned enumeration over generation-j boxes.

Every expectation/covariance of the Poissonized scheme is a sum over the
(countably many) generation-j boxes r of a summand evaluated at the box
weight p_r.  The enumeration keeps a tensor product of box indices, cut at
depth d to the first K_d weights, and prunes with *certified* bounds: the
caller supplies ``scale``, a per-unit-weight Markov coefficient such that
the absolute contribution of any set of boxes of total weight m is at most
``scale * m`` (e.g. ``t/l`` for ``E K_t(l)`` since
``P{Poisson(pt) >= l} <= pt/l``).  The reported ``error_bound`` is
``scale`` times the mass cut away, which never exceeds the requested budget.

Per-depth cutoffs: with budget B, a non-terminal depth d may leave out the
weight tail beyond K_d up to B/(2^d scale) per unit of prefix weight, and
the terminal depth up to B/(2^(j-1) scale).  These shares add up to B, and
since the prefix weights at any depth sum to at most 1 the total certified
error stays within B.  So one ``tail_index`` search per depth fixes the
whole plan, and cost scales like the product of the K_d.

Sums stream over the box weights in blocks of at most ``_BLOCK`` elements
(slices of the outer product of the prefix weights with the terminal
weights), and the block sums are combined with math.fsum, so no
intermediate array ever holds the full box population.  The per-level
Poisson weights come from ``kernels.psi_table``, one ``exp`` per element.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ValidationError
from .kernels import binomial_tail, poisson_tail, psi, psi_table
from .weights import WeightFamily

__all__ = [
    "MomentEstimate",
    "BoxEnumeration",
    "enumerate_boxes",
    "mean_K",
    "mean_K_star",
    "mean_K_binomial",
    "cov_K_same",
    "cov_K_star_same",
    "cov_K_cross_level",
    "cov_K_cross_gen",
    "depoissonization_constant",
    "poisson_low",
]

_BOX_WARN = 20_000_000
# elements per block of box weights (and per 2-D cross-generation block)
_BLOCK = 2**15


@dataclass(frozen=True)
class MomentEstimate:
    """An exact truncated sum: |value - true sum| <= error_bound (certified)."""

    value: float
    error_bound: float
    boxes_enumerated: int
    prune_threshold: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.value:.12g} ± {self.error_bound:.3g} "
            f"({self.boxes_enumerated} boxes)"
        )


@dataclass
class BoxEnumeration:
    """Plan of the enumerated boxes: every r with r_d <= cutoffs[d-1] at each
    depth d.  chunks() yields their weights; tail_bound is the certified
    scaled bound on everything not enumerated."""

    family: WeightFamily
    j: int
    cutoffs: tuple
    boxes: int
    tail_bound: float

    def chunks(self, block: int = _BLOCK) -> Iterator[np.ndarray]:
        """Box weights in depth-first order, in 1-D blocks of at most
        ``block`` elements."""
        if not self.boxes:
            return
        *heads, last = [self.family.weight_prefix(k) for k in self.cutoffs]
        prefix = np.ones(1)
        for w in heads:
            prefix = np.multiply.outer(prefix, w).ravel()
        cols = min(last.size, block)
        rows = max(1, block // last.size)
        for r in range(0, prefix.size, rows):
            for c in range(0, last.size, cols):
                block_w = np.multiply.outer(prefix[r : r + rows], last[c : c + cols])
                yield block_w.ravel()


def _check_positive(name: str, x) -> None:
    if not (math.isfinite(x) and x > 0.0):
        raise ValidationError(f"{name} must be finite and > 0, got {x}")


def enumerate_boxes(
    family: WeightFamily,
    j: int,
    budget: float,
    scale: float,
    *,
    box_warn_threshold: int = _BOX_WARN,
) -> BoxEnumeration:
    """Certified enumeration of generation-j box weights.

    Guarantees ``tail_bound <= budget`` where tail_bound bounds
    ``scale * (total weight of boxes not enumerated)``; the caller's summand
    must be absolutely bounded by ``scale * p_r`` per box for this to be a
    certified truncation error.
    """
    j = int(j)
    if j < 1:
        raise ValidationError(f"generation must be >= 1, got {j}")
    _check_positive("prune budget", budget)
    _check_positive("scale", scale)
    cutoffs = []
    tail = 0.0
    mass = 1.0  # total weight of the depth-d prefixes
    for d in range(1, j + 1):
        k = family.tail_index(budget / (2.0 ** min(d, j - 1) * scale))
        tail += scale * mass * family.tail_mass_bound(k)
        mass *= math.fsum(family.weight_prefix(k))
        cutoffs.append(k)
    boxes = math.prod(cutoffs)
    if boxes > box_warn_threshold:
        warnings.warn(
            f"enumeration visits {boxes} generation-{j} boxes; "
            "consider a looser prune budget",
            stacklevel=2,
        )
    return BoxEnumeration(family, j, tuple(cutoffs), boxes, tail)


def poisson_low(l: int, m) -> np.ndarray:
    """P{Poisson(m) < l} = sum_{i<l} psi_i(m), summed directly so it stays
    accurate when it is tiny (the complement 1 - poisson_tail would not)."""
    return np.minimum(psi_table(l, m).sum(axis=0), 1.0)


def _check_level(l: int, name: str = "l") -> int:
    l = int(l)
    if l < 1:
        raise ValidationError(f"{name} must be >= 1, got {l}")
    return l


def _check_times(prune: float, *times) -> None:
    _check_positive("prune budget", prune)
    for x in times:
        if not (math.isfinite(x) and x >= 0.0):
            raise ValidationError(f"times must be finite and >= 0, got {x}")


def _box_sum(family, j, prune, scale, summand) -> MomentEstimate:
    """sum_r summand(p_r) over the certified plan; a zero scale (zero time)
    means an empty sum."""
    if scale == 0.0:
        return MomentEstimate(0.0, 0.0, 0, prune)
    enum = enumerate_boxes(family, j, prune, scale)
    value = math.fsum(float(np.sum(summand(c))) for c in enum.chunks())
    return MomentEstimate(value, enum.tail_bound, enum.boxes, prune)


def mean_K(family, j, l, t, *, prune: float = 1e-9) -> MomentEstimate:
    """E K_t^(j)(l) = sum_r P{Poisson(p_r t) >= l} (Poissonized scheme)."""
    l = _check_level(l)
    _check_times(prune, t)
    return _box_sum(family, j, prune, t / l, lambda c: poisson_tail(l, c * t))


def mean_K_star(family, j, l, t, *, prune: float = 1e-9) -> MomentEstimate:
    """E K*_t^(j)(l) = sum_r psi_l(p_r t) (exactly-l boxes)."""
    l = _check_level(l)
    _check_times(prune, t)
    return _box_sum(family, j, prune, t / l, lambda c: psi(l, c * t))


def mean_K_binomial(family, j, l, n, *, prune: float = 1e-9) -> MomentEstimate:
    """E 𝒦_n^(j)(l) for the deterministic scheme: sum_r P{Bin(n, p_r) >= l}."""
    l = _check_level(l)
    _check_times(prune, n)
    n = int(n)
    if n < l:
        return MomentEstimate(0.0, 0.0, 0, prune)
    return _box_sum(family, j, prune, n / l, lambda c: binomial_tail(n, c, l))


def cov_K_same(family, j, l, s, t, *, prune: float = 1e-9) -> MomentEstimate:
    """Cov(K_s^(j)(l), K_t^(j)(l)); the events nest across time, so the
    per-box term is tail(l, p*(s∧t)) * P{Poisson(p*(s∨t)) < l}."""
    l = _check_level(l)
    _check_times(prune, s, t)
    lo, hi = min(s, t), max(s, t)
    return _box_sum(
        family, j, prune, lo / l,
        lambda c: poisson_tail(l, c * lo) * poisson_low(l, c * hi),
    )


def cov_K_star_same(family, j, l, s, t, *, prune: float = 1e-9) -> MomentEstimate:
    """Cov(K*_s^(j)(l), K*_t^(j)(l)) =
    sum_r [psi_l(p(s∧t)) e^{-p|t-s|} - psi_l(ps) psi_l(pt)]."""
    l = _check_level(l)
    _check_times(prune, s, t)
    lo, hi = min(s, t), max(s, t)
    return _box_sum(
        family, j, prune, lo / l,
        lambda c: psi(l, c * lo) * np.exp(-c * (hi - lo))
        - psi(l, c * s) * psi(l, c * t),
    )


def cov_K_cross_level(family, j, l1, l2, s, t, *, prune: float = 1e-9) -> MomentEstimate:
    """Cov(K_s^(j)(l1), K_t^(j)(l2)) — level l1 observed at time s, level l2
    at time t.  Matches cov_K_same when l1 == l2.

    Internally normalized to s <= t (the covariance is symmetric under
    swapping the (level, time) pairs).  With s <= t and l1 >= l2 the events
    nest; otherwise the joint lower tail is a short psi-convolution: i < l1
    balls by time s and fewer than l2 - i more in (s, t].
    """
    l1, l2 = _check_level(l1, "l1"), _check_level(l2, "l2")
    _check_times(prune, s, t)
    if s > t:
        l1, l2, s, t = l2, l1, t, s

    def summand(c):
        low_t = poisson_low(l2, c * t)
        if l1 >= l2:
            return poisson_tail(l1, c * s) * low_t
        early = psi_table(l1, c * s)
        late = np.cumsum(psi_table(l2, c * (t - s)), axis=0)  # P{<= q} at q
        joint = sum(early[i] * late[l2 - 1 - i] for i in range(l1))
        return joint - early.sum(axis=0) * low_t

    return _box_sum(family, j, prune, min(s / l1, t / l2), summand)


def _binomial_pmfs(size: int, p: np.ndarray) -> np.ndarray:
    """pmf[m, k] = P{Bin(m, p) = k} for m, k < size, by Pascal's rule."""
    pmf = np.zeros((size, size) + p.shape)
    pmf[0, 0] = 1.0
    for m in range(1, size):
        pmf[m] = pmf[m - 1] * (1.0 - p)
        pmf[m, 1:] += pmf[m - 1, :-1] * p
    return pmf


def cov_K_cross_gen(
    family, i, j, l, n, s, t, *, prune: float = 1e-9, box_warn_threshold: int = _BOX_WARN
) -> MomentEstimate:
    """Cov(K_s^(i)(l), K_t^(j)(n)) across generations i < j.

    Thinning argument: conditioned on a generation-i box r1, each of its
    balls independently continues into a given generation-(j-i) suffix r2
    with probability p_{r2}, and fresh arrivals after the earlier snapshot
    are an independent Poisson stream.  The double sum over (r1, r2) is
    summed in 2-D blocks (outer weights p1 x inner weights p2); the outer
    enumeration has budget prune/2, and each outer box hands its
    weight-proportional share prune/2 * p_{r1} to the inner enumeration.
    """
    i, j = int(i), int(j)
    if not 1 <= i < j:
        raise ValidationError(f"need 1 <= i < j, got i={i}, j={j}")
    l, n = _check_level(l, "l"), _check_level(n, "n")
    _check_times(prune, s, t)
    if s == 0.0 or t == 0.0:
        return MomentEstimate(0.0, 0.0, 0, prune)
    outer = enumerate_boxes(
        family, i, prune / 2.0, t / n, box_warn_threshold=box_warn_threshold
    )
    # Inner cutoffs do not depend on the outer weight p1 (budget and scale are
    # both proportional to p1), so one inner plan serves every outer box; its
    # tail bound enters scaled by p1, and sum(p1) <= 1 keeps the total within
    # budget.
    inner = enumerate_boxes(
        family, j - i, prune / 2.0, t / n, box_warn_threshold=box_warn_threshold
    )
    rows = _BLOCK // max(1, min(inner.boxes, _BLOCK))
    sums: list = []
    outer_mass = 0.0
    for p1 in outer.chunks(rows):
        outer_mass += float(np.sum(p1))
        low_s = poisson_low(l, p1 * s)[:, None]
        if t >= s:  # m < l balls in r1 at s
            held = psi_table(l, p1 * s)
        else:  # k < l balls in r1 at t, and fewer than l - k more by s
            held = psi_table(l, p1 * t) * np.cumsum(
                psi_table(l, p1 * (s - t)), axis=0
            )[::-1]
        for p2 in inner.chunks():
            x = np.multiply.outer(p1, p2)
            pmf = _binomial_pmfs(l, p2)  # k of r1's m balls continue into r2
            if t >= s:
                # r2 then needs fewer than n - k of the fresh balls in (s, t]
                fresh = np.cumsum(psi_table(n, x * (t - s)), axis=0)
                joint = sum(
                    fresh[n - 1 - k] * np.einsum("mr,mc->rc", held, pmf[:, k])
                    for k in range(min(l, n))
                )
            else:
                joint = np.einsum("kr,kc->rc", held, pmf[:, :n].sum(axis=1))
            sums.append(float(np.sum(joint - low_s * poisson_low(n, x * t))))
    boxes = outer.boxes * (1 + inner.boxes)
    if boxes > box_warn_threshold:
        warnings.warn(
            f"cross-generation enumeration visited {boxes} boxes", stacklevel=2
        )
    return MomentEstimate(
        value=math.fsum(sums),
        error_bound=outer.tail_bound + outer_mass * inner.tail_bound,
        boxes_enumerated=boxes,
        prune_threshold=prune,
    )


def depoissonization_constant(l: int) -> float:
    """Uniform bound on |E K_t^(j)(l) - E 𝒦_⌊t⌋^(j)(l)|:
    ``1 + sum_{i<l} max(A_i, B_i)`` with ``A_0 = 0``, ``A_i = i^i/(i-1)!``,
    ``B_0 = e^{-1}``, ``B_1 = 4 e^{-2}`` and for i >= 2
    ``B_i = (i+1)^{i+1} e^{-(i+1)}/i! + (i-1)^{i-1} e^{-(i-1)}/(2 (i-2)!)``.

    For l = 1 this is 1 + e^{-1} ≈ 1.3679.
    """
    l = _check_level(l)
    total = 1.0
    for i in range(l):
        if i == 0:
            a_i, b_i = 0.0, math.exp(-1.0)
        elif i == 1:
            a_i, b_i = 1.0, 4.0 * math.exp(-2.0)
        else:
            a_i = math.exp(i * math.log(i) - math.lgamma(i))
            b_i = math.exp(
                (i + 1) * math.log(i + 1.0) - (i + 1) - math.lgamma(i + 1)
            ) + math.exp(
                (i - 1) * math.log(i - 1.0) - (i - 1) - math.lgamma(i - 1) - math.log(2.0)
            )
        total += max(a_i, b_i)
    return total
