"""Exact finite-time moments by certified sums over generation-j boxes.

Every expectation/covariance of the Poissonized scheme is a sum over the
(countably many) generation-j boxes r of a summand evaluated at the box
weight p_r.  One engine, ``enumerate_boxes``, splits the boxes at a
threshold on x_r = p_r * rate, where the rate is the summand's largest time
(or the ball count n for the fixed-n scheme):

* Active boxes, x_r >= ``_ETA``, are summed directly.  A recursion over
  box prefixes finds them: a prefix q at depth d keeps the children k with
  q * p_k >= ``_ETA``/rate, one ``searchsorted`` per depth over the
  descending weight table, so it never visits a prefix lighter than the
  threshold.  The active boxes stream in blocks of at most ``_BLOCK``; a
  plan of more than ``_MAX_BOXES`` boxes at any depth is refused before
  any of them is formed.
* Every other box enters through the summand's Taylor series in x,
  sum_{m <= _ORDER} c_m U_m, where U_m = sum_r x_r^m over those boxes.  U_m
  is assembled from positive terms only: a live prefix q at depth d with K
  live children adds (rate q)^m R_m(K) S_m^(j-d-1), where R_m(K) is the
  reverse cumulative power sum sum_{k>K} p_k^m of the table and S_m =
  R_m(0).  The table's power sums are stored in blocks scaled by an anchor
  weight, so every power is formed as a product (rate q p)^m <= _ETA^m
  times a sum of ratios <= 1; nothing overflows or underflows for any
  finite rate, up to the largest float.

The certified ``error_bound`` adds two terms.  The series remainder: for
the single alternating tails (the Poisson and the binomial tail, whose
terms shrink by a factor below x < ``_ETA``) the first omitted term, and
for the covariance products a majorant series of absolute coefficients,
both as a factor times U_{_ORDER+1}.  The table cut: the caller supplies
``scale``, a per-unit-weight Markov coefficient such that any set of boxes
of total weight m contributes at most ``scale * m`` (e.g. ``t/l`` for
``E K_t(l)`` since ``P{Poisson(pt) >= l} <= pt/l``), and the boxes with a
coordinate beyond the table's cut weigh at most j times its tail mass.  The
cut takes half the budget, and the series remainder must fit in the other
half, so the bound never exceeds ``prune``.

One covariance, ``cov_K_cross_gen``, covers the whole count matrix: any
generations 1 <= i <= j, levels and times.  Its summand, ``_pair_cov``, is a
box r1 at time s and a box r1 r2 below it at time t, their ball counts split
into independent Poisson counts.  It sums the pairs (r1, r2) of a
generation-i box and a generation-(j-i) suffix over one plan, split at
depth i: the active generation-j boxes r1 r2 directly, the inactive
suffixes of each active r1 by a series whose coefficients depend on r1, and
the inactive r1 by a 1-D series over the generation-i power sums (see its
docstring).  At i = j the suffix is empty (p2 = 1, one box at two times),
so is the middle term, and the (level, time) pairs are ordered once.

The three moments here are of the at-least counts K; an exact-count moment
is their combination by K*(l) = K(l) - K(l+1) (``harness._star_terms``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NumericalError, ValidationError, check_real, check_whole
# psi, no longer called here, stays importable for perfbench/trace_cli.py
from .kernels import binomial_tail, poisson_low, poisson_tail, psi, psi_table  # noqa: F401
from .weights import WeightFamily

__all__ = [
    "MomentEstimate",
    "BoxPlan",
    "enumerate_boxes",
    "mean_K",
    "mean_K_binomial",
    "cov_K_cross_gen",
    "depoissonization_constant",
]

# elements per block of box weights
_BLOCK = 2**15
# a plan with more active boxes than this at any depth is refused
_MAX_BOXES = 2**30
# boxes with p_r * rate >= _ETA are summed directly, the rest by the series
_ETA = 0.1
# the series keeps the powers x^1 .. x^_ORDER; _EXTRA more majorant
# coefficients certify the remainder
_ORDER = 16
_EXTRA = 20
_SIZE = _ORDER + _EXTRA + 1
_POWERS = np.arange(1, _ORDER + 2)
# the table's power sums are scaled within blocks spanning at most this many
# binary orders of magnitude, so (p / anchor)^m stays a normal float
_ANCHOR_BITS = 960 // (_ORDER + 1)
_FACTORIAL = np.array([math.factorial(m) for m in range(_SIZE)], dtype=float)


@dataclass(frozen=True)
class MomentEstimate:
    """An exact truncated sum: |value - true sum| <= error_bound (certified)."""

    value: float
    error_bound: float
    boxes_enumerated: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.value:.12g} ± {self.error_bound:.3g} "
            f"({self.boxes_enumerated} boxes)"
        )


@dataclass(frozen=True)
class _Series:
    """Taylor coefficients of a summand in x = p * rate up to x^(_SIZE-1):
    ``coef`` signed, ``major`` upper bounds on the absolute coefficients of
    a majorant series, and ``whole`` an upper bound on the majorant's value
    at x = 1.  ``alternating`` marks a single tail whose terms alternate and
    shrink in magnitude for 0 <= x < 1."""

    coef: np.ndarray
    major: np.ndarray
    whole: float
    alternating: bool = False

    def __add__(self, other: "_Series") -> "_Series":
        return _Series(self.coef + other.coef, self.major + other.major,
                       self.whole + other.whole)

    def __sub__(self, other: "_Series") -> "_Series":
        return _Series(self.coef - other.coef, self.major + other.major,
                       self.whole + other.whole)

    def __mul__(self, other: "_Series") -> "_Series":
        return _Series(np.convolve(self.coef, other.coef)[:_SIZE],
                       np.convolve(self.major, other.major)[:_SIZE],
                       self.whole * other.whole)

    def remainder_factor(self) -> float:
        """F with |sum_{m > _ORDER} c_m x^m| <= F x^(_ORDER+1) for 0 <= x <= _ETA:
        the first nonzero omitted term of an alternating series, otherwise
        the majorant's omitted terms (those past x^(_SIZE-1) by ``whole``)."""
        rest = self.major[_ORDER + 1:] * _ETA ** np.arange(_EXTRA)
        if self.alternating and np.any(rest):
            return float(rest[np.flatnonzero(rest)[0]])
        return float(rest.sum()) + _ETA**_EXTRA * self.whole


def _signed(coef: np.ndarray, whole: float, alternating: bool = True) -> _Series:
    return _Series(coef, np.abs(coef), whole, alternating)


_ONE = _signed(np.eye(1, _SIZE)[0], 1.0, False)


@functools.lru_cache(maxsize=None)
def _at_least_signs(l: int) -> np.ndarray:
    """(-1)^(m-l) C(m-1, l-1) for m = l .. _SIZE-1, read-only: it is cached."""
    out = np.array([(-1.0) ** (m - l) * math.comb(m - 1, l - 1) for m in range(l, _SIZE)])
    out.setflags(write=False)
    return out


def _at_least_series(l: int, rho: float) -> _Series:
    """P{Poisson(rho x) >= l} = sum_{m>=l} (-1)^(m-l) C(m-1, l-1) (rho x)^m / m!;
    its majorant at 1 is at most sum_m 2^(m-1) rho^m / m! <= (e^(2 rho) - 1) / 2."""
    m = np.arange(l, _SIZE)
    coef = np.zeros(_SIZE)
    coef[l:] = _at_least_signs(l)
    coef[l:] *= rho**m / _FACTORIAL[l:]
    return _signed(coef, math.expm1(2.0 * rho) / 2.0)


def _below_series(l: int, rho: float) -> _Series:
    """P{Poisson(rho x) < l}."""
    return _ONE - _at_least_series(l, rho)


def _binomial_series(n: int, l: int) -> _Series:
    """P{Bin(n, p) >= l} = sum_{m=l}^n (-1)^(m-l) C(m-1, l-1) C(n, m) p^m in
    x = n p: the Poisson tail's coefficients times C(n, m) m! / n^m =
    prod_{i<m} (1 - i/n), which is <= 1 and 0 for m > n."""
    falling = np.cumprod(np.concatenate([[1.0], 1.0 - np.arange(_SIZE - 1) / n]))
    return _signed(_at_least_series(l, 1.0).coef * falling, math.expm1(2.0) / 2.0)


def _power_table(w: np.ndarray) -> tuple:
    """(anchor, rsum) for the descending weights w: sum_{k>K} w_k^m =
    anchor[K]^m * rsum[m-1, K] for K < w.size and m = 1 .. _ORDER+1.  Each
    block of weights within 2^_ANCHOR_BITS of its first entry (the anchor)
    holds reverse cumulative sums of (w_k / anchor)^m, plus the later blocks
    carried over in units of its anchor."""
    octave = np.floor((math.log2(w[0]) - np.log2(w)) / _ANCHOR_BITS)
    first = np.flatnonzero(np.diff(octave, prepend=-1.0))
    ends = np.append(first[1:], w.size)
    anchor = np.repeat(w[first], ends - first)
    rsum = (w / anchor) ** _POWERS[:, None]
    for a, b in zip(first[::-1], ends[::-1]):
        block = np.cumsum(rsum[:, a:b][:, ::-1], axis=1)[:, ::-1]
        if b < w.size:
            block += ((w[b] / w[a]) ** _POWERS * rsum[:, b])[:, None]
        rsum[:, a:b] = block
    return anchor, rsum


def _children(live: np.ndarray, count: np.ndarray, w: np.ndarray) -> Iterator[tuple]:
    """(parent, weight) blocks of at most _BLOCK children: live[i] * w[k] for
    k < count[i], in depth-first order, with i as the parent index."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    for g0 in range(0, total, _BLOCK):
        g = np.arange(g0, min(g0 + _BLOCK, total))
        parent = np.searchsorted(ends, g, side="right")
        yield parent, live[parent] * w[g - (ends[parent] - count[parent])]


@dataclass(frozen=True)
class BoxPlan:
    """The ``boxes`` active boxes (p_r * rate >= _ETA) stream from ``blocks()``.
    ``u[m-1]`` sums x^m, x = p * rate, m = 1 .. _ORDER+1, over the inactive
    depth-``split`` prefixes.  ``ancestors`` holds the weights of the active
    ones (none when split = j) and ``below[m-1, a]`` the power sums over the
    inactive generation-j descendants of ancestor a.
    ``power_sums[m-1]`` is S_m = sum of p^m over the table, and ``cut_bound``
    bounds the boxes beyond the table's cut.  ``weights`` is the cut table in
    descending order.  ``depths[d]`` is ``(live, count)`` at depth d < j: the
    weights of the active depth-d prefixes (the root alone at d = 0, none
    when even the root is below the threshold) and the number of active
    children of each, its first ``count`` entries of ``weights``.  Children
    are laid out parent after parent, so the active depth-(d+1) prefix i has
    parent ``np.repeat(np.arange(live.size), count)[i]``."""

    boxes: int
    u: np.ndarray
    ancestors: np.ndarray
    below: np.ndarray
    power_sums: np.ndarray
    cut_bound: float
    weights: np.ndarray
    depths: tuple
    _owner: np.ndarray | None  # None when split = j

    def blocks(self) -> Iterator[tuple]:
        """(weights, ancestor weights) of the active boxes, depth-first, in
        blocks of at most ``_BLOCK``; at split = j each box is its own
        depth-``split`` ancestor."""
        if self.depths:  # none when the table is empty
            live, count = self.depths[-1]
            for parent, weights in _children(live, count, self.weights):
                yield weights, (weights if self._owner is None
                                else self.ancestors[self._owner[parent]])


def enumerate_boxes(family: WeightFamily, j: int, prune: float, scale: float,
                    rate: float, *, split: int | None = None) -> BoxPlan:
    """The active-set plan of the generation-j boxes at ``rate``, split at
    depth ``split`` (default j).  The table is cut so that ``cut_bound``,
    ``scale`` times the weight of the boxes with a coordinate beyond the cut,
    is at most ``prune / 2``.  Raises ``NumericalError`` when any depth holds
    more than ``_MAX_BOXES`` active prefixes, before forming them."""
    j = check_whole("generation", j, 1)
    split = j if split is None else min(check_whole("split depth", split, 1), j)
    prune, scale, rate = (check_real(name, x, 0.0, strict=True)
                          for name, x in (("prune", prune), ("scale", scale), ("rate", rate)))
    # the boxes with a coordinate beyond the cut weigh at most
    # tail * sum_{d<j} mass^d, and each unit of weight costs at most scale;
    # dividing by scale last keeps the threshold nonzero up to the float range
    cut = family.tail_index(prune / (2.0 * j) / scale)
    table = family.weight_prefix(cut)
    mass = math.fsum(table)
    cut_bound = scale * family.tail_mass_bound(cut) * sum(mass**d for d in range(j))
    w = np.sort(table[table > 0.0])[::-1]
    u = np.zeros(_ORDER + 1)
    power_sums = np.zeros(_ORDER + 1)
    live, owner, count = np.ones(1), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    ancestors, below = live[:0], np.zeros((_ORDER + 1, 0))
    depths = []
    if w.size:
        anchor, rsum = _power_table(w)
        power_sums = w[0] ** _POWERS * rsum[:, 0]
        theta = _ETA / rate
        if theta > 1.0:  # even the root is below the threshold
            live, owner = live[:0], owner[:0]
            u += rate**_POWERS * power_sums**split
        for d in range(j):
            if d == split:
                ancestors, owner = live, np.arange(live.size)
                below = np.zeros((_ORDER + 1, live.size))
            count = np.searchsorted(-w, -theta / live, side="right")
            boxes = int(count.sum())  # before any child is formed
            if boxes > _MAX_BOXES:
                raise NumericalError(
                    f"{boxes} active generation-{d + 1} boxes exceed the limit "
                    f"{_MAX_BOXES}; use a smaller rate or generation"
                )
            depths.append((live, count))
            rest = np.flatnonzero(count < w.size)
            for i in range(0, rest.size, _BLOCK):
                sel = rest[i : i + _BLOCK]
                k = count[sel]
                x = rate * live[sel] * anchor[k]
                terms = x ** _POWERS[:, None] * rsum[:, k]
                if d < split:
                    u += terms.sum(axis=1) * power_sums ** (split - d - 1)
                else:  # live is sorted by owner: one segment per ancestor
                    own = owner[sel]
                    starts = np.flatnonzero(np.diff(own, prepend=-1))
                    below[:, own[starts]] += (np.add.reduceat(terms, starts, axis=1)
                                              * power_sums[:, None] ** (j - d - 1))
            if d < j - 1:
                parts = list(_children(live, count, w))
                live = np.concatenate([np.empty(0), *(c for _, c in parts)])
                owner = np.concatenate([owner[:0], *(owner[p] for p, _ in parts)])
    return BoxPlan(int(count.sum()), u, ancestors, below, power_sums, cut_bound, w,
                   tuple(depths), owner if split < j else None)


def _certify(remainder: float, prune: float) -> float:
    if remainder > prune / 2.0:
        raise NumericalError(
            f"series remainder {remainder:.3g} exceeds half the budget {prune:g}"
        )
    return remainder


def _box_sum(family, j, prune, scale, rate, summand, series) -> MomentEstimate:
    """sum_r summand(p_r): directly over the boxes with p_r * rate >= _ETA,
    by ``series`` (Taylor coefficients in x = p * rate) over the others; a
    zero scale (zero time) means an empty sum."""
    if scale == 0.0:
        return MomentEstimate(0.0, 0.0, 0)
    plan = enumerate_boxes(family, j, prune, scale, rate)
    sums = [float(np.sum(summand(block))) for block, _ in plan.blocks()]
    sums += [float(c) * float(um) for c, um in zip(series.coef[1 : _ORDER + 1], plan.u)]
    remainder = _certify(series.remainder_factor() * float(plan.u[_ORDER]), prune)
    return MomentEstimate(math.fsum(sums), plan.cut_bound + remainder, plan.boxes)


def mean_K(family, j, l, t, *, prune: float = 1e-9) -> MomentEstimate:
    """E K_t^(j)(l) = sum_r P{Poisson(p_r t) >= l} (Poissonized scheme)."""
    l = check_whole("l", l, 1)
    prune, t = check_real("prune", prune, 0.0, strict=True), check_real("t", t, 0.0)
    return _box_sum(family, j, prune, t / l, t, lambda c: poisson_tail(l, c * t),
                    _at_least_series(l, 1.0))


def mean_K_binomial(family, j, l, n, *, prune: float = 1e-9) -> MomentEstimate:
    """E 𝒦_n^(j)(l) for the deterministic scheme: sum_r P{Bin(n, p_r) >= l}."""
    l = check_whole("l", l, 1)
    prune = check_real("prune", prune, 0.0, strict=True)
    n = check_whole("ball count n", n, 0)
    if n < l:
        return MomentEstimate(0.0, 0.0, 0)
    return _box_sum(family, j, prune, n / l, n, lambda c: binomial_tail(n, c, l),
                    _binomial_series(n, l))


def cross_level_order(l1, l2, s, t) -> tuple:
    """``(l1, l2, s, t)`` with the (level, time) pairs of a one-generation
    covariance in the order ``cov_K_cross_gen`` sums them at i = j: s <= t,
    and at s = t also l1 >= l2.  Both orders give the same covariance."""
    return (l2, l1, t, s) if (s, l2) > (t, l1) else (l1, l2, s, t)


def _pair_cov(p1, x, l, n, s, t) -> np.ndarray:
    """Cov(1{r1 holds >= l balls at s}, 1{r1 r2 holds >= n at t}) for boxes
    r1 of weight p1 and r1 r2 of weight x = p1 p2 below it, elementwise
    (p2 = 1 for one box at two times).  With lo = min(s, t), r1 holds A + B
    balls at s and r1 r2 holds A + F at t, for independent Poisson counts
    A, B, F of means x lo, p1 s - x lo and x (t - lo); so the covariance is
    P{A+B >= l} P{A+F < n} - sum_{a<n} P{A = a} P{B >= l - a} P{F < n - a}.
    Where B has mean 0 throughout (p2 = 1 and s <= t), P{B >= l - a} is
    1{a >= l}: the sum runs over l <= a < n only, and is empty for l >= n."""
    lo = min(s, t)
    # fl(x lo) <= fl(p1 s), as p2 <= 1, lo <= s and rounding is monotone:
    # every mean below is finite and >= 0
    rest = p1 * s - x * lo
    first = 0 if np.any(rest) else l
    joint = 0
    if first < n:
        held = psi_table(n, x * lo)
        fresh = np.cumsum(psi_table(n, x * (t - lo)), axis=0)  # P{F <= q} at q
        joint = sum(held[a] * poisson_tail(l - a, rest) * fresh[n - 1 - a]
                    for a in range(first, n))
    return poisson_tail(l, p1 * s) * poisson_low(n, x * t) - joint


def cov_K_cross_gen(family, i, j, l, n, s, t, *, prune: float = 1e-9) -> MomentEstimate:
    """Cov(K_s^(i)(l), K_t^(j)(n)) for generations i <= j.

    Thinning: a generation-i box r1 (weight p1) and a generation-(j-i) suffix
    r2 (weight p2) contribute ``_pair_cov``: Cov(1{A+B < l}, 1{A+F < n}) for
    independent Poisson counts A, B, F of means x lo, p1 s - x lo and
    x (t - lo), where x = p1 p2, lo = min(s, t) and hi = max(s, t).  In
    z = x hi this is
    sum_{q<l} P{Poisson(p1 s) < l - q} G_q(z), with L_k(y) = P{Poisson(y) < k},
    rho = lo/hi, sigma = (t - lo)/hi, G_0 = L_n(sigma z) - L_n(t z / hi) and
    G_q = (rho z)^q sum_{k <= min(q, n-1)} (-1)^(q-k) L_{n-k}(sigma z) / (k! (q-k)!).
    The G_q series, weighted per ancestor r1, cover the inactive suffixes of
    the active r1; the weights lie in [0, 1], so the majorant of sum_q G_q
    certifies them.  Over all suffixes of an inactive r1 (y = p1 hi < _ETA),
    z^m = y^m p2^m sums to y^m S_m^(j-i), a 1-D series in y certified by its
    majorant at p2 = 1 since S_m <= 1.  ``boxes_enumerated`` counts the
    pairs summed directly, those with z >= _ETA.

    At i = j the suffix is empty (p2 = 1): each box meets itself at two
    times, and every inactive box is in the 1-D series.  The covariance is
    then symmetric under swapping the (level, time) pairs, so they are
    ordered once (``cross_level_order``) and either order gives the same
    value bit for bit.  An l (after that ordering) above 171 is refused.
    """
    i, j = check_whole("i", i, 1), check_whole("j", j, 1)
    if i > j:
        raise ValidationError(f"need 1 <= i <= j, got i={i}, j={j}")
    l, n = check_whole("l", l, 1), check_whole("n", n, 1)
    prune = check_real("prune", prune, 0.0, strict=True)
    s, t = check_real("s", s, 0.0), check_real("t", t, 0.0)
    if i == j:
        l, n, s, t = cross_level_order(l, n, s, t)
    if l > 171:  # G_q divides by q! for q < l, a float up to q = 170
        raise ValidationError(f"level {l} is above 171, where (l - 1)! leaves the float range")
    lo, hi = min(s, t), max(s, t)
    # the pair term is at most P{A >= 1} <= x lo and P{A + F >= n} <= x t / n;
    # a zero scale (a zero time, or t / n underflowing) means an empty sum
    scale = min(lo, t / n)
    if scale == 0.0:
        return MomentEstimate(0.0, 0.0, 0)
    rho, sigma = lo / hi, (t - lo) / hi
    plan = enumerate_boxes(family, j, prune, scale, hi, split=i)
    series = [_below_series(n, sigma) - _below_series(n, t / hi)]
    for q in range(1, l):
        terms = []
        for k in range(min(q, n - 1) + 1):
            c = rho**q * (-1.0) ** (q - k) / (math.factorial(k) * math.factorial(q - k))
            terms.append(_signed(c * np.eye(1, _SIZE, q)[0], abs(c), False)
                         * _below_series(n - k, sigma))
        series.append(sum(terms[1:], terms[0]))
    sums = [float(np.sum(_pair_cov(ancestor, block, l, n, s, t)))
            for block, ancestor in plan.blocks()]
    # inactive suffixes of the active r1, weighted by P{Poisson(p1 s) < l - q}
    weights = np.minimum(np.cumsum(psi_table(l, plan.ancestors * s), axis=0)[::-1], 1.0)
    coef = np.array([g.coef[1 : _ORDER + 1] for g in series])  # [q, a-1]
    sums += (coef.T * (plan.below[:_ORDER] @ weights.T)).ravel().tolist()
    remainder = sum(series[1:], series[0]).remainder_factor() * float(plan.below[_ORDER].sum())
    # inactive r1: y^a p2^m summed over every suffix is y^a S_m^(j-i)
    collapse = np.concatenate([[1.0], plan.power_sums ** (j - i), np.ones(_EXTRA - 1)])
    parts = [_below_series(l - q, s / hi) * _Series(g.coef * collapse, g.major, g.whole)
             for q, g in enumerate(series)]
    flat = sum(parts[1:], parts[0])
    sums += [float(c) * float(v) for c, v in zip(flat.coef[1 : _ORDER + 1], plan.u)]
    remainder = _certify(remainder + flat.remainder_factor() * float(plan.u[_ORDER]), prune)
    return MomentEstimate(math.fsum(sums), plan.cut_bound + remainder, plan.boxes)


def depoissonization_constant(l: int) -> float:
    """Uniform bound on |E K_t^(j)(l) - E 𝒦_⌊t⌋^(j)(l)|:
    ``1 + sum_{i<l} max(A_i, B_i)`` with ``A_0 = 0``, ``A_i = i^i/(i-1)!``,
    ``B_0 = e^{-1}``, ``B_1 = 4 e^{-2}`` and for i >= 2
    ``B_i = (i+1)^{i+1} e^{-(i+1)}/i! + (i-1)^{i-1} e^{-(i-1)}/(2 (i-2)!)``.

    For l = 1 this is 1 + e^{-1} ≈ 1.3679.
    """
    l = check_whole("l", l, 1)
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
