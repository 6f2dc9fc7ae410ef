import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nested_karlin.errors import NumericalError, ValidationError
from nested_karlin.harness import _combine, _star_terms
from nested_karlin.kernels import binomial_tail, poisson_low, poisson_tail, psi, psi_table
from nested_karlin.moments import (
    _BLOCK,
    _ETA,
    _ORDER,
    cov_K_cross_gen,
    depoissonization_constant,
    enumerate_boxes,
    mean_K,
    mean_K_binomial,
)
from nested_karlin.weights import WeightFamily


def _star(family, fn, head, levels, tail):
    """The value of the exact-count moment as every caller forms it:
    ``_combine`` over ``_star_terms`` of the at-least moment ``fn``."""
    terms = _star_terms(fn, head, levels, tail)
    return _combine(terms, {(f, args): f(family, *args) for _, f, args in terms})[0]


def _mc_cov(x, y):
    """Empirical covariance and its standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    prod = (x - x.mean()) * (y - y.mean())
    return float(prod.mean()), float(prod.std(ddof=1) / math.sqrt(prod.size))


@pytest.fixture(scope="module")
def geo():
    return WeightFamily.geometric(0.5)


@pytest.fixture(scope="module")
def weib():
    return WeightFamily.weibull_like(0.5)


@pytest.fixture(scope="module")
def fin3():
    return WeightFamily.finite([0.5, 0.3, 0.2])


class TestEnumeration:
    def test_finite_family_is_exhaustive(self, fin3):
        # the whole table is kept; boxes with 7 p_r >= _ETA are summed
        # directly and the others by the series, whose first omitted term
        # (1/(_ORDER+1)! x^(_ORDER+1) at l = 1) is the whole certificate
        t = 7.0
        for j in (1, 2, 3):
            x = [t * math.prod(r) for r in itertools.product(fin3.probs, repeat=j)]
            rest = [v for v in x if v < _ETA]
            est = mean_K(fin3, j, 1, t)
            assert est.boxes_enumerated == len(x) - len(rest)
            want = math.fsum(v ** (_ORDER + 1) for v in rest) / math.factorial(_ORDER + 1)
            assert est.error_bound == pytest.approx(want, rel=1e-12, abs=0.0)
        assert len(rest) == 4  # j = 3 leaves 0.2^3, 0.3 * 0.2^2 (x3) to the series

    def test_geometric_box_count(self, geo):
        est = mean_K(geo, 1, 1, 10.0, prune=1e-8)
        # only the boxes with 10 * 2^-k >= _ETA are summed directly
        want = sum(10.0 * float(geo.weight(k)) >= _ETA for k in range(1, 200))
        assert est.boxes_enumerated == want == 6
        assert est.error_bound <= 1e-8

    def test_weibull_two_generations(self, weib):
        est = mean_K(weib, 2, 1, math.exp(10.0), prune=1e-9)
        assert est.boxes_enumerated > 0
        assert 0.0 < est.error_bound < 1e-6

    def test_budget_respected(self, geo, weib):
        for fam, j, t in ((geo, 1, 50.0), (weib, 2, 200.0)):
            for eps in (1e-6, 1e-10):
                assert mean_K(fam, j, 2, t, prune=eps).error_bound <= eps

    def test_degenerate_budget(self, geo):
        # a budget at or above the Markov coefficient t/l prunes everything
        est = mean_K(geo, 1, 1, 10.0, prune=20.0)
        assert est.value == 0.0
        assert est.error_bound == 10.0
        assert est.boxes_enumerated == 0

    def test_enumerate_boxes_plan_weights(self, fin3):
        # the reference plan holds all 9 boxes; the active-set plan holds the
        # boxes with p * rate >= _ETA and the rest's weight in u[0] = sum x
        boxes, _, chunks = _tensor_product(fin3, 2, 1e-9, 5.0)
        w = np.concatenate(list(chunks()))
        assert boxes == w.size == 9
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
        p = np.array([a * b for a, b in itertools.product(fin3.probs, repeat=2)])
        for rate in (5.0, 1.0, 0.05):
            plan = enumerate_boxes(fin3, 2, 1e-9, 5.0, rate)
            active = np.concatenate([np.empty(0), *(b for b, _ in plan.blocks())])
            assert plan.boxes == active.size == np.count_nonzero(p * rate >= _ETA)
            assert np.array_equal(np.sort(active), np.sort(p[p * rate >= _ETA]))
            assert float(active.sum()) + plan.u[0] / rate == pytest.approx(1.0, abs=1e-12)
            rest = p[p * rate < _ETA] * rate
            assert plan.u == pytest.approx([np.sum(rest**m) for m in range(1, _ORDER + 2)],
                                           rel=1e-12, abs=0.0)
            assert plan.cut_bound == 0.0

    @pytest.mark.parametrize("kind, J, rate", [("fin3", 2, 5.0), ("fin3", 2, 0.05),
                                               ("geo", 3, 2.0**20), ("weib", 2, 3000.0)])
    def test_depths_rebuild_the_active_tree(self, request, kind, J, rate):
        # each depth's live prefixes and active-children counts give the
        # next depth's prefixes, parent after parent, and the last depth's
        # give the active boxes; a child is active iff q * w >= _ETA / rate
        family = request.getfixturevalue(kind)
        plan = enumerate_boxes(family, J, 1e-9, 1.0, rate)
        w, theta = plan.weights, _ETA / rate
        assert np.all(np.diff(w) <= 0) and len(plan.depths) == J
        assert plan.depths[0][0].tolist() == ([1.0] if theta <= 1.0 else [])
        nxt = [live for live, _ in plan.depths[1:]]
        nxt.append(np.concatenate([np.empty(0), *(b for b, _ in plan.blocks())]))
        for (live, count), children in zip(plan.depths, nxt):
            first = np.concatenate([np.empty(0, dtype=np.int64),
                                    *(np.arange(c) for c in count)])
            assert np.array_equal(children, np.repeat(live, count) * w[first])
            assert np.all(children >= theta)
            edge = count < w.size
            assert np.all(live[edge] * w[count[edge]] < theta)

    def test_blocks_cover_tensor_product(self, geo):
        # reference plan: per-depth thresholds 1e-9 / (2 * 10), / (4 * 10),
        # / (4 * 10) cut the geometric(0.5) tail 2^-K at K = 35, 36, 36
        budget, scale = 1e-9, 10.0
        boxes, tail_bound, chunks = _tensor_product(geo, 3, budget, scale)
        assert boxes == 35 * 36 * 36
        assert boxes % _BLOCK != 0 and boxes > _BLOCK
        chunks = list(chunks())
        assert all(c.size <= _BLOCK for c in chunks)
        w = [float(geo.weight(k)) for k in range(1, 37)]
        brute = [
            w[a] * w[b] * w[c]
            for a, b, c in itertools.product(range(35), range(36), range(36))
        ]
        assert np.array_equal(np.concatenate(chunks), np.array(brute))
        assert tail_bound <= budget
        # geometric tail bounds are exact: the certificate is the mass left out
        assert scale * (1.0 - math.fsum(brute)) == pytest.approx(tail_bound, rel=1e-12)
        # active-set plan: the table is cut where 10 * 2^-K <= 1e-9 / (2 * 3),
        # at K = 36, and the boxes with x = 2^-(a+b+c) * 2^70 / 10 >= _ETA are
        # more than a block, in depth-first order
        rate = 2.0**70 / 10.0
        plan = enumerate_boxes(geo, 3, budget, scale, rate)
        blocks = [b for b, _ in plan.blocks()]
        assert all(b.size <= _BLOCK for b in blocks)
        active = [v for v in (w[a] * w[b] * w[c]
                              for a, b, c in itertools.product(range(36), repeat=3))
                  if v * rate >= _ETA]
        assert plan.boxes == len(active) > _BLOCK and plan.boxes % _BLOCK != 0
        assert np.array_equal(np.concatenate(blocks), np.array(active))
        assert plan.cut_bound <= budget / 2.0
        mass = math.fsum(w)
        assert scale * (1.0 - mass**3) == pytest.approx(plan.cut_bound, rel=1e-9)

    def test_refuses_oversized_plan(self, weib):
        # 38,229,460,989 active generation-2 boxes; the count is known after
        # the depth-1 search, before any of them is formed
        start = time.perf_counter()
        with pytest.raises(NumericalError):
            mean_K(weib, 2, 1, 1e300)
        assert time.perf_counter() - start < 1.0

    def test_whole_number_arguments(self, geo):
        # fractional, NaN and infinite generations, levels and ball counts
        # are refused, never truncated; whole floats are accepted
        calls = (
            lambda x: mean_K(geo, 1, x, 10.0),
            lambda x: mean_K(geo, x, 1, 10.0),
            lambda x: mean_K_binomial(geo, 1, 1, x),
            lambda x: cov_K_cross_gen(geo, 1, 1, 1, x, 2.0, 3.0),
            lambda x: cov_K_cross_gen(geo, 1, x, 1, 1, 2.0, 3.0),
            lambda x: cov_K_cross_gen(geo, x, 3, 1, 1, 2.0, 3.0),
            lambda x: cov_K_cross_gen(geo, 1, 2, 1, x, 2.0, 3.0),
            depoissonization_constant,
        )
        for call in calls:
            for bad in (1.5, 1.7, 2.5, 10.7, math.nan, math.inf, -math.inf):
                with pytest.raises(ValidationError):
                    call(bad)
            assert call(2.0) == call(2)

    def test_rejects_bad_arguments(self, geo):
        with pytest.raises(ValidationError):
            mean_K(geo, 0, 1, 10.0)
        with pytest.raises(ValidationError):
            mean_K(geo, 1, 0, 10.0)
        with pytest.raises(ValidationError):
            mean_K(geo, 1, 1, -1.0)

    # a non-number, or a list for a single number, is refused the same way
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "x", [1.0],
                                     np.array([1.0])])
    def test_rejects_non_finite(self, geo, bad):
        with pytest.raises(ValidationError):
            enumerate_boxes(geo, 1, bad, 1.0, 1.0)
        with pytest.raises(ValidationError):
            enumerate_boxes(geo, 1, 1e-9, bad, 1.0)
        with pytest.raises(ValidationError):
            enumerate_boxes(geo, 1, 1e-9, 1.0, bad)
        with pytest.raises(ValidationError):
            mean_K(geo, 1, 1, 10.0, prune=bad)
        calls = (
            lambda x: mean_K(geo, 1, 1, x),
            lambda x: mean_K_binomial(geo, 1, 1, x),
            lambda x: cov_K_cross_gen(geo, 1, 1, 1, 1, x, 2.0),
            lambda x: cov_K_cross_gen(geo, 1, 1, 1, 2, x, 2.0),
            lambda x: cov_K_cross_gen(geo, 1, 2, 1, 1, 2.0, x),
        )
        for call in calls:
            with pytest.raises(ValidationError):
                call(bad)


class TestMeans:
    def test_single_box_closed_form(self):
        solo = WeightFamily.finite([1.0])
        for l in (1, 2, 5):
            est = mean_K(solo, 1, l, 3.0)
            assert est.value == pytest.approx(float(poisson_tail(l, 3.0)), rel=1e-14)
            assert est.error_bound == 0.0
            star = _star(solo, mean_K, (1,), (l,), (3.0,))
            assert star == pytest.approx(float(psi(l, 3.0)), rel=1e-14)

    def test_against_per_box_poisson_mc(self, weib):
        # independent oracle: draw each box's Poisson count directly
        t, replicas, seed = math.exp(8.0), 10_000, 91
        cut = weib.tail_index(1e-6 / t)
        w = weib.weight_prefix(cut)
        rng = np.random.default_rng(seed)
        counts = rng.poisson(w[None, :] * t, size=(replicas, w.size))
        emp = (counts >= 1).sum(axis=1)
        se = emp.std(ddof=1) / math.sqrt(replicas)
        exact = mean_K(weib, 1, 1, t, prune=1e-9)
        assert abs(emp.mean() - exact.value) <= 4.0 * se + 1e-6

    def test_mean_star_mc(self, geo):
        t, replicas, seed = 60.0, 20_000, 17
        cut = geo.tail_index(1e-9)
        w = geo.weight_prefix(cut)
        rng = np.random.default_rng(seed)
        counts = rng.poisson(w[None, :] * t, size=(replicas, w.size))
        emp = (counts == 2).sum(axis=1)
        se = emp.std(ddof=1) / math.sqrt(replicas)
        exact = _star(geo, mean_K, (1,), (2,), (t,))
        assert abs(emp.mean() - exact) <= 4.0 * se + 1e-6


class TestBinomialMeans:
    def test_one_ball(self, geo, fin3):
        for fam in (geo, fin3):
            est = mean_K_binomial(fam, 1, 1, 1)
            assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_two_balls_two_boxes(self):
        fam = WeightFamily.finite([0.5, 0.5])
        est = mean_K_binomial(fam, 1, 2, 2)
        assert est.value == pytest.approx(0.5, rel=1e-14)
        assert est.error_bound == 0.0

    def test_fewer_balls_than_level(self, geo):
        assert mean_K_binomial(geo, 1, 3, 2).value == 0.0
        assert mean_K_binomial(geo, 1, 1, 0).value == 0.0

    def test_matches_multinomial_mc(self, fin3):
        # deterministic scheme: n balls thrown at once
        n, replicas, seed = 25, 40_000, 5
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n, fin3.probs, size=replicas)
        emp = (counts >= 2).sum(axis=1)
        se = emp.std(ddof=1) / math.sqrt(replicas)
        exact = mean_K_binomial(fin3, 1, 2, n)
        assert abs(emp.mean() - exact.value) <= 4.0 * se


class TestSameLevelCovariances:
    def test_equal_times_is_bernoulli_variance(self, fin3):
        t, l = 6.0, 1
        a = np.array([poisson_tail(l, p * t) for p in fin3.probs])
        want = float(np.sum(a * (1.0 - a)))
        est = cov_K_cross_gen(fin3, 1, 1, l, l, t, t)
        assert est.value == pytest.approx(want, rel=1e-13)

    def test_two_box_closed_form(self):
        # summand algebra at l=1: e^{-p t}(1 - e^{-p s}) per box, s <= t
        fam = WeightFamily.finite([0.6, 0.4])
        s, t = 2.0, 5.0
        want = sum(
            math.exp(-p * t) * (1.0 - math.exp(-p * s)) for p in fam.probs
        )
        est = cov_K_cross_gen(fam, 1, 1, 1, 1, s, t)
        assert est.value == pytest.approx(want, rel=1e-13)

    def test_symmetric_in_times(self, geo):
        a = cov_K_cross_gen(geo, 1, 1, 2, 2, 11.0, 29.0)
        b = cov_K_cross_gen(geo, 1, 1, 2, 2, 29.0, 11.0)
        assert a.value == b.value

    def test_variance_nonnegative(self, geo, weib):
        for fam in (geo, weib):
            for t in (2.0, 50.0):
                assert cov_K_cross_gen(fam, 1, 1, 1, 1, t, t).value >= 0.0

    def test_star_equal_times(self, fin3):
        t, l = 6.0, 2
        a = np.array([float(psi(l, p * t)) for p in fin3.probs])
        want = float(np.sum(a * (1.0 - a)))
        est = _star(fin3, cov_K_cross_gen, (1, 1), (l, l), (t, t))
        assert est == pytest.approx(want, rel=1e-13)

    def test_star_single_box_substitution(self):
        solo = WeightFamily.finite([1.0])
        s, t = 1.5, 4.0
        want = s * math.exp(-t) - float(psi(1, s)) * float(psi(1, t))
        est = _star(solo, cov_K_cross_gen, (1, 1), (1, 1), (s, t))
        assert est == pytest.approx(want, rel=1e-13)

    def test_mc_oracle_three_boxes(self, fin3):
        # independent oracle: cumulative Poisson increments per box
        s, t, l, replicas, seed = 3.0, 8.0, 1, 400_000, 23
        rng = np.random.default_rng(seed)
        p = fin3.probs
        early = rng.poisson(p[None, :] * s, size=(replicas, 3))
        late = early + rng.poisson(p[None, :] * (t - s), size=(replicas, 3))
        emp, se = _mc_cov((early >= l).sum(axis=1), (late >= l).sum(axis=1))
        exact = cov_K_cross_gen(fin3, 1, 1, l, l, s, t)
        assert abs(emp - exact.value) <= 4.0 * se

    def test_star_mc_oracle_three_boxes(self, fin3):
        s, t, l, replicas, seed = 3.0, 8.0, 2, 400_000, 29
        rng = np.random.default_rng(seed)
        p = fin3.probs
        early = rng.poisson(p[None, :] * s, size=(replicas, 3))
        late = early + rng.poisson(p[None, :] * (t - s), size=(replicas, 3))
        emp, se = _mc_cov((early == l).sum(axis=1), (late == l).sum(axis=1))
        exact = _star(fin3, cov_K_cross_gen, (1, 1), (l, l), (s, t))
        assert abs(emp - exact) <= 4.0 * se


class TestCrossLevelCovariances:
    def test_reduces_to_same_level(self, geo):
        # at l1 == l2 the events nest: per box P{pi_s >= 2} P{pi_t < 2}
        p = geo.weight(np.arange(1, 200))
        for s, t in ((7.0, 7.0), (4.0, 19.0)):
            a = cov_K_cross_gen(geo, 1, 1, 2, 2, s, t)
            want = float(np.sum(poisson_tail(2, p * s) * np.exp(-p * t) * (1.0 + p * t)))
            assert a.value == pytest.approx(want, abs=1e-12)

    def test_single_box_nested_events(self):
        # l1 >= l2 with s <= t: {pi_s >= 2} forces {pi_t >= 1}
        solo = WeightFamily.finite([1.0])
        s, t = 2.0, 6.0
        want = float(poisson_tail(2, s)) - float(poisson_tail(2, s)) * float(
            poisson_tail(1, t)
        )
        est = cov_K_cross_gen(solo, 1, 1, 2, 1, s, t)
        assert est.value == pytest.approx(want, rel=1e-13)

    def test_mc_oracle_both_orders(self, fin3):
        s, t, replicas, seed = 3.0, 8.0, 400_000, 31
        rng = np.random.default_rng(seed)
        p = fin3.probs
        early = rng.poisson(p[None, :] * s, size=(replicas, 3))
        late = early + rng.poisson(p[None, :] * (t - s), size=(replicas, 3))
        for l1, l2 in ((2, 1), (1, 2), (1, 3)):
            emp, se = _mc_cov((early >= l1).sum(axis=1), (late >= l2).sum(axis=1))
            exact = cov_K_cross_gen(fin3, 1, 1, l1, l2, s, t)
            assert abs(emp - exact.value) <= 4.0 * se, (l1, l2)

    def test_times_attached_to_levels(self, geo):
        # l1 rides s, l2 rides t: swapping both must agree, swapping one must not
        a = cov_K_cross_gen(geo, 1, 1, 3, 1, 5.0, 12.0)
        b = cov_K_cross_gen(geo, 1, 1, 1, 3, 12.0, 5.0)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    @pytest.mark.parametrize("kind", ["weib", "geo", "fin3"])
    @pytest.mark.parametrize("t", [7.0, 3000.0])
    def test_equal_time_level_symmetry_is_exact(self, request, kind, t):
        # at s = t the levels are ordered once, so both orders are one sum
        fam = request.getfixturevalue(kind)
        for j in (1, 2):
            for l in (1, 2):
                a = cov_K_cross_gen(fam, j, j, l, l + 1, t, t)
                b = cov_K_cross_gen(fam, j, j, l + 1, l, t, t)
                assert (a.value, a.error_bound) == (b.value, b.error_bound), (j, l)

    @pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], [0.1, 0.35, 0.05, 0.3, 0.2]])
    @pytest.mark.parametrize("s, t", [(0.5, 1.5), (40.0, 20.0), (7.0, 7.0)])
    def test_thinning_oracle_at_unit_p2(self, probs, s, t):
        # one box at two times is the cross-generation pair at p2 = 1: the
        # scalar thinning term summed over every box of a finite family
        fam = WeightFamily.finite(probs)
        for j in (1, 2):
            p = [math.prod(r) for r in itertools.product(fam.probs, repeat=j)]
            for l1, l2 in itertools.product((1, 2, 3), repeat=2):
                want = math.fsum(_pair_term(c, 1.0, l1, l2, s, t) for c in p)
                est = cov_K_cross_gen(fam, j, j, l1, l2, s, t)
                tol = est.error_bound + 64 * np.finfo(float).eps * len(p)
                assert abs(est.value - want) <= tol, (j, l1, l2)


    @pytest.mark.parametrize("l, n", [(172, 1), (1, 172), (2**64, 1)])
    def test_levels_past_the_series_factorials_are_refused(self, weib, l, n):
        # at s = t the larger level is summed over; its series divides by
        # (l - 1)!, a float up to l = 171
        with pytest.raises(ValidationError, match="above 171"):
            cov_K_cross_gen(weib, 1, 1, l, n, 100.0, 100.0)
        assert cov_K_cross_gen(weib, 1, 1, 171, 1, 100.0, 100.0).value < 1e-90


class TestCrossGeneration:
    def test_single_box_chain_coincides(self):
        # one box per generation: the two indicators are the same event
        solo = WeightFamily.finite([1.0])
        s = 1.3
        est = cov_K_cross_gen(solo, 1, 2, 1, 1, s, s)
        want = math.exp(-s) * (1.0 - math.exp(-s))
        assert est.value == pytest.approx(want, rel=1e-12)

    def test_mc_oracle_nested_thinning(self, fin3):
        # independent oracle: balls present at t are each present at s
        # w.p. s/t and fall into a child box multinomially
        s, t, l, n, replicas, seed = 4.0, 9.0, 1, 1, 300_000, 37
        rng = np.random.default_rng(seed)
        p = fin3.probs
        parent_t = rng.poisson(p[None, :] * t, size=(replicas, 3))
        k1 = np.zeros(replicas)
        k2 = np.zeros(replicas)
        for k in range(3):
            parent_s = rng.binomial(parent_t[:, k], s / t)
            k1 += parent_s >= l
            children = rng.multinomial(parent_t[:, k], p)
            k2 += (children >= n).sum(axis=1)
        emp, se = _mc_cov(k1, k2)
        exact = cov_K_cross_gen(fin3, 1, 2, l, n, s, t)
        assert abs(emp - exact.value) <= 4.0 * se

    def test_mc_oracle_reversed_times(self, fin3):
        # second-generation count observed first (t < s branch)
        s, t, l, n, replicas, seed = 9.0, 4.0, 1, 2, 300_000, 41
        rng = np.random.default_rng(seed)
        p = fin3.probs
        parent_s = rng.poisson(p[None, :] * s, size=(replicas, 3))
        k1 = (parent_s >= l).sum(axis=1)
        k2 = np.zeros(replicas)
        for k in range(3):
            parent_t = rng.binomial(parent_s[:, k], t / s)
            children = rng.multinomial(parent_t, p)
            k2 += (children >= n).sum(axis=1)
        emp, se = _mc_cov(k1, k2)
        exact = cov_K_cross_gen(fin3, 1, 2, l, n, s, t)
        assert abs(emp - exact.value) <= 4.0 * se

    @pytest.mark.parametrize("s, t", [(4.0, 9.0), (9.0, 4.0)])
    def test_scalar_double_sum(self, fin3, s, t):
        # Cov over each pair (r1, r2) as P(A^c B^c) - P(A^c) P(B^c), with
        # A = {r1 holds >= l balls at s}, B = {(r1, r2) holds >= n at t}
        def pois(k, x):
            return math.exp(-x) * x**k / math.factorial(k)

        def pois_below(q, x):
            return sum(pois(k, x) for k in range(q))

        def binom(m, k, p):
            return math.comb(m, k) * p**k * (1.0 - p) ** (m - k)

        for l, n in ((1, 1), (2, 3), (3, 2)):
            want = 0.0
            for p1, p2 in itertools.product(fin3.probs, fin3.probs):
                if s <= t:
                    # m balls in r1 at s, k of them in r2, then fresh ones
                    joint = sum(
                        pois(m, p1 * s) * binom(m, k, p2)
                        * pois_below(n - k, p1 * p2 * (t - s))
                        for m in range(l)
                        for k in range(min(m, n - 1) + 1)
                    )
                else:
                    # k balls in r1 at t (m of them in r2), more in r1 by s
                    joint = sum(
                        pois(k, p1 * t) * pois_below(l - k, p1 * (s - t))
                        * binom(k, m, p2)
                        for k in range(l)
                        for m in range(min(k, n - 1) + 1)
                    )
                want += joint - pois_below(l, p1 * s) * pois_below(n, p1 * p2 * t)
            got = cov_K_cross_gen(fin3, 1, 2, l, n, s, t)
            assert got.error_bound == 0.0
            assert got.value == pytest.approx(want, rel=1e-12), (l, n)

    def test_normalized_decorrelation_trend(self, weib):
        # |cov| / sqrt(f_1 f_2) must fall along T in {8, 12, 16}
        ratios = []
        for T in (8.0, 12.0, 16.0):
            t = math.exp(T)
            est = cov_K_cross_gen(weib, 1, 2, 1, 1, t, t, prune=1e-6)
            _, f1 = weib.normalization(1, t)
            _, f2 = weib.normalization(2, t)
            ratios.append(abs(est.value) / math.sqrt(f1 * f2))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_generation_order_validated(self, fin3):
        # 1 <= i <= j: i = j is one generation at two times, i > j is refused
        for i, j in ((2, 1), (3, 2), (0, 1)):
            with pytest.raises(ValidationError):
                cov_K_cross_gen(fin3, i, j, 1, 1, 1.0, 1.0)
        assert cov_K_cross_gen(fin3, 2, 2, 1, 1, 1.0, 1.0).value > 0.0

    def test_underflowing_scale_is_an_empty_sum(self, weib):
        # t / n underflows to 0 for the smallest subnormal t: |Cov| <= t / n
        tiny = 5e-324
        for s, t in [(1.0, tiny), (tiny, tiny)]:
            est = cov_K_cross_gen(weib, 1, 2, 1, 4, s, t)
            assert (est.value, est.error_bound, est.boxes_enumerated) == (0.0, 0.0, 0)

    @pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], [0.1, 0.35, 0.05, 0.3, 0.2]])
    @pytest.mark.parametrize("gens", [(1, 2), (1, 3), (2, 3)])
    @pytest.mark.parametrize("s, t", [(0.5, 1.5), (1.5, 0.5), (3.0, 7.0), (40.0, 20.0)])
    def test_finite_families_match_brute_force(self, probs, gens, s, t):
        # every pair (r1, r2) of an unsorted finite family, scalar arithmetic;
        # the small times leave generation-i boxes and suffixes to the series
        fam = WeightFamily.finite(probs)
        i, j = gens
        pairs = [(math.prod(r1), math.prod(r2))
                 for r1 in itertools.product(fam.probs, repeat=i)
                 for r2 in itertools.product(fam.probs, repeat=j - i)]
        active = sum(p1 * p2 * max(s, t) >= _ETA for p1, p2 in pairs)
        for l, n in ((1, 1), (2, 3), (3, 2)):
            want = math.fsum(_pair_term(p1, p2, l, n, s, t) for p1, p2 in pairs)
            est = cov_K_cross_gen(fam, i, j, l, n, s, t)
            tol = est.error_bound + 64 * np.finfo(float).eps * len(pairs)
            assert abs(est.value - want) <= tol, (l, n)
            assert est.boxes_enumerated == active, (l, n)

    def test_remainders_cover_first_omitted_terms(self, fin3):
        # l = n = 1 at s = t: the pair term is e^(-p1 s) (1 - e^(-z)), z = p1 p2 s.
        # Every generation-1 box inactive (y = p1 s < _ETA): summed over r2
        # its y^17 coefficient is sum_r2 ((1 + p2)^17 - 1) / 17!
        s = 0.15
        y = [p * s for p in fin3.probs]
        assert max(y) < _ETA
        est = cov_K_cross_gen(fin3, 1, 2, 1, 1, s, s)
        first = math.fsum(v ** (_ORDER + 1) for v in y) * math.fsum(
            (1.0 + p) ** (_ORDER + 1) - 1.0 for p in fin3.probs
        ) / math.factorial(_ORDER + 1)
        assert est.boxes_enumerated == 0
        assert first <= est.error_bound <= 1e-9
        # every generation-1 box active, most suffixes not: e^(-p1 s) / 17!
        s = 0.5
        z = [(p1, p1 * p2 * s) for p1, p2 in itertools.product(fin3.probs, repeat=2)]
        assert min(p * s for p in fin3.probs) >= _ETA
        est = cov_K_cross_gen(fin3, 1, 2, 1, 1, s, s)
        first = math.fsum(math.exp(-p1 * s) * x ** (_ORDER + 1)
                          for p1, x in z if x < _ETA) / math.factorial(_ORDER + 1)
        assert est.boxes_enumerated == sum(x >= _ETA for _, x in z) == 1
        assert first <= est.error_bound <= 1e-9

    @pytest.mark.parametrize("gens", [(1, 3), (2, 3)])
    def test_generation_three(self, weib, gens):
        start = time.perf_counter()
        est = cov_K_cross_gen(weib, *gens, 1, 1, 3000.0, 3000.0, prune=1e-9)
        elapsed = time.perf_counter() - start
        assert est.error_bound <= 1e-9
        assert elapsed < 10.0
        # the tensor-product plan, at a budget it reaches in about a second
        value, bound = _cross_gen_reference(weib, *gens, 1, 1, 3000.0, 3000.0, 1e-2)
        assert bound <= 1e-2
        assert abs(est.value - value) <= est.error_bound + bound


def _pair_term(p1, p2, l, n, s, t):
    """Cov(1{r1 holds < l balls at s}, 1{r1 r2 holds < n at t}) in scalar
    arithmetic, conditioning on the balls of r1 at the earlier time."""
    def pois(k, x):
        return math.exp(-x) * x**k / math.factorial(k)

    def below(q, x):
        return sum(pois(k, x) for k in range(q))

    def binom(m, k, p):
        return math.comb(m, k) * p**k * (1.0 - p) ** (m - k)

    if s <= t:  # m balls in r1 at s, k of them in r2, then fresh ones
        joint = sum(pois(m, p1 * s) * binom(m, k, p2) * below(n - k, p1 * p2 * (t - s))
                    for m in range(l) for k in range(min(m, n - 1) + 1))
    else:  # k balls in r1 at t (m of them in r2), more in r1 by s
        joint = sum(pois(k, p1 * t) * below(l - k, p1 * (s - t)) * binom(k, m, p2)
                    for k in range(l) for m in range(min(k, n - 1) + 1))
    return joint - below(l, p1 * s) * below(n, p1 * p2 * t)


class TestCertification:
    @given(
        st.sampled_from(["geo", "weib"]),
        st.integers(1, 2),
        st.integers(1, 3),
        st.floats(1.0, 300.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_halving_honesty_mean(self, kind, j, l, t):
        fam = WeightFamily.geometric(0.5) if kind == "geo" else WeightFamily.weibull_like(0.5)
        coarse = mean_K(fam, j, l, t, prune=1e-5)
        fine = mean_K(fam, j, l, t, prune=5e-6)
        assert abs(coarse.value - fine.value) <= coarse.error_bound + fine.error_bound

    def test_halving_honesty_covariances(self, geo, weib):
        for fam in (geo, weib):
            for args in ((1, 1, 1, 1, 9.0, 30.0), (1, 1, 2, 1, 9.0, 30.0)):
                coarse = cov_K_cross_gen(fam, *args, prune=1e-4)
                fine = cov_K_cross_gen(fam, *args, prune=1e-8)
                assert abs(coarse.value - fine.value) <= (
                    coarse.error_bound + fine.error_bound
                ), (fam.kind, args)
        coarse = cov_K_cross_gen(geo, 1, 2, 1, 1, 9.0, 30.0, prune=1e-4)
        fine = cov_K_cross_gen(geo, 1, 2, 1, 1, 9.0, 30.0, prune=1e-8)
        assert abs(coarse.value - fine.value) <= coarse.error_bound + fine.error_bound


def _tensor_product(family, j, budget, scale):
    """The tensor-product plan the active-set engine replaced: every box r
    with r_d <= K_d at each depth d, one ``tail_index`` search per depth with
    the budget shared so that scale times the weight left out stays within
    it.  Returns (boxes, tail_bound, chunks); chunks(block) yields the box
    weights in depth-first order, in blocks of at most ``block``."""
    cutoffs, tail, mass = [], 0.0, 1.0  # mass: total weight of the depth-d prefixes
    for d in range(1, j + 1):
        k = family.tail_index(budget / (2.0 ** min(d, j - 1) * scale))
        tail += scale * mass * family.tail_mass_bound(k)
        mass *= math.fsum(family.weight_prefix(k))
        cutoffs.append(k)
    boxes = math.prod(cutoffs)

    def chunks(block=_BLOCK):
        if not boxes:
            return
        *heads, last = [family.weight_prefix(k) for k in cutoffs]
        prefix = np.ones(1)
        for w in heads:
            prefix = np.multiply.outer(prefix, w).ravel()
        cols, rows = min(last.size, block), max(1, block // last.size)
        for r in range(0, prefix.size, rows):
            for c in range(0, last.size, cols):
                yield np.multiply.outer(prefix[r : r + rows], last[c : c + cols]).ravel()

    return boxes, tail, chunks


def _reference(family, j, prune, scale, summand):
    """The summand summed over every box of the tensor-product plan; returns
    the value and the certified bound on the boxes left out."""
    _, tail, chunks = _tensor_product(family, j, prune, scale)
    return math.fsum(float(np.sum(summand(c))) for c in chunks()), tail


def _binomial_pmfs(size: int, p: np.ndarray) -> np.ndarray:
    """pmf[m, k] = P{Bin(m, p) = k} for m, k < size, by Pascal's rule."""
    pmf = np.zeros((size, size) + p.shape)
    pmf[0, 0] = 1.0
    for m in range(1, size):
        pmf[m] = pmf[m - 1] * (1.0 - p)
        pmf[m, 1:] += pmf[m - 1, :-1] * p
    return pmf


def _cross_gen_reference(family, i, j, l, n, s, t, prune):
    """cov_K_cross_gen as the tensor-product plan summed it: 2-D blocks of
    outer weights p1 (generation i, budget prune/2) by inner weights p2
    (generation j - i, budget prune/2 per unit of outer weight)."""
    _, outer_tail, outer = _tensor_product(family, i, prune / 2.0, t / n)
    inner_boxes, inner_tail, inner = _tensor_product(family, j - i, prune / 2.0, t / n)
    sums, outer_mass = [], 0.0
    for p1 in outer(_BLOCK // max(1, min(inner_boxes, _BLOCK))):
        outer_mass += float(np.sum(p1))
        low_s = poisson_low(l, p1 * s)[:, None]
        if t >= s:
            held = psi_table(l, p1 * s)
        else:
            held = psi_table(l, p1 * t) * np.cumsum(psi_table(l, p1 * (s - t)), axis=0)[::-1]
        for p2 in inner():
            x = np.multiply.outer(p1, p2)
            pmf = _binomial_pmfs(l, p2)
            if t >= s:
                fresh = np.cumsum(psi_table(n, x * (t - s)), axis=0)
                joint = sum(fresh[n - 1 - k] * np.einsum("mr,mc->rc", held, pmf[:, k])
                            for k in range(min(l, n)))
            else:
                joint = np.einsum("kr,kc->rc", held, pmf[:, :n].sum(axis=1))
            sums.append(float(np.sum(joint - low_s * poisson_low(n, x * t))))
    return math.fsum(sums), outer_tail + outer_mass * inner_tail


def _cases(t):
    """(moment at t, its Markov scale, its rate, its summand) for the
    single-generation moments: level 2 where one level is read (for
    cov_K_cross_gen at i = j and l = n = 2), and levels 1 and 3 across the
    times s = t/3 and t in both orders (a nonempty Poisson-split sum in the
    pair term at p2 = 1, and the nested product where it is empty)."""
    s, n = t / 3.0, int(t)
    return [
        (lambda f, j, **kw: mean_K(f, j, 2, t, **kw), t / 2, t,
         lambda c: poisson_tail(2, c * t)),
        (lambda f, j, **kw: mean_K_binomial(f, j, 2, n, **kw), n / 2, n,
         lambda c: binomial_tail(n, c, 2)),
        (lambda f, j, **kw: cov_K_cross_gen(f, j, j, 2, 2, s, t, **kw), s / 2, t,
         lambda c: poisson_tail(2, c * s) * poisson_low(2, c * t)),
        # empty at s and fewer than 3 balls in (s, t], minus the product
        (lambda f, j, **kw: cov_K_cross_gen(f, j, j, 1, 3, s, t, **kw), t / 3, t,
         lambda c: np.exp(-c * s) * (poisson_low(3, c * (t - s)) - poisson_low(3, c * t))),
        (lambda f, j, **kw: cov_K_cross_gen(f, j, j, 1, 3, t, s, **kw), s / 3, t,
         lambda c: poisson_tail(3, c * s) * np.exp(-c * t)),
    ]


class TestActiveSetEngine:
    @pytest.mark.parametrize("kind", ["weib", "geo"])
    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("t", [10.0, 3000.0, 1e5])
    def test_matches_tensor_product_reference(self, request, kind, j, t):
        fam = request.getfixturevalue(kind)
        for i, (call, scale, _, summand) in enumerate(_cases(t)):
            est = call(fam, j, prune=1e-9)
            value, bound = _reference(fam, j, 1e-9, scale, summand)
            assert est.error_bound <= 1e-9, i
            assert abs(est.value - value) <= est.error_bound + bound, i

    @pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], [0.1, 0.35, 0.05, 0.3, 0.2]])
    @pytest.mark.parametrize("t", [0.5, 7.0, 40.0])
    def test_finite_families_match_brute_force(self, probs, t):
        # every box of an unsorted finite family; each term is a difference
        # of products of probabilities <= 1, so either route rounds it by a
        # few eps
        fam = WeightFamily.finite(probs)
        for j in (1, 2, 3):
            p = np.array([math.prod(r) for r in itertools.product(fam.probs, repeat=j)])
            for i, (call, _, rate, summand) in enumerate(_cases(t)):
                est = call(fam, j)
                terms = np.atleast_1d(summand(p))
                tol = est.error_bound + 64 * np.finfo(float).eps * p.size
                assert abs(est.value - math.fsum(terms)) <= tol, (j, i)
                assert est.boxes_enumerated == np.count_nonzero(p * rate >= _ETA), (j, i)

    def test_generation_three(self, weib):
        start = time.perf_counter()
        est = mean_K(weib, 3, 1, 3000.0, prune=1e-9)
        elapsed = time.perf_counter() - start
        # the tensor-product plan reaches only prune 1e-3 (51,241,833 boxes)
        value, bound = _reference(
            weib, 3, 1e-3, 3000.0, lambda c: poisson_tail(1, c * 3000.0)
        )
        assert bound <= 1e-3
        assert est.error_bound <= 1e-9
        assert abs(est.value - value) <= est.error_bound + bound
        assert elapsed < 10.0

    def test_huge_times(self, weib):
        # powers are formed as (p * rate)^m: nothing overflows at t = 1e300
        # (the fixed-n mean at n = 1e300 included: its binomial tails are
        # finite there)
        for i, (call, scale, _, summand) in enumerate(_cases(1e300)):
            est = call(weib, 1, prune=1e-9)
            value, bound = _reference(weib, 1, 1e-9, scale, summand)
            assert est.error_bound <= 1e-9, i
            assert abs(est.value - value) <= est.error_bound + bound, i

    @pytest.mark.parametrize("l", [1, 2])
    def test_means_up_to_the_float_range(self, weib, l):
        # at alpha = 1/2 the j = 1 mean is a quadratic in T = log t with
        # leading coefficient 1, so steps of 9 up to t = e^709.7, next to the
        # largest float, have second difference 2 * 9^2 = 162
        est = [mean_K(weib, 1, l, math.exp(T)) for T in (691.7, 700.7, 709.7)]
        assert all(e.error_bound <= 5e-10 for e in est)
        assert est[0].value - 2.0 * est[1].value + est[2].value == pytest.approx(162.0, abs=1e-7)

    @given(
        st.sampled_from(["weib", "weib3", "geo", "geo9", "fin"]),
        st.integers(1, 2),
        st.integers(1, 4),
        st.floats(-3.0, 6.0),
        st.floats(0.0, 1.0),
        st.floats(-12.0, -3.0),
        st.integers(0, 6),
        st.sampled_from([(1, 2), (1, 3), (2, 3)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_finite_and_within_budget(self, kind, j, l, log_t, frac, log_prune, which, gens):
        fam = {
            "weib": WeightFamily.weibull_like(0.5),
            "weib3": WeightFamily.weibull_like(0.3),
            "geo": WeightFamily.geometric(0.5),
            "geo9": WeightFamily.geometric(0.9),
            "fin": WeightFamily.finite([0.4, 0.1, 0.3, 0.2]),
        }[kind]
        t, prune = 10.0**log_t, 10.0**log_prune
        s = frac * t
        est = [
            lambda: mean_K(fam, j, l, t, prune=prune),
            lambda: mean_K_binomial(fam, j, l, int(t), prune=prune),
            lambda: cov_K_cross_gen(fam, j, j, l, l, s, t, prune=prune),
            lambda: cov_K_cross_gen(fam, j, j, l, 4 - l + 1, s, t, prune=prune),
            lambda: cov_K_cross_gen(fam, j, j, l, 4 - l + 1, t, s, prune=prune),
            lambda: cov_K_cross_gen(fam, *gens, l, 4 - l + 1, s, t, prune=prune),
            lambda: cov_K_cross_gen(fam, *gens, l, 4 - l + 1, t, s, prune=prune),
        ][which]()
        assert math.isfinite(est.value)
        assert 0.0 <= est.error_bound <= prune


class TestDepoissonizationConstant:
    def test_frozen_values(self):
        assert depoissonization_constant(1) == pytest.approx(
            1.0 + math.exp(-1.0), abs=1e-15
        )
        assert depoissonization_constant(2) == pytest.approx(2.3678794411714423, abs=1e-14)
        assert depoissonization_constant(3) == pytest.approx(6.367879441171443, abs=1e-13)

    def test_increasing_in_level(self):
        vals = [depoissonization_constant(l) for l in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_level_one_gap_is_actually_bounded(self, geo):
        # spot check the bound it certifies: |poissonized - binomial| at t = n
        for n in (10, 100, 2000):
            a = mean_K(geo, 1, 1, float(n)).value
            b = mean_K_binomial(geo, 1, 1, n).value
            assert abs(a - b) <= depoissonization_constant(1)
