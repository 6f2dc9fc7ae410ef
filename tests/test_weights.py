import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nested_karlin.errors import ValidationError
from nested_karlin.weights import WeightFamily, guide_table, guided_search

# Normalizer for alpha = 1/2, frozen from the construction-time sum
# (brute partial sums of exp(-sqrt(k)) reproduce it below).
C_HALF = 0.5986565603326887


@pytest.fixture(scope="module")
def weib():
    return WeightFamily.weibull_like(0.5)


@pytest.fixture(scope="module")
def geo():
    return WeightFamily.geometric(0.5)


@pytest.fixture(scope="module")
def fin():
    return WeightFamily.finite([0.5, 0.3, 0.2])


class TestWeight:
    def test_geometric_closed_form(self, geo):
        assert geo.weight(3) == pytest.approx(0.125, rel=1e-15)

    def test_finite_lookup(self, fin):
        assert fin.weight(2) == pytest.approx(0.3, rel=1e-15)
        assert fin.weight(4) == 0.0

    def test_weibull_first_weight(self, weib):
        assert weib.weight(1) == pytest.approx(C_HALF * math.exp(-1.0), rel=1e-13)

    def test_normalizer_against_brute_sum(self, weib):
        ks = np.arange(1, 4001, dtype=float)
        brute = float(np.sum(np.exp(-np.sqrt(ks))))
        assert 1.0 / brute == pytest.approx(C_HALF, rel=1e-13)
        assert weib.normalizer == pytest.approx(C_HALF, rel=1e-14)

    def test_one_based_indexing(self, weib):
        with pytest.raises(ValidationError):
            weib.weight(0)

    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf, np.array([1.0, 2.5])])
    def test_indices_must_be_whole(self, weib, geo, fin, bad):
        for fam in (weib, geo, fin):
            with pytest.raises(ValidationError, match="whole"):
                fam.weight(bad)

    def test_whole_float_indices_accepted(self, weib, geo, fin):
        for fam in (weib, geo, fin):
            assert fam.weight(2.0) == fam.weight(2)
            assert_allclose(fam.weight(np.array([1.0, 4.0])), fam.weight(np.array([1, 4])),
                            rtol=0)

    @pytest.mark.parametrize("K", [-3, 2.5, math.nan])
    def test_prefix_length_must_be_whole(self, weib, geo, fin, K):
        # never a slice of the cached table: K = -3 would drop its last 3 weights
        for fam in (weib, geo, fin):
            with pytest.raises(ValidationError):
                fam.weight_prefix(K)

    def test_prefix_matches_weight(self, weib):
        w = weib.weight_prefix(50)
        assert_allclose(w, weib.weight(np.arange(1, 51)), rtol=0)
        assert not w.flags.writeable

    @given(st.integers(1, 10_000))
    @settings(max_examples=60)
    def test_weibull_nonincreasing(self, k):
        fam = WeightFamily.weibull_like(0.5)
        assert fam.weight(k) > fam.weight(k + 1) > 0.0

    def test_partial_sums_stay_below_one(self, weib, geo):
        for fam in (weib, geo):
            assert float(fam.weight_prefix(5000).sum()) <= 1.0 + 1e-12


class TestRho:
    def test_zero_below_one(self, weib, geo, fin):
        for fam in (weib, geo, fin):
            assert fam.rho(0.5) == 0

    def test_geometric_direct_count(self, geo):
        assert geo.rho(8.0) == 3

    def test_weibull_closed_form_large(self, weib):
        t = math.exp(100.0) / weib.normalizer
        assert weib.rho(t) == 10_000

    def test_matches_definition_bruteforce(self, weib, geo, fin):
        for fam in (weib, geo, fin):
            for t in (1.0, 1.5, 2.0, 7.9, 8.0, 64.0, 1e4):
                w = np.atleast_1d(fam.weight(np.arange(1, 2001)))
                assert fam.rho(t) == int(np.count_nonzero(w >= 1.0 / t))

    @given(st.floats(0.5, 1e8), st.floats(1.0, 10.0))
    @settings(max_examples=80)
    def test_nondecreasing(self, t, factor):
        fam = WeightFamily.geometric(0.37)
        assert fam.rho(t * factor) >= fam.rho(t)

    @pytest.mark.parametrize("fam", [
        WeightFamily.weibull_like(0.3), WeightFamily.weibull_like(0.5),
        WeightFamily.geometric(0.5), WeightFamily.geometric(0.9),
    ])
    def test_search_matches_direct_count(self, fam):
        # rho(t) against #{k : p_k >= 1/t} over the prefix, for t up to 1e12
        # and at the boundaries t = 1/p_k, where a count changes
        w = fam.weight_prefix(100_000)
        assert w[-1] < 1e-12
        ts = list(np.logspace(0.0, 12.0, 97))
        for k in (1, 2, 3, 10, 50, 200):
            edge = 1.0 / float(w[k - 1])
            ts += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
        for t in ts:
            assert fam.rho(float(t)) == int(np.count_nonzero(w >= 1.0 / float(t))), t

    def test_invalid_t(self, weib):
        with pytest.raises(ValidationError):
            weib.rho(0.0)

    def test_non_finite_t(self, weib, geo, fin):
        for fam in (weib, geo, fin):
            for t in (math.nan, math.inf, None, "x", [10.0]):
                with pytest.raises(ValidationError):
                    fam.rho(t)


class TestTailBound:
    def test_geometric_exact(self, geo):
        assert geo.tail_mass_bound(10) == pytest.approx(2.0**-10, rel=1e-15)

    def test_finite_exhausted(self, fin):
        assert fin.tail_mass_bound(3) == 0.0
        assert fin.tail_mass_bound(1) == pytest.approx(0.5, rel=1e-14)

    def test_weibull_dominates_brute_tail(self, weib):
        # brute partial sum over the next 10^6 indices must sit below the bound
        for K in (1, 10, 100):
            ks = np.arange(K + 1, K + 1_000_001, dtype=float)
            brute = float(np.sum(weib.normalizer * np.exp(-np.sqrt(ks))))
            bound = weib.tail_mass_bound(K)
            assert brute <= bound
            # and the bound is not absurdly loose at moderate K
            if K >= 10:
                assert bound <= 3.0 * brute

    def test_nonincreasing_in_K(self, weib, geo):
        for fam in (weib, geo):
            vals = [fam.tail_mass_bound(K) for K in range(1, 40)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_mass_closure_tightens(self, weib):
        # |sum_{k<=K} p_k + tail_bound(K) - 1| shrinks as K grows
        gaps = []
        for K in (10, 100, 1000):
            s = float(weib.weight_prefix(K).sum())
            gaps.append(abs(s + weib.tail_mass_bound(K) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_tail_index_minimal(self, weib, geo):
        for fam in (weib, geo):
            for thr in (0.5, 1e-3, 1e-9):
                K = fam.tail_index(thr)
                assert fam.tail_mass_bound(K) <= thr
                if K > 0:
                    assert fam.tail_mass_bound(K - 1) > thr

    def test_tail_index_rejects_zero_for_infinite(self, weib):
        with pytest.raises(ValidationError):
            weib.tail_index(0.0)

    @pytest.mark.parametrize("K", [1.5, 0.5])
    def test_index_must_be_whole(self, weib, geo, fin, K):
        # a fractional K must not be read as its integer part
        for fam in (weib, geo, fin):
            with pytest.raises(ValidationError):
                fam.tail_mass_bound(K)

    def test_nan_threshold_and_index(self, weib, geo, fin):
        for fam in (weib, geo, fin):
            with pytest.raises(ValidationError):
                fam.tail_index(math.nan)
            for K in (math.nan, math.inf):
                with pytest.raises(ValidationError):
                    fam.tail_mass_bound(K)


class TestCumulativeTable:
    def test_matches_prefix(self, geo):
        cum = geo.cumulative_table()
        assert cum[-1] >= 1.0 - 2.0**-52
        assert_allclose(cum[:5], np.cumsum(geo.weight(np.arange(1, 6))), rtol=1e-15)

    def test_finite_table(self, fin):
        assert_allclose(fin.cumulative_table(), [0.5, 0.8, 1.0], rtol=1e-15)

    def test_idempotent(self, weib):
        assert weib.cumulative_table() is weib.cumulative_table()


class TestGuidedSearch:
    @pytest.mark.parametrize("size", [1, 4, 64, 2**10])
    def test_equals_searchsorted(self, size):
        # a normalized table with entries on bucket edges, repeated entries
        # (zero masses) and a last entry of exactly 1
        rng = np.random.default_rng(size)
        masses = np.concatenate([rng.random(40), [0.0, 0.0], 1.0 / np.arange(1, 9)])
        cum = np.cumsum(masses)
        cum = np.concatenate([cum / cum[-1], np.arange(1, size) / size])
        cum.sort()
        u = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
                            rng.random(1000), [0.0, 1.0 - 2.0**-53]])
        u = u[(u >= 0.0) & (u < 1.0)]
        guide = guide_table(cum, size)
        assert guide.size == size
        assert np.array_equal(guided_search(cum, guide, u),
                              np.searchsorted(cum, u, side="right"))


class TestDehaanProfile:
    def test_lambda_one_is_zero(self, weib):
        rows = weib.dehaan_profile([1.0], [100.0, 1e6])
        assert all(r[2] == 0.0 for r in rows)

    def test_weibull_converges_to_log_lambda(self, weib):
        lam = math.e
        (row,) = weib.dehaan_profile([lam], [math.exp(400.0)])
        assert abs(row[2] - 1.0) <= 0.15

    def test_weibull_closed_form_arithmetic(self, weib):
        # independent route: rho(t) = floor(log(C*t)**2) for this family
        lam, t = 2.0, math.exp(100.0)
        def rho_closed(x):
            v = math.log(weib.normalizer * x)
            return math.floor(v * v) if v > 0 else 0
        target = (rho_closed(lam * t) - rho_closed(t)) / (math.log(t) ** weib.beta * 2.0)
        (row,) = weib.dehaan_profile([lam], [t])
        assert row[2] == pytest.approx(target, abs=1e-12)
        # and the ratio is already within floor-dust of log(2)
        assert abs(row[2] - math.log(2.0)) <= 2.0 / (math.log(t) * 2.0)

    def test_geometric_ratio_decays(self, geo):
        lam = math.exp(2.0)
        rows = geo.dehaan_profile([lam], [math.exp(40.0), math.exp(80.0)])
        v40, v80 = rows[0][2], rows[1][2]
        # target (log lambda)/log t, floor dust <= log2/log t
        assert v40 == pytest.approx(2.0 / 40.0, abs=math.log(2.0) / 40.0)
        assert v80 == pytest.approx(2.0 / 80.0, abs=math.log(2.0) / 80.0)
        assert v80 < v40

    def test_geometric_frozen_row(self, geo):
        (row,) = geo.dehaan_profile([2.0], [100.0])
        # rho(200)-rho(100) = 7-6 = 1; denom = log(100)/log 2
        assert row[2] == pytest.approx(math.log(2.0) / math.log(100.0), rel=1e-12)

    def test_rejects_bad_inputs(self, weib):
        with pytest.raises(ValidationError):
            weib.dehaan_profile([1.0], [0.5])
        with pytest.raises(ValidationError):
            weib.dehaan_profile([-1.0], [10.0])


class TestPickle:
    @pytest.mark.parametrize("make", [lambda: WeightFamily.weibull_like(0.5),
                                      lambda: WeightFamily.geometric(0.5),
                                      lambda: WeightFamily.finite([0.5, 0.3, 0.2]),
                                      lambda: WeightFamily.finite([2.0, 1.0, 1.0])])
    def test_round_trip_by_spec(self, make):
        fam = make()
        fam.table_search(np.array([0.25, 0.75]))  # builds the lookup tables
        data = pickle.dumps(fam)
        assert len(data) < 200
        copy = pickle.loads(data)
        assert repr(copy) == repr(fam)
        assert copy.normalizer == fam.normalizer
        assert_allclose(copy.cumulative_table(), fam.cumulative_table(), rtol=0, atol=0)
        assert_allclose(copy.weight_prefix(40), fam.weight_prefix(40), rtol=0, atol=0)


class TestConstructors:
    def test_bad_alpha(self):
        with pytest.raises(ValidationError):
            WeightFamily.weibull_like(1.0)

    def test_bad_p(self):
        with pytest.raises(ValidationError):
            WeightFamily.geometric(0.0)

    def test_bad_finite(self):
        with pytest.raises(ValidationError):
            WeightFamily.finite([])
        with pytest.raises(ValidationError):
            WeightFamily.finite([0.5, -0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights(self, bad):
        with pytest.raises(ValidationError):
            WeightFamily.finite([0.5, bad])
        with pytest.raises(ValidationError):
            WeightFamily("finite", probs=(bad, 0.5))

    def test_from_spec_reads_only_its_kind(self):
        for fam, want in (
            (WeightFamily("weibull", alpha=0.3, p=2.0), WeightFamily.weibull_like(0.3)),
            (WeightFamily("geometric", alpha=7.0, p=0.25), WeightFamily.geometric(0.25)),
            (WeightFamily("finite", alpha=7.0, probs=(2.0, 1.0, 1.0)),
             WeightFamily.finite([0.5, 0.25, 0.25])),
        ):
            assert repr(fam) == repr(want)
            assert_allclose(fam.weight_prefix(3), want.weight_prefix(3), rtol=0, atol=0)

    def test_from_spec_rejects_bad_specs(self):
        for kind, kwargs in (
            ("poisson", {}),
            ("finite", {"probs": ()}),
            ("weibull", {"alpha": math.nan}),
            ("geometric", {"p": math.nan}),
            ("weibull", {"alpha": None}),
            ("geometric", {"p": "x"}),
            ("finite", {"probs": None}),
            # a list for the one parameter
            ("weibull", {"alpha": [0.5]}),
            ("geometric", {"p": [0.5]}),
        ):
            with pytest.raises(ValidationError):
                WeightFamily(kind, **kwargs)

    def test_asymptotic_params(self, weib, geo):
        # the index beta and slowly varying part ell that normalization reads
        assert weib.beta == pytest.approx(1.0) and weib.normalization(2, 8.0)[0] == 1.0 / 6.0
        assert geo.beta == 0.0
        assert geo.ell_at(10.0) == pytest.approx(10.0 / math.log(2.0), rel=1e-15)


class TestNormalization:
    @pytest.mark.parametrize("T", [1.5, 8.0, 25.0])
    def test_weibull_half_pinned(self, weib, T):
        # beta = 1 and ell = 2: c_1 = 1, f_1 = 2T; c_2 = 1/6, f_2 = 4T^3
        c1, f1 = weib.normalization(1, T)
        c2, f2 = weib.normalization(2, T)
        assert (c1, f1) == pytest.approx((1.0, 2.0 * T), rel=1e-15)
        assert (c2, f2) == pytest.approx((1.0 / 6.0, 4.0 * T**3), rel=1e-14)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_geometric_pinned(self, geo, j):
        # beta = 0 and ell(T) = T / log 2: c_j = 1/Gamma(j), f_j = T^(j-1) (T/log 2)^j
        T = 12.0
        c, f = geo.normalization(j, T)
        assert c == pytest.approx(1.0 / math.gamma(j), rel=1e-15)
        assert f == pytest.approx(T ** (j - 1) * (T / math.log(2.0)) ** j, rel=1e-14)

    @pytest.mark.parametrize("j, T", [(1, 1.0), (1, 0.5), (1, -3.0), (1, math.nan),
                                      (1, math.inf), (0, 8.0), (1.5, 8.0), (1, None),
                                      (1, [8.0]), (None, 8.0)])
    def test_bad_arguments_rejected(self, weib, j, T):
        with pytest.raises(ValidationError):
            weib.normalization(j, T)
