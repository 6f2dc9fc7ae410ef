import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import betainc

from nested_karlin.errors import NumericalError, ValidationError
from nested_karlin.kernels import (
    b_constants,
    binomial_identity_lhs,
    binomial_tail,
    convolution_identity,
    poisson_tail,
    psi,
    psi_table,
)


class TestPsi:
    def test_l0_is_exp(self):
        assert psi(0, 1.5) == pytest.approx(math.exp(-1.5), rel=1e-15)

    def test_zero_argument(self):
        assert psi(0, 0.0) == 1.0
        assert psi(3, 0.0) == 0.0

    def test_vector(self):
        x = np.array([0.0, 0.5, 2.0, 700.0])
        got = psi(2, x)
        want = np.exp(-x) * x**2 / 2.0
        assert_allclose(got, want, rtol=1e-13)

    @given(st.integers(0, 40), st.floats(1e-8, 500.0))
    @settings(max_examples=80)
    def test_sums_to_one(self, cut, x):
        # completing the Poisson pmf: tail + partial sum = 1
        total = sum(psi(i, x) for i in range(cut)) + poisson_tail(cut, x)
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -1.0, [1.0, math.nan], [math.inf]])
    def test_rejects_nan_inf_and_negative(self, x):
        for l in (0, 1):
            with pytest.raises(ValidationError):
                psi(l, x)


    def test_against_mpmath_50_digits(self):
        # error model of the log form: the exponent z = l log x - x - lgamma(l+1)
        # carries an absolute error of a few ulp of its largest part, and exp
        # turns it into a relative error of the same size
        eps = np.finfo(float).eps
        x = np.logspace(-12.0, math.log10(700.0), 361)
        for l in (0, 1, 2, 3, 5, 10, 20):
            with mpmath.workdps(50):
                want = np.array([
                    float(mpmath.mpf(float(v)) ** l * mpmath.exp(-mpmath.mpf(float(v)))
                          / mpmath.factorial(l))
                    for v in x
                ])
            normal = want >= 1e-280
            scale = 1.0 + np.abs(l * np.log(x)) + x + math.lgamma(l + 1)
            rel = np.abs(psi(l, x) - want)[normal] / want[normal]
            assert np.all(rel <= 4.0 * eps * scale[normal]), (l, x[normal][rel.argmax()])


class TestPsiTable:
    def test_against_mpmath_50_digits(self):
        # error model of the recurrence: exp(-x) within an ulp or two, then
        # two roundings (x / i and the product) per row; rows past x = 700
        # take psi's log form and its bound
        eps = np.finfo(float).eps
        x = np.logspace(-12.0, 3.5, 311)
        rows = 21
        table = psi_table(rows, x)
        with mpmath.workdps(50):
            want = np.array([
                [float(mpmath.mpf(float(v)) ** i * mpmath.exp(-mpmath.mpf(float(v)))
                       / mpmath.factorial(i)) for v in x]
                for i in range(rows)
            ])
        for i in range(rows):
            normal = want[i] >= 1e-280
            bound = np.where(
                x > 700.0,
                4.0 * eps * (1.0 + np.abs(i * np.log(x)) + x + math.lgamma(i + 1)),
                (4.0 + 2.0 * i) * eps,
            )
            rel = np.abs(table[i] - want[i])[normal] / want[i][normal]
            assert np.all(rel <= bound[normal]), (i, x[normal][rel.argmax()])

    def test_rows_match_psi(self):
        x = np.concatenate([[0.0], np.logspace(-12.0, 6.0, 400)])
        table = psi_table(21, x)
        assert table.shape == (21, x.size)
        assert np.all(np.isfinite(table))
        for l in range(21):
            want = psi(l, x)
            big = want >= 1e-280
            assert_allclose(table[l][big], want[big], rtol=1e-12, atol=0.0)
            # past exp underflow (x > 745) the rows stay on the log form
            far = x > 745.0
            assert np.array_equal(table[l][far], want[far])

    def test_shapes(self):
        assert psi_table(3, 2.0).shape == (3,)
        assert psi_table(0, [1.0, 2.0]).shape == (0, 2)
        assert psi_table(2, np.ones((4, 5))).shape == (2, 4, 5)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            psi_table(2, [1.0, -1.0])

    def test_rejects_nan_and_inf(self):
        for x in ([1.0, math.nan], [math.inf, 1.0], math.nan):
            with pytest.raises(ValidationError):
                psi_table(2, x)


class TestPoissonTail:
    def test_against_gamma_oracle(self):
        # P{Poisson(m) >= l} equals the regularized lower gamma at (l, m),
        # here evaluated by mpmath (poisson_tail itself calls scipy's)
        for l in range(1, 12):
            for m in (1e-6, 0.01, 0.5, float(l), 5.0 * l, 300.0):
                with mpmath.workdps(50):
                    want = float(mpmath.gammainc(l, 0, m, regularized=True))
                assert poisson_tail(l, m) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_against_mpmath_50_digits(self):
        # regularized lower gamma at 50 digits on a log grid spanning the
        # tiny-tail and the near-one regime; bound set from the dtype
        m = np.logspace(-12.0, 6.0, 721)
        for l in range(1, 6):
            with mpmath.workdps(50):
                want = np.array([
                    float(mpmath.gammainc(l, 0, mpmath.mpf(float(x)), regularized=True))
                    for x in m
                ])
            rel = np.abs(poisson_tail(l, m) - want) / want
            assert rel.max() <= 256 * np.finfo(float).eps, (l, m[rel.argmax()])

    def test_l0(self):
        assert poisson_tail(0, 5.0) == 1.0

    def test_fraction_oracle_small(self):
        # exact rational partial sum for tiny cases
        m = Fraction(3, 10)
        # P{Poi(0.3) >= 2} = 1 - e^{-0.3}(1 + 0.3): compare via series to 1e-15
        want = 1.0 - math.exp(-0.3) * (1 + 0.3)
        assert poisson_tail(2, float(m)) == pytest.approx(want, rel=1e-13)

    @given(st.integers(1, 30), st.floats(1e-9, 1e4))
    @settings(max_examples=100)
    def test_in_unit_interval_and_monotone_in_l(self, l, m):
        a, b = poisson_tail(l, m), poisson_tail(l + 1, m)
        assert 0.0 <= b <= a <= 1.0

    def test_markov_bound(self):
        for l in range(1, 8):
            for m in (0.01, 0.5, 2.0, 10.0):
                assert poisson_tail(l, m) <= m / l + 1e-15

    def test_extreme_arguments(self):
        assert poisson_tail(1, 1e-300) == pytest.approx(1e-300, rel=1e-10)
        assert poisson_tail(5, 1e4) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nan(self):
        for m in (math.nan, [1.0, math.nan]):
            with pytest.raises(ValidationError):
                poisson_tail(1, m)


class TestBinomialTail:
    def test_against_beta_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 400))
            l = int(rng.integers(1, n + 1))
            p = float(rng.uniform(1e-6, 1.0 - 1e-6))
            want = betainc(l, n - l + 1, p)
            assert binomial_tail(n, p, l) == pytest.approx(want, rel=1e-10, abs=1e-280)

    def test_against_mpmath_100_digits(self):
        # 1 - sum_{k<l} C(n, k) p^k (1-p)^(n-k) at 100 digits, which keeps
        # 50 after the cancellation for every tail on this grid (>= 1e-45);
        # scipy's betainc loses accuracy about linearly in n, so the bound
        # is max(256, n) ulp
        eps = np.finfo(float).eps
        p = np.logspace(-9.0, -1e-9, 181)
        for n in (10, 1000, 100_000):
            for l in (1, 2, 3, 5):
                with mpmath.workdps(100):
                    want = np.array([
                        float(1 - mpmath.fsum(
                            mpmath.binomial(n, k) * mpmath.mpf(float(v)) ** k
                            * (1 - mpmath.mpf(float(v))) ** (n - k)
                            for k in range(l)
                        ))
                        for v in p
                    ])
                normal = want >= 1e-280
                rel = np.abs(binomial_tail(n, p, l) - want)[normal] / want[normal]
                assert rel.max() <= max(256, n) * eps, (n, l, p[normal][rel.argmax()])

    def test_endpoints(self):
        assert binomial_tail(5, 0.0, 1) == 0.0
        assert binomial_tail(5, 1.0, 5) == 1.0
        assert binomial_tail(5, 0.3, 0) == 1.0

    def test_rejects_nan(self):
        for p in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValidationError):
                binomial_tail(10, p, 1)

    def test_huge_ball_count_is_numeric_error(self):
        # scipy's betainc gives NaN beyond about 1e200 balls
        with pytest.raises(NumericalError):
            binomial_tail(10**300, np.array([1e-300, 5e-301]), 2)

    def test_vectorized(self):
        p = np.array([0.0, 1e-9, 0.2, 0.9, 1.0])
        got = binomial_tail(10, p, 2)
        want = np.array([betainc(2, 9, x) if 0 < x < 1 else (0.0 if x == 0 else 1.0) for x in p])
        assert_allclose(got, want, rtol=1e-10, atol=1e-300)

    @given(st.integers(1, 60), st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=60)
    def test_monotone_in_level(self, n, p):
        vals = [binomial_tail(n, p, l) for l in range(0, n + 2)]
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))


class TestConstants:
    def test_b1_is_log2(self):
        b, bstar = b_constants(1)
        assert b == pytest.approx(math.log(2.0), abs=1e-16)
        assert bstar == pytest.approx(0.75, abs=1e-16)

    def test_b2_closed_form(self):
        b, bstar = b_constants(2)
        assert b == pytest.approx(math.log(2.0) - 0.25, abs=1e-15)
        assert bstar == pytest.approx(Fraction(13, 32), abs=1e-15)

    def test_bstar_fraction_oracle(self):
        # b*_l = (1 - C(2l, l) 2^{-2l-1}) / l exactly
        for l in range(1, 15):
            want = Fraction(1, 1) - Fraction(math.comb(2 * l, l), 2 ** (2 * l + 1))
            assert b_constants(l)[1] == pytest.approx(float(want / l), rel=1e-15)

    def test_b_decreasing_positive(self):
        vals = [b_constants(l)[0] for l in range(1, 21)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_whole_number_arguments():
    # levels, counts and ball counts: fractions and non-finite values are
    # refused, never truncated; whole floats are accepted
    calls = (
        lambda k: psi(k, 1.0),
        lambda k: psi_table(k, np.ones(2)),
        lambda k: binomial_tail(k, 0.3, 1),
        b_constants,
        lambda k: convolution_identity(k, 1, 1),
        lambda k: binomial_identity_lhs(k, 1.0, 2.0),
    )
    for call in calls:
        for bad in (1.5, math.nan, math.inf):
            with pytest.raises(ValidationError):
                call(bad)
        assert np.array_equal(call(2.0), call(2))


def test_tail_levels_are_whole_and_may_be_non_positive():
    # a tail's level is refused when fractional or non-finite, never
    # truncated; any whole level is allowed, and at l <= 0 the tail is 1
    tails = (
        lambda l: poisson_tail(l, 2.0),
        lambda l: binomial_tail(10, 0.3, l),
    )
    for tail in tails:
        for bad in (1.5, 2.7, -0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                tail(bad)
        for level in (0, -3, 0.0, -2.0):
            assert tail(level) == 1.0
        assert tail(2.0) == tail(2)
    assert poisson_tail(np.int64(2), 2.0) == poisson_tail(2, 2.0)
    assert np.array_equal(poisson_tail(-1, np.array([0.0, 3.0])), [1.0, 1.0])


class TestIdentities:
    def test_convolution_exact_small(self):
        for a in range(6):
            for r in range(6):
                for n in range(6):
                    lhs, rhs = convolution_identity(a, r, n)
                    assert lhs == rhs

    def test_convolution_range_guard(self):
        with pytest.raises(ValidationError):
            convolution_identity(31, 0, 0)
        lhs, rhs = convolution_identity(31, 0, 0, max_value=40)
        assert lhs == rhs

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=120)
    def test_convolution_property(self, a, r, n):
        lhs, rhs = convolution_identity(a, r, n)
        assert lhs == rhs

    @given(st.integers(1, 12), st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    @settings(max_examples=120)
    def test_binomial_sums_to_inverse_level(self, l, a, b):
        assert binomial_identity_lhs(l, a, b) * l == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                      (1.0, math.inf), (0.0, 1.0), (1.0, -2.0)])
    def test_binomial_needs_finite_positive_inputs(self, a, b):
        with pytest.raises(ValidationError):
            binomial_identity_lhs(2, a, b)

    @pytest.mark.parametrize("a, b", [(1e308, 1e308), (1e308, 1e-308)])
    def test_binomial_huge_inputs(self, a, b):
        # a + b itself overflows at (1e308, 1e308)
        for l in (1, 2, 5):
            assert binomial_identity_lhs(l, a, b) * l == pytest.approx(1.0, rel=1e-12)

    def test_binomial_scale_invariance(self):
        assert binomial_identity_lhs(4, 1.0, 2.0) == pytest.approx(
            binomial_identity_lhs(4, 10.0, 20.0), rel=1e-15
        )
