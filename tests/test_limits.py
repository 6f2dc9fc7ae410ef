import math
from fractions import Fraction

import numpy as np
import pytest

from nested_karlin.errors import ValidationError
from nested_karlin.kernels import b_constants
from nested_karlin.limits import closed_cov, comparison_table, quadrature_cov


class TestFrozenConstants:
    def test_variance_Z_level1(self):
        assert closed_cov("Z", 1, 1, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_variance_Z_level2(self):
        assert closed_cov("Z", 2, 2, 0.0) == pytest.approx(math.log(2.0) - 0.25, abs=1e-15)

    def test_variance_X(self):
        assert closed_cov("X", 1, 1, 0.0) == pytest.approx(0.75, abs=1e-15)
        assert closed_cov("X", 2, 2, 0.0) == pytest.approx(13.0 / 32.0, abs=1e-15)

    def test_variance_matches_b_constants(self):
        for l in range(1, 7):
            b, bstar = b_constants(l)
            assert closed_cov("Z", l, l, 0.0) == pytest.approx(b, abs=1e-14)
            assert closed_cov("X", l, l, 0.0) == pytest.approx(bstar, abs=1e-14)

    def test_Y_cross_moment(self):
        assert closed_cov("Y", 1, 1, 0.0) == pytest.approx(0.75, abs=1e-16)
        assert closed_cov("Y", 1, 2, 0.0) == pytest.approx(-0.125, abs=1e-16)
        assert closed_cov("Y", 2, 2, 0.0) == pytest.approx(13.0 / 32.0, abs=1e-16)

    def test_Y_equals_X_at_zero_offset(self):
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                assert closed_cov("Y", l1, l2, 0.0) == pytest.approx(
                    closed_cov("X", l1, l2, 0.0), abs=1e-14
                )

    def test_Z1_covariance_closed_curve(self):
        # E Z_1(u) Z_1(v) = log(1 + e^{-|u-v|})
        for d in (0.0, 0.3, 1.0, math.log(3.0), 4.0):
            assert closed_cov("Z", 1, 1, d) == pytest.approx(
                math.log1p(math.exp(-d)), abs=1e-14
            )


class TestConventions:
    def test_same_level_depends_on_abs_offset(self):
        for l in (1, 3):
            for d in (0.2, 1.5):
                for kind in ("Z", "X"):
                    assert closed_cov(kind, l, l, d) == pytest.approx(
                        closed_cov(kind, l, l, -d), abs=1e-16
                    )

    def test_cross_level_is_asymmetric(self):
        assert closed_cov("Z", 1, 2, 0.8) != pytest.approx(
            closed_cov("Z", 1, 2, -0.8), abs=1e-6
        )
        assert closed_cov("X", 2, 1, -0.5) != pytest.approx(
            closed_cov("X", 2, 1, 0.5), abs=1e-6
        )

    def test_query_order_invariance(self):
        # swapping the levels swaps u and v, so delta changes sign
        for kind in ("Z", "X"):
            for d in (-1.2, 0.0, 0.7):
                a = closed_cov(kind, 1, 3, d)
                b = closed_cov(kind, 3, 1, -d)
                assert a == pytest.approx(b, abs=1e-15)

    def test_quadrature_order_invariance(self):
        for kind in ("Z", "X"):
            for d in (-1.2, 0.0, 0.7):
                a = quadrature_cov(kind, 1, 3, d)
                b = quadrature_cov(kind, 3, 1, -d)
                assert a == pytest.approx(b, abs=1e-12), (kind, d)

    def test_closed_cov_dispatch(self):
        # written out from the formulas in limits.py, delta = u - v
        e = math.exp(-0.9)
        assert closed_cov("Z", 2, 2, 0.9) == pytest.approx(
            math.log1p(e) - e / (1.0 + e) ** 2, abs=1e-16
        )
        # E Z_1(u) Z_3(v) = E Z_1 Z_1 - E Z_1(u) (X_1 + X_2)(v); delta > 0
        # leaves only the (1 + e^delta) terms of the double sum
        x = 0.4
        want = math.log1p(math.exp(-x)) - sum(
            1.0 / (1 + r) * (1.0 + math.exp(x)) ** -(1 + r) for r in range(2)
        )
        assert closed_cov("Z", 1, 3, x) == pytest.approx(want, abs=1e-16)
        # E X_3(u) X_1(v) with y = v - u = -0.4
        y = -0.4
        want = math.exp(y) * (
            (1.0 - math.exp(y)) ** 2 - (1.0 + math.exp(y)) ** -4
        )
        assert closed_cov("X", 3, 1, 0.4) == pytest.approx(want, abs=1e-16)
        assert closed_cov("X", 1, 3, -0.4) == pytest.approx(want, abs=1e-16)
        with pytest.raises(ValidationError):
            closed_cov("W", 1, 1, 0.0)

    def test_level_guard(self):
        with pytest.raises(ValidationError):
            closed_cov("Z", 0, 0, 0.0)
        with pytest.raises(ValidationError):
            closed_cov("Y", 1, 0, 0.0)

    def test_levels_must_be_whole(self):
        for fn in (closed_cov, quadrature_cov):
            for bad in (math.nan, math.inf, -math.inf, 1.5):
                with pytest.raises(ValidationError):
                    fn("Z", bad, 1, 0.0)
                with pytest.raises(ValidationError):
                    fn("X", 1, bad, 0.0)
        assert closed_cov("Z", 2.0, 1.0, 0.5) == closed_cov("Z", 2, 1, 0.5)

    def test_non_finite_offset(self):
        for fn in (closed_cov, quadrature_cov):
            for kind in ("Z", "X", "Y"):
                for d in (math.nan, math.inf, -math.inf):
                    with pytest.raises(ValidationError):
                        fn(kind, 1, 2, d)

    def test_Y_ignores_offset(self):
        assert closed_cov("Y", 1, 2, 3.0) == closed_cov("Y", 1, 2, 0.0)
        assert quadrature_cov("Y", 1, 2, 30.0) == quadrature_cov("Y", 1, 2, 0.0)


class TestQuadratureOracle:
    def test_agrees_with_closed_forms(self):
        # spot panel; the full acceptance sweep covers l <= 4, 13 offsets
        for kind in ("Z", "X"):
            for l1, l2 in ((1, 1), (2, 1), (3, 3), (2, 3)):
                for d in (-1.7, 0.0, 0.6):
                    assert quadrature_cov(kind, l1, l2, d) == pytest.approx(
                        closed_cov(kind, l1, l2, d), abs=5e-11
                    ), (kind, l1, l2, d)

    def test_Y_route(self):
        assert quadrature_cov("Y", 1, 2, 0.0) == pytest.approx(-0.125, abs=5e-11)

    def test_level_cap(self):
        with pytest.raises(ValidationError):
            quadrature_cov("Z", 7, 1, 0.0)
        # explicit override lifts the cap
        v = quadrature_cov("Z", 7, 7, 0.0, max_level=7)
        assert v == pytest.approx(b_constants(7)[0], abs=5e-11)

    def test_offset_cap(self):
        with pytest.raises(ValidationError):
            quadrature_cov("Z", 1, 1, 25.0)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            quadrature_cov("Q", 1, 1, 0.0)

    def test_comparison_table_shape(self):
        rows = comparison_table(["Z"], [(1, 1), (1, 2)], [0.0, 0.5])
        assert len(rows) == 4
        for kind, l1, l2, d, closed, quad, diff in rows:
            assert kind == "Z"
            assert diff == abs(closed - quad) < 5e-11


class TestStructuralIdentities:
    def test_X_from_Z_bilinearity(self):
        # cov(X_a(u), X_b(v)) from the four Z-covariances, small panel
        for la in (1, 2, 4):
            for lb in (1, 3):
                for d in np.linspace(-2.0, 2.0, 9):
                    z = (
                        closed_cov("Z", la, lb, d)
                        - closed_cov("Z", la, lb + 1, d)
                        - closed_cov("Z", la + 1, lb, d)
                        + closed_cov("Z", la + 1, lb + 1, d)
                    )
                    assert closed_cov("X", la, lb, d) == pytest.approx(
                        z, abs=1e-12
                    ), (la, lb, d)

    def test_holder_half_bound(self):
        # E (Z_l(u) - Z_l(v))^2 = 2(b_l - covZ(l, delta)) <= |delta|
        for l in range(1, 6):
            for d in (0.01, 0.1, 0.5, 1.0):
                incr = 2.0 * (b_constants(l)[0] - closed_cov("Z", l, l, d))
                assert 0.0 < incr <= d + 1e-15

    def test_Y_psd_small_matrices(self):
        for L in (2, 3, 5):
            m = np.array(
                [[closed_cov("Y", a, b, 0.0) for b in range(1, L + 1)] for a in range(1, L + 1)]
            )
            eig = np.linalg.eigvalsh(m)
            assert eig.min() > 0.0

    def test_Y_exact_rationals(self):
        # Y is assembled from exact rational series; spot-check one value
        # against a direct Fraction evaluation of E Y_1 Y_3
        got = closed_cov("Y", 1, 3, 0.0)
        assert got == pytest.approx(float(Fraction(-1, 16)), abs=1e-16)


class TestDecay:
    def test_covariance_decays_in_offset(self):
        for l in (1, 2):
            vals = [closed_cov("Z", l, l, d) for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < 0.05

    def test_crossZ_peaks_off_zero(self):
        # E Z_1(u) Z_2(v) is maximized with the lower level trailing
        d_grid = np.linspace(-3, 3, 61)
        vals = [closed_cov("Z", 1, 2, d) for d in d_grid]
        assert d_grid[int(np.argmax(vals))] < 0.0
