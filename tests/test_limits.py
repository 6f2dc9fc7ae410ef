import math
from fractions import Fraction

import numpy as np
import pytest

from nested_karlin.errors import NumericalError, ValidationError
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
            for bad in (math.nan, math.inf, -math.inf, 1.5, None):
                with pytest.raises(ValidationError):
                    fn("Z", bad, 1, 0.0)
                with pytest.raises(ValidationError):
                    fn("X", 1, bad, 0.0)
        assert closed_cov("Z", 2.0, 1.0, 0.5) == closed_cov("Z", 2, 1, 0.5)

    def test_non_finite_offset(self):
        for fn in (closed_cov, quadrature_cov):
            for kind in ("Z", "X", "Y"):
                # a non-number, or a list for the one offset, the same way
                for d in (math.nan, math.inf, -math.inf, None, "x", [0.5]):
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

    def test_comparison_table_levels_must_be_whole(self):
        # a fractional level pair is refused, not truncated to a whole one
        for bad in (1.9, 0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                comparison_table(["Z"], [(bad, 1)], [0.0])
            with pytest.raises(ValidationError):
                comparison_table(["X"], [(1, bad)], [0.0])
        (row,) = comparison_table(["Z"], [(2.0, 1.0)], [0.0])
        assert row[1:3] == (2, 1) and all(type(l) is int for l in row[1:3])
        assert row == comparison_table(["Z"], [(2, 1)], [0.0])[0]

    def test_unconverged_piece_is_numerical_error(self, monkeypatch):
        # a piece the rule cannot resolve within its rounds must not pass its
        # number on: a step never meets the panel tolerance, and with one
        # round no smooth piece does either
        from nested_karlin import limits

        with pytest.raises(NumericalError, match="failed to converge"):
            limits._quad_piece(lambda x: (x > 0.3).astype(float))
        monkeypatch.setattr(limits, "_MAX_ROUNDS", 1)
        with pytest.raises(NumericalError, match="failed to converge"):
            quadrature_cov("Z", 1, 1, 0.0)
        with pytest.raises(NumericalError, match="failed to converge"):
            comparison_table(["X"], [(2, 1)], [0.5])

    def test_summed_estimate_over_budget(self, monkeypatch):
        # each piece reports 0.6 of the budget: one piece passes, and the
        # four pieces of E Z_2 Z_2 together exceed it
        from nested_karlin import limits

        piece = limits._quad_piece
        monkeypatch.setattr(limits, "_quad_piece",
                            lambda f: (piece(f)[0], 0.6 * limits._QUAD_BUDGET))
        assert quadrature_cov("Z", 1, 1, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)
        with pytest.raises(NumericalError, match="exceeds budget"):
            quadrature_cov("Z", 2, 2, 0.0)
        with pytest.raises(NumericalError, match="exceeds budget"):
            comparison_table(["Z"], [(1, 1), (2, 2)], [0.0])


class TestQuadratureRule:
    """Every integrand shape of the oracle against mpmath.quad at 30 digits,
    over the same window."""

    # E X_l1(delta) X_l2(0), l1 >= l2 >= 0 (X_0 = -Z_1): Z_1 Z_1, same
    # levels, and cross levels, which have one form for delta > 0 and one
    # for delta <= 0
    CASES = [(l, l, d) for l in range(5) for d in (0.0, 0.5, 2.0)] + [
        (l1, l2, d) for l1, l2 in ((1, 0), (2, 1), (3, 0), (4, 1), (4, 3))
        for d in (-2.0, -0.5, 0.0, 0.5, 2.0)
    ]

    @staticmethod
    def _terms(l1, l2, delta):
        """x -> the two terms of the white-noise integrand, as written in the
        comment above limits._log_psi, in mpmath with u = delta and v = 0."""
        import mpmath as mp

        u, v = mp.mpf(delta), mp.mpf(0)

        def q(x, c):
            return mp.exp(-mp.exp(c - x))

        def psi(l, x, c):
            return mp.exp(-l * (x - c)) * q(x, c) / mp.factorial(l)

        if l1 == 0:
            return lambda x: (min(q(x, u), q(x, v)), q(x, u) * q(x, v))
        if l1 == l2:
            lo, hi = min(u, v), max(u, v)
            return lambda x: (q(x, hi) * mp.exp(-l1 * (x - lo)) / mp.factorial(l1),
                              psi(l1, x, lo) * psi(l1, x, hi))
        n = l1 - l2
        if u > v:
            c = (mp.exp(u) - mp.exp(v)) ** n / (mp.factorial(n) * mp.factorial(l2))
            return lambda x: (c * q(x, u) * mp.exp(-x * n + (v - x) * l2),
                              psi(l1, x, u) * psi(l2, x, v))
        return lambda x: (0, psi(l1, x, u) * psi(l2, x, v))

    def test_rule_against_mpmath(self):
        import mpmath as mp

        from nested_karlin.limits import _WINDOW, _e_xx

        panels = mp.linspace(-_WINDOW, _WINDOW, 17)
        for l1, l2, d in self.CASES:
            terms = self._terms(l1, l2, d)
            with mp.workdps(30):
                exact = mp.quad(lambda x: mp.fsub(*terms(x)), panels,
                                method="gauss-legendre")
            # rounding in the integrand scales with its terms, not with
            # their difference
            with mp.workdps(15):
                size = float(mp.quad(lambda x: sum(map(abs, terms(x))), panels,
                                     method="gauss-legendre"))
            value, estimate = _e_xx(l1, l2, d)
            err = float(abs(mp.mpf(value) - exact))
            rounding = 8 * 2.0**-52 * size
            assert estimate <= 1e-13, (l1, l2, d)
            assert err <= estimate + rounding, (l1, l2, d, err, estimate)
            # and the estimate is conservative: G21 is exact to rounding
            assert err <= rounding, (l1, l2, d, err, estimate)


class TestSharedPieces:
    """`comparison_table` integrates each E X_i X_k piece once across its
    rows; each row's value and error budget stay those of a lone call."""

    # the `limits table` deltas, and a signed zero
    DELTAS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, -0.0]
    PAIRS = [(l1, l2) for l1 in range(1, 5) for l2 in range(1, 5)]

    def test_table_equals_per_row_quadrature(self):
        rows = comparison_table(["Z", "X", "Y"], self.PAIRS, self.DELTAS)
        assert len(rows) == 3 * len(self.PAIRS) * len(self.DELTAS)
        for kind, l1, l2, d, closed, quad, diff in rows:
            want = quadrature_cov(kind, l1, l2, d)
            assert quad.hex() == want.hex(), (kind, l1, l2, d)
            assert diff == abs(closed - quad)

    def test_each_piece_integrated_once(self, monkeypatch):
        from nested_karlin import limits

        pieces, rows = [], []
        e_xx, quad = limits._e_xx, limits.quadrature_cov

        def counted_piece(i, k, delta):
            pieces.append((i, k, delta))
            return e_xx(i, k, delta)

        def counted_row(*args, **kwargs):
            rows.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(limits, "_e_xx", counted_piece)
        monkeypatch.setattr(limits, "quadrature_cov", counted_row)
        comparison_table(["Z", "X"], self.PAIRS, self.DELTAS[:-1])
        # every row still goes through quadrature_cov; 812 pieces without
        # sharing, 161 distinct
        assert len(rows) == 2 * 16 * 7
        assert len(pieces) == len(set(pieces)) == 161


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
