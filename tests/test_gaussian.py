import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nested_karlin.errors import NumericalError, ValidationError
from nested_karlin.gaussian import (
    build_grid,
    draws_to_csv_rows,
    sample,
    sample_csv_header,
    sample_Z1_whitenoise,
    whitenoise_mesh_covariance,
)
from nested_karlin.kernels import b_constants
from nested_karlin.limits import closed_cov


class TestBuildGrid:
    def test_single_point_single_level(self):
        grid = build_grid("Z", [0.0], 1)
        assert grid.matrix.shape == (1, 1)
        assert grid.matrix[0, 0] == pytest.approx(math.log(2.0), abs=1e-15)
        assert grid.jitter_applied == 0.0

    def test_X_two_levels_one_point(self):
        grid = build_grid("X", [0.0], 2)
        want = np.array([[0.75, -0.125], [-0.125, 13.0 / 32.0]])
        assert_allclose(grid.matrix, want, atol=1e-14)

    def test_diagonal_entries_are_level_variances(self):
        grid = build_grid("Z", np.linspace(-2, 2, 7), 3)
        for (l, _u), d in zip(grid.labels(), np.diag(grid.matrix)):
            assert d == pytest.approx(b_constants(l)[0], abs=1e-13)

    def test_twenty_point_grid_psd_without_jitter(self):
        grid = build_grid("Z", np.linspace(-3, 3, 20), 4)
        assert grid.jitter_applied == 0.0
        eig = np.linalg.eigvalsh(grid.matrix)
        assert eig.min() >= -1e-10
        gx = build_grid("X", np.linspace(-3, 3, 20), 4)
        assert np.linalg.eigvalsh(gx.matrix).min() >= -1e-10

    def test_level_major_layout(self):
        u = [0.0, 1.0, 2.5]
        grid = build_grid("Z", u, 2)
        labels = grid.labels()
        assert labels[0] == (1, 0.0) and labels[3] == (2, 0.0) and labels[5] == (2, 2.5)
        # entry (row level 1 at 0, col level 2 at 1) must match the closed form
        assert grid.matrix[0, 4] == pytest.approx(closed_cov("Z", 1, 2, -1.0), abs=1e-14)

    def test_bilinear_consistency_between_kinds(self):
        u = np.linspace(-1.5, 1.5, 5)
        L = 3
        gz = build_grid("Z", u, L + 1)
        gx = build_grid("X", u, L)
        m = u.size
        for a in range(L * m):
            for b in range(L * m):
                la, ua = a // m, a % m
                lb, ub = b // m, b % m
                z = (
                    gz.matrix[la * m + ua, lb * m + ub]
                    - gz.matrix[la * m + ua, (lb + 1) * m + ub]
                    - gz.matrix[(la + 1) * m + ua, lb * m + ub]
                    + gz.matrix[(la + 1) * m + ua, (lb + 1) * m + ub]
                )
                assert gx.matrix[a, b] == pytest.approx(z, abs=1e-10)

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValidationError):
            build_grid("Z", [1.0, 0.0], 1)
        with pytest.raises(ValidationError):
            build_grid("W", [0.0], 1)

    def test_rejects_fractional_counts(self):
        for bad in (1.5, math.nan, math.inf):
            with pytest.raises(ValidationError):
                build_grid("Z", [0.0], bad)
            with pytest.raises(ValidationError):
                sample(build_grid("Z", [0.0], 1), bad, seed=0)

    def test_rejects_non_finite_grid(self):
        for u in ([0.0, math.nan], [math.nan], [0.0, math.inf]):
            with pytest.raises(ValidationError):
                build_grid("Z", u, 2)


class TestFactorSampler:
    def test_mean_centered(self):
        grid = build_grid("Z", [0.0, 1.0], 2)
        draws = sample(grid, 40_000, seed=4)
        for col, (l, _u) in enumerate(grid.labels()):
            bound = 4.0 * math.sqrt(grid.matrix[col, col] / draws.shape[0])
            assert abs(float(draws[:, col].mean())) <= bound

    def test_covariance_entry_product_moment(self):
        u = [0.0, 0.7]
        grid = build_grid("Z", u, 1)
        n = 100_000
        draws = sample(grid, n, seed=11)
        emp = float(np.mean(draws[:, 0] * draws[:, 1]))
        want = closed_cov("Z", 1, 1, 0.7)
        cii, cjj, cij = grid.matrix[0, 0], grid.matrix[1, 1], grid.matrix[0, 1]
        se = math.sqrt((cii * cjj + cij * cij) / n)
        assert abs(emp - want) <= 3.0 * se

    def test_duplicate_u_correlates(self):
        grid = build_grid("Z", [0.0, 0.0], 1)
        assert 0.0 < grid.jitter_applied <= 1e-8
        draws = sample(grid, 20_000, seed=9)
        corr = float(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1])
        assert corr >= 1.0 - 1e-6

    def test_deterministic_per_seed(self):
        grid = build_grid("X", [0.0, 0.5], 2)
        assert_allclose(sample(grid, 50, seed=3), sample(grid, 50, seed=3), rtol=0)
        assert not np.allclose(sample(grid, 50, seed=3), sample(grid, 50, seed=4))

    def test_seed_ranges_exchangeable(self):
        grid = build_grid("Z", [0.0, 1.0], 1)
        n = 30_000
        a = sample(grid, n, seed=100)
        b = sample(grid, n, seed=200)
        for draws in (a, b):
            emp = float(np.mean(draws[:, 0] * draws[:, 1]))
            cii, cjj, cij = grid.matrix[0, 0], grid.matrix[1, 1], grid.matrix[0, 1]
            se = math.sqrt((cii * cjj + cij * cij) / n)
            assert abs(emp - grid.matrix[0, 1]) <= 3.0 * se

    def test_csv_rows(self):
        grid = build_grid("Z", [0.0, 1.0], 2)
        draws = sample(grid, 3, seed=1)
        rows = draws_to_csv_rows(draws, grid.labels())
        assert sample_csv_header() == "sample_id,level,u,value"
        assert len(rows) == 3 * grid.dim
        sid, level, u, value = rows[0].split(",")
        assert (sid, level, u) == ("0", "1", "0.0")
        float(value)  # parses


class TestWhiteNoise:
    def test_mesh_l2_norm_matches_variance(self):
        # deterministic Riemann check: the diagonal of the mesh covariance is
        # the integrand's squared L^2 norm, which must hit log 2 within 1e-3
        # at a fine y-mesh (the y-discretization dominates the bias)
        cov = whitenoise_mesh_covariance([0.0], A=30.0, x_step=0.01, y_step=0.002)
        assert cov[0, 0] == pytest.approx(math.log(2.0), abs=1e-3)

    def test_mesh_covariance_curve(self):
        cov = whitenoise_mesh_covariance([0.0, 1.0], A=30.0, x_step=0.01, y_step=0.002)
        assert cov[0, 1] == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-3)
        assert cov[0, 1] == cov[1, 0]
        assert cov[0, 0] == pytest.approx(cov[1, 1], abs=1e-12)

    def test_shift_invariance(self):
        a = whitenoise_mesh_covariance([0.0, 0.5], A=30.0, x_step=0.01, y_step=0.01)
        b = whitenoise_mesh_covariance([2.0, 2.5], A=32.0, x_step=0.01, y_step=0.01)
        assert a[0, 1] == pytest.approx(b[0, 1], abs=2e-4)

    def test_sampler_empirical_variance(self):
        draws = sample_Z1_whitenoise([0.0, 1.0], x_step=0.02, y_step=0.01, n=20_000, seed=6)
        assert draws.shape == (20_000, 2)
        var = float(draws[:, 0].var())
        # statistical 4 SE (~0.028) plus the measured mesh bias (~4e-3)
        assert abs(var - math.log(2.0)) <= 0.03

    def test_indistinguishable_from_factorization(self):
        # the module-level cross-check: both samplers target E Z_1(u) Z_1(v)
        n = 20_000
        white = sample_Z1_whitenoise([0.0, 1.0], x_step=0.02, y_step=0.01, n=n, seed=21)
        grid = build_grid("Z", [0.0, 1.0], 1)
        factor = sample(grid, n, seed=22)
        cw = float(np.mean(white[:, 0] * white[:, 1]))
        cf = float(np.mean(factor[:, 0] * factor[:, 1]))
        assert abs(cw - cf) <= 0.03

    def test_deterministic_per_seed(self):
        a = sample_Z1_whitenoise([0.0], n=5, seed=8, x_step=0.05, y_step=0.05)
        b = sample_Z1_whitenoise([0.0], n=5, seed=8, x_step=0.05, y_step=0.05)
        assert_allclose(a, b, rtol=0)

    def test_window_guard(self):
        with pytest.raises(ValidationError):
            whitenoise_mesh_covariance([0.0], A=10.0)

    def test_cell_budget_guard(self):
        with pytest.raises(NumericalError):
            whitenoise_mesh_covariance([0.0], A=30.0, x_step=1e-4, y_step=1e-5)

    def test_step_validation(self):
        with pytest.raises(ValidationError):
            whitenoise_mesh_covariance([0.0], A=30.0, x_step=-0.01)
