import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from nested_karlin.errors import NumericalError, ValidationError
from nested_karlin.gaussian import (
    _FACTOR_ROWS as B,
    SAMPLE_CSV_HEADER,
    build_grid,
    draws_to_csv_rows,
    sample,
    sample_Z1_whitenoise,
    whitenoise_mesh_covariance,
)
from nested_karlin.kernels import b_constants
from nested_karlin.limits import closed_cov
from nested_karlin.scheme import _keyed_rng


def csv_rows_reference(draws, labels):
    """The sample rows formatted one element at a time."""
    return [
        f"{sid},{level},{float(u)!r},{float(draws[sid, col])!r}"
        for sid in range(draws.shape[0])
        for col, (level, u) in enumerate(labels)
    ]


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

    @pytest.mark.parametrize("seed", [1.5, math.nan, math.inf])
    def test_seed_must_be_whole(self, seed):
        grid = build_grid("Z", [0.0], 1)
        with pytest.raises(ValidationError, match="seed"):
            sample(grid, 3, seed)
        with pytest.raises(ValidationError, match="seed"):
            sample_Z1_whitenoise([0.0], n=3, seed=seed, x_step=0.05, y_step=0.05)

    def test_negative_seed_wraps(self):
        grid = build_grid("Z", [0.0, 1.0], 1)
        assert_allclose(sample(grid, 5, -1), sample(grid, 5, 2**64 - 1), rtol=0)

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
        text = draws_to_csv_rows(draws, grid.labels())
        assert SAMPLE_CSV_HEADER == "sample_id,level,u,value"
        assert text.endswith("\n")
        rows = text.splitlines()
        assert len(rows) == 3 * grid.dim
        sid, level, u, value = rows[0].split(",")
        assert (sid, level, u) == ("0", "1", "0.0")
        float(value)  # parses

    def test_csv_rows_of_a_block_count_from_start(self):
        grid = build_grid("Z", [0.0, 0.5], 2)
        draws = sample(grid, 7, seed=2)
        labels = grid.labels()
        whole = draws_to_csv_rows(draws, labels)
        assert whole.splitlines() == csv_rows_reference(draws, labels)
        blocks = draws_to_csv_rows(draws[:3], labels) + draws_to_csv_rows(
            draws[3:], labels, start=3)
        assert blocks == whole
        assert draws_to_csv_rows(draws[:0], labels, start=5) == ""

    def test_csv_rows_reject_bad_blocks(self):
        labels = [(1, 0.0), (1, 1.0)]
        for bad in (-1, 1.5, math.nan):
            with pytest.raises(ValidationError):
                draws_to_csv_rows(np.zeros((2, 2)), labels, start=bad)
        for shape in ((2, 3), (2,)):
            with pytest.raises(ValidationError):
                draws_to_csv_rows(np.zeros(shape), labels)

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.integers(0, 10**12))
    @example(np.array([[-0.0, 0.0, 5e-324, -5e-324],
                       [2.2250738585072014e-308, 1e-310, 1e300, -1e300]]), 0)
    @settings(max_examples=80, deadline=None)
    def test_csv_rows_round_trip(self, draws, start):
        # float(value) gives back every draw bit for bit (the sign of -0.0
        # and subnormals included), and the ids and labels read back
        labels = [(c + 1, 0.25 * c) for c in range(draws.shape[1])]
        rows = draws_to_csv_rows(draws, labels, start).splitlines()
        assert len(rows) == draws.size
        back = np.empty_like(draws)
        for k, row in enumerate(rows):
            sid, level, u, value = row.split(",")
            i, c = divmod(k, draws.shape[1])
            assert (int(sid), int(level), float(u)) == (start + i, *labels[c])
            back[i, c] = float(value)
        assert back.tobytes() == draws.tobytes()

    @pytest.mark.parametrize("draw", [
        lambda n: sample(build_grid("Z", [0.0, 0.25, 0.5, 0.75, 1.0], 3), n, 1),
        lambda n: sample_Z1_whitenoise([0.0, 0.5, 1.0], n=n, seed=1),
    ], ids=["limit", "whitenoise"])
    def test_draws_are_held_once(self, draw):
        # the factor is applied in place, one block of rows at a time: the
        # peak allocation is the draws plus a block, not two copies; the
        # first call's lazy imports are made before tracing
        draw(2)
        tracemalloc.start()
        try:
            draws = draw(20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * draws.nbytes

    def test_blockwise_factor_matches_the_whole_product(self):
        # every block has at least two rows, so no product goes through the
        # one-row kernel, whose rounding differs; one draw is the first row
        # of a two-row product
        grid = build_grid("Z", [0.0, 0.5, 1.0], 2)
        for n in (1, 2, B - 1, B, B + 1, 2 * B + 1, 3 * B - 1):
            z = _keyed_rng(4, 0).standard_normal((max(n, 2), grid.dim))
            whole = (z @ grid.cholesky.T)[:n]
            assert sample(grid, n, 4).tobytes() == whole.tobytes(), n

    @pytest.mark.parametrize("seed", range(5))
    def test_one_draw_is_the_first_row_of_more(self, seed):
        # a one-row product would go through BLAS's vector kernel and differ
        # from the first row of n = 2 in the last bits of 5 to 9 of 15 values
        grid = build_grid("Z", [0.0, 0.25, 0.5, 0.75, 1.0], 3)
        for draw in (lambda n: sample(grid, n, seed),
                     lambda n: sample_Z1_whitenoise([0.0, 0.5, 1.0], n=n, seed=seed)):
            first = draw(1)
            assert first.shape[0] == 1
            for n in (2, 3000):
                assert first[0].tobytes() == draw(n)[0].tobytes(), n


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

    @pytest.mark.parametrize("u_grid, A", [([100.0], 30.0), ([0.0, -15.5], 30.0),
                                           ([20.0], 39.9), ([1e308], 30.0)])
    def test_offset_outside_half_window_rejected(self, u_grid, A):
        # near the window's edge the mesh misses most of the integrand: at
        # A = 30 the variance is 0.41 at u = 29 and 0 at u = 100, not log 2
        with pytest.raises(ValidationError, match="half the x window"):
            whitenoise_mesh_covariance(u_grid, A=A)
        with pytest.raises(ValidationError, match="half the x window"):
            sample_Z1_whitenoise(u_grid, x_window=A, n=3)

    def test_offset_at_half_window_accepted(self):
        cov = whitenoise_mesh_covariance([-15.0, 0.0, 15.0], A=30.0)
        assert np.diag(cov) == pytest.approx(cov[1, 1], abs=1e-12)

    def test_cell_budget_guard(self):
        with pytest.raises(NumericalError):
            whitenoise_mesh_covariance([0.0], A=30.0, x_step=1e-4, y_step=1e-5)

    def test_step_validation(self):
        with pytest.raises(ValidationError):
            whitenoise_mesh_covariance([0.0], A=30.0, x_step=-0.01)

    @pytest.mark.parametrize("u_grid, mesh", [
        ([0.0, math.nan], {}),
        ([math.inf], {}),
        ([-math.inf, 0.0], {}),
        ([0.0], {"A": math.nan}),
        ([0.0], {"A": math.inf}),
        ([0.0], {"x_step": math.nan}),
        ([0.0], {"x_step": math.inf}),
        ([0.0], {"y_step": math.nan}),
        ([0.0], {"y_step": math.inf}),
    ])
    def test_non_finite_input_rejected(self, u_grid, mesh):
        with pytest.raises(ValidationError):
            whitenoise_mesh_covariance(u_grid, **mesh)
        window = {"x_window" if k == "A" else k: v for k, v in mesh.items()}
        with pytest.raises(ValidationError):
            sample_Z1_whitenoise(u_grid, n=2, seed=0, **window)
