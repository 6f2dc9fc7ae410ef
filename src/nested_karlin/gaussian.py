"""Samplers for the Gaussian limit processes.

Two independent constructions of the stationary limit law:

* the production path assembles the closed-form covariance over a product
  (level, position) grid and draws via a lower-triangular factorization;
* a cross-check path discretizes the white-noise integral representation of
  the first-generation process Z_1 on a rectangular mesh of [-A, A] x [0, 1].

For the white-noise path we never materialize the mesh: the integrand is a
deterministic step function of the cell centers, so the law of the sampled
vector (one shared noise realization across all grid positions) is exactly
centered Gaussian with the mesh covariance, which has a closed per-column
form.  Sampling from that covariance is therefore *law-identical* to summing
literal per-cell Gaussians, at a tiny fraction of the cost; the mesh
dimensions still honor the documented cell budget.

Higher-level processes X_l need an (l+2)-dimensional noise domain and are
deliberately not given a white-noise path; their covariances are checked
against the quadrature oracle instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, check_whole
from .limits import closed_cov

__all__ = [
    "LimitCovarianceGrid",
    "build_grid",
    "sample",
    "whitenoise_mesh_covariance",
    "sample_Z1_whitenoise",
    "draws_to_csv_rows",
]

_JITTER_START = 1e-12
_JITTER_MAX = 1e-8
_CELL_BUDGET = 10**8

_SAMPLE_CSV_HEADER = "sample_id,level,u,value"


@dataclass(frozen=True)
class LimitCovarianceGrid:
    """Covariance of (process_l(u))_{l <= L, u in u_grid}, level-major:
    row index = (l-1) * len(u_grid) + u_index."""

    kind: str
    u_grid: np.ndarray
    levels: int
    matrix: np.ndarray
    jitter_applied: float
    cholesky: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def labels(self):
        """(level, u) pairs in row order."""
        return [
            (l, float(u)) for l in range(1, self.levels + 1) for u in self.u_grid
        ]


def _factor_with_jitter(mat: np.ndarray) -> tuple:
    """Cholesky with escalating diagonal jitter; the theoretical matrices are
    PSD, so needing more than _JITTER_MAX signals a formula bug."""
    try:
        return np.linalg.cholesky(mat), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_START
    eye = np.eye(mat.shape[0])
    while jitter <= _JITTER_MAX:
        try:
            return np.linalg.cholesky(mat + jitter * eye), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(
        f"covariance grid not PSD within jitter {_JITTER_MAX:g}"
    )


def build_grid(kind: str, u_grid, L: int) -> LimitCovarianceGrid:
    """Assemble the closed-form covariance over levels 1..L and u_grid."""
    if kind not in ("Z", "X"):
        raise ValidationError(f"kind must be 'Z' or 'X', got {kind!r}")
    L = check_whole("L", L, 1)
    u = np.asarray(list(u_grid), dtype=float)
    if u.size == 0:
        raise ValidationError("u_grid must be nonempty")
    if not np.all(np.isfinite(u)):
        raise ValidationError(f"u_grid must be finite, got {u.tolist()}")
    if np.any(np.diff(u) <= 0) and u.size > 1:
        # strictly increasing is the contract; duplicated points are allowed
        # only through the documented degenerate path (jitter), so flag any
        # non-increase that is not an exact duplication
        if np.any(np.diff(u) < 0):
            raise ValidationError("u_grid must be nondecreasing")
    m = u.size
    dim = L * m
    mat = np.empty((dim, dim))
    for a in range(dim):
        la, ua = a // m + 1, u[a % m]
        for b in range(a, dim):
            lb, ub = b // m + 1, u[b % m]
            val = closed_cov(kind, la, lb, ua - ub)
            mat[a, b] = val
            mat[b, a] = val
    mat = 0.5 * (mat + mat.T)
    chol, jitter = _factor_with_jitter(mat)
    return LimitCovarianceGrid(
        kind=kind, u_grid=u, levels=L, matrix=mat,
        jitter_applied=jitter, cholesky=chol,
    )


def sample(grid: LimitCovarianceGrid, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws of the grid vector; rows are samples."""
    n = check_whole("sample count", n, 1)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64)))
    z = rng.standard_normal((n, grid.dim))
    return z @ grid.cholesky.T


def _column_profile(u_grid: np.ndarray, A: float, x_step: float, y_step: float):
    """Cell-center evaluations per x-column: q[u, column] and the count
    N[u, column] of y-centers lying at or below q."""
    mx = int(round(2.0 * A / x_step))
    my = int(round(1.0 / y_step))
    if mx < 1 or my < 1:
        raise ValidationError("x_step/y_step too coarse for the window")
    if mx * my > _CELL_BUDGET:
        raise NumericalError(
            f"white-noise mesh has {mx * my} cells (> {_CELL_BUDGET} budget)"
        )
    xc = -A + (np.arange(mx) + 0.5) * x_step
    q = np.exp(-np.exp(-(xc[None, :] - u_grid[:, None])))
    n_below = np.clip(np.floor(q / y_step + 0.5), 0, my).astype(np.int64)
    return q, n_below, mx, my


def whitenoise_mesh_covariance(u_grid, A: float = 30.0, x_step: float = 0.01, y_step: float = 0.01) -> np.ndarray:
    """Exact covariance of the discretized white-noise functional of Z_1.

    Per x-column the y-sum of products of two step integrands has the closed
    form N_min - q N' - q' N + M q q', so the whole matrix costs O(columns x
    grid^2) with no mesh materialized.
    """
    u = np.asarray(list(u_grid), dtype=float)
    if u.size == 0:
        raise ValidationError("u_grid must be nonempty")
    if A < 30.0:
        raise ValidationError("x window must extend at least to |x| = 30")
    if x_step <= 0.0 or y_step <= 0.0:
        raise ValidationError("mesh steps must be > 0")
    q, nb, mx, my = _column_profile(u, A, x_step, y_step)
    m = u.size
    cov = np.empty((m, m))
    for a in range(m):
        for b in range(a, m):
            nmin = np.minimum(nb[a], nb[b])
            col = nmin - q[a] * nb[b] - q[b] * nb[a] + my * q[a] * q[b]
            val = x_step * y_step * float(np.sum(col))
            cov[a, b] = val
            cov[b, a] = val
    return cov


def sample_Z1_whitenoise(
    u_grid,
    x_window: float = 30.0,
    x_step: float = 0.01,
    y_step: float = 0.01,
    n: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Draws of Z_1 over u_grid from the discretized integral representation.

    All positions share one noise realization per draw; the returned law is
    exactly the one induced by per-cell independent N(0, cell-area) noise
    (see module docstring), including the discretization bias.
    """
    n = check_whole("sample count", n, 1)
    u = np.asarray(list(u_grid), dtype=float)
    cov = whitenoise_mesh_covariance(u, A=x_window, x_step=x_step, y_step=y_step)
    chol, _ = _factor_with_jitter(cov)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 1], dtype=np.uint64)))
    z = rng.standard_normal((n, u.size))
    return z @ chol.T


def draws_to_csv_rows(draws: np.ndarray, labels) -> "list[str]":
    """Rows `sample_id,level,u,value` for a draw matrix whose columns carry
    the (level, u) labels."""
    rows = []
    for sid in range(draws.shape[0]):
        for col, (level, u) in enumerate(labels):
            rows.append(f"{sid},{level},{float(u)!r},{float(draws[sid, col])!r}")
    return rows


def sample_csv_header() -> str:
    return _SAMPLE_CSV_HEADER
