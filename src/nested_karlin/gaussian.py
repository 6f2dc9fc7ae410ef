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

Only Z_1 has a white-noise path.  With G_l the log of a box's l-th fill
epoch, Z_l over u and all levels at one u need only noise on R x [0, 1]
with y -> G_l; cross levels at u != v and X_l over u need the pair
(G_l, G_m - G_l), a 3-D mesh.  Their covariances are checked against the
quadrature oracle instead.

Both samplers hold their draws once: the standard normals are drawn into one
matrix, which is refused first if it would not fit in physical memory, and
the covariance factor is applied to it in place, one block of rows at a time.

Draws leave as CSV rows ``sample_id,level,u,value``: ``draws_to_csv_rows``
formats one block of samples as text, numbering them from its ``start``
argument, so a writer can emit a large run block by block, and can format
the blocks in separate worker processes and write them in order, as the
CLI's ``sample`` commands do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, check_grid, check_real, check_whole
from .limits import closed_cov
from .scheme import _check_bytes, _keyed_rng

__all__ = [
    "LimitCovarianceGrid",
    "build_grid",
    "sample",
    "whitenoise_mesh_covariance",
    "sample_Z1_whitenoise",
    "draws_to_csv_rows",
    "SAMPLE_CSV_HEADER",
]

_JITTER_START = 1e-12
_JITTER_MAX = 1e-8
_CELL_BUDGET = 10**8
# the fewest rows of a block product of the draws with the factor, the one
# copy made beside the draws themselves
_FACTOR_ROWS = 1024

SAMPLE_CSV_HEADER = "sample_id,level,u,value"


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


def _u_array(u_grid, order=None) -> np.ndarray:
    """``u_grid`` as ``check_grid`` gives it, of a finite spread u.max() - u.min()."""
    u = check_grid("u_grid", u_grid, order=order)
    if not math.isfinite(float(u.max()) - float(u.min())):
        raise ValidationError(f"u_grid must have a finite spread, got {u.tolist()}")
    return u


def build_grid(kind: str, u_grid, L: int) -> LimitCovarianceGrid:
    """Assemble the closed-form covariance over levels 1..L and u_grid."""
    if kind not in ("Z", "X"):
        raise ValidationError(f"kind must be 'Z' or 'X', got {kind!r}")
    L = check_whole("L", L, 1)
    # a duplicated point is allowed: the factorization jitters it
    u = _u_array(u_grid, "nondecreasing")
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
    chol, jitter = _factor_with_jitter(mat)
    return LimitCovarianceGrid(
        kind=kind, u_grid=u, levels=L, matrix=mat,
        jitter_applied=jitter, cholesky=chol,
    )


def sample(grid: LimitCovarianceGrid, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws of the grid vector; rows are samples."""
    return _correlated_draws(grid.cholesky, n, seed, 0)


def _correlated_draws(chol: np.ndarray, n: int, seed: int, stream: int) -> np.ndarray:
    """n rows z @ chol.T from the standard normals of ``(seed, stream)``,
    factored in place one block of rows at a time, so the draws are held
    once; refused before drawing when they would not fit in memory."""
    n = check_whole("sample count", n, 1)
    dim = chol.shape[0]
    _check_bytes(8.0 * n * dim, f"{n} samples of {dim} values")
    z = _keyed_rng(seed, stream).standard_normal((n, dim))
    # blocks of _FACTOR_ROWS to 2 * _FACTOR_ROWS - 1 rows, and one draw as two rows:
    # a one-row product goes through BLAS's vector kernel, which rounds differently
    if n == 1:
        z = np.repeat(z, 2, axis=0)
    for block in np.array_split(z, max(1, n // _FACTOR_ROWS)):
        block[...] = block @ chol.T
    return z[:n]


def _column_profile(u_grid: np.ndarray, A: float, x_step: float, y_step: float):
    """Cell-center evaluations per x-column: q[u, column] and the count
    N[u, column] of y-centers lying at or below q."""
    # rounded as floats, which may be inf, so the budget is checked first
    mx, my = round(2.0 * A / x_step, 0), round(1.0 / y_step, 0)
    if mx < 1 or my < 1:
        raise ValidationError("x_step/y_step too coarse for the window")
    if mx * my > _CELL_BUDGET:
        raise NumericalError(
            f"white-noise mesh has {mx * my:.3g} cells (> {_CELL_BUDGET} budget)"
        )
    mx, my = int(mx), int(my)
    xc = -A + (np.arange(mx) + 0.5) * x_step
    with np.errstate(over="ignore"):  # q is 0 where e^{u - x} overflows
        q = np.exp(-np.exp(-(xc[None, :] - u_grid[:, None])))
    n_below = np.clip(np.floor(q / y_step + 0.5), 0, my).astype(np.int64)
    return q, n_below, mx, my


def whitenoise_mesh_covariance(u_grid, A: float = 30.0, x_step: float = 0.01, y_step: float = 0.01) -> np.ndarray:
    """Exact covariance of the discretized white-noise functional of Z_1.

    Per x-column the y-sum of products of two step integrands has the closed
    form N_min - q N' - q' N + M q q', so the whole matrix costs O(columns x
    grid^2) with no mesh materialized.
    """
    u = _u_array(u_grid)
    A = check_real("x window", A, 30.0)
    # the integrand of Z_1(u) lives near x = u, so u must stay well inside
    # [-A, A]: at A = 30 the variance at u = 29 is 0.41, not log 2
    if np.any(np.abs(u) > A / 2.0):
        raise ValidationError(f"u_grid must lie within half the x window, |u| <= {A / 2.0}, "
                              f"got {u.tolist()}")
    x_step, y_step = (check_real(name, h, 0.0, strict=True)
                      for name, h in (("x_step", x_step), ("y_step", y_step)))
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
    cov = whitenoise_mesh_covariance(u_grid, A=x_window, x_step=x_step, y_step=y_step)
    chol, _ = _factor_with_jitter(cov)
    return _correlated_draws(chol, n, seed, 1)


def draws_to_csv_rows(draws: np.ndarray, labels, start: int = 0) -> str:
    """The CSV text, rows `sample_id,level,u,value` each ending in a newline,
    of a block of draws whose columns carry the (level, u) labels; sample
    ids count from ``start``.

    One ``%r`` template per block, from the labels, is filled once per
    sample, so values print as ``repr`` of the float and ``float(value)``
    gives back each draw exactly.  Writers pass one block at a time, so the
    text of a large run is never all held at once.  The text of a block
    depends on nothing but its arguments: the CLI's ``sample`` commands
    format blocks in pool workers, a few at a time, and write them in order.
    """
    start = check_whole("start", start, 0)
    try:
        # the sample id is joined in before each label: "" id ,l,u,%r\n id ...
        template = [""] + [f",{check_whole('level', level, 1)},{float(u)!r},%r\n"
                           for level, u in labels]
    except (TypeError, ValueError):  # ValueError includes check_whole's refusal
        raise ValidationError(f"labels must be (level, u) pairs, got {labels!r}") from None
    if not (isinstance(draws, np.ndarray) and draws.shape[1:] == (len(template) - 1,)):
        raise ValidationError(f"draws must be an array of {len(template) - 1} columns, "
                              f"one per label, got {draws!r}")
    return "".join([str(sid).join(template) % tuple(values)
                    for sid, values in enumerate(draws.tolist(), start)])
