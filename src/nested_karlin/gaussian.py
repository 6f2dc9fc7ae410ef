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

Both samplers draw in blocks of _FACTOR_ROWS samples: a block takes its
standard normals in order from the sampler's ``(seed, stream)`` generator
and is multiplied by the covariance factor.  ``sample_blocks`` and
``whitenoise_blocks`` yield the blocks one at a time, each drawn when it is
asked for, so a run of any length holds one block of draws;
``sample`` and ``sample_Z1_whitenoise`` gather the same blocks into one
array, and refuse a count whose draws would not fit in physical memory
before any draw.

Draws leave as CSV rows ``sample_id,level,u,value``: ``draws_to_csv_rows``
formats one block of samples as text, numbering them from its ``start``
argument, so a writer can emit a large run block by block, and can format
the blocks in separate worker processes and write them in order, as the
CLI's ``sample`` commands do.  Each value prints as its float's ``repr``,
from one of two writers: ``repr`` itself, or, when orjson can be imported,
``orjson.dumps``, whose shortest round-trip texts are ``repr``'s for
finite values with 1e-4 <= |x| < 1e16; a value outside that range keeps
``repr``.  orjson is imported at the first block, never with the package,
and is used only if it writes a fixed probe of values as ``repr`` does, so
the bytes are the same with it and without it, and a version that writes
otherwise is not used.
"""

from __future__ import annotations

import functools
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
    "sample_blocks",
    "whitenoise_mesh_covariance",
    "sample_Z1_whitenoise",
    "whitenoise_blocks",
    "draws_to_csv_rows",
    "SAMPLE_CSV_HEADER",
]

_JITTER_START = 1e-12
_JITTER_MAX = 1e-8
_CELL_BUDGET = 10**8
# samples per block of draws, and per block of `sample` CSV rows
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
    _check_bytes(8.0 * dim * dim, f"the covariances of {L} levels at {m} offsets")
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
    return _held(grid.cholesky, check_whole("sample count", n, 1), seed, 0)


def sample_blocks(grid: LimitCovarianceGrid, n: int, seed: int):
    """The rows of ``sample(grid, n, seed)`` as blocks of _FACTOR_ROWS rows."""
    return _draw_blocks(grid.cholesky, check_whole("sample count", n, 1), seed, 0)


def _draw_blocks(chol: np.ndarray, n: int, seed: int, stream: int):
    """The rows z @ chol.T for n rows z of standard normals, taken in order
    from the ``(seed, stream)`` generator: an iterator of blocks of
    _FACTOR_ROWS rows, the last one shorter when n is not a multiple, each
    drawn when it is asked for, so any n streams in the memory of a block."""
    dim = chol.shape[0]
    rng = _keyed_rng(seed, stream)

    def blocks():
        for start in range(0, n, _FACTOR_ROWS):
            z = rng.standard_normal((min(_FACTOR_ROWS, n - start), dim))
            # a one-row product goes through BLAS's vector kernel, which rounds
            # differently: one row is factored as the first of two equal rows
            yield ((np.repeat(z, 2, axis=0) if len(z) == 1 else z) @ chol.T)[:len(z)]

    return blocks()


def _held(chol: np.ndarray, n: int, seed: int, stream: int) -> np.ndarray:
    """The n rows of ``_draw_blocks(chol, n, seed, stream)`` in one array, so
    the draws are held once, beside one block.  A count n whose draws would
    not fit in memory is refused here, before any draw."""
    dim = chol.shape[0]
    _check_bytes(8.0 * n * dim, f"{n} samples of {dim} values")
    draws = np.empty((n, dim))
    for start, block in zip(range(0, n, _FACTOR_ROWS), _draw_blocks(chol, n, seed, stream)):
        draws[start:start + len(block)] = block
    return draws


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
    return _held(_whitenoise_factor(u_grid, x_window, x_step, y_step), n, seed, 1)


def whitenoise_blocks(u_grid, x_window: float, x_step: float, y_step: float, n: int, seed: int):
    """The rows of ``sample_Z1_whitenoise`` with the same arguments, as
    blocks of _FACTOR_ROWS rows."""
    n = check_whole("sample count", n, 1)
    return _draw_blocks(_whitenoise_factor(u_grid, x_window, x_step, y_step), n, seed, 1)


def _whitenoise_factor(u_grid, x_window, x_step, y_step) -> np.ndarray:
    """The Cholesky factor of ``whitenoise_mesh_covariance``."""
    cov = whitenoise_mesh_covariance(u_grid, A=x_window, x_step=x_step, y_step=y_step)
    return _factor_with_jitter(cov)[0]


def draws_to_csv_rows(draws: np.ndarray, labels, start: int = 0) -> str:
    """The CSV text, rows `sample_id,level,u,value` each ending in a newline,
    of a block of draws whose columns carry the (level, u) labels; sample
    ids count from ``start``.

    Each run of _CSV_ROWS samples is one format, from the labels, filled
    once with the run's values, so each prints as ``repr`` of the float and
    ``float(value)`` gives back each draw exactly.  The values' texts come
    from ``%r``, or, for a float64 block when orjson is installed and
    writes ``_orjson``'s probe as ``repr`` does, from ``_shortest_texts``
    through ``%s``: orjson's texts for values with 1e-4 <= |x| < 1e16 and
    ``repr``'s for the rest, the same bytes about 3 times faster.  Writers
    pass one block at a time, so the text of a large run is never all held
    at once.  The text of a block depends on nothing but its arguments: the
    CLI's ``sample`` commands format blocks in pool workers, a few at a
    time, and write them in order.
    """
    start = check_whole("start", start, 0)
    try:
        heads = [f",{check_whole('level', level, 1)},{float(u)!r}," for level, u in labels]
    except (TypeError, ValueError):  # ValueError includes check_whole's refusal
        raise ValidationError(f"labels must be (level, u) pairs, got {labels!r}") from None
    if not (isinstance(draws, np.ndarray) and draws.shape[1:] == (len(heads),)):
        raise ValidationError(f"draws must be an array of {len(heads)} columns, "
                              f"one per label, got {draws!r}")
    return "".join([_fill(heads, draws[lo:lo + _CSV_ROWS], start + lo)
                    for lo in range(0, len(draws), _CSV_ROWS)])


# samples per format: the value texts of this many are held at once (a
# whole block's would double the writer's peak memory, for no gain in speed)
_CSV_ROWS = 128


def _fill(heads, draws: np.ndarray, start: int) -> str:
    """The CSV rows of ``draws``, sample ids counting from ``start``, from
    one format with a slot per value, each label's ``head`` followed by one."""
    flat = draws.ravel()
    texts = _shortest_texts(flat)
    # the sample id is joined in before each head: "" id ,l,u,%r\n id ...
    template = [""] + [head + ("%r\n" if texts is None else "%s\n") for head in heads]
    return ("".join([str(sid).join(template) for sid in range(start, start + len(draws))])
            % tuple(flat.tolist() if texts is None else texts))


# orjson writes a finite float x with 1e-4 <= |x| < 1e16 as repr does, the
# shortest text that reads back as x; outside that range its notation
# differs (0.0000610 for 6.1e-05, 4.2e16 for 4.2e+16, null for nan)
_SHORTEST_LOW, _SHORTEST_HIGH = 1e-4, 1e16


def _shortest_texts(flat: np.ndarray):
    """The texts of a flat float64 array's values as ``repr`` writes them,
    from one ``orjson.dumps`` of the array, with ``repr`` itself for each
    value outside [1e-4, 1e16) or not finite; None when the array is
    empty or not float64, or ``_orjson`` gives no writer."""
    orjson = _orjson() if flat.dtype == np.float64 and flat.size else None
    if orjson is None:
        return None
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    a = np.abs(flat)
    for i in np.flatnonzero(~((a >= _SHORTEST_LOW) & (a < _SHORTEST_HIGH))).tolist():
        texts[i] = repr(float(flat[i]))
    return texts


@functools.cache
def _orjson():
    """The orjson module, imported at the first call, if it writes a fixed
    probe of values in [1e-4, 1e16) as ``repr`` does, text for text; else
    None, and the process keeps to ``repr``, so a version of orjson whose
    notation differs from ``repr``'s is never used."""
    try:
        import orjson
    except ImportError:
        return None
    # powers of 2 and 10 and a step either side, thirds of them, and 512
    # random bit patterns over the range, of both signs
    edges = np.array([10.0**k for k in range(-4, 16)] + [2.0**k for k in range(-13, 54)])
    range_bits = np.array([_SHORTEST_LOW, _SHORTEST_HIGH]).view(np.int64)
    bits = np.random.default_rng(0).integers(*range_bits, 512)
    probe = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                            edges / 3.0, bits.view(np.float64)])
    probe = probe[(probe >= _SHORTEST_LOW) & (probe < _SHORTEST_HIGH)]
    probe = np.concatenate([probe, -probe])
    want = "[" + ",".join(map(repr, probe.tolist())) + "]"
    try:
        ok = orjson.dumps(probe, option=orjson.OPT_SERIALIZE_NUMPY).decode() == want
    except (AttributeError, TypeError, ValueError):  # no numpy option, or refused
        ok = False
    return orjson if ok else None
