"""Output checks for the benchmark workloads.

Every check reads what a CLI command wrote and either recomputes the values
along a route that shares no code with the package (explicit sums with
``scipy.stats``, exact rationals, the seeded normal stream rebuilt with
numpy), or tests a property the method must have.  No check compares against
a stored copy of an earlier output.

Each check returns a list of error strings; an empty list means the output
was accepted.
"""

from __future__ import annotations

import csv
import filecmp
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import stats

# The program's targets are certified to within the prune budget; the
# recomputed sums add float rounding of order 1e-15 relative.  The relative
# slack sits four orders of magnitude below the 1e-6 perturbation the tests
# use, and the absolute slack below the smallest value checked.
REL_TOL = 1e-10
LIMIT_TOL = 1e-13
SAMPLE_RESIDUAL_TOL = 1e-11
SAMPLE_SE_BAND = 5.0

_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(path) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def number(text: str, errors: list, where: str) -> float:
    """Parse one CSV number.  A numpy scalar repr such as
    ``np.float64(1e-09)`` is not a CSV number: it is reported as an error,
    and its value is still used so the value checks keep running."""
    try:
        return float(text)
    except ValueError:
        pass
    match = _NUMPY_REPR.fullmatch(text)
    if match is None:
        errors.append(f"{where}: {text!r} is not a number")
        return math.nan
    errors.append(f"{where}: {text!r} is a numpy repr, not a CSV number")
    return float(match.group(1))


def _close(got: float, want: float, abs_tol: float) -> bool:
    return abs(got - want) <= abs_tol + REL_TOL * abs(want)


def _cells(rows: list, errors: list) -> dict:
    """cell_id -> row, with empirical/se/target parsed to floats."""
    out = {}
    for row in rows:
        cid = row["cell_id"]
        for key in ("empirical", "se", "target"):
            row[key] = number(row[key], errors, f"{cid} {key}")
        out[cid] = row
    return out


def _require(cells: dict, cid: str, errors: list):
    row = cells.get(cid)
    if row is None:
        errors.append(f"missing cell {cid}")
    return row


# ---------------------------------------------------------------------------
# independent references


def weibull_weights(alpha: float, tail_exponent: float = 100.0) -> np.ndarray:
    """p_k = exp(-k^alpha) / sum_i exp(-i^alpha), summed here out to
    k^alpha = tail_exponent, where the neglected mass is below e^-90."""
    k_max = math.ceil(tail_exponent ** (1.0 / alpha))
    w = np.exp(-np.arange(1, k_max + 1, dtype=float) ** alpha)
    return w / math.fsum(w)


def b_const(l: int) -> float:
    """b_l = log 2 - sum_{k<l} (2k-1)! / ((k!)^2 4^k), the series in exact
    rationals."""
    s = sum(
        (Fraction(math.factorial(2 * k - 1), math.factorial(k) ** 2 * 4**k)
         for k in range(1, l)),
        Fraction(0),
    )
    return math.log(2.0) - float(s)


def b_star_const(l: int) -> float:
    """b*_l = (1 - C(2l, l) 2^{-2l-1}) / l in exact rationals."""
    return float((1 - Fraction(math.comb(2 * l, l), 2 ** (2 * l + 1))) / l)


def z1_cov(delta: float) -> float:
    """Covariance of the level-1 limit process at offset delta."""
    return math.log1p(math.exp(-abs(delta)))


def _poisson_tail_sum(p: np.ndarray, l: int, t: float) -> float:
    return math.fsum(stats.poisson.sf(l - 1, p * t))


def _pair_tail_sum(p: np.ndarray, l: int, t: float) -> float:
    """sum over generation-2 boxes (k1, k2) of P{Po(p_k1 p_k2 t) >= l}."""
    return math.fsum(
        math.fsum(stats.poisson.sf(l - 1, pk * p * t)) for pk in p.tolist()
    )


# ---------------------------------------------------------------------------
# per-command checks


def check_verify_summary(returncode: int, stdout: str) -> list:
    if returncode != 0:
        return [f"exit code {returncode}"]
    if "passed=True" not in stdout.split():
        return [f"summary does not say passed=True: {stdout.strip()!r}"]
    return []


def check_moment(csv_path, manifest_path) -> list:
    """Targets of mean_K, mean_K_star and var_K (j = 1, every level) and of
    mean_K (j = 2, l = 1) against explicit sums, and the identity
    E K*(l) = E K(l) - E K(l+1) across the target column."""
    errors: list = []
    cfg = read_manifest(manifest_path)
    t, prune = float(cfg["t"]), float(cfg["prune"])
    J, L = int(cfg["generations"]), int(cfg["levels"])
    cells = _cells(read_csv(csv_path), errors)
    p1 = weibull_weights(float(cfg["alpha"]))
    refs = {}
    for l in range(1, L + 1):
        m = p1 * t
        refs[f"mean_K:j=1;l={l}"] = _poisson_tail_sum(p1, l, t)
        refs[f"mean_K_star:j=1;l={l}"] = math.fsum(stats.poisson.pmf(l, m))
        refs[f"var_K:j=1;l={l}"] = math.fsum(
            stats.poisson.sf(l - 1, m) * stats.poisson.cdf(l - 1, m)
        )
    if J >= 2:
        p2 = weibull_weights(float(cfg["alpha"]), tail_exponent=50.0)
        refs["mean_K:j=2;l=1"] = _pair_tail_sum(p2, 1, t)
    for cid, want in refs.items():
        row = _require(cells, cid, errors)
        if row is not None and not _close(row["target"], want, prune):
            errors.append(f"{cid}: target {row['target']!r} != sum {want!r}")
    for j in range(1, J + 1):
        for l in range(1, L):
            rows = [
                _require(cells, f"{name}:j={j};l={lev}", errors)
                for name, lev in (("mean_K_star", l), ("mean_K", l), ("mean_K", l + 1))
            ]
            if None in rows:
                continue
            star, k_l, k_next = (r["target"] for r in rows)
            if not _close(star, k_l - k_next, 3.0 * prune):
                errors.append(
                    f"j={j},l={l}: E K*(l) {star!r} != E K(l) - E K(l+1) "
                    f"{k_l - k_next!r}"
                )
    return errors


def check_clt(csv_path, manifest_path) -> list:
    """j = 1 ``cov:`` targets against explicit sums over the paper's
    normalization c_1 f_1(T); ``limit_cov`` diagonal targets against b_l and
    level-1 off-diagonal targets against log(1 + e^{-|u - v|})."""
    errors: list = []
    cfg = read_manifest(manifest_path)
    alpha, T, prune = float(cfg["alpha"]), float(cfg["T"]), float(cfg["prune"])
    cells = _cells(read_csv(csv_path), errors)
    p = weibull_weights(alpha)
    beta = 1.0 / alpha - 1.0
    # c_1 = Gamma(beta+1) / Gamma(beta+1) = 1; f_1(T) = T^beta * (1/alpha)
    norm = T**beta / alpha
    seen_cov = seen_limit = 0
    for cid, row in cells.items():
        if int(row["j"]) != 1 or not cid.startswith(("cov:", "limit_cov:")):
            continue
        l, u, v = int(row["l"]), float(row["u"]), float(row["v"])
        if cid.startswith("cov:"):
            s, t = math.exp(T + min(u, v)), math.exp(T + max(u, v))
            want = math.fsum(
                stats.poisson.sf(l - 1, p * s) * stats.poisson.cdf(l - 1, p * t)
            ) / norm
            seen_cov += 1
            if not _close(row["target"], want, prune / norm):
                errors.append(f"{cid}: target {row['target']!r} != sum {want!r}")
        else:
            if u == v:
                want = b_const(l)
            elif l == 1:
                want = z1_cov(u - v)
            else:
                continue
            seen_limit += 1
            if not _close(row["target"], want, LIMIT_TOL):
                errors.append(f"{cid}: limit target {row['target']!r} != {want!r}")
    if not seen_cov or not seen_limit:
        errors.append(f"found {seen_cov} cov and {seen_limit} limit_cov j=1 cells")
    return errors


def check_gap(csv_path, manifest_path) -> list:
    """j = 1 depoissonization gaps against explicit Poisson and binomial sums
    within each row's certified se; the l = 1 bound is 1 + e^{-1}; and
    gap + se <= bound on every row."""
    errors: list = []
    cfg = read_manifest(manifest_path)
    cells = _cells(read_csv(csv_path), errors)
    p = weibull_weights(float(cfg["alpha"]))
    seen = 0
    for cid, row in cells.items():
        gap, se, bound = row["empirical"], row["se"], row["target"]
        l, t = int(row["l"]), float(row["T"])
        if not gap + se <= bound:
            errors.append(f"{cid}: gap + se = {gap + se!r} exceeds bound {bound!r}")
        if l == 1 and not _close(bound, 1.0 + math.exp(-1.0), LIMIT_TOL):
            errors.append(f"{cid}: l=1 bound {bound!r} != 1 + e^-1")
        if int(row["j"]) != 1:
            continue
        seen += 1
        n = math.floor(t)
        want = abs(math.fsum(
            stats.poisson.sf(l - 1, p * t) - stats.binom.sf(l - 1, n, p)
        ))
        if not _close(gap, want, se):
            errors.append(f"{cid}: gap {gap!r} != sum {want!r} within se {se!r}")
    if not seen:
        errors.append("no j=1 gap rows")
    return errors


def check_trend(csv_path, manifest_path) -> list:
    """Every var_ratio target equals b_l."""
    errors: list = []
    cells = _cells(read_csv(csv_path), errors)
    seen = 0
    for cid, row in cells.items():
        if cid.startswith("var_ratio:") and ":T=" in cid:
            seen += 1
            want = b_const(int(row["l"]))
            if not _close(row["target"], want, LIMIT_TOL):
                errors.append(f"{cid}: target {row['target']!r} != b_l {want!r}")
    if not seen:
        errors.append("no var_ratio rows")
    return errors


def check_limits_table(csv_path) -> list:
    """abs_diff is |closed_form - quadrature| and at most 1e-9 on every row;
    the same-level zero-offset entries equal b*_l (X) and b_l (Z)."""
    errors: list = []
    rows = read_csv(csv_path)
    for row in rows:
        where = f"{row['kind']},{row['l1']},{row['l2']},{row['delta']}"
        closed = number(row["closed_form"], errors, where)
        quad = number(row["quadrature"], errors, where)
        diff = number(row["abs_diff"], errors, where)
        if diff != abs(closed - quad) or not diff <= 1e-9:
            errors.append(f"{where}: abs_diff {diff!r} vs |{closed!r} - {quad!r}|")
        l1, l2 = int(row["l1"]), int(row["l2"])
        if l1 == l2 and float(row["delta"]) == 0.0:
            want = b_star_const(l1) if row["kind"] == "X" else b_const(l1)
            if not _close(closed, want, LIMIT_TOL):
                errors.append(f"{where}: closed form {closed!r} != {want!r}")
    if not rows:
        errors.append("empty limits table")
    return errors


def _sample_matrix(csv_path, labels: list, errors: list) -> np.ndarray:
    """Draw matrix (samples x len(labels)) from `sample_id,level,u,value`
    rows, after checking the rows enumerate samples x labels in order."""
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    d = len(labels)
    if data.shape[0] % d:
        errors.append(f"{data.shape[0]} rows is not a multiple of {d} columns")
        return np.empty((0, d))
    n = data.shape[0] // d
    want_ids = np.repeat(np.arange(n, dtype=float), d)
    want_lu = np.tile(np.asarray(labels, dtype=float), (n, 1))
    if not (np.array_equal(data[:, 0], want_ids)
            and np.array_equal(data[:, 1:3], want_lu)):
        errors.append("sample_id/level/u columns do not enumerate the grid")
    return data[:, 3].reshape(n, d)


def _check_draws(draws: np.ndarray, key: list, factor_cov: dict,
                 variances: list, errors: list) -> None:
    """The draws must be a fixed linear map F of the documented seeded
    standard-normal stream (Philox keyed by ``key``), with F^T F equal to
    the covariance the sampler claims (``factor_cov`` maps column pairs to
    entries); and each column's sample variance must match ``variances``
    within 5 standard errors."""
    n, d = draws.shape
    if n < 2:
        errors.append("fewer than two draws")
        return
    rng = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    z = rng.standard_normal((n, d))
    factor = np.linalg.lstsq(z, draws, rcond=None)[0]
    residual = float(np.max(np.abs(draws - z @ factor)))
    if not residual <= SAMPLE_RESIDUAL_TOL:
        errors.append(f"draws are not linear in the seeded stream: residual {residual!r}")
    gram = factor.T @ factor
    for (a, b), want in factor_cov.items():
        if abs(gram[a, b] - want) > SAMPLE_RESIDUAL_TOL:
            errors.append(f"factor covariance [{a},{b}] {gram[a, b]!r} != {want!r}")
    var = draws.var(axis=0, ddof=1)
    for a, want in enumerate(variances):
        se = want * math.sqrt(2.0 / (n - 1))
        if abs(var[a] - want) > SAMPLE_SE_BAND * se:
            errors.append(
                f"column {a}: sample variance {var[a]!r} vs {want!r} "
                f"exceeds {SAMPLE_SE_BAND} se ({se!r})"
            )


def check_sample_limit(csv_path, *, levels: int, u_grid: list, seed: int) -> list:
    """Draws of the Z grid: the factor's covariance has b_l on the diagonal
    and log(1 + e^{-|u - v|}) between level-1 columns."""
    errors: list = []
    labels = [(l, u) for l in range(1, levels + 1) for u in u_grid]
    draws = _sample_matrix(csv_path, labels, errors)
    known = {}
    for a, (la, ua) in enumerate(labels):
        for b, (lb, ub) in enumerate(labels):
            if a == b:
                known[(a, b)] = b_const(la)
            elif la == lb == 1:
                known[(a, b)] = z1_cov(ua - ub)
    _check_draws(draws, [seed % 2**64, 0], known,
                 [b_const(l) for l, _ in labels], errors)
    return errors


def whitenoise_mesh_cov(u_grid: list, x_window: float, x_step: float,
                        y_step: float) -> np.ndarray:
    """Covariance of the discretized white-noise integral of Z_1, summed
    cell by cell over the literal mesh of [-A, A] x [0, 1]: the integrand at
    cell centre (x, y) is 1{y <= q_u(x)} - q_u(x), q_u(x) = exp(-e^{-(x-u)})."""
    mx, my = round(2.0 * x_window / x_step), round(1.0 / y_step)
    x = -x_window + (np.arange(mx) + 0.5) * x_step
    y = (np.arange(my) + 0.5) * y_step
    f = []
    for u in u_grid:
        q = np.exp(-np.exp(-(x - u)))[:, None]
        f.append(((y[None, :] <= q) - q).ravel())
    f = np.asarray(f)
    return x_step * y_step * (f @ f.T)


def check_sample_whitenoise(csv_path, *, u_grid: list, seed: int,
                            x_window: float, x_step: float, y_step: float) -> list:
    """Draws of Z_1 from the white-noise construction: the factor's
    covariance is the mesh covariance, and the sample variance matches
    b_1 = log 2 (the mesh bias, about 4e-3 at a 0.01 step, sits well inside
    5 standard errors at the workload's sample count)."""
    errors: list = []
    labels = [(1, u) for u in u_grid]
    draws = _sample_matrix(csv_path, labels, errors)
    mesh = whitenoise_mesh_cov(u_grid, x_window, x_step, y_step)
    known = {(a, b): float(mesh[a, b]) for a in range(len(u_grid))
             for b in range(len(u_grid))}
    _check_draws(draws, [seed % 2**64, 1], known, [b_const(1)] * len(u_grid), errors)
    return errors


# ---------------------------------------------------------------------------
# determinism


def compare_outputs(first_dir, other_dir, names: list) -> list:
    """Byte equality of each named output between two run directories."""
    errors = []
    for name in names:
        a, b = Path(first_dir) / name, Path(other_dir) / name
        if not (a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False)):
            errors.append(f"{name} differs between {first_dir} and {other_dir}")
    return errors
