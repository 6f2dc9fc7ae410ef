"""Monte Carlo and deterministic verification experiments.

Every experiment produces an ExperimentReport: a list of cells, each
carrying an empirical value, a standard error (or a certified numeric error
bound for deterministic experiments), a theoretical target, and a pass flag.
Statistical targets are always *exact finite-time* values from the moments
module — never asymptotic limits — so the pass criteria are free of
asymptotic bias; limit values appear only in unflagged diagnostic rows and
in the trend experiment, whose assertion is about monotone approach rather
than closeness.

Reproducibility: replica r of a run with master seed s draws from a
dedicated counter-based stream keyed by (s, r), and replica-level results
are assembled into a matrix ordered by r before any statistic is computed.
Worker processes compute disjoint replica ranges and exact targets, each a
pure function of its arguments, so reports are byte-identical for a fixed
(config, seed) regardless of the worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .kernels import b_constants, c_f_g
from .limits import closed_cov
from .moments import (
    cov_K_cross_gen,
    cov_K_cross_level,
    cov_K_same,
    cov_K_star_same,
    depoissonization_constant,
    mean_K,
    mean_K_binomial,
    mean_K_star,
)
from .scheme import simulate_deterministic, simulate_poissonized
from .weights import WeightFamily

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "ExperimentReport",
    "run_moment_check",
    "run_clt_check",
    "run_asymptotic_trend",
    "run_depoissonization_check",
    "REPORT_CSV_HEADER",
]

REPORT_CSV_HEADER = "experiment,cell_id,j,l,l2,u,v,T,empirical,se,target,target_kind,pass"

_MIN_STAT_REPLICAS = 100


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for all experiments; unused fields are ignored
    by runners that do not need them."""

    family_kind: str = "weibull"
    alpha: float = 0.5
    p: float = 0.5
    probs: tuple = ()
    t: float = 3000.0
    deterministic_n: int = 0  # when > 0, moment check runs the fixed-n scheme
    T: float = 8.0
    T_grid: tuple = (10.0, 15.0, 20.0, 25.0)
    t_grid: tuple = ()
    u_grid: tuple = (0.0, 0.5, 1.0)
    generations: int = 2
    levels: int = 3
    replicas: int = 2000
    seed: int = 2026
    prune: float = 1e-9
    threads: int = 1
    out: str = ""

    def family(self) -> WeightFamily:
        if self.family_kind == "weibull":
            return WeightFamily.weibull_like(self.alpha)
        if self.family_kind == "geometric":
            return WeightFamily.geometric(self.p)
        if self.family_kind == "finite":
            if not self.probs:
                raise ValidationError("finite family needs nonempty probs")
            return WeightFamily.finite(list(self.probs))
        raise ValidationError(f"unknown family kind {self.family_kind!r}")

    def manifest(self) -> str:
        pairs = [
            ("family_kind", self.family_kind),
            ("alpha", repr(self.alpha)),
            ("p", repr(self.p)),
            ("probs", ",".join(repr(x) for x in self.probs)),
            ("t", repr(self.t)),
            ("deterministic_n", self.deterministic_n),
            ("T", repr(self.T)),
            ("T_grid", ",".join(repr(x) for x in self.T_grid)),
            ("t_grid", ",".join(repr(x) for x in self.t_grid)),
            ("u_grid", ",".join(repr(x) for x in self.u_grid)),
            ("generations", self.generations),
            ("levels", self.levels),
            ("replicas", self.replicas),
            ("seed", self.seed),
            ("prune", repr(self.prune)),
        ]
        return "".join(f"{k}={v}\n" for k, v in pairs)


@dataclass(frozen=True)
class CellResult:
    experiment: str
    cell_id: str
    j: int
    l: int
    l2: int | None
    u: float | None
    v: float | None
    T: float | None
    empirical: float
    se: float
    target: float
    target_kind: str
    passed: bool | None  # None = diagnostic row, not flagged

    def csv_row(self) -> str:
        def num(x):
            return "" if x is None else repr(float(x))

        p = "" if self.passed is None else ("1" if self.passed else "0")
        l2 = "" if self.l2 is None else str(self.l2)
        cid = self.cell_id.replace(",", ";")
        return (
            f"{self.experiment},{cid},{self.j},{self.l},{l2},"
            f"{num(self.u)},{num(self.v)},{num(self.T)},{num(self.empirical)},"
            f"{num(self.se)},{num(self.target)},{self.target_kind},{p}"
        )


@dataclass
class ExperimentReport:
    experiment: str
    config: ExperimentConfig
    cells: list
    runtime_seconds: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def flagged(self) -> list:
        return [c for c in self.cells if c.passed is not None]

    @property
    def pass_fraction(self) -> float:
        flagged = self.flagged
        if not flagged:
            return 1.0
        return sum(1 for c in flagged if c.passed) / len(flagged)

    @property
    def passed(self) -> bool:
        threshold = self.notes.get("pass_fraction_required", 1.0)
        return self.pass_fraction >= threshold

    def to_csv(self) -> str:
        lines = [REPORT_CSV_HEADER]
        lines.extend(c.csv_row() for c in self.cells)
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())
        with open(path + ".manifest", "w") as fh:
            fh.write(f"experiment={self.experiment}\n")
            fh.write(self.config.manifest())


# ---------------------------------------------------------------------------
# worker pool: replica chunks and exact targets


def _family_args(cfg: ExperimentConfig) -> tuple:
    return (cfg.family_kind, cfg.alpha, cfg.p, tuple(cfg.probs))


def _family_from_args(args: tuple) -> WeightFamily:
    kind, alpha, p, probs = args
    if kind == "weibull":
        return WeightFamily.weibull_like(alpha)
    if kind == "geometric":
        return WeightFamily.geometric(p)
    return WeightFamily.finite(list(probs))


def _replica_chunk(payload: tuple) -> np.ndarray:
    """Worker: simulate a contiguous replica range, return the value matrix
    (one row per replica: K then K*, flattened over (j, l, grid))."""
    fam_args, times, J, L, seed, r_lo, r_hi, det_n = payload
    family = _family_from_args(fam_args)
    rows = []
    for r in range(r_lo, r_hi):
        if det_n:
            traj = simulate_deterministic(
                family, det_n, J, L, [int(x) for x in times], seed, replica=r
            )
        else:
            traj = simulate_poissonized(family, times, J, L, seed, replica=r)
        rows.append(
            np.concatenate([traj.K.ravel(), traj.K_star.ravel()]).astype(float)
        )
    return np.asarray(rows)


def _exact_target(fam_args: tuple, fn, args: tuple, prune: float):
    """Worker: one exact moment ``fn(family, *args, prune=prune)``.  The
    family is rebuilt from its arguments: a geometric family holds a lambda
    and does not pickle."""
    return fn(_family_from_args(fam_args), *args, prune=prune)


def _replica_payloads(cfg: ExperimentConfig, times, threads: int) -> list:
    """Contiguous replica ranges covering 0..R-1 in order: one range in
    process, about four per worker otherwise."""
    R = int(cfg.replicas)
    if R < _MIN_STAT_REPLICAS:
        raise ValidationError(
            f"statistical experiments need >= {_MIN_STAT_REPLICAS} replicas, got {R}"
        )
    payload = (
        _family_args(cfg),
        tuple(float(x) for x in times),
        cfg.generations,
        cfg.levels,
        cfg.seed,
    )
    chunk = R if threads == 1 else max(1, math.ceil(R / (4 * threads)))
    det_n = int(cfg.deterministic_n)
    return [payload + (lo, min(lo + chunk, R), det_n) for lo in range(0, R, chunk)]


def _run_pool(cfg: ExperimentConfig, family: WeightFamily, targets, times=None):
    """Compute a run's exact targets and, when ``times`` is given, its
    replica value matrix (replicas, 2*J*L*G), on one pool of ``cfg.threads``
    workers.

    ``targets`` lists ``(fn, args)`` pairs, each computed once as
    ``fn(family, *args, prune=cfg.prune)``; the returned lookup
    ``estimate(fn, *args)`` gives its MomentEstimate.  Every exact moment is
    a pure function of its arguments and replica r always draws from the
    stream keyed by (seed, r), so the results do not depend on the worker
    count.  With one worker everything runs in this process, through the
    functions as listed.
    """
    targets = list(dict.fromkeys(targets))
    threads = max(1, int(cfg.threads))
    payloads = [] if times is None else _replica_payloads(cfg, times, threads)
    if threads == 1:
        parts = [_replica_chunk(p) for p in payloads]
        values = [fn(family, *args, prune=cfg.prune) for fn, args in targets]
    else:
        fam_args = _family_args(cfg)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            try:
                # Longest first, so the last tasks are short: the replica
                # chunks, then the targets backwards (the runners list them
                # with generation, level and time ascending, and cost grows
                # with each).
                chunks = [pool.submit(_replica_chunk, p) for p in payloads]
                exact = [
                    pool.submit(_exact_target, fam_args, fn, args, cfg.prune)
                    for fn, args in reversed(targets)
                ][::-1]
                parts = [f.result() for f in chunks]
                values = [f.result() for f in exact]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    V = np.concatenate(parts, axis=0) if parts else None
    results = dict(zip(targets, values))
    return (lambda fn, *args: results[(fn, args)]), V


def _col(j: int, l: int, g: int, L: int, G: int, star: bool, J: int) -> int:
    base = J * L * G if star else 0
    return base + ((j - 1) * L + (l - 1)) * G + g


# ---------------------------------------------------------------------------
# empirical statistics (population-style central moments; R is large)


def _mean_se(x: np.ndarray) -> tuple:
    R = len(x)
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(R))


def _var_se(x: np.ndarray) -> tuple:
    R = len(x)
    c = x - np.mean(x)
    m2 = float(np.mean(c**2))
    m4 = float(np.mean(c**4))
    var = m2 * R / (R - 1)
    return var, math.sqrt(max(m4 - m2**2, 0.0) / R)


def _cov_se(x: np.ndarray, y: np.ndarray) -> tuple:
    R = len(x)
    cx, cy = x - np.mean(x), y - np.mean(y)
    c = float(np.mean(cx * cy))
    m22 = float(np.mean(cx**2 * cy**2))
    cov = c * R / (R - 1)
    return cov, math.sqrt(max(m22 - c**2, 0.0) / R)


def _skew_kurt(x: np.ndarray) -> tuple:
    c = x - np.mean(x)
    m2 = float(np.mean(c**2))
    if m2 == 0.0:
        return 0.0, 0.0
    skew = float(np.mean(c**3)) / m2**1.5
    kurt = float(np.mean(c**4)) / m2**2 - 3.0
    return skew, kurt


# ---------------------------------------------------------------------------
# experiments


def _star_cov(cov, l1, l2):
    """Cov(K*(l1), K*(l2)) from at-least-level covariances ``cov(l1, l2)``,
    by K*(l) = K(l) - K(l + 1)."""
    return math.fsum(
        sa * sb * cov(l1 + da, l2 + db)
        for da, sa in ((0, 1.0), (1, -1.0))
        for db, sb in ((0, 1.0), (1, -1.0))
    )


def _check_finite(name: str, values) -> None:
    if not all(math.isfinite(x) for x in values):
        raise ValidationError(f"{name} must be finite, got {list(values)}")


def run_moment_check(config: ExperimentConfig) -> ExperimentReport:
    """Empirical means/variances/covariances of K and K* at one time vs the
    exact finite-time values; a cell passes within 4 SE.  With
    ``deterministic_n`` set the fixed-n scheme is run and (only) means are
    compared against the binomial-scheme exact sums."""
    start = time.perf_counter()
    _check_finite("t", [config.t])
    family = config.family()
    J, L = int(config.generations), int(config.levels)
    det_n = int(config.deterministic_n)
    t = float(det_n) if det_n else float(config.t)
    js, ls = range(1, J + 1), range(1, L + 1)
    if det_n:
        # K*(l) = K(l) - K(l + 1): levels 1..L+1
        targets = [
            (mean_K_binomial, (j, l, det_n)) for j in js for l in range(1, L + 2)
        ]
    else:
        targets = [
            (fn, (j, l, *ts))
            for j in js
            for l in ls
            for fn, ts in ((mean_K, (t,)), (mean_K_star, (t,)),
                           (cov_K_same, (t, t)), (cov_K_star_same, (t, t)))
        ]
        # the plain cross-level cells and their K* combinations
        targets += [
            (cov_K_cross_level, (j, a, b, t, t))
            for j in js
            for l1 in ls
            for l2 in range(l1 + 1, L + 1)
            for a in (l1, l1 + 1)
            for b in (l2, l2 + 1)
        ]
        if J >= 2:
            targets += [
                (cov_K_cross_gen, (1, 2, l, n, t, t))
                for l in range(1, L + 2)
                for n in range(1, L + 2)
            ]
    estimate, V = _run_pool(config, family, targets, [det_n] if det_n else [t])

    def value(fn, *args):
        return estimate(fn, *args).value

    G = 1
    cells: list = []

    def cell(cid, j, l, l2, emp, se, target, kind="exact", tol=4.0, passed="auto"):
        ok = abs(emp - target) <= tol * se if passed == "auto" else passed
        cells.append(
            CellResult(
                "moment_check", cid, j, l, l2, t, t, None, emp, se, target, kind, ok
            )
        )

    for j in js:
        for l in ls:
            xk = V[:, _col(j, l, 0, L, G, False, J)]
            xs = V[:, _col(j, l, 0, L, G, True, J)]
            if det_n:
                target = value(mean_K_binomial, j, l, det_n)
                emp, se = _mean_se(xk)
                cell(f"mean_K:j={j},l={l}", j, l, None, emp, se, target)
                tk = target - value(mean_K_binomial, j, l + 1, det_n)
                emp, se = _mean_se(xs)
                cell(f"mean_K_star:j={j},l={l}", j, l, None, emp, se, tk)
                continue
            emp, se = _mean_se(xk)
            cell(f"mean_K:j={j},l={l}", j, l, None, emp, se, value(mean_K, j, l, t))
            emp, se = _mean_se(xs)
            cell(f"mean_K_star:j={j},l={l}", j, l, None, emp, se,
                 value(mean_K_star, j, l, t))
            emp, se = _var_se(xk)
            cell(f"var_K:j={j},l={l}", j, l, None, emp, se,
                 value(cov_K_same, j, l, t, t))
            emp, se = _var_se(xs)
            cell(f"var_K_star:j={j},l={l}", j, l, None, emp, se,
                 value(cov_K_star_same, j, l, t, t))
    if not det_n:
        for j in js:
            def cross_level(a, b):
                return value(cov_K_cross_level, j, a, b, t, t)

            for l1 in ls:
                for l2 in range(l1 + 1, L + 1):
                    x = V[:, _col(j, l1, 0, L, G, False, J)]
                    y = V[:, _col(j, l2, 0, L, G, False, J)]
                    emp, se = _cov_se(x, y)
                    cell(f"cov_K_levels:j={j},l={l1},l2={l2}", j, l1, l2, emp, se,
                         cross_level(l1, l2))
                    xs = V[:, _col(j, l1, 0, L, G, True, J)]
                    ys = V[:, _col(j, l2, 0, L, G, True, J)]
                    emp, se = _cov_se(xs, ys)
                    cell(f"cov_K_star_levels:j={j},l={l1},l2={l2}",
                         j, l1, l2, emp, se, _star_cov(cross_level, l1, l2))
        if J >= 2:
            def cross_gen(a, b):
                return value(cov_K_cross_gen, 1, 2, a, b, t, t)

            for l in ls:
                for n in ls:
                    x = V[:, _col(1, l, 0, L, G, False, J)]
                    y = V[:, _col(2, n, 0, L, G, False, J)]
                    emp, se = _cov_se(x, y)
                    cell(f"cov_K_gens:l={l},l2={n}", 1, l, n, emp, se,
                         cross_gen(l, n))
                    xs = V[:, _col(1, l, 0, L, G, True, J)]
                    ys = V[:, _col(2, n, 0, L, G, True, J)]
                    emp, se = _cov_se(xs, ys)
                    cell(f"cov_K_star_gens:l={l},l2={n}", 1, l, n, emp, se,
                         _star_cov(cross_gen, l, n))

    report = ExperimentReport(
        "moment_check",
        config,
        cells,
        runtime_seconds=time.perf_counter() - start,
        notes={"pass_fraction_required": 0.95},
    )
    if config.out:
        report.write(config.out)
    return report


def run_clt_check(config: ExperimentConfig) -> ExperimentReport:
    """Normalized counts (K - exact mean)/sqrt(c_j f_j(T)) on the u-grid:
    empirical second moments vs exact finite-T covariances (flagged, 4 SE),
    the same entries vs the limit covariances (diagnostic, unflagged), and
    skewness/excess-kurtosis normality diagnostics (flagged, 4 SE bands)."""
    start = time.perf_counter()
    _check_finite("T and u_grid", [config.T, *config.u_grid])
    family = config.family()
    J, L = int(config.generations), int(config.levels)
    T = float(config.T)
    u_grid = [float(u) for u in config.u_grid]
    times = [math.exp(T + u) for u in u_grid]
    if sorted(times) != times:
        raise ValidationError("u_grid must be nondecreasing")
    G = len(u_grid)
    js, ls, gs = range(1, J + 1), range(1, L + 1), range(G)
    targets = [(mean_K, (j, l, tg)) for j in js for l in ls for tg in times]
    targets += [
        (cov_K_same, (j, l, times[ga], times[gb]))
        for j in js for l in ls for ga in gs for gb in range(ga, G)
    ]
    targets += [
        (cov_K_cross_level, (j, l1, l2, tg, tg))
        for j in js for l1 in ls for l2 in range(l1 + 1, L + 1) for tg in times
    ]
    if J >= 2:
        targets += [
            (cov_K_cross_gen, (1, 2, l, n, tg, tg))
            for l in ls for n in ls for tg in times
        ]
    estimate, V = _run_pool(config, family, targets, times)
    R = V.shape[0]
    norms = {}
    for j in range(1, J + 1):
        c, f, _ = c_f_g(family.asymptotic_params(j), T)
        norms[j] = math.sqrt(c * f)
    # center and scale the K columns
    N = np.empty((R, J, L, G))
    for j in range(1, J + 1):
        for l in range(1, L + 1):
            for g, tg in enumerate(times):
                mu = estimate(mean_K, j, l, tg).value
                N[:, j - 1, l - 1, g] = (
                    V[:, _col(j, l, g, L, G, False, J)] - mu
                ) / norms[j]
    cells: list = []

    def put(cid, j, l, l2, u, v, emp, se, target, kind, flagged, tol=4.0):
        ok = (abs(emp - target) <= tol * se) if flagged else None
        cells.append(
            CellResult("clt_check", cid, j, l, l2, u, v, T, emp, se, target, kind, ok)
        )

    for j in range(1, J + 1):
        nj2 = norms[j] ** 2
        for l in range(1, L + 1):
            for ga in range(G):
                for gb in range(ga, G):
                    ua, ub = u_grid[ga], u_grid[gb]
                    x, y = N[:, j - 1, l - 1, ga], N[:, j - 1, l - 1, gb]
                    emp, se = (_var_se(x) if ga == gb else _cov_se(x, y))
                    exact = estimate(
                        cov_K_same, j, l, times[ga], times[gb]
                    ).value / nj2
                    tag = f"j={j},l={l},u={ua},v={ub}"
                    put(f"cov:{tag}", j, l, None, ua, ub, emp, se, exact,
                        "exact", True)
                    put(f"limit_cov:{tag}", j, l, None, ua, ub, emp, se,
                        closed_cov("Z", l, l, ua - ub), "limit", False)
            for ga, ua in enumerate(u_grid):
                sk, ku = _skew_kurt(N[:, j - 1, l - 1, ga])
                put(f"skewness:j={j},l={l},u={ua}", j, l, None, ua, None,
                    sk, math.sqrt(6.0 / R), 0.0, "normality", True)
                put(f"excess_kurtosis:j={j},l={l},u={ua}", j, l, None, ua, None,
                    ku, math.sqrt(24.0 / R), 0.0, "normality", True)
        for l1 in range(1, L + 1):
            for l2 in range(l1 + 1, L + 1):
                for ga, ua in enumerate(u_grid):
                    x, y = N[:, j - 1, l1 - 1, ga], N[:, j - 1, l2 - 1, ga]
                    emp, se = _cov_se(x, y)
                    exact = estimate(
                        cov_K_cross_level, j, l1, l2, times[ga], times[ga]
                    ).value / nj2
                    tag = f"j={j},l={l1},l2={l2},u={ua}"
                    put(f"cov_levels:{tag}", j, l1, l2, ua, ua, emp, se,
                        exact, "exact", True)
                    put(f"limit_cov_levels:{tag}", j, l1, l2, ua, ua, emp, se,
                        closed_cov("Z", l1, l2, 0.0), "limit", False)
    if J >= 2:
        cross_norm = norms[1] * norms[2]
        for l in range(1, L + 1):
            for n in range(1, L + 1):
                for ga, ua in enumerate(u_grid):
                    x, y = N[:, 0, l - 1, ga], N[:, 1, n - 1, ga]
                    emp, se = _cov_se(x, y)
                    exact = estimate(
                        cov_K_cross_gen, 1, 2, l, n, times[ga], times[ga]
                    ).value / cross_norm
                    tag = f"l={l},l2={n},u={ua}"
                    put(f"cov_gens:{tag}", 1, l, n, ua, ua, emp, se,
                        exact, "exact", True)
                    put(f"limit_cov_gens:{tag}", 1, l, n, ua, ua, emp, se,
                        0.0, "limit", False)
    report = ExperimentReport(
        "clt_check",
        config,
        cells,
        runtime_seconds=time.perf_counter() - start,
        notes={"pass_fraction_required": 0.95},
    )
    if config.out:
        report.write(config.out)
    return report


def run_asymptotic_trend(config: ExperimentConfig) -> ExperimentReport:
    """Exact (no Monte Carlo) normalized quantities tabulated over the
    T-grid, each with a summary cell asserting that the deviation from the
    limit at the largest T is strictly smaller than at the smallest T.

    For families outside the de Haan class (the geometric negative control)
    every row is emitted as an unflagged diagnostic, so the non-convergence
    stays visible without failing the run.
    """
    start = time.perf_counter()
    _check_finite("T_grid", config.T_grid)
    family = config.family()
    J, L = int(config.generations), int(config.levels)
    T_grid = [float(T) for T in config.T_grid]
    if len(T_grid) < 2 or sorted(T_grid) != T_grid:
        raise ValidationError("T_grid must be increasing with >= 2 points")
    ts = [math.exp(T) for T in T_grid]
    targets = [(cov_K_same, (1, l, t, t)) for l in range(1, L + 1) for t in ts]
    targets += [
        (mean_K_star, (j, l, t))
        for j in range(1, J + 1) for l in range(1, L + 1) for t in ts
    ]
    if J >= 2:
        targets += [(cov_K_cross_gen, (1, 2, 1, 1, t, t)) for t in ts]
    estimate, _ = _run_pool(config, family, targets)
    diagnostic = family.kind == "geometric"
    cells: list = []

    def series(cid_stem, j, l, l2, values, bounds, target, kind):
        devs = []
        for T, val, bnd in zip(T_grid, values, bounds):
            passed = None
            cells.append(
                CellResult("asymptotic_trend", f"{cid_stem}:T={T}", j, l, l2,
                           None, None, T, val, bnd, target,
                           "diagnostic" if diagnostic else kind, passed)
            )
            devs.append(abs(val - target))
        if not diagnostic:
            cells.append(
                CellResult(
                    "asymptotic_trend", f"{cid_stem}:endpoint_decreasing", j, l,
                    l2, None, None, T_grid[-1], devs[-1], 0.0, devs[0],
                    "endpoint", devs[-1] < devs[0],
                )
            )

    for l in range(1, L + 1):
        vals, bnds = [], []
        for T, t in zip(T_grid, ts):
            c1, f1, _ = c_f_g(family.asymptotic_params(1), T)
            e = estimate(cov_K_same, 1, l, t, t)
            vals.append(e.value / (c1 * f1))
            bnds.append(e.error_bound / (c1 * f1))
        b_l, _ = b_constants(l)
        series(f"var_ratio:j=1,l={l}", 1, l, None, vals, bnds, b_l, "limit")
    for j in range(1, J + 1):
        for l in range(1, L + 1):
            vals, bnds = [], []
            for T, t in zip(T_grid, ts):
                c, f, _ = c_f_g(family.asymptotic_params(j), T)
                e = estimate(mean_K_star, j, l, t)
                vals.append(e.value * l / (c * f))
                bnds.append(e.error_bound * l / (c * f))
            series(f"mean_star_ratio:j={j},l={l}", j, l, None, vals, bnds,
                   1.0, "limit")
    if J >= 2:
        vals, bnds = [], []
        for T, t in zip(T_grid, ts):
            c1, f1, _ = c_f_g(family.asymptotic_params(1), T)
            c2, f2, _ = c_f_g(family.asymptotic_params(2), T)
            norm = math.sqrt(c1 * f1 * c2 * f2)
            e = estimate(cov_K_cross_gen, 1, 2, 1, 1, t, t)
            vals.append(e.value / norm)
            bnds.append(e.error_bound / norm)
        series("cross_gen_ratio:l=1,l2=1", 1, 1, 1, vals, bnds, 0.0, "limit")
    report = ExperimentReport(
        "asymptotic_trend", config, cells, runtime_seconds=time.perf_counter() - start
    )
    if config.out:
        report.write(config.out)
    return report


def run_depoissonization_check(config: ExperimentConfig) -> ExperimentReport:
    """|E K_t - E 𝒦_⌊t⌋| against the uniform proof constant, per (j, l, t).
    The `se` column carries the certified enumeration error, which is added
    to the gap before comparison (conservative direction)."""
    start = time.perf_counter()
    _check_finite("t_grid", config.t_grid)
    family = config.family()
    J, L = int(config.generations), int(config.levels)
    t_grid = [float(x) for x in config.t_grid] or list(
        np.logspace(1.0, 5.0, 20)
    )
    js, ls = range(1, J + 1), range(1, L + 1)
    targets = [
        target
        for j in js for l in ls for t in t_grid
        for target in ((mean_K, (j, l, t)),
                       (mean_K_binomial, (j, l, int(math.floor(t)))))
    ]
    estimate, _ = _run_pool(config, family, targets)
    cells: list = []
    for j in js:
        for l in ls:
            bound = depoissonization_constant(l)
            for t in t_grid:
                a = estimate(mean_K, j, l, t)
                b = estimate(mean_K_binomial, j, l, int(math.floor(t)))
                err = a.error_bound + b.error_bound
                gap = abs(a.value - b.value)
                cells.append(
                    CellResult(
                        "depoissonization_check",
                        f"gap:j={j},l={l},t={t}",
                        j, l, None, None, None, t,
                        gap, err, bound, "uniform-bound",
                        gap + err <= bound,
                    )
                )
    report = ExperimentReport(
        "depoissonization_check", config, cells,
        runtime_seconds=time.perf_counter() - start,
    )
    if config.out:
        report.write(config.out)
    return report
