"""Monte Carlo and deterministic verification experiments.

Every experiment produces an ExperimentReport: a list of cells, each
carrying an empirical value, a standard error (or a certified numeric error
bound for deterministic experiments), a theoretical target, and a pass flag.
Statistical targets are always *exact finite-time* values from the moments
module — never asymptotic limits — so the pass criteria are free of
asymptotic bias; limit values appear only in unflagged diagnostic rows and
in the trend experiment, whose assertion is about monotone approach rather
than closeness.  The Monte Carlo runners declare each cell once, as a
``_Cell`` holding its statistic, its columns and its exact target; the
targets the worker pool computes are read off that table.

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
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError, check_whole
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
# the single-replica simulators stay importable here for perfbench/trace_cli.py
from .scheme import simulate_deterministic, simulate_poissonized, simulate_replicas  # noqa: F401
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
        return WeightFamily.from_spec(
            self.family_kind, alpha=self.alpha, p=self.p, probs=self.probs
        )

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


def _replica_chunk(payload: tuple) -> np.ndarray:
    """Worker: simulate a contiguous replica range, return the value matrix
    (one row per replica: K then K*, flattened over (j, l, grid))."""
    cfg, times, r_lo, r_hi = payload
    trajectories = simulate_replicas(
        cfg.family(), times, cfg.generations, cfg.levels, cfg.seed,
        range(r_lo, r_hi), n=int(cfg.deterministic_n) or None,
    )
    return np.asarray(
        [np.concatenate([traj.K.ravel(), traj.K_star.ravel()]) for traj in trajectories],
        dtype=float,
    )


def _exact_target(cfg: ExperimentConfig, fn, args: tuple):
    """Worker: one exact moment ``fn(family, *args, prune=cfg.prune)``.  The
    family is rebuilt from the config: a geometric family holds a lambda and
    does not pickle."""
    return fn(cfg.family(), *args, prune=cfg.prune)


def _replica_payloads(cfg: ExperimentConfig, times, threads: int) -> list:
    """Contiguous replica ranges covering 0..R-1 in order: one range in
    process, about four per worker otherwise."""
    R = int(cfg.replicas)
    if R < _MIN_STAT_REPLICAS:
        raise ValidationError(
            f"statistical experiments need >= {_MIN_STAT_REPLICAS} replicas, got {R}"
        )
    times = tuple(float(x) for x in times)
    chunk = R if threads == 1 else max(1, math.ceil(R / (4 * threads)))
    return [(cfg, times, lo, min(lo + chunk, R)) for lo in range(0, R, chunk)]


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
    threads = check_whole("threads", cfg.threads, 1)
    payloads = [] if times is None else _replica_payloads(cfg, times, threads)
    if threads == 1:
        parts = [_replica_chunk(p) for p in payloads]
        values = [fn(family, *args, prune=cfg.prune) for fn, args in targets]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            try:
                # Longest first, so the last tasks are short: the replica
                # chunks, then the targets backwards.  The runners list any
                # centering means first, then the terms of their cells in
                # report order, generation and level ascending with the
                # cross-generation cells last; cost grows along that order.
                chunks = [pool.submit(_replica_chunk, p) for p in payloads]
                exact = [
                    pool.submit(_exact_target, cfg, fn, args)
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


def _skew_se(x: np.ndarray) -> tuple:
    """Skewness, with its standard error sqrt(6/R) under normality."""
    return _skew_kurt(x)[0], math.sqrt(6.0 / len(x))


def _kurt_se(x: np.ndarray) -> tuple:
    """Excess kurtosis, with its standard error sqrt(24/R) under normality."""
    return _skew_kurt(x)[1], math.sqrt(24.0 / len(x))


# ---------------------------------------------------------------------------
# cell tables


@dataclass(frozen=True)
class _Cell:
    """One flagged report row: the statistic ``stat`` of the value-array
    columns ``X[:, *index]`` for ``index`` in ``cols``, against the exact
    target sum(coef * fn(family, *args)) / scale over ``terms`` (0 when there
    are none), passing within 4 SE.  A ``limit`` adds the unflagged
    ``limit_`` row of the same statistic against that value."""

    cid: str
    j: int
    l: int
    l2: int | None
    u: float | None
    v: float | None
    stat: Callable
    cols: tuple
    terms: tuple = ()
    scale: float = 1.0
    kind: str = "exact"
    limit: float | None = None


def _exact(fn, *args) -> tuple:
    """The terms of the single exact moment ``fn(family, *args)``."""
    return ((1.0, fn, args),)


def _star_terms(fn, head: tuple, l1: int, l2: int, tail: tuple) -> tuple:
    """The terms of Cov(K*(l1), K*(l2)) over the at-least-level covariance
    ``fn(family, *head, a, b, *tail)``, by K*(l) = K(l) - K(l + 1)."""
    return tuple(
        (sa * sb, fn, (*head, l1 + da, l2 + db, *tail))
        for da, sa in ((0, 1.0), (1, -1.0))
        for db, sb in ((0, 1.0), (1, -1.0))
    )


def _pool_targets(cells: list) -> list:
    return [(fn, args) for c in cells for _, fn, args in c.terms]


def _evaluate(experiment: str, cells: list, X: np.ndarray, estimate, T=None) -> list:
    """The report rows of ``cells`` over the replica value array ``X``."""
    rows: list = []
    for c in cells:
        emp, se = c.stat(*(X[(slice(None), *index)] for index in c.cols))
        vals = [coef * estimate(fn, *args).value for coef, fn, args in c.terms]
        # a lone term is taken as is (fsum would turn -0.0 into 0.0)
        target = (vals[0] if len(vals) == 1 else math.fsum(vals)) / c.scale
        head = (c.j, c.l, c.l2, c.u, c.v, T, emp, se)
        rows.append(CellResult(experiment, c.cid, *head, target, c.kind,
                               abs(emp - target) <= 4.0 * se))
        if c.limit is not None:
            rows.append(CellResult(experiment, f"limit_{c.cid}", *head, c.limit,
                                   "limit", None))
    return rows


# ---------------------------------------------------------------------------
# experiments


def _check_finite(name: str, values) -> None:
    if not all(math.isfinite(x) for x in values):
        raise ValidationError(f"{name} must be finite, got {list(values)}")


def _finish(experiment: str, config: ExperimentConfig, cells: list, start: float,
            **notes) -> ExperimentReport:
    """The report of a run begun at ``start``, written to ``config.out`` if
    that is set."""
    report = ExperimentReport(experiment, config, cells,
                              runtime_seconds=time.perf_counter() - start, notes=notes)
    if config.out:
        report.write(config.out)
    return report


def run_moment_check(config: ExperimentConfig) -> ExperimentReport:
    """Empirical means/variances/covariances of K and K* at one time vs the
    exact finite-time values; a cell passes within 4 SE.  With
    ``deterministic_n`` set the fixed-n scheme is run and (only) means are
    compared against the binomial-scheme exact sums."""
    start = time.perf_counter()
    _check_finite("t", [config.t])
    family = config.family()
    J, L = int(config.generations), int(config.levels)
    n = int(config.deterministic_n)
    t = float(n) if n else float(config.t)
    js, ls = range(1, J + 1), range(1, L + 1)
    cells: list = []
    # value-array columns: (0 for K or 1 for K*, j - 1, l - 1, 0)
    for j in js:
        for l in ls:
            if n:
                # K*(l) = K(l) - K(l + 1)
                stats = [("mean", _mean_se, _exact(mean_K_binomial, j, l, n),
                          ((1.0, mean_K_binomial, (j, l, n)),
                           (-1.0, mean_K_binomial, (j, l + 1, n))))]
            else:
                stats = [("mean", _mean_se, _exact(mean_K, j, l, t),
                          _exact(mean_K_star, j, l, t)),
                         ("var", _var_se, _exact(cov_K_same, j, l, t, t),
                          _exact(cov_K_star_same, j, l, t, t))]
            for stat_name, stat, k_terms, star_terms in stats:
                for p, name, terms in ((0, "K", k_terms), (1, "K_star", star_terms)):
                    cells.append(_Cell(f"{stat_name}_{name}:j={j},l={l}", j, l, None,
                                       t, t, stat, ((p, j - 1, l - 1, 0),), terms))

    def cov_pair(kind, tag, i, j, l1, l2, fn, head):
        """Cov(K_i(l1), K_j(l2)) and the same for K*, with exact value
        ``fn(family, *head, l1, l2, t, t)``."""
        for p, name, terms in ((0, "K", _exact(fn, *head, l1, l2, t, t)),
                               (1, "K_star", _star_terms(fn, head, l1, l2, (t, t)))):
            cells.append(_Cell(f"cov_{name}_{kind}:{tag}", i, l1, l2, t, t, _cov_se,
                               ((p, i - 1, l1 - 1, 0), (p, j - 1, l2 - 1, 0)), terms))

    if not n:
        for j in js:
            for l1 in ls:
                for l2 in range(l1 + 1, L + 1):
                    cov_pair("levels", f"j={j},l={l1},l2={l2}", j, j, l1, l2,
                             cov_K_cross_level, (j,))
        if J >= 2:
            for l1 in ls:
                for l2 in ls:
                    cov_pair("gens", f"l={l1},l2={l2}", 1, 2, l1, l2,
                             cov_K_cross_gen, (1, 2))
    estimate, V = _run_pool(config, family, _pool_targets(cells), [t])
    X = V.reshape(len(V), 2, J, L, 1)
    return _finish("moment_check", config, _evaluate("moment_check", cells, X, estimate),
                   start, pass_fraction_required=0.95)


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
    js, ls = range(1, J + 1), range(1, L + 1)
    norms = [math.sqrt(c * f)
             for c, f, _ in (c_f_g(family.asymptotic_params(j), T) for j in js)]
    cells: list = []
    # value-array columns: (j - 1, l - 1, g) of the normalized counts
    for j in js:
        nj2 = norms[j - 1] ** 2
        for l in ls:
            for ga, ua in enumerate(u_grid):
                for gb in range(ga, G):
                    ub = u_grid[gb]
                    a, b = (j - 1, l - 1, ga), (j - 1, l - 1, gb)
                    stat, cols = (_var_se, (a,)) if ga == gb else (_cov_se, (a, b))
                    cells.append(_Cell(
                        f"cov:j={j},l={l},u={ua},v={ub}", j, l, None, ua, ub, stat, cols,
                        _exact(cov_K_same, j, l, times[ga], times[gb]), nj2,
                        limit=closed_cov("Z", l, l, ua - ub)))
            for ga, ua in enumerate(u_grid):
                for name, stat in (("skewness", _skew_se), ("excess_kurtosis", _kurt_se)):
                    cells.append(_Cell(f"{name}:j={j},l={l},u={ua}", j, l, None, ua, None,
                                       stat, ((j - 1, l - 1, ga),), kind="normality"))
        for l1 in ls:
            for l2 in range(l1 + 1, L + 1):
                for ga, ua in enumerate(u_grid):
                    cells.append(_Cell(
                        f"cov_levels:j={j},l={l1},l2={l2},u={ua}", j, l1, l2, ua, ua,
                        _cov_se, ((j - 1, l1 - 1, ga), (j - 1, l2 - 1, ga)),
                        _exact(cov_K_cross_level, j, l1, l2, times[ga], times[ga]), nj2,
                        limit=closed_cov("Z", l1, l2, 0.0)))
    if J >= 2:
        for l1 in ls:
            for l2 in ls:
                for ga, ua in enumerate(u_grid):
                    cells.append(_Cell(
                        f"cov_gens:l={l1},l2={l2},u={ua}", 1, l1, l2, ua, ua, _cov_se,
                        ((0, l1 - 1, ga), (1, l2 - 1, ga)),
                        _exact(cov_K_cross_gen, 1, 2, l1, l2, times[ga], times[ga]),
                        norms[0] * norms[1], limit=0.0))
    means = [(mean_K, (j, l, tg)) for j in js for l in ls for tg in times]
    estimate, V = _run_pool(config, family, means + _pool_targets(cells), times)
    mu = np.reshape([estimate(fn, *args).value for fn, args in means], (J, L, G))
    N = V.reshape(len(V), 2, J, L, G)[:, 0] - mu
    N /= np.reshape(norms, (J, 1, 1))
    return _finish("clt_check", config, _evaluate("clt_check", cells, N, estimate, T),
                   start, pass_fraction_required=0.95)


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
    return _finish("asymptotic_trend", config, cells, start)


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
    return _finish("depoissonization_check", config, cells, start)
