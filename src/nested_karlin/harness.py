"""Monte Carlo and deterministic verification experiments.

Every experiment produces an ExperimentReport: a list of cells, each
carrying an empirical value, a standard error (or a certified numeric error
bound for deterministic experiments), a theoretical target, and a pass flag.
Statistical targets are always *exact finite-time* values from the moments
module — never asymptotic limits — so the pass criteria are free of
asymptotic bias; limit values appear only in unflagged diagnostic rows and
in the trend experiment, whose assertion is about monotone approach rather
than closeness.  Every runner declares its rows once (``_Cell`` specs, trend
series, gap pairs) and the worker pool's exact moments are read off them;
every exact value and certified bound in a row comes from ``_combine``,
(sum coef * value, sum |coef| * error_bound) / scale over its terms.  A
runner returns its report; ``report.write(path)`` writes the CSV and its
manifest, and the ``verify`` command, whose flags are the config's fields,
times the run.

Replicas come from the box sampler, ``scheme.sample_counts``.
Reproducibility: replica r of a run with master seed s draws from a
dedicated counter-based stream keyed by (s, r), and replica-level results
are assembled into a matrix ordered by r before any statistic is computed.
The worker processes of ``_in_order``, the one pool, which also formats
``sample``'s CSV blocks, compute disjoint replica ranges and exact targets,
each a pure function of its arguments, so reports are byte-identical for a
fixed (config, seed) regardless of the worker count.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import check_grid, check_real, check_whole
from .kernels import b_constants
from .limits import closed_cov
from .moments import (
    cov_K_cross_gen,
    cross_level_order,
    depoissonization_constant,
    mean_K,
    mean_K_binomial,
)
from .scheme import sample_counts
# the ball engine's single-replica entry points stay importable here for
# perfbench/trace_cli.py
from .scheme import simulate_deterministic, simulate_poissonized  # noqa: F401
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
# the largest T with e^T a float
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for all experiments; unused fields are ignored
    by runners that do not need them."""

    family_kind: str = "weibull"
    alpha: float = 0.5
    p: float = 0.5
    probs: tuple = ()
    t: float = 3000.0
    deterministic_n: int | None = None  # when set, moment check runs the fixed-n scheme
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

    def family(self) -> WeightFamily:
        return WeightFamily.from_spec(
            self.family_kind, alpha=self.alpha, p=self.p, probs=self.probs
        )

    def manifest(self) -> str:
        """One ``name=value`` line per field but ``threads``, in field order:
        strings as is, tuples as comma lists, numbers by repr."""
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name != "threads":
                text = v if isinstance(v, str) else (
                    ",".join(map(repr, v)) if isinstance(v, tuple) else repr(v))
                lines.append(f"{f.name}={text}\n")
        return "".join(lines)


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
    pass_fraction_required: float = 1.0

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
        return self.pass_fraction >= self.pass_fraction_required

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


def _whole(cfg: ExperimentConfig, **minimums) -> list:
    """The named whole-number fields of ``cfg`` as ints, each checked against
    its minimum (None for none) before a run does any work."""
    return [check_whole(name, getattr(cfg, name), low) for name, low in minimums.items()]


def _replica_tasks(cfg: ExperimentConfig, family: WeightFamily, sim: tuple,
                   threads: int) -> list:
    """The replica tasks of the simulation ``sim = (times, J, L, n)``, each
    the positional arguments ``(family, times, J, L, seed, replicas)`` of
    ``sample_counts`` (``n`` goes by keyword): contiguous ranges covering
    0..R-1 in order, one range in process, about four per worker otherwise."""
    R, seed = _whole(cfg, replicas=_MIN_STAT_REPLICAS, seed=None)
    times, J, L, _ = sim
    times = tuple(float(x) for x in times)
    chunk = R if threads == 1 else max(1, math.ceil(R / (4 * threads)))
    return [(family, times, J, L, seed, range(lo, min(lo + chunk, R)))
            for lo in range(0, R, chunk)]


def _in_order(calls, threads: int, ahead: int):
    """Yield ``fn(*args, **kwargs)`` for each ``(fn, args, kwargs)`` of
    ``calls``, in order, on ``min(threads, ahead)`` worker processes (in
    this process when that is one), with at most ``ahead`` calls taken and
    not yet yielded.  Any exception, closing the generator included,
    cancels the calls not yet started and is re-raised."""
    workers = min(threads, ahead)
    if workers <= 1:
        yield from (fn(*args, **kwargs) for fn, args, kwargs in calls)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            pending = collections.deque()
            for fn, args, kwargs in calls:
                pending.append(pool.submit(fn, *args, **kwargs))
                if len(pending) == ahead:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _run_pool(cfg: ExperimentConfig, family: WeightFamily, exact, sim=None):
    """Compute a run's exact moments and, when the simulation ``sim = (times,
    J, L, n)`` is given, its replica value matrix (replicas, 2*J*L*G), on
    ``_in_order`` with ``cfg.threads`` workers, no more than there are
    tasks: J generations and L levels at ``times``, of the fixed-n scheme
    when ``n`` is set and the Poissonized one when it is None.

    ``exact`` lists the run's exact values, each as its terms
    ``((coef, fn, args), ...)``; every distinct ``(fn, args)`` among them is
    computed once as ``fn(family, *args, prune=cfg.prune)``, and the
    returned dict maps it to its MomentEstimate for ``_combine``.  The
    (level, time) pairs of a one-generation covariance are first put in the
    order ``cov_K_cross_gen`` puts them in, so a covariance asked for in both
    orders is computed once.  Every
    exact moment is a pure function of its arguments and replica r always
    draws from the stream keyed by (seed, r), so the results do not depend
    on the worker count.  A task receives the family, pickled by its spec,
    and its own arguments, never the config.  Every task is submitted at
    once, and with one worker runs in this process in submission order.
    """
    threads = check_whole("threads", cfg.threads, 1)
    tasks = [] if sim is None else _replica_tasks(cfg, family, sim, threads)
    n = sim[3] if sim else None
    keys = {(fn, args): (fn, _ordered(fn, args)) for terms in exact for _, fn, args in terms}
    targets = list(dict.fromkeys(keys.values()))
    # Longest first, so the last tasks are short: the replica chunks, then
    # the targets backwards.  The runners list any centering means first,
    # then the terms of their rows in report order, generation and level
    # ascending with the cross-generation rows last; cost grows along that
    # order.
    calls = [(sample_counts, task, {"n": n}) for task in tasks]
    calls += [(fn, (family, *args), {"prune": cfg.prune}) for fn, args in reversed(targets)]
    done = list(_in_order(calls, threads, len(calls)))
    V = np.concatenate(done[:len(tasks)], axis=0) if tasks else None
    results = dict(zip(targets, reversed(done[len(tasks):])))
    return {key: results[target] for key, target in keys.items()}, V


def _ordered(fn, args: tuple) -> tuple:
    """``args`` of ``cov_K_cross_gen`` at i = j with the (level, time) pairs
    in its own order, which gives the same value bit for bit; the arguments
    of any other moment as they are."""
    if fn is not cov_K_cross_gen or args[0] != args[1]:
        return args
    return (*args[:2], *cross_level_order(*args[2:]))


# ---------------------------------------------------------------------------
# empirical statistics (population-style central moments; R is large)


def _mean_se(x: np.ndarray) -> tuple:
    R = len(x)
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(R))


def _cov_se(x: np.ndarray, y: np.ndarray) -> tuple:
    """Covariance and its standard error; a variance is ``_cov_se(x, x)``."""
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


def _star_terms(fn, head: tuple, levels: tuple, tail: tuple) -> tuple:
    """The terms of the exact-count moment over the at-least-count moment
    ``fn(family, *head, *levels, *tail)`` of one or two levels, each level l
    expanded by K*(l) = K(l) - K(l + 1), the first level outermost."""
    return tuple(
        (math.prod(sign for _, sign in pick), fn, (*head, *(l for l, _ in pick), *tail))
        for pick in itertools.product(*(((l, 1.0), (l + 1, -1.0)) for l in levels))
    )


def _gap_terms(j: int, l: int, t: float) -> tuple:
    """The terms of the depoissonization gap E K_t^(j)(l) - E 𝒦_⌊t⌋^(j)(l)."""
    t = check_real("t", t)
    return ((1, mean_K, (j, l, t)), (-1, mean_K_binomial, (j, l, int(math.floor(t)))))


def _combine(terms: tuple, results: dict, scale: float = 1.0) -> tuple:
    """``(sum coef * value, sum |coef| * error_bound) / scale`` over the
    terms ``((coef, fn, args), ...)``, the estimates read from ``results``:
    an exact linear combination of moments and its certified error.  A lone
    term is taken as is (fsum would turn -0.0 into 0.0); no terms give 0."""
    ests = [(coef, results[(fn, args)]) for coef, fn, args in terms]
    values = [coef * e.value for coef, e in ests]
    bounds = [abs(coef) * e.error_bound for coef, e in ests]
    if len(ests) == 1:
        return values[0] / scale, bounds[0] / scale
    return math.fsum(values) / scale, math.fsum(bounds) / scale


def _evaluate(experiment: str, cells: list, X: np.ndarray, results: dict, T=None) -> list:
    """The report rows of ``cells`` over the replica value array ``X``."""
    rows: list = []
    for c in cells:
        emp, se = c.stat(*(X[(slice(None), *index)] for index in c.cols))
        target = _combine(c.terms, results, c.scale)[0]
        head = (c.j, c.l, c.l2, c.u, c.v, T, emp, se)
        rows.append(CellResult(experiment, c.cid, *head, target, c.kind,
                               abs(emp - target) <= 4.0 * se))
        if c.limit is not None:
            rows.append(CellResult(experiment, f"limit_{c.cid}", *head, c.limit,
                                   "limit", None))
    return rows


# ---------------------------------------------------------------------------
# experiments


def run_moment_check(config: ExperimentConfig) -> ExperimentReport:
    """Empirical means/variances/covariances of K and K* at one time vs the
    exact finite-time values; a cell passes within 4 SE.  With
    ``deterministic_n`` set the fixed-n scheme is run and (only) means are
    compared against the binomial-scheme exact sums."""
    t = check_real("t", config.t)
    J, L = _whole(config, generations=1, levels=1)
    n = config.deterministic_n
    if n is not None:
        n = check_whole("deterministic_n", n, 0)
        t = float(n)
    family = config.family()
    fn, x = (mean_K, t) if n is None else (mean_K_binomial, n)
    js, ls = range(1, J + 1), range(1, L + 1)
    cells: list = []
    # value-array columns: (0 for K or 1 for K*, j - 1, l - 1, 0)
    for j in js:
        for l in ls:
            stats = [("mean", _mean_se, 1, _exact(fn, j, l, x), _star_terms(fn, (j,), (l,), (x,)))]
            if n is None:  # a variance reads its column twice: _cov_se(x, x)
                stats.append(("var", _cov_se, 2, _exact(cov_K_cross_gen, j, j, l, l, t, t),
                              _star_terms(cov_K_cross_gen, (j, j), (l, l), (t, t))))
            for stat_name, stat, reads, k_terms, star_terms in stats:
                for p, name, terms in ((0, "K", k_terms), (1, "K_star", star_terms)):
                    cells.append(_Cell(f"{stat_name}_{name}:j={j},l={l}", j, l, None, t, t,
                                       stat, ((p, j - 1, l - 1, 0),) * reads, terms))

    def cov_pair(kind, tag, i, j, l1, l2):
        """Cov(K_i(l1), K_j(l2)) and the same for K*, with exact value
        ``cov_K_cross_gen(family, i, j, l1, l2, t, t)``."""
        for p, name, terms in ((0, "K", _exact(cov_K_cross_gen, i, j, l1, l2, t, t)),
                               (1, "K_star", _star_terms(cov_K_cross_gen, (i, j), (l1, l2),
                                                         (t, t)))):
            cells.append(_Cell(f"cov_{name}_{kind}:{tag}", i, l1, l2, t, t, _cov_se,
                               ((p, i - 1, l1 - 1, 0), (p, j - 1, l2 - 1, 0)), terms))

    if n is None:
        for j in js:
            for l1 in ls:
                for l2 in range(l1 + 1, L + 1):
                    cov_pair("levels", f"j={j},l={l1},l2={l2}", j, j, l1, l2)
        if J >= 2:
            for l1 in ls:
                for l2 in ls:
                    cov_pair("gens", f"l={l1},l2={l2}", 1, 2, l1, l2)
    results, V = _run_pool(config, family, [c.terms for c in cells], ([t], J, L, n))
    X = V.reshape(len(V), 2, J, L, 1)
    return ExperimentReport("moment_check", config,
                            _evaluate("moment_check", cells, X, results), 0.95)


def run_clt_check(config: ExperimentConfig) -> ExperimentReport:
    """Normalized counts (K - exact mean)/sqrt(c_j f_j(T)) on the u-grid:
    empirical second moments vs exact finite-T covariances (flagged, 4 SE),
    the same entries vs the limit covariances (diagnostic, unflagged), and
    skewness/excess-kurtosis normality diagnostics (flagged, 4 SE bands)."""
    T = check_real("T", config.T)
    u_grid = check_grid("u_grid", config.u_grid, order="nondecreasing").tolist()
    # e^(T + u) must be a float
    check_real("T + u_grid", [T + u for u in u_grid], high=_LOG_MAX, array=True)
    J, L = _whole(config, generations=1, levels=1)
    family = config.family()
    times = [math.exp(T + u) for u in u_grid]
    G = len(u_grid)
    js, ls = range(1, J + 1), range(1, L + 1)
    norms = [math.sqrt(c * f) for c, f in (family.normalization(j, T) for j in js)]
    cells: list = []
    # value-array columns: (j - 1, l - 1, g) of the normalized counts
    for j in js:
        nj2 = norms[j - 1] ** 2
        for l in ls:
            for ga, ua in enumerate(u_grid):
                for gb in range(ga, G):
                    ub = u_grid[gb]
                    cells.append(_Cell(
                        f"cov:j={j},l={l},u={ua},v={ub}", j, l, None, ua, ub, _cov_se,
                        ((j - 1, l - 1, ga), (j - 1, l - 1, gb)),
                        _exact(cov_K_cross_gen, j, j, l, l, times[ga], times[gb]), nj2,
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
                        _exact(cov_K_cross_gen, j, j, l1, l2, times[ga], times[ga]), nj2,
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
    means = [_exact(mean_K, j, l, tg) for j in js for l in ls for tg in times]
    results, V = _run_pool(config, family, means + [c.terms for c in cells],
                           (times, J, L, None))
    mu = np.reshape([_combine(m, results)[0] for m in means], (J, L, G))
    N = V.reshape(len(V), 2, J, L, G)[:, 0] - mu
    N /= np.reshape(norms, (J, 1, 1))
    return ExperimentReport("clt_check", config,
                            _evaluate("clt_check", cells, N, results, T), 0.95)


def run_asymptotic_trend(config: ExperimentConfig) -> ExperimentReport:
    """Exact (no Monte Carlo) normalized quantities tabulated over the
    T-grid, each with a summary cell asserting that the deviation from the
    limit at the largest T is strictly smaller than at the smallest T.

    For families outside the de Haan class (the geometric negative control)
    every row is emitted as an unflagged diagnostic, so the non-convergence
    stays visible without failing the run.
    """
    # e^T must be a float
    T_grid = check_grid("T_grid", config.T_grid, high=_LOG_MAX, size=2,
                        order="strictly increasing").tolist()
    J, L = _whole(config, generations=1, levels=1)
    family = config.family()
    js, ls = range(1, J + 1), range(1, L + 1)
    ts = [math.exp(T) for T in T_grid]
    # (c_j, f_j(T)) per horizon, for each generation j
    cf = {j: [family.normalization(j, T) for T in T_grid] for j in js}
    # (stem, j, l, l2, limit, [(terms, scale) per horizon]); the value at a
    # horizon is _combine(terms, ..., scale)
    series = [(f"var_ratio:j=1,l={l}", 1, l, None, b_constants(l)[0],
               [(_exact(cov_K_cross_gen, 1, 1, l, l, t, t), c * f)
                for t, (c, f) in zip(ts, cf[1])])
              for l in ls]
    series += [(f"mean_star_ratio:j={j},l={l}", j, l, None, 1.0,
                [(tuple((l * sign, fn, args)
                        for sign, fn, args in _star_terms(mean_K, (j,), (l,), (t,))), c * f)
                 for t, (c, f) in zip(ts, cf[j])])
               for j in js for l in ls]
    if J >= 2:
        series.append(("cross_gen_ratio:l=1,l2=1", 1, 1, 1, 0.0,
                       [(_exact(cov_K_cross_gen, 1, 2, 1, 1, t, t),
                         math.sqrt(c1 * f1 * c2 * f2))
                        for t, (c1, f1), (c2, f2) in zip(ts, cf[1], cf[2])]))
    results, _ = _run_pool(config, family,
                           [terms for *_, points in series for terms, _ in points])
    diagnostic = family.kind == "geometric"
    cells: list = []
    for stem, j, l, l2, limit, points in series:
        devs = []
        for T, (terms, scale) in zip(T_grid, points):
            value, bound = _combine(terms, results, scale)
            cells.append(CellResult("asymptotic_trend", f"{stem}:T={T}", j, l, l2,
                                    None, None, T, value, bound, limit,
                                    "diagnostic" if diagnostic else "limit", None))
            devs.append(abs(value - limit))
        if not diagnostic:
            cells.append(CellResult("asymptotic_trend", f"{stem}:endpoint_decreasing",
                                    j, l, l2, None, None, T_grid[-1], devs[-1], 0.0,
                                    devs[0], "endpoint", devs[-1] < devs[0]))
    return ExperimentReport("asymptotic_trend", config, cells)


def run_depoissonization_check(config: ExperimentConfig) -> ExperimentReport:
    """|E K_t - E 𝒦_⌊t⌋| against the uniform proof constant, per (j, l, t).
    The `se` column carries the certified enumeration error, which is added
    to the gap before comparison (conservative direction)."""
    J, L = _whole(config, generations=1, levels=1)
    family = config.family()
    t_grid = (check_grid("t_grid", config.t_grid, size=0).tolist()
              or list(np.logspace(1.0, 5.0, 20)))
    gaps = [(j, l, t, _gap_terms(j, l, t))
            for j in range(1, J + 1) for l in range(1, L + 1) for t in t_grid]
    results, _ = _run_pool(config, family, [terms for *_, terms in gaps])
    cells: list = []
    for j, l, t, terms in gaps:
        value, err = _combine(terms, results)
        gap, bound = abs(value), depoissonization_constant(l)
        cells.append(CellResult("depoissonization_check", f"gap:j={j},l={l},t={t}",
                                j, l, None, None, None, t, gap, err, bound,
                                "uniform-bound", gap + err <= bound))
    return ExperimentReport("depoissonization_check", config, cells)
