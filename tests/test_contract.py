"""The public contract under hostile input.  Every call to a family
constructor, a tail function, an exact moment, a limit covariance, a
Gaussian sampler, a simulator, a table or an experiment runner either
raises ValidationError or NumericalError, or returns finite values; a
moment's certified error_bound lies in [0, prune], and the quadrature
oracle agrees with the closed form wherever it answers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nested_karlin.errors import NumericalError, ValidationError
from nested_karlin.gaussian import (
    build_grid, draws_to_csv_rows, sample, sample_Z1_whitenoise, whitenoise_mesh_covariance,
)
from nested_karlin.harness import (
    ExperimentConfig, run_asymptotic_trend, run_clt_check, run_depoissonization_check,
    run_moment_check,
)
from nested_karlin.limits import closed_cov, comparison_table, quadrature_cov
from nested_karlin.moments import cov_K_cross_gen, mean_K, mean_K_binomial
from nested_karlin.scheme import (
    sample_counts, simulate_deterministic, simulate_poissonized, simulate_replicas,
)
from nested_karlin.weights import _MAX_TABLE, WeightFamily

NAN, INF = math.nan, math.inf
REFUSED = (ValidationError, NumericalError)
# what a list argument may be given instead of a flat list of numbers
NOT_LISTS = (0.5, None, "x", [[0.0, 1.0]])


def _mostly(valid, *hostile):
    """``valid`` three draws in four, else one of the ``hostile`` values, so
    that a call with several arguments still often gets past validation."""
    return st.integers(0, 3).flatmap(lambda c: valid if c < 3 else st.sampled_from(hostile))


ALPHAS = st.sampled_from([NAN, INF, -INF, 0.0, 1.0, 0.2, 0.15, 1e-300, 0.3, 0.5, 0.9])
TIMES = _mostly(st.floats(0.0, 1e6), NAN, INF, -INF, -1.0, 0.0, 5e-324)
PRUNES = _mostly(st.floats(1e-300, 1e300), NAN, INF, 0.0, -1e-9)
LEVELS = _mostly(st.integers(1, 4), -1, 0, 1.5, NAN)
GENERATIONS = _mostly(st.sampled_from([1, 2]), 0, 1.5)
BALLS = _mostly(st.integers(0, 10**6), NAN, -1.0, 1.5)
KINDS = st.sampled_from(["Z", "X", "Y", "Q"])
DELTAS = _mostly(st.floats(-25.0, 25.0), NAN, INF, -INF, 1e308, -1e308)
# 7 is past the quadrature oracle's level cap
ORACLE_LEVELS = _mostly(st.integers(1, 7), -1, 0, 1.5, NAN)
GRID_LEVELS = ORACLE_LEVELS
# closed forms are O(l^2) sums
CLOSED_LEVELS = _mostly(st.integers(1, 50), -1, 0, 1.5, NAN)
U_GRIDS = _mostly(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4).map(sorted),
                  [], [1.0, 0.0], [0.5, -0.5, 1.0], [0.5, 0.5], [1e308], [-1e308, 0.0],
                  [0.0, 1e308], [-1e308, 1e308], *NOT_LISTS)
WINDOWS = st.sampled_from([NAN, 29.0, 30.0, 1e308]) | st.floats(30.0, 40.0)
STEPS = _mostly(st.floats(1e-3, 1.0), 0.0, 1e-320, 1e-300)
SAMPLES = _mostly(st.integers(1, 50), -1, 0, 1.5, NAN)

# the moments run over these; the tails also over weibull(0.3), whose long
# tables meet the size limit
MOMENT_FAMILIES = [
    WeightFamily.weibull_like(0.5),
    WeightFamily.weibull_like(0.9),
    WeightFamily.geometric(0.5),
    WeightFamily.finite([0.1, 0.35, 0.05, 0.3, 0.2]),
]
TAIL_FAMILIES = MOMENT_FAMILIES + [WeightFamily.weibull_like(0.3)]


def _refused_or(call):
    """``call()``, or None when it raises one of the package's errors."""
    try:
        return call()
    except REFUSED:
        return None


def _check_estimate(call, prune):
    est = _refused_or(call)
    if est is not None:
        assert math.isfinite(est.value)
        assert 0.0 <= est.error_bound <= prune


@settings(max_examples=60, deadline=None)
@given(alpha=ALPHAS, p=ALPHAS, probs=st.lists(ALPHAS | st.floats(0.0, 1.0), max_size=4))
@example(alpha=0.5, p=0.5, probs=[5e-324])  # 1 / sum overflows
def test_families(alpha, p, probs):
    for build in (lambda: WeightFamily.weibull_like(alpha), lambda: WeightFamily.geometric(p),
                  lambda: WeightFamily.finite(probs)):
        fam = _refused_or(build)
        if fam is not None:
            assert 0.0 < fam.normalizer < math.inf
            assert math.isfinite(float(fam.weight(1)))


@settings(max_examples=120, deadline=None)
@given(fam=st.sampled_from(TAIL_FAMILIES),
       K=st.sampled_from([-1, 1.5, NAN, INF, 10**400]) | st.integers(0, 2**70),
       threshold=st.sampled_from([NAN, INF, -1.0, 0.0, 5e-324]) | st.floats(0.0, 1.0))
def test_tails(fam, K, threshold):
    bound = _refused_or(lambda: fam.tail_mass_bound(K))
    if bound is not None:
        assert 0.0 <= bound <= 1.0
    cut = _refused_or(lambda: fam.tail_index(threshold))
    if cut is not None:
        assert 0 <= cut <= _MAX_TABLE
        assert fam.tail_mass_bound(cut) <= threshold


@settings(max_examples=300, deadline=None)
@given(fam=st.sampled_from(MOMENT_FAMILIES), j=GENERATIONS, i=GENERATIONS, l=LEVELS,
       n=LEVELS, s=TIMES, t=TIMES, balls=BALLS, prune=PRUNES)
def test_moments(fam, j, i, l, n, s, t, balls, prune):
    _check_estimate(lambda: mean_K(fam, j, l, t, prune=prune), prune)
    _check_estimate(lambda: mean_K_binomial(fam, j, l, balls, prune=prune), prune)
    # i <= j, so that only a hostile value is refused
    _check_estimate(lambda: cov_K_cross_gen(fam, min(i, j), j, l, n, s, t, prune=prune), prune)


@settings(max_examples=200, deadline=None)
@given(kind=KINDS, l1=CLOSED_LEVELS, l2=CLOSED_LEVELS, delta=DELTAS)
@example(kind="X", l1=3, l2=2, delta=-1e308)  # delta * l overflows
def test_closed_cov(kind, l1, l2, delta):
    value = _refused_or(lambda: closed_cov(kind, l1, l2, delta))
    if value is not None:
        assert math.isfinite(value)


@settings(max_examples=100, deadline=None)
@given(kind=KINDS, l1=ORACLE_LEVELS, l2=ORACLE_LEVELS, delta=DELTAS)
@example(kind="X", l1=2, l2=1, delta=5e-324)  # e^-delta rounds to 1
def test_quadrature_cov(kind, l1, l2, delta):
    value = _refused_or(lambda: quadrature_cov(kind, l1, l2, delta))
    if value is not None:
        assert abs(value - closed_cov(kind, l1, l2, delta)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(kind=KINDS, u=U_GRIDS, L=GRID_LEVELS, n=SAMPLES)
@example(kind="Z", u=[-1e308, 1e308], L=2, n=1)  # u[a] - u[b] overflows
@example(kind="Z", u=0.5, L=2, n=1)
@example(kind="Z", u=[[0.0, 1.0]], L=2, n=1)
def test_limit_sampler(kind, u, L, n):
    grid = _refused_or(lambda: build_grid(kind, u, L))
    if grid is not None:
        assert np.all(np.isfinite(grid.matrix)) and np.all(np.isfinite(grid.cholesky))
        draws = _refused_or(lambda: sample(grid, n, seed=3))
        if draws is not None:
            assert draws.shape == (n, grid.dim) and np.all(np.isfinite(draws))


@settings(max_examples=60, deadline=None)
@given(u=U_GRIDS, A=WINDOWS, x_step=STEPS, y_step=STEPS, n=SAMPLES)
# cell counts past the float range
@example(u=[0.0, 1.0], A=1e308, x_step=0.01, y_step=0.01, n=2)
@example(u=[0.0, 1.0], A=30.0, x_step=0.01, y_step=1e-320, n=2)
# an offset outside the window, where the mesh misses the integrand
@example(u=[0.0, 100.0], A=30.0, x_step=0.01, y_step=0.01, n=2)
@example(u=0.5, A=30.0, x_step=0.01, y_step=0.01, n=2)
@example(u=[[0.0, 1.0]], A=30.0, x_step=0.01, y_step=0.01, n=2)
def test_whitenoise_sampler(u, A, x_step, y_step, n):
    cov = _refused_or(lambda: whitenoise_mesh_covariance(u, A, x_step, y_step))
    if cov is not None:
        assert np.all(np.isfinite(cov)) and np.all(np.abs(u) <= A / 2)
    draws = _refused_or(lambda: sample_Z1_whitenoise(u, A, x_step, y_step, n=n, seed=3))
    if draws is not None:
        assert draws.shape == (n, len(u)) and np.all(np.isfinite(draws))


GEO = WeightFamily.geometric(0.5)
TIME_GRIDS = _mostly(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3).map(sorted),
                     [], [3.0, 1.0], [-1.0], [NAN], [1.0, INF], [1e300], *NOT_LISTS)
BALL_GRIDS = _mostly(st.lists(st.integers(0, 50), min_size=1, max_size=3).map(sorted),
                     [], [3, 1], [-1], [1.5], [NAN], [2**70], *NOT_LISTS)
BALL_TOTALS = _mostly(st.integers(50, 100), None, -1, 1.5, NAN, 10)
REPLICAS = _mostly(st.sampled_from([range(2), [5, -1], []]), None, 1.5, [1.5], [None], "x")


@settings(max_examples=40, deadline=None)
@given(times=TIME_GRIDS, balls=BALL_GRIDS, n=BALL_TOTALS, replicas=REPLICAS)
@example(times=0.5, balls=[5], n=50, replicas=range(2))
@example(times=None, balls=None, n=50, replicas=range(2))
@example(times=[[1.0, 2.0]], balls=[[1, 2]], n=50, replicas=range(2))
@example(times=[1.0], balls=[1], n=50, replicas=None)
def test_simulators(times, balls, n, replicas):
    for call in (lambda: sample_counts(GEO, times, 1, 2, 3, replicas),
                 lambda: sample_counts(GEO, balls, 1, 2, 3, replicas, n=n)):
        rows = _refused_or(call)
        if rows is not None:
            assert np.all(np.isfinite(rows))
    for call in (lambda: simulate_replicas(GEO, times, 1, 2, 3, replicas),
                 lambda: simulate_replicas(GEO, balls, 1, 2, 3, replicas, n=n),
                 lambda: [simulate_poissonized(GEO, times, 1, 2, 3)],
                 lambda: [simulate_deterministic(GEO, n, 1, 2, balls, 3)]):
        for traj in _refused_or(call) or []:
            assert np.all(np.isfinite(traj.grid)) and np.all(traj.K >= 0)


LISTS = _mostly(st.lists(st.floats(0.5, 4.0), max_size=2), [], [NAN], [-1.0], [0.0], [INF],
                *NOT_LISTS)


@settings(max_examples=40, deadline=None)
@given(lambdas=LISTS, ts=_mostly(st.lists(st.floats(1.5, 1e6), max_size=2), [], [1.0], [NAN],
                                 [INF], *NOT_LISTS))
@example(lambdas=[2.0], ts=100.0)
@example(lambdas=None, ts=[100.0])
def test_dehaan_profile(lambdas, ts):
    rows = _refused_or(lambda: GEO.dehaan_profile(lambdas, ts))
    if rows is not None:
        assert all(math.isfinite(x) for row in rows for x in row)


@settings(max_examples=30, deadline=None)
@given(kinds=_mostly(st.sampled_from([["Z"], ["X", "Y"], []]), None, ["Q"], 1.0),
       pairs=_mostly(st.sampled_from([[(1, 1)], [(2, 1)], []]), None, [1], [(1, 1, 1)],
                     [(0, 1)], [(1.5, 1)]),
       deltas=_mostly(st.lists(st.floats(-2.0, 2.0), max_size=2), NAN, [NAN], [1e308],
                      ["x"], *NOT_LISTS))
@example(kinds=None, pairs=[(1, 1)], deltas=[0.0])
@example(kinds=["Z"], pairs=[1], deltas=[0.0])
@example(kinds=["Z"], pairs=[(1, 1)], deltas=None)
@example(kinds=["Z"], pairs=[(1, 1)], deltas=["x"])
def test_comparison_table(kinds, pairs, deltas):
    rows = _refused_or(lambda: comparison_table(kinds, pairs, deltas))
    if rows is not None:
        assert all(math.isfinite(x) for row in rows for x in row[1:])


@settings(max_examples=40, deadline=None)
@given(draws=_mostly(st.sampled_from([np.zeros((2, 2)), np.ones((0, 2))]),
                     None, [[0.0, 1.0]], np.zeros(2), np.zeros((1, 3)), np.zeros((1, 2), int)),
       labels=_mostly(st.just([(1, 0.0), (2, 0.5)]), None, [(1, 0.0)], [1, 2], [(0, 0.0)] * 2,
                      [(1, "x")] * 2, [("%", 0.0)] * 2),
       start=_mostly(st.integers(0, 10), -1, 1.5, None))
@example(draws=[[0.0]], labels=[(1, 0.0)], start=0)
@example(draws=np.zeros((1, 1)), labels=None, start=0)
def test_draws_to_csv_rows(draws, labels, start):
    text = _refused_or(lambda: draws_to_csv_rows(draws, labels, start))
    if text is not None:
        assert all(math.isfinite(float(row.split(",")[3])) for row in text.splitlines())


# the real fields of ExperimentConfig: finite values three draws in four,
# else NaN, an infinity, a value past the float range of e^x, or None
HOSTILE = (NAN, INF, -INF, 800.0, 1e308, -1e308, None)
RUNNER_FIELDS = dict(
    family_kind=st.sampled_from(["weibull", "geometric"]),
    t=_mostly(st.floats(0.0, 1e3), *HOSTILE),
    T=_mostly(st.floats(1.5, 5.0), *HOSTILE),
    u_grid=_mostly(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3).map(sorted),
                   *((x,) for x in HOSTILE)),
    T_grid=_mostly(st.tuples(st.floats(2.0, 10.0), st.floats(11.0, 20.0)),
                   *((10.0, x) for x in HOSTILE)),
    t_grid=_mostly(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=2),
                   *((x,) for x in HOSTILE)),
    prune=_mostly(st.floats(1e-12, 1e-3), *HOSTILE),
    alpha=_mostly(st.sampled_from([0.5, 0.7]), *HOSTILE),
    p=_mostly(st.sampled_from([0.3, 0.5]), *HOSTILE),
)
RUNNER_DEFAULTS = dict(family_kind="weibull", t=50.0, T=3.0, u_grid=(0.0, 0.5),
                       T_grid=(10.0, 12.0), t_grid=(10.0,), prune=1e-9, alpha=0.5, p=0.5)


@settings(max_examples=40, deadline=None)
@given(**RUNNER_FIELDS)
# e^(T + u) and e^T past the float range
@example(**{**RUNNER_DEFAULTS, "T": 800.0})
@example(**{**RUNNER_DEFAULTS, "u_grid": (0.0, 800.0)})
@example(**{**RUNNER_DEFAULTS, "T_grid": (10.0, 800.0)})
# exact moments at times next to the largest float
@example(**{**RUNNER_DEFAULTS, "t": 1e308, "t_grid": (1e308,), "T_grid": (10.0, 709.5)})
# a scalar parameter given as a list
@example(**{**RUNNER_DEFAULTS, "alpha": [0.5]})
@example(**{**RUNNER_DEFAULTS, "family_kind": "geometric", "p": [0.5]})
# 1/p overflows below about 5.6e-309
@example(**{**RUNNER_DEFAULTS, "family_kind": "geometric", "p": 5e-324, "u_grid": (0.0,)})
# grids that are not flat lists
@example(**{**RUNNER_DEFAULTS, "u_grid": 0.5})
@example(**{**RUNNER_DEFAULTS, "u_grid": ((0.5,),)})
@example(**{**RUNNER_DEFAULTS, "T_grid": ((10.0,), (12.0,))})
@example(**{**RUNNER_DEFAULTS, "t_grid": ((10.0,), (12.0,))})
def test_runners(**config):
    config = ExperimentConfig(**config, generations=1, levels=1, replicas=100, threads=1)
    for runner in (run_moment_check, run_clt_check, run_asymptotic_trend,
                   run_depoissonization_check):
        report = _refused_or(lambda: runner(config))
        if report is not None:
            for cell in report.cells:
                for value in (cell.u, cell.v, cell.T, cell.empirical, cell.se, cell.target):
                    assert value is None or math.isfinite(value), (runner, cell)


@pytest.mark.parametrize("runner, field", [
    (run_clt_check, "u_grid"), (run_asymptotic_trend, "T_grid"),
    (run_depoissonization_check, "t_grid"),
])
@pytest.mark.parametrize("grid", [0.5, ((0.5,),), ((10.0,), (12.0,))])
def test_grids_must_be_flat(runner, field, grid):
    config = ExperimentConfig(**{**RUNNER_DEFAULTS, field: grid}, generations=1, levels=1,
                              replicas=100, threads=1)
    with pytest.raises(ValidationError, match=f"^{field} must be a flat list"):
        runner(config)


@pytest.mark.parametrize("name, call", [
    ("times", lambda: sample_counts(GEO, 0.5, 1, 1, 0, range(2))),
    ("time_grid", lambda: sample_counts(GEO, None, 1, 1, 0, range(2), n=5)),
    ("times", lambda: simulate_replicas(GEO, [[1.0, 2.0]], 1, 1, 0, range(2))),
    ("times", lambda: simulate_poissonized(GEO, 5.0, 1, 1, 0)),
    ("time_grid", lambda: simulate_deterministic(GEO, 5, 1, 1, [[1, 2]], 0)),
    ("replicas", lambda: sample_counts(GEO, [1.0], 1, 1, 0, None)),
    ("replicas", lambda: simulate_replicas(GEO, [1.0], 1, 1, 0, None)),
    ("u_grid", lambda: build_grid("Z", 0.5, 2)),
    ("u_grid", lambda: build_grid("Z", [[0.0, 1.0]], 2)),
    ("u_grid", lambda: whitenoise_mesh_covariance(0.5)),
    ("u_grid", lambda: whitenoise_mesh_covariance([[0.0, 1.0]])),
    ("u_grid", lambda: sample_Z1_whitenoise(None)),
    ("ts", lambda: GEO.dehaan_profile([2.0], 100.0)),
    ("lambdas", lambda: GEO.dehaan_profile(None, [100.0])),
    ("kinds", lambda: comparison_table(None, [(1, 1)], [0.0])),
    ("level_pairs", lambda: comparison_table(["Z"], [1], [0.0])),
    ("deltas", lambda: comparison_table(["Z"], [(1, 1)], None)),
    ("deltas", lambda: comparison_table(["Z"], [(1, 1)], ["x"])),
    ("draws", lambda: draws_to_csv_rows([[0.0]], [(1, 0.0)])),
    ("labels", lambda: draws_to_csv_rows(np.zeros((1, 1)), None)),
    ("finite family weights", lambda: WeightFamily.finite([[0.5, 0.5]])),
])
def test_list_arguments_are_named(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must"):
        call()


@pytest.mark.parametrize("alpha", [0.24, 0.2, 0.15, 0.1])
def test_small_alpha_is_refused_before_any_table(alpha):
    # the normalizer of weibull(0.2) alone would sum 3.8e8 weights
    with pytest.raises(ValidationError, match=f"alpha={alpha}.*limit is {_MAX_TABLE}"):
        WeightFamily.weibull_like(alpha)


def test_long_plan_table_is_refused_before_any_table():
    # a cut at 95 million weights: 726 MiB of weights, then 17 rows of power sums
    fam = WeightFamily.weibull_like(0.3)
    with pytest.raises(NumericalError, match=f"more than {_MAX_TABLE} weights"):
        mean_K(fam, 1, 1, 100.0, prune=1e-100)
    assert fam._w.size == 0  # no weight was formed
