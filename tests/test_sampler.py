"""The box sampler (``scheme.sample_counts``) against the ball engine and the
exact moments.

The box sampler draws the counts box by box and the ball engine ball by
ball, so the two share no draws: they must agree in law.  The gate is a
two-sample test of the joint law of every (K, K*) entry of a row, then the
sampler's means and covariances against the exact finite-time values at
4 standard errors, then the structural invariants and the stream contract
of its rows.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy import stats

from nested_karlin import scheme
from nested_karlin.errors import ValidationError
from nested_karlin.harness import _combine, _cov_se, _mean_se, _star_terms
from nested_karlin.moments import cov_K_cross_gen, mean_K, mean_K_binomial
from nested_karlin.scheme import sample_counts, simulate_replicas
from nested_karlin.weights import WeightFamily

WEIB = WeightFamily.weibull_like(0.5)
GEO = WeightFamily.geometric(0.5)
FIN = WeightFamily.finite([0.1, 0.35, 0.05, 0.3, 0.2])


def _ball_rows(family, grid, J, L, seed, R, n=None):
    """The ball engine's rows in the sampler's layout: K, then K*."""
    return np.array([np.concatenate([t.K.ravel(), t.K_star.ravel()])
                     for t in simulate_replicas(family, grid, J, L, seed, range(R), n=n)],
                    dtype=float)


# (family, grid, J, L, n): small times, so a row takes few distinct values
LAW_CASES = [
    (WEIB, [1.0, 3.0], 2, 2, None),
    (GEO, [2.0, 4.0], 3, 2, None),
    (FIN, [2.0, 5.0], 2, 3, None),
    (WEIB, [2, 5], 2, 2, 5),
    (FIN, [3, 6], 3, 2, 6),
    (GEO, [4, 8], 1, 3, 8),
]


@pytest.mark.parametrize("family, grid, J, L, n", LAW_CASES)
def test_joint_law_matches_the_ball_engine(family, grid, J, L, n):
    """Chi-square test of homogeneity over the distinct rows: every row
    pattern seen fewer than 10 times in both samples together is pooled
    into one cell."""
    R = 3000
    box = sample_counts(family, grid, J, L, 101, range(R), n=n)
    ball = _ball_rows(family, grid, J, L, 202, R, n=n)
    patterns, inverse = np.unique(np.vstack([box, ball]), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    table = np.array([np.bincount(inverse[:R], minlength=len(patterns)),
                      np.bincount(inverse[R:], minlength=len(patterns))])
    common = table.sum(axis=0) >= 10
    table = np.column_stack([table[:, common], table[:, ~common].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    assert table.shape[1] >= 5, "too few patterns to test"
    p = stats.chi2_contingency(table)[1]
    assert p > 1e-3, (p, table.shape)


def _moment_cells(family, grid, J, L, n):
    """(name, statistic of the value array X[r, kind, j, l, g], exact target)
    for the means of K and K* and, in the Poissonized scheme, the
    covariances of K within and across generations and times and the
    variances of K*."""
    G = len(grid)
    idx = lambda p, j, l, g: (slice(None), p, j - 1, l - 1, g)  # noqa: E731
    cells = []
    fn = mean_K if n is None else mean_K_binomial
    for j, l, g in itertools.product(range(1, J + 1), range(1, L + 1), range(G)):
        k = ((1.0, fn, (j, l, grid[g])),)
        star = _star_terms(fn, (j,), (l,), (grid[g],))
        cells.append((f"mean K j={j} l={l} g={g}", _mean_se, [idx(0, j, l, g)], k))
        cells.append((f"mean K* j={j} l={l} g={g}", _mean_se, [idx(1, j, l, g)], star))
    if n is not None:
        return cells
    pairs = list(itertools.product(range(1, L + 1), range(G)))
    for j in range(1, J + 1):
        for (l1, g1), (l2, g2) in itertools.combinations_with_replacement(pairs, 2):
            terms = ((1.0, cov_K_cross_gen, (j, j, l1, l2, grid[g1], grid[g2])),)
            cells.append((f"cov K j={j} ({l1},{g1}) ({l2},{g2})", _cov_se,
                          [idx(0, j, l1, g1), idx(0, j, l2, g2)], terms))
        for l, g in pairs:
            terms = _star_terms(cov_K_cross_gen, (j, j), (l, l), (grid[g], grid[g]))
            cells.append((f"var K* j={j} l={l} g={g}", _cov_se,
                          [idx(1, j, l, g)] * 2, terms))
    for i, j in itertools.combinations(range(1, J + 1), 2):
        for (l1, g1), (l2, g2) in itertools.product(pairs, pairs):
            terms = ((1.0, cov_K_cross_gen, (i, j, l1, l2, grid[g1], grid[g2])),)
            cells.append((f"cov K ({i},{l1},{g1}) ({j},{l2},{g2})", _cov_se,
                          [idx(0, i, l1, g1), idx(0, j, l2, g2)], terms))
    return cells


MOMENT_CASES = [
    (WEIB, [30.0, 80.0], 2, 2, None),
    (GEO, [10.0, 25.0], 3, 2, None),
    (FIN, [3.0, 7.0], 3, 3, None),
    (WEIB, [20, 60], 2, 3, 60),
    (GEO, [10, 30], 2, 2, 30),
    (FIN, [4, 9], 3, 2, 9),
]


@pytest.mark.parametrize("family, grid, J, L, n", MOMENT_CASES)
def test_moments_match_the_exact_values(family, grid, J, L, n):
    R = 4000
    X = sample_counts(family, grid, J, L, 303, range(R), n=n).reshape(R, 2, J, L, len(grid))
    cells = _moment_cells(family, grid, J, L, n)
    results = {(fn, args): fn(family, *args, prune=1e-9)
               for *_, terms in cells for _, fn, args in terms}
    misses = []
    for name, stat, cols, terms in cells:
        value, se = stat(*(X[c] for c in cols))
        target = _combine(terms, results)[0]
        if abs(value - target) > 4.0 * se:
            misses.append((name, value, target, se))
    assert not misses, misses


FAMILIES = {
    "weib0.5": WEIB,
    "weib0.3": WeightFamily.weibull_like(0.3),
    "geo": GEO,
    "fin": FIN,
}


def _grid(gaps, whole):
    grid = np.cumsum(gaps)
    return grid.astype(int).tolist() if whole else grid.tolist()


@given(
    st.sampled_from(sorted(FAMILIES)),
    st.integers(1, 3),
    st.integers(1, 4),
    st.lists(st.sampled_from([0, 0, 1, 3, 20, 60]), min_size=1, max_size=4),
    st.booleans(),
    st.integers(0, 40),
    st.integers(1, 9),
    st.sampled_from([1, 50, 2**16]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_rows_keep_the_invariants_and_the_streams(kind, J, L, gaps, fixed, first, count,
                                                  budget, seed):
    family, grid = FAMILIES[kind], _grid(gaps, fixed)
    n = grid[-1] + 1 if fixed else None
    replicas = range(first, first + count)
    rows = sample_counts(family, grid, J, L, seed, replicas, n=n)
    G = len(grid)
    assert rows.shape == (count, 2 * J * L * G)
    assert np.all(rows == np.floor(rows)) and np.all(rows >= 0)
    K, K_star = rows.reshape(count, 2, J, L, G).transpose(1, 0, 2, 3, 4)
    assert np.all(np.diff(K, axis=2) <= 0), "K nonincreasing in l"
    assert np.all(np.diff(K[:, :, 0, :], axis=1) >= 0), "K(1) nondecreasing in j"
    assert np.all(np.diff(K, axis=3) >= 0), "K nondecreasing along the grid"
    assert_array_equal(K_star[:, :, :-1], K[:, :, :-1] - K[:, :, 1:], "K* = K(l) - K(l+1)")
    assert np.all((0 <= K_star[:, :, -1]) & (K_star[:, :, -1] <= K[:, :, -1]))
    # the same rows one replica range at a time, and with other pass sizes
    cut = first + count // 2
    split = np.vstack([sample_counts(family, grid, J, L, seed, range(first, cut), n=n),
                       sample_counts(family, grid, J, L, seed, range(cut, first + count), n=n)])
    assert_array_equal(split, rows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme, "_PASS_BUDGET", budget)
        assert_array_equal(sample_counts(family, grid, J, L, seed, replicas, n=n), rows)


def test_listed_order_is_kept():
    rows = sample_counts(GEO, [3.0, 7.0], 2, 2, 9, range(40))
    order = [7, 2, 30, 3]
    assert_array_equal(sample_counts(GEO, [3.0, 7.0], 2, 2, 9, order), rows[order])
    assert sample_counts(GEO, [3.0], 2, 2, 9, []).shape == (0, 8)


def test_zero_times_give_empty_rows():
    assert not sample_counts(WEIB, [0.0, 0.0], 2, 2, 1, range(3)).any()
    assert not sample_counts(FIN, [0, 0], 2, 2, 1, range(3), n=4).any()


def test_every_box_active():
    # at t = 1e4 both boxes of this family are active and heavy: the leaves
    # hold all the mass, and each box holds thousands of balls
    family = WeightFamily.finite([0.5, 0.5])
    for n in (None, 10000):
        rows = sample_counts(family, [10000], 1, 2, 5, range(20), n=n)
        assert np.all(rows[:, :2] == 2)  # K(1) = K(2) = 2


@pytest.mark.parametrize("grid", [[], [2.0, 1.0], [-1.0], [math.nan], [math.inf], [1.0, math.nan]])
def test_bad_times_raise(grid):
    with pytest.raises(ValidationError):
        sample_counts(GEO, grid, 1, 1, 0, range(2))


@pytest.mark.parametrize("grid, n", [([5], 4), ([1.5], 4), ([], 4), ([1], -1), ([2, 1], 4),
                                     ([-1], 4), ([math.nan], 4), ([1], math.inf)])
def test_bad_ball_counts_raise(grid, n):
    with pytest.raises(ValidationError):
        sample_counts(GEO, grid, 1, 1, 0, range(2), n=n)


@pytest.mark.parametrize("J, L", [(0, 1), (1, 0), (1.5, 1), (1, math.nan)])
def test_bad_shape_raises(J, L):
    with pytest.raises(ValidationError):
        sample_counts(GEO, [1.0], J, L, 0, range(2))
