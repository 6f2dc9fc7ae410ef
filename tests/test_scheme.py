import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from types import SimpleNamespace

from nested_karlin import scheme
from nested_karlin.errors import NumericalError, ValidationError
from nested_karlin.kernels import poisson_tail
from nested_karlin.harness import _combine, _star_terms
from nested_karlin.moments import mean_K
from nested_karlin.scheme import (
    TRAJECTORY_CSV_HEADER,
    simulate_deterministic,
    simulate_poissonized,
    simulate_replicas,
)
from nested_karlin.weights import WeightFamily

FAMILIES = {
    "weib": WeightFamily.weibull_like(0.5),
    "geo": WeightFamily.geometric(0.5),
    "fin": WeightFamily.finite([0.5, 0.3, 0.2]),
}


def _reference_counts(family, increments, J, L, rng):
    """Brute-force counter: draw each snapshot's balls in turn and keep a
    dict from box prefix (a tuple of indices) to its ball count."""
    table = family.cumulative_table()
    G = len(increments)
    counts = [dict() for _ in range(J)]
    K = np.zeros((J, L + 1, G), dtype=np.int64)
    excess = np.zeros((J, G), dtype=np.int64)
    k_live = np.zeros((J, L + 1), dtype=np.int64)
    x_live = np.zeros(J, dtype=np.int64)
    for i, delta in enumerate(increments):
        if delta:
            idx = np.searchsorted(table, rng.random((delta, J)), side="right") + 1
            for path in idx.tolist():
                for g in range(J):
                    box = tuple(path[: g + 1])
                    old = counts[g].get(box, 0)
                    counts[g][box] = old + 1
                    if old < L + 1:
                        k_live[g, old] += 1
                    if old + 1 > L:
                        x_live[g] += old + 1 - (old if old > L else 0)
        K[:, :, i] = k_live
        excess[:, i] = x_live
    return {
        "K": K[:, :L, :],
        "K_star": K[:, :L, :] - K[:, 1:, :],
        "guard": K[:, L, :],
        "excess": excess,
        "balls": np.cumsum(increments),
    }


def _philox(seed, replica):
    key = np.array([seed % 2**64, replica % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _assert_matches_reference(traj, want):
    for name, value in want.items():
        assert_array_equal(getattr(traj, name), value, err_msg=name)


@pytest.fixture(scope="module")
def geo():
    return WeightFamily.geometric(0.5)


@pytest.fixture(scope="module")
def fin3():
    return WeightFamily.finite([0.5, 0.3, 0.2])


class TestTableSearch:
    @pytest.mark.parametrize(
        "family",
        [*FAMILIES.values(), WeightFamily.finite([0.25, 0.5, 0.25])],
        ids=[*FAMILIES, "fin-on-edges"],
    )
    def test_equals_searchsorted(self, family):
        table = family.cumulative_table()
        points = np.concatenate([
            table,
            np.nextafter(table, -np.inf),
            np.nextafter(table, np.inf),
            np.arange(2**16) / 2**16,
            [0.0, 1.0 - 2.0**-53],
        ])
        u = points[(points >= 0.0) & (points < 1.0)]
        want = np.searchsorted(table, u, side="right")
        assert_array_equal(family.table_search(u), want)
        assert_array_equal(family.table_search(u.reshape(-1, 1)), want.reshape(-1, 1))

    def test_geometric_bracket(self, geo):
        # CDF steps 0.5, 0.75: 0.6 lands in the second box (0-based index 1)
        assert geo.table_search(np.array([0.6])).tolist() == [1]

    def test_zero_draw(self, geo, fin3):
        assert geo.table_search(np.array([0.0])).tolist() == [0]
        assert fin3.table_search(np.array([0.0])).tolist() == [0]

    def test_empirical_frequencies(self, geo):
        rng = np.random.default_rng(2718)
        n = 1_000_000
        idx = geo.table_search(rng.random(n)) + 1
        for k in range(1, 21):
            pk = geo.weight(k)
            se = math.sqrt(pk * (1.0 - pk) / n)
            freq = float(np.count_nonzero(idx == k)) / n
            assert abs(freq - pk) <= 4.0 * se, k


class TestExactAgainstDictCounter:
    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.integers(1, 3),
        st.integers(1, 4),
        st.lists(st.sampled_from([0, 0, 1, 2, 5, 17]), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_fixed_n(self, kind, J, L, steps, seed):
        family = FAMILIES[kind]
        grid = np.cumsum(steps).tolist()
        traj = simulate_deterministic(family, grid[-1], J, L, grid, seed, replica=3)
        want = _reference_counts(family, steps, J, L, _philox(seed, 3))
        _assert_matches_reference(traj, want)

    @given(
        st.sampled_from(sorted(FAMILIES)),
        st.integers(1, 3),
        st.integers(1, 4),
        st.lists(st.sampled_from([0.0, 0.0, 0.5, 2.0, 9.0, 40.0]), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_poissonized(self, kind, J, L, gaps, seed):
        family = FAMILIES[kind]
        times = np.cumsum(gaps).tolist()
        traj = simulate_poissonized(family, times, J, L, seed, replica=5)
        rng = _philox(seed, 5)
        steps = [int(rng.poisson(gap)) if gap > 0.0 else 0 for gap in gaps]
        want = _reference_counts(family, steps, J, L, rng)
        _assert_matches_reference(traj, want)


class TestKeyPacking:
    """Box prefixes are relabelled per generation, so prefixes too deep to
    code in an int64 (with the snapshot beside them) are counted exactly."""

    def test_guard_at_int64_boundary(self):
        # 126 boxes plus the overflow index give base 128 = 2**7 codes:
        # 9 generations fill 63 bits exactly, and so do 8 generations
        # with 128 snapshots (7 snapshot bits); one more snapshot or one
        # more generation would not fit
        family = WeightFamily.finite([1.0] * 126)
        for grid, J, L in (([300], 9, 2), ([100, 300], 9, 2), (list(range(129)), 8, 1)):
            traj = simulate_deterministic(family, grid[-1], J, L, grid, seed=1)
            _assert_matches_reference(
                traj, _reference_counts(family, np.diff(grid, prepend=0), J, L, _philox(1, 0))
            )
        traj = simulate_poissonized(family, [1.0], 10, 1, seed=1)
        rng = _philox(1, 0)
        _assert_matches_reference(traj, _reference_counts(family, [rng.poisson(1.0)], 10, 1, rng))

    def test_guard_counts_snapshot_bits(self):
        # base 3: 2 * 3**39 < 2**63 < 4 * 3**39, so two snapshot bits
        # would not fit beside 39 generations
        solo = WeightFamily.finite([1.0])
        for grid in ([1, 4], [1, 2, 4]):
            traj = simulate_deterministic(solo, 4, 39, 2, grid, seed=2)
            assert traj.K[38, :, -1].tolist() == [1, 1]
            _assert_matches_reference(
                traj, _reference_counts(solo, np.diff(grid, prepend=0), 39, 2, _philox(2, 0))
            )


BATCH_FAMILIES = {
    "weib0.5": FAMILIES["weib"],
    "weib0.3": WeightFamily.weibull_like(0.3),
    "geo": FAMILIES["geo"],
    "fin": FAMILIES["fin"],
}
TRAJECTORY_FIELDS = ("K", "K_star", "guard", "excess", "balls", "grid")


def _assert_batch_matches_singles(family, grid, J, L, seed, replicas, n=None):
    """simulate_replicas equals one single-replica call per replica, on
    every field and dtype, in the order the replicas were listed."""
    batch = simulate_replicas(family, grid, J, L, seed, replicas, n=n)
    assert [traj.replica for traj in batch] == list(replicas)
    for traj in batch:
        if n is None:
            single = simulate_poissonized(family, grid, J, L, seed, replica=traj.replica)
        else:
            single = simulate_deterministic(family, n, J, L, grid, seed, replica=traj.replica)
        assert traj.kind == single.kind
        for name in TRAJECTORY_FIELDS:
            got, want = getattr(traj, name), getattr(single, name)
            assert got.dtype == want.dtype, name
            assert_array_equal(got, want, err_msg=f"{name}, replica {traj.replica}")
        traj.validate()
    return batch


class TestBatchedPasses:
    """simulate_replicas runs a list of replicas; each trajectory must be
    bit-equal to the replica simulated alone."""

    @given(
        st.sampled_from(sorted(BATCH_FAMILIES)),
        st.integers(1, 3),
        st.integers(1, 4),
        st.lists(st.sampled_from([0.0, 0.0, 0.5, 3.0, 20.0, 60.0]), min_size=1, max_size=5),
        st.integers(0, 50),
        st.integers(1, 7),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_poissonized_batches_match_singles(self, kind, J, L, gaps, first, count, seed):
        _assert_batch_matches_singles(
            BATCH_FAMILIES[kind], np.cumsum(gaps).tolist(), J, L, seed,
            range(first, first + count),
        )

    @given(
        st.sampled_from(sorted(BATCH_FAMILIES)),
        st.integers(1, 3),
        st.integers(1, 4),
        st.lists(st.sampled_from([0, 0, 1, 4, 30]), min_size=1, max_size=5),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fixed_n_batches_match_singles(self, kind, J, L, steps, count, seed):
        grid = np.cumsum(steps).tolist()
        _assert_batch_matches_singles(
            BATCH_FAMILIES[kind], grid, J, L, seed, range(count), n=grid[-1] + 2
        )

    def test_repeated_and_zero_times(self, geo, fin3):
        _assert_batch_matches_singles(geo, [0.0, 0.0, 4.0, 4.0, 9.0], 2, 3, 5, range(12))
        _assert_batch_matches_singles(fin3, [0, 0, 3, 3, 8], 3, 2, 5, range(12), n=8)

    def test_replicas_without_balls(self, geo):
        # at t = 0 every replica is empty; at t = 0.3 most are, and the
        # empty ones sit between replicas with balls
        batch = _assert_batch_matches_singles(geo, [0.0], 2, 2, 3, range(5))
        assert all(traj.balls.tolist() == [0] and not traj.K.any() for traj in batch)
        batch = _assert_batch_matches_singles(geo, [0.1, 0.3], 2, 2, 3, range(40))
        balls = [int(traj.balls[-1]) for traj in batch]
        assert 0 in balls and max(balls) > 0

    def test_listed_order_is_kept(self, geo):
        batch = _assert_batch_matches_singles(geo, [3.0, 7.0], 2, 2, 9, [7, 2, 30, 3])
        assert [traj.replica for traj in batch] == [7, 2, 30, 3]
        assert simulate_replicas(geo, [3.0], 2, 2, 9, []) == []

    def test_validation_matches_the_single_replica_functions(self, geo):
        for grid in ([], [2.0, 1.0], [-1.0], [float("nan")]):
            with pytest.raises(ValidationError):
                simulate_replicas(geo, grid, 1, 1, 0, range(2))
        for grid, n in (([5], 4), ([1.5], 4), ([], 4), ([1], -1)):
            with pytest.raises(ValidationError):
                simulate_replicas(geo, grid, 1, 1, 0, range(2), n=n)
        with pytest.raises(ValidationError):
            simulate_replicas(geo, [1.0], 0, 1, 0, range(2))


class _NoUniformDraws:
    """Stand-in generator: Poisson counts come from the real stream, and a
    uniform draw fails the test instead of allocating."""

    def __init__(self, rng):
        self.poisson = rng.poisson

    def random(self, size):
        raise AssertionError(f"attempted to draw {size} uniforms")


class _NoDraws:
    """Stand-in generator that fails the test on any draw."""

    def poisson(self, lam):
        raise AssertionError(f"attempted a Poisson({lam}) draw")

    def random(self, size):
        raise AssertionError(f"attempted to draw {size} uniforms")


class TestMemoryGuard:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        make = scheme._keyed_rng
        monkeypatch.setattr(
            scheme, "_keyed_rng",
            lambda seed, replica, rng=None: _NoUniformDraws(make(seed, replica)),
        )

    @pytest.fixture
    def any_draw_fails(self, monkeypatch):
        monkeypatch.setattr(scheme, "_keyed_rng", lambda seed, replica, rng=None: _NoDraws())

    def test_expected_ball_count_is_checked_before_any_draw(self, any_draw_fails):
        # numpy refuses Poisson means above about 9.2e18
        weib = WeightFamily.weibull_like(0.5)
        with pytest.raises(NumericalError):
            simulate_poissonized(weib, [1e20], 2, 3, seed=1)
        with pytest.raises(NumericalError):
            simulate_poissonized(weib, [1.0, 1e12], 1, 1, seed=1)

    def test_cli_exit_code_before_any_draw(self, any_draw_fails, capsys):
        from nested_karlin.cli import main

        assert main(["simulate", "--t", "1e20"]) == 2
        captured = capsys.readouterr()
        assert "numeric error:" in captured.err and not captured.out

    def test_sampler_refuses_an_infeasible_time_before_any_draw(self, any_draw_fails):
        # numpy's Poisson draw would raise a bare ValueError at this mean
        weib = WeightFamily.weibull_like(0.5)
        with pytest.raises(NumericalError):
            scheme.sample_counts(weib, [1e20], 1, 1, 1, range(3))

    def test_verify_exit_code_before_any_draw(self, any_draw_fails, capsys):
        from nested_karlin.cli import main

        args = ["verify", "moment", "--t", "1e20", "--replicas", "100",
                "--generations", "1", "--levels", "1", "--threads", "1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "numeric error:" in captured.err and not captured.out

    def test_oversized_runs_are_refused_before_drawing(self, no_draws):
        weib = WeightFamily.weibull_like(0.5)
        with pytest.raises(NumericalError):
            simulate_poissonized(weib, [1e12], 2, 3, seed=1)
        with pytest.raises(NumericalError):
            simulate_deterministic(weib, 10**12, 1, 1, [10**12], seed=1)

    def test_cli_exit_code(self, no_draws, capsys):
        from nested_karlin.cli import main

        assert main(["simulate", "--t", "1e12"]) == 2
        captured = capsys.readouterr()
        assert "numeric error:" in captured.err and not captured.out

    def test_limit_is_physical_memory(self, monkeypatch, fin3):
        # one 4096-byte page: 50 balls in one generation fit, 200 do not
        sysconf = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}.__getitem__
        monkeypatch.setattr(scheme, "os", SimpleNamespace(sysconf=sysconf))
        simulate_deterministic(fin3, 50, 1, 1, [50], seed=1).validate()
        with pytest.raises(NumericalError):
            simulate_deterministic(fin3, 200, 1, 1, [200], seed=1)


class TestDeterministicExamples:
    def test_one_ball(self, fin3):
        traj = simulate_deterministic(fin3, 1, 3, 2, [1], seed=5)
        for j in range(3):
            assert traj.K[j, 0, 0] == 1
            assert traj.K_star[j, 0, 0] == 1

    def test_two_balls_single_box(self):
        solo = WeightFamily.finite([1.0])
        traj = simulate_deterministic(solo, 2, 1, 3, [2], seed=5)
        assert traj.K[0, 1, 0] == 1  # the box holds >= 2 balls
        assert traj.K_star[0, 0, 0] == 0  # nothing holds exactly 1

    def test_grid_validation(self, fin3):
        with pytest.raises(ValidationError):
            simulate_deterministic(fin3, 2, 1, 1, [3], seed=0)
        with pytest.raises(ValidationError):
            simulate_deterministic(fin3, 5, 1, 1, [3, 2], seed=0)
        with pytest.raises(ValidationError):
            simulate_deterministic(fin3, 5, 1, 1, [], seed=0)

    @pytest.mark.parametrize(
        "n, grid",
        [(10, [2.7]), (10, [math.nan]), (10, [1, math.inf]), (2.5, [2]), (math.nan, [2])],
    )
    def test_rejects_non_finite_or_fractional_counts(self, fin3, n, grid):
        with pytest.raises(ValidationError):
            simulate_deterministic(fin3, n, 1, 1, grid, seed=0)

    def test_whole_float_counts_accepted(self, fin3):
        a = simulate_deterministic(fin3, 5.0, 2, 2, [2.0, 5.0], seed=3)
        b = simulate_deterministic(fin3, 5, 2, 2, [2, 5], seed=3)
        assert a.grid.dtype == np.int64
        assert_array_equal(a.grid, b.grid)
        assert_array_equal(a.K, b.K)

    def test_generations_and_levels_must_be_whole(self, fin3):
        for bad in (1.5, math.nan, math.inf):
            with pytest.raises(ValidationError):
                simulate_deterministic(fin3, 5, bad, 1, [5], seed=0)
            with pytest.raises(ValidationError):
                simulate_poissonized(fin3, [5.0], 1, bad, seed=0)
        a = simulate_deterministic(fin3, 5, 2.0, 1.0, [5], seed=3)
        assert_array_equal(a.K, simulate_deterministic(fin3, 5, 2, 1, [5], seed=3).K)

    def test_three_ball_outcome_distribution(self, fin3):
        # exhaustive oracle: 27 equally-structured assignments of 3 balls
        probs = fin3.probs
        exact = {}
        for balls in itertools.product(range(3), repeat=3):
            p = math.prod(probs[b] for b in balls)
            occ = np.bincount(balls, minlength=3)
            kstar = tuple(int(np.count_nonzero(occ == l)) for l in (1, 2, 3))
            exact[kstar] = exact.get(kstar, 0.0) + p
        replicas = 10_000
        counts = {}
        for r in range(replicas):
            traj = simulate_deterministic(fin3, 3, 1, 3, [3], seed=7070, replica=r)
            key = tuple(int(v) for v in traj.K_star[0, :, 0])
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) <= set(exact)
        for key, p in exact.items():
            freq = counts.get(key, 0) / replicas
            se = math.sqrt(p * (1.0 - p) / replicas)
            assert abs(freq - p) <= 4.0 * se, key


class TestPoissonizedExamples:
    def test_zero_time(self, geo):
        traj = simulate_poissonized(geo, [0.0], 2, 2, seed=1)
        assert traj.balls[0] == 0
        assert np.all(traj.K == 0) and np.all(traj.K_star == 0)

    def test_single_box_tail_law(self):
        solo = WeightFamily.finite([1.0])
        t, replicas = 3.0, 20_000
        hits = np.zeros(3)
        for r in range(replicas):
            traj = simulate_poissonized(solo, [t], 1, 3, seed=909, replica=r)
            hits += traj.K[0, :, 0]
        for l in (1, 2, 3):
            p = float(poisson_tail(l, t))
            se = math.sqrt(p * (1.0 - p) / replicas)
            assert abs(hits[l - 1] / replicas - p) <= 4.0 * se, l

    def test_matches_exact_star_means(self):
        weib = WeightFamily.weibull_like(0.5)
        t, replicas = 300.0, 600
        vals = np.empty((replicas, 2, 3))
        for r in range(replicas):
            traj = simulate_poissonized(weib, [t], 2, 3, seed=3131, replica=r)
            vals[r] = traj.K_star[:, :, 0]
        for j in (1, 2):
            for l in (1, 2, 3):
                cell = vals[:, j - 1, l - 1]
                se = cell.std(ddof=1) / math.sqrt(replicas)
                terms = _star_terms(mean_K, (j,), (l,), (t,))
                exact = _combine(terms, {(f, a): f(weib, *a) for _, f, a in terms})[0]
                assert abs(cell.mean() - exact) <= 4.0 * se, (j, l)

    def test_ball_count_mean(self, geo):
        t, replicas = 40.0, 4_000
        balls = np.array(
            [
                simulate_poissonized(geo, [t], 1, 1, seed=11, replica=r).balls[0]
                for r in range(replicas)
            ],
            dtype=float,
        )
        se = balls.std(ddof=1) / math.sqrt(replicas)
        assert abs(balls.mean() - t) <= 4.0 * se

    def test_grid_must_be_monotone(self, geo):
        with pytest.raises(ValidationError):
            simulate_poissonized(geo, [3.0, 1.0], 1, 1, seed=0)

    def test_non_finite_times_rejected(self, geo):
        for times in ([math.nan], [1.0, math.nan], [1.0, math.inf]):
            with pytest.raises(ValidationError):
                simulate_poissonized(geo, times, 1, 1, seed=0)


class TestInvariantsAndDeterminism:
    @given(
        st.sampled_from(["geo", "weib", "fin"]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold(self, kind, J, L, n, seed):
        fam = {
            "geo": WeightFamily.geometric(0.5),
            "weib": WeightFamily.weibull_like(0.5),
            "fin": WeightFamily.finite([0.5, 0.3, 0.2]),
        }[kind]
        grid = sorted({0, n // 3, n})
        traj = simulate_deterministic(fam, n, J, L, grid, seed=seed)
        traj.validate()

    @given(st.floats(0.0, 60.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariants_hold_poissonized(self, t, seed):
        fam = WeightFamily.geometric(0.4)
        traj = simulate_poissonized(fam, [t / 2.0, t], 2, 2, seed=seed)
        traj.validate()

    def test_same_seed_bit_identical(self, geo):
        a = simulate_poissonized(geo, [5.0, 9.0], 2, 3, seed=77, replica=4)
        b = simulate_poissonized(geo, [5.0, 9.0], 2, 3, seed=77, replica=4)
        assert_array_equal(a.K, b.K)
        assert_array_equal(a.K_star, b.K_star)
        assert_array_equal(a.balls, b.balls)

    def test_replicas_are_distinct_streams(self, geo):
        a = simulate_poissonized(geo, [50.0], 1, 1, seed=77, replica=0)
        b = simulate_poissonized(geo, [50.0], 1, 1, seed=77, replica=1)
        assert a.balls[0] != b.balls[0] or a.K[0, 0, 0] != b.K[0, 0, 0]

    def test_rekeyed_stream_is_the_keyed_philox_stream(self):
        # one generator re-keyed after each use gives, key for key, the
        # draws of a fresh Philox(key=[seed mod 2**64, index mod 2**64])
        rng = None
        for seed, index in ((7, 0), (7, 1), (2026, 3999), (-1, 5), (2**64 + 3, 2**64 - 1),
                            (7, 0)):
            for draw in (lambda g: g.poisson(3.5, 7), lambda g: g.random(9),
                         lambda g: g.standard_normal(5), lambda g: g.random((3, 2))):
                rng = scheme._keyed_rng(seed, index, rng)
                assert_array_equal(draw(rng), draw(_philox(seed, index)))
            rng.random(3)  # leave a partly used buffer behind

    @pytest.mark.parametrize("seed", [1.5, math.nan, math.inf])
    def test_seed_must_be_whole(self, geo, seed):
        with pytest.raises(ValidationError, match="seed"):
            simulate_replicas(geo, [5.0], 1, 1, seed, range(2))

    @pytest.mark.parametrize("replica", [1.99, math.nan])
    def test_replica_must_be_whole(self, geo, replica):
        # a fractional index must not run the stream of its integer part
        with pytest.raises(ValidationError, match="replica"):
            simulate_poissonized(geo, [20.0], 1, 1, seed=3, replica=replica)

    def test_negative_replica_wraps(self, geo):
        a = simulate_poissonized(geo, [20.0], 2, 2, seed=3, replica=-1)
        b = simulate_poissonized(geo, [20.0], 2, 2, seed=3, replica=2**64 - 1)
        assert_array_equal(a.K, b.K)
        assert_array_equal(a.balls, b.balls)

    def test_negative_seed_wraps(self, geo):
        a = simulate_poissonized(geo, [20.0], 2, 2, seed=-1, replica=3)
        b = simulate_poissonized(geo, [20.0], 2, 2, seed=2**64 - 1, replica=3)
        assert_array_equal(a.K, b.K)
        assert_array_equal(a.balls, b.balls)

    def test_multi_time_snapshot_consistency(self, geo):
        # a two-point grid must agree with two single-point runs of the
        # same stream prefix at the earlier time
        full = simulate_deterministic(geo, 30, 2, 3, [10, 30], seed=123)
        early = simulate_deterministic(geo, 10, 2, 3, [10], seed=123)
        assert_array_equal(full.K[:, :, 0], early.K[:, :, 0])

    def test_csv_rows(self, fin3):
        traj = simulate_deterministic(fin3, 3, 2, 2, [1, 3], seed=9)
        rows = list(traj.to_csv_rows())
        assert len(rows) == 2 * 2 * 2
        assert TRAJECTORY_CSV_HEADER == "replica,j,l,grid_index,time,K,K_star,balls"
        first = rows[0].split(",")
        assert len(first) == 8
        assert first[4] == "1"  # integer time formatting for the ball-count scheme
