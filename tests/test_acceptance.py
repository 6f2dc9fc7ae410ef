"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line with the measured margin so a `pytest -v -s`
run doubles as the acceptance report.  Statistical criteria use the pinned
master seed 2026; all runs are single-process deterministic.
"""

import itertools
import math
import time

import numpy as np
import pytest

from nested_karlin.gaussian import build_grid, sample, sample_Z1_whitenoise
from nested_karlin.harness import (
    ExperimentConfig,
    run_asymptotic_trend,
    run_depoissonization_check,
    run_moment_check,
)
from nested_karlin.kernels import b_constants, binomial_identity_lhs, convolution_identity
from nested_karlin.limits import closed_cov, quadrature_cov
from nested_karlin.moments import mean_K_binomial
from nested_karlin.scheme import simulate_deterministic
from nested_karlin.weights import WeightFamily

SEED = 2026


def test_criterion_01_combinatorial_identities():
    start = time.perf_counter()
    cells = 0
    for a in range(31):
        for r in range(31):
            for n in range(31):
                lhs, rhs = convolution_identity(a, r, n)
                assert lhs == rhs, (a, r, n)
                cells += 1
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(0.0, 10.0)) or 1e-9
        b = float(rng.uniform(0.0, 10.0)) or 1e-9
        for l in range(1, 13):
            rel = abs(binomial_identity_lhs(l, a, b) - 1.0 / l) * l
            worst = max(worst, rel)
            assert rel <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: {cells} convolution identities exact, "
        f"binomial worst_rel={worst:.2e} (<=1e-12), runtime {elapsed:.2f}s (<1s)"
    )


def test_criterion_02_quadrature_oracle_agreement():
    start = time.perf_counter()
    deltas = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    worst = 0.0
    cells = 0
    for kind in ("Z", "X", "Y"):
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                for d in deltas:
                    dev = abs(closed_cov(kind, l1, l2, d) - quadrature_cov(kind, l1, l2, d))
                    worst = max(worst, dev)
                    cells += 1
                    assert dev <= 1e-8, (kind, l1, l2, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"PASS criterion 2: closed forms vs quadrature worst dev={worst:.2e} "
        f"(<=1e-8) over {cells} cells, runtime {elapsed:.1f}s (<30s)"
    )


def test_criterion_03_constant_reproduction():
    worst = 0.0
    for l in range(1, 21):
        b, bstar = b_constants(l)
        z, x = closed_cov("Z", l, l, 0.0), closed_cov("X", l, l, 0.0)
        worst = max(worst, abs(z - b), abs(x - bstar))
        assert abs(z - b) <= 1e-12
        assert abs(x - bstar) <= 1e-12
    assert closed_cov("Y", 1, 1, 0.0) == 0.75
    assert closed_cov("Y", 1, 2, 0.0) == -0.125
    assert closed_cov("X", 2, 1, 0.0) == pytest.approx(-0.125, abs=1e-15)
    assert closed_cov("X", 1, 1, 0.0) == pytest.approx(0.75, abs=1e-15)
    print(
        f"PASS criterion 3: b_l/b*_l reproduced to {worst:.2e} (<=1e-12) for l<=20; "
        f"E Y_1^2 = 3/4 and E Y_1 Y_2 = -1/8 exact"
    )


def test_criterion_04_bilinear_identity():
    worst = 0.0
    for la in range(1, 6):
        for lb in range(1, 6):
            for d in np.linspace(-3.0, 3.0, 51):
                z = (
                    closed_cov("Z", la, lb, d)
                    - closed_cov("Z", la, lb + 1, d)
                    - closed_cov("Z", la + 1, lb, d)
                    + closed_cov("Z", la + 1, lb + 1, d)
                )
                dev = abs(closed_cov("X", la, lb, d) - z)
                worst = max(worst, dev)
                assert dev <= 1e-10, (la, lb, d)
    print(
        f"PASS criterion 4: X-from-Z bilinearity worst dev={worst:.2e} "
        f"(<=1e-10) over l<=5, 51-point offset grid"
    )


def test_criterion_05_brute_force_oracle_equivalence():
    family = WeightFamily.finite([0.5, 0.3, 0.2])
    probs = family.probs
    # exhaustive enumeration of the 27 equally-structured outcomes
    exact = {}
    mean_k = np.zeros(3)
    for balls in itertools.product(range(3), repeat=3):
        p = math.prod(probs[b] for b in balls)
        occ = np.bincount(balls, minlength=3)
        key = tuple(int(np.count_nonzero(occ == l)) for l in (1, 2, 3))
        exact[key] = exact.get(key, 0.0) + p
        mean_k += [float(np.count_nonzero(occ >= l)) * p for l in (1, 2, 3)]
    replicas = 100_000
    counts = {}
    for r in range(replicas):
        traj = simulate_deterministic(family, 3, 1, 3, [3], seed=SEED, replica=r)
        key = tuple(int(v) for v in traj.K_star[0, :, 0])
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(exact)
    worst_z = 0.0
    for key, p in exact.items():
        freq = counts.get(key, 0) / replicas
        se = math.sqrt(p * (1.0 - p) / replicas)
        worst_z = max(worst_z, abs(freq - p) / se)
        assert abs(freq - p) <= 4.0 * se, key
    # moments module reproduces the same enumeration exactly, bound 0
    for l in (1, 2, 3):
        est = mean_K_binomial(family, 1, l, 3)
        assert est.error_bound == 0.0
        assert est.value == pytest.approx(mean_k[l - 1], abs=1e-14)
    print(
        f"PASS criterion 5: 27-outcome distribution over {replicas} seeds, "
        f"worst |z|={worst_z:.2f} (<4); exact means match enumeration with error_bound 0"
    )


def test_criterion_06_mc_vs_exact_finite_t():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        t=3000.0, generations=2, levels=3, replicas=2000, seed=SEED, prune=1e-9
    )
    report = run_moment_check(cfg)
    elapsed = time.perf_counter() - start
    flagged = report.flagged
    assert report.pass_fraction >= 0.95
    assert elapsed < 300.0
    print(
        f"PASS criterion 6: {sum(1 for c in flagged if c.passed)}/{len(flagged)} "
        f"cells within 4 SE (need >=95%), runtime {elapsed:.1f}s (<5min)"
    )


def test_criterion_07_deterministic_asymptotic_trend():
    cfg = ExperimentConfig(
        T_grid=(10.0, 15.0, 20.0, 25.0), generations=2, levels=2, prune=1e-6
    )
    report = run_asymptotic_trend(cfg)
    summaries = [c for c in report.cells if c.cell_id.endswith("endpoint_decreasing")]
    kinds = {c.cell_id.split(":")[0] for c in summaries}
    assert {"var_ratio", "mean_star_ratio", "cross_gen_ratio"} <= kinds
    for cell in summaries:
        # empirical = deviation at T=25, target = deviation at T=10
        assert cell.passed, cell.cell_id
        assert cell.empirical < cell.target
    var_cells = sorted(
        (c for c in summaries if c.cell_id.startswith("var_ratio")), key=lambda c: c.l
    )
    assert [c.l for c in var_cells] == [1, 2]
    print(
        "PASS criterion 7: all normalized trends improve from T=10 to T=25 "
        + "; ".join(
            f"{c.cell_id.split(':')[0]}(l={c.l}): {c.target:.4f}->{c.empirical:.4f}"
            for c in summaries[:3]
        )
    )


def test_criterion_08_depoissonization_bound():
    cfg = ExperimentConfig(generations=2, levels=3, prune=1e-7)
    report = run_depoissonization_check(cfg)
    cells = report.cells
    assert len(cells) == 2 * 3 * 20  # j <= 2, l <= 3, 20 log-spaced times
    ts = sorted({c.T for c in cells})
    assert len(ts) == 20 and min(ts) == 10.0 and max(ts) == 1e5
    worst_margin = 0.0
    for cell in cells:
        assert cell.passed, (cell.j, cell.l, cell.T)
        assert cell.empirical + cell.se <= cell.target
        worst_margin = max(worst_margin, (cell.empirical + cell.se) / cell.target)
    l1 = [c for c in cells if c.l == 1]
    assert all(c.target == pytest.approx(1.0 + math.exp(-1.0), abs=1e-15) for c in l1)
    print(
        f"PASS criterion 8: depoissonization gap within proof constants on all "
        f"{len(cells)} cells, worst gap/bound={worst_margin:.3f} (<1)"
    )


def test_criterion_09_gaussian_samplers():
    n = 100_000
    worst_z = 0.0
    for kind in ("Z", "X"):
        grid = build_grid(kind, [0.0, 0.5, 1.0], 3)
        draws = sample(grid, n, seed=SEED)
        emp = draws.T @ draws / n
        for i in range(grid.dim):
            for j in range(grid.dim):
                cii, cjj, cij = grid.matrix[i, i], grid.matrix[j, j], grid.matrix[i, j]
                se = math.sqrt((cii * cjj + cij * cij) / n)
                z = abs(emp[i, j] - cij) / se
                worst_z = max(worst_z, z)
                assert z <= 3.0, (kind, i, j)
    white = sample_Z1_whitenoise(
        [0.0, 1.0], x_step=0.01, y_step=0.01, n=50_000, seed=SEED
    )
    dev0 = abs(float(white[:, 0].var()) - math.log(2.0))
    dev1 = abs(float(np.mean(white[:, 0] * white[:, 1])) - math.log1p(math.exp(-1.0)))
    assert dev0 <= 0.02 and dev1 <= 0.02
    print(
        f"PASS criterion 9: factorization sampler worst z={worst_z:.3f} (<3) over "
        f"Z/X, u in {{0,0.5,1}}, l<=3; white-noise devs {dev0:.4f}/{dev1:.4f} (<=0.02)"
    )


def test_criterion_10_holder_increment_bound():
    worst = 0.0
    for l in range(1, 6):
        for d in (0.01, 0.1, 0.5, 1.0):
            incr = 2.0 * (b_constants(l)[0] - closed_cov("Z", l, l, d))
            worst = max(worst, incr / d)
            assert 0.0 < incr <= d
    print(
        f"PASS criterion 10: increment bound 2(b_l - Cov Z_l(u) Z_l(v)) <= |u - v| holds, "
        f"worst ratio {worst:.3f} (<=1)"
    )


def test_criterion_11_geometric_negative_control():
    cfg = ExperimentConfig(
        family_kind="geometric", p=0.5, T_grid=(10.0, 15.0, 20.0, 25.0),
        generations=1, levels=1,
    )
    report = run_asymptotic_trend(cfg)
    assert report.cells
    # nothing is flagged: the family is outside the limit theorem's scope
    assert all(c.passed is None for c in report.cells)
    var_rows = sorted(
        (c for c in report.cells if c.cell_id.startswith("var_ratio") and c.T is not None),
        key=lambda c: c.T,
    )
    assert len(var_rows) == 4
    devs = [abs(c.empirical - c.target) for c in var_rows]
    # the normalized variance stays far from b_1 and the gap does not shrink
    assert devs[-1] >= devs[0]
    assert devs[-1] > 0.2
    print(
        f"PASS criterion 11: geometric control diagnostic-only; |var ratio - log2| "
        f"at T=10 -> T=25: {devs[0]:.3f} -> {devs[-1]:.3f} (non-convergent)"
    )
