"""Simulation of the nested occupancy scheme.

Balls arrive one at a time (deterministic scheme) or as a unit-rate Poisson
stream (Poissonized scheme).  Each ball independently draws an infinite path
(ξ_1, ξ_2, ...) of i.i.d. indices from the weight family; its generation-j
box is the prefix (ξ_1, ..., ξ_j).  We only ever materialize prefixes up to
the requested maximum generation J, and only counts-of-counts up to level
L+1 (the guard level makes K* at level L exact).

Each replica is simulated in one vectorized pass.  Its ball counts per
snapshot come first (Poisson increments, or the grid's differences), then
one ``rng.random((N, J))`` draw for all N balls, mapped to indices by the
family's guide-table inverse CDF.  Per generation, box prefixes are packed
into one int64 key each (base ``len(table) + 2`` positional code) together
with the snapshot that brought the ball, and one sort of the keys gives each
box's count before and after every snapshot.  A box adds 1 to K(l) at the
snapshot where its count crosses l; K over the grid is the running sum.  The
keys take O(N * J) memory whatever the number of snapshots, and the
trajectory is the one that drawing each snapshot's balls in turn gives.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError, check_whole
from .weights import WeightFamily

__all__ = [
    "OccupancyTrajectory",
    "sample_index",
    "simulate_deterministic",
    "simulate_poissonized",
]

_TRAJECTORY_CSV_HEADER = "replica,j,l,grid_index,time,K,K_star,balls"


def sample_index(family: WeightFamily, draw):
    """Inverse-CDF sample of a single path coordinate.

    ``draw`` may be a scalar in [0, 1) or an array of such; returns 1-based
    indices.  The lookup table covers cumulative mass >= 1 - 2**-53; draws
    landing beyond it (probability < 2**-53) are assigned to one extra
    overflow bucket rather than rejected, so the map is total.
    """
    arr = np.asarray(draw, dtype=float)
    if not np.all((arr >= 0.0) & (arr < 1.0)):
        raise ValidationError("uniform draws must lie in [0, 1)")
    idx = family.table_search(np.atleast_1d(arr)) + 1
    if np.isscalar(draw) or arr.ndim == 0:
        return int(idx[0])
    return idx.reshape(arr.shape)


@dataclass
class OccupancyTrajectory:
    """Snapshot record of one simulated scheme.

    K has shape (J, L, G) — K[j-1, l-1, i] is the number of generation-j
    boxes holding at least l balls at grid point i; K_star likewise for
    exactly-l.  ``balls`` is the realized total at each grid point, and
    ``excess`` the per-generation count of balls in boxes beyond level L
    (needed for exact conservation checks).
    """

    kind: str
    grid: np.ndarray
    K: np.ndarray
    K_star: np.ndarray
    guard: np.ndarray  # K at level L+1, shape (J, G)
    excess: np.ndarray  # shape (J, G)
    balls: np.ndarray  # shape (G,)
    seed: int
    replica: int
    family_kind: str = ""
    levels: int = field(init=False)
    generations: int = field(init=False)

    def __post_init__(self) -> None:
        self.generations, self.levels = self.K.shape[0], self.K.shape[1]

    def validate(self) -> None:
        """Assert the structural invariants; raises AssertionError on breach."""
        J, L, _ = self.K.shape
        full = np.concatenate([self.K, self.guard[:, None, :]], axis=1)
        assert np.all(np.diff(full, axis=1) <= 0), "K must be nonincreasing in l"
        assert np.all(self.K_star == self.K - full[:, 1:, :]), "K* = K_l - K_{l+1}"
        levels = np.arange(1, L + 1)[None, :, None]
        occupied = np.einsum("jlg,jlg->jg", self.K_star, np.broadcast_to(levels, self.K_star.shape))
        assert np.all(occupied + self.excess == self.balls[None, :]), "ball conservation"
        assert np.all(np.diff(self.K[:, 0, :], axis=0) >= 0), "K(1) nondecreasing in j"
        assert np.all(np.diff(self.K, axis=2) >= 0), "K nondecreasing along the grid"
        with np.errstate(divide="ignore"):
            cap = self.balls[None, None, :] // np.arange(1, L + 1)[None, :, None]
        assert np.all(self.K <= cap), "K(l) <= balls/l"

    def to_csv_rows(self):
        """Yield CSV lines in the trajectory dump format (no header)."""
        for j in range(self.generations):
            for l in range(self.levels):
                for i in range(len(self.grid)):
                    g = self.grid[i]
                    time_txt = repr(float(g)) if self.kind == "poissonized" else str(int(g))
                    yield (
                        f"{self.replica},{j + 1},{l + 1},{i},{time_txt},"
                        f"{self.K[j, l, i]},{self.K_star[j, l, i]},{self.balls[i]}"
                    )

    @staticmethod
    def csv_header() -> str:
        return _TRAJECTORY_CSV_HEADER


def _make_rng(seed: int, replica: int) -> np.random.Generator:
    key = np.array([seed % 2**64, replica % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Indices at which a run of equal values starts in the sorted ``a``."""
    mark = np.empty(len(a), dtype=bool)
    mark[:1] = True
    np.not_equal(a[1:], a[:-1], out=mark[1:])
    return np.flatnonzero(mark)


def _check_memory(N: float, J: int) -> None:
    """NumericalError when N balls over J generations would not fit in
    physical memory: the draws and indices take N * J words, the snapshots,
    codes and keys N each."""
    need = 8 * N * (2 * J + 3)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise NumericalError(
            f"{N:.6g} balls over {J} generations need about {need / 2**30:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )


def _run(
    family: WeightFamily,
    increments: list,
    grid: np.ndarray,
    J: int,
    L: int,
    rng: np.random.Generator,
    kind: str,
    seed: int,
    replica: int,
) -> OccupancyTrajectory:
    stride = len(family.cumulative_table()) + 2
    G = len(grid)
    snap_bits = (G - 1).bit_length()
    if (stride**J << snap_bits) > 2**63:
        raise ValidationError(
            f"cannot pack {J} generations of indices < {stride} and {G} "
            "snapshots into int64 keys"
        )
    increments = np.asarray(increments, dtype=np.int64)
    balls = np.cumsum(increments)
    N = int(balls[-1])
    _check_memory(N, J)
    idx = family.table_search(rng.random((N, J))) + 1
    snap = np.repeat(np.arange(G, dtype=np.int64), increments)
    K_full = np.empty((J, L + 1, G), dtype=np.int64)
    excess = np.empty((J, G), dtype=np.int64)
    codes = np.zeros(len(idx), dtype=np.int64)
    for g in range(J):
        codes = codes * stride + idx[:, g]
        keys = (codes << snap_bits) | snap
        keys.sort()
        # A box's balls form one run of the sorted keys, cut into one group
        # per snapshot that adds to it.  Positions within the run give the
        # box's count before (old) and after (new) each group's arrivals.
        first = _run_starts(keys)
        group = keys[first]
        box, at = group >> snap_bits, group & (2**snap_bits - 1)
        box_first = _run_starts(box)
        origin = np.repeat(first[box_first], np.diff(box_first, append=len(first)))
        old = first - origin
        new = np.append(first[1:], len(keys)) - origin
        # the group adds 1 to K(l) at its snapshot for old < l <= new: +1 at
        # level old + 1 and -1 at level new + 1 (both capped at L + 2), then
        # summed over levels
        rows = at * (L + 2)
        step = np.bincount(rows + np.minimum(old, L + 1), minlength=G * (L + 2))
        step -= np.bincount(rows + np.minimum(new, L + 1), minlength=G * (L + 2))
        K_full[g] = step.reshape(G, L + 2).cumsum(axis=1).cumsum(axis=0)[:, : L + 1].T
        moved = np.where(new > L, new, 0) - np.where(old > L, old, 0)
        excess[g] = np.bincount(at, weights=moved, minlength=G).cumsum()
    return OccupancyTrajectory(
        kind=kind,
        grid=np.asarray(grid),
        K=K_full[:, :L, :].copy(),
        K_star=K_full[:, :L, :] - K_full[:, 1:, :],
        guard=K_full[:, L, :].copy(),
        excess=excess,
        balls=balls,
        seed=seed,
        replica=replica,
        family_kind=family.kind,
    )


def _ball_counts(values: list, what: str) -> np.ndarray:
    """``values`` as int64; each must be a finite whole number."""
    arr = np.asarray(values)
    if arr.dtype.kind != "i":
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr) & (arr == np.floor(arr)) & (abs(arr) < 2.0**62)):
            raise ValidationError(f"{what} must be finite and whole, got {arr.tolist()}")
    return arr.astype(np.int64)


def simulate_deterministic(
    family: WeightFamily,
    n: int,
    J: int,
    L: int,
    time_grid,
    seed: int,
    *,
    replica: int = 0,
) -> OccupancyTrajectory:
    """Fixed-ball-count scheme: snapshots at the integer ball counts in
    ``time_grid`` (nondecreasing, max <= n)."""
    J, L = check_whole("J", J, 1), check_whole("L", L, 1)
    n = int(_ball_counts([n], "ball count n")[0])
    if n < 0:
        raise ValidationError("ball count must be >= 0")
    grid = _ball_counts(list(time_grid), "time_grid")
    if grid.size == 0:
        raise ValidationError("time_grid must be nonempty")
    if np.any(np.diff(grid) < 0) or grid[0] < 0:
        raise ValidationError("time_grid must be nondecreasing and nonnegative")
    if grid[-1] > n:
        raise ValidationError(f"grid point {grid[-1]} exceeds ball count n={n}")
    increments = np.diff(np.concatenate([[0], grid])).tolist()
    rng = _make_rng(seed, replica)
    return _run(family, increments, grid, J, L, rng, "deterministic", seed, replica)


def simulate_poissonized(
    family: WeightFamily,
    times,
    J: int,
    L: int,
    seed: int,
    *,
    replica: int = 0,
) -> OccupancyTrajectory:
    """Poissonized scheme: fresh Poisson(t_i - t_{i-1}) balls before each
    snapshot, so the count at t_i is Poisson(t_i)-many i.i.d. placements."""
    J, L = check_whole("J", J, 1), check_whole("L", L, 1)
    grid = np.asarray(list(times), dtype=float)
    if grid.size == 0:
        raise ValidationError("times must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"times must be finite, got {grid.tolist()}")
    if np.any(np.diff(grid) < 0) or grid[0] < 0.0:
        raise ValidationError("times must be nondecreasing and nonnegative")
    # the expected ball count, checked before numpy is asked for Poisson
    # draws it cannot make (means above about 9.2e18)
    _check_memory(float(grid[-1]), J)
    rng = _make_rng(seed, replica)
    gaps = np.diff(np.concatenate([[0.0], grid]))
    increments = [int(rng.poisson(gap)) if gap > 0.0 else 0 for gap in gaps]
    return _run(family, increments, grid, J, L, rng, "poissonized", seed, replica)
