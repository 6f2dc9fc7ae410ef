"""Simulation of the nested occupancy scheme.

Balls arrive one at a time (deterministic scheme) or as a unit-rate Poisson
stream (Poissonized scheme).  Each ball independently draws an infinite path
(ξ_1, ξ_2, ...) of i.i.d. indices from the weight family; its generation-j
box is the prefix (ξ_1, ..., ξ_j).  We only ever materialize prefixes up to
the requested maximum generation J, and only counts-of-counts up to level
L+1 (the guard level makes K* at level L exact).

Replica r draws from its own counter-based stream keyed by (seed, r): its
ball counts per snapshot come first (Poisson increments, or the grid's
differences), then one draw of ``N * J`` uniforms for all its N balls, in
the order ``rng.random((N, J))`` gives them.  Consecutive replicas are
counted together, in passes of up to _PASS_BALLS balls whose draws share one
buffer (a replica with more balls is a pass of its own).  A pass maps all
its draws to indices with one search of the family's guide-table inverse
CDF.  Per generation it packs each ball's box prefix (a base
``len(table) + 2`` positional code) into one int64 key, together with the
replica's place in the pass (the top bits) and the snapshot that brought
the ball (the bottom bits).  One sort of the keys gives each box's count
before and after every snapshot.  A box adds 1 to K(l) at the snapshot
where its count crosses l, so two ``bincount``s over (replica, snapshot,
level) and running sums give K over the grid.  A pass takes fewer replicas
when more would not fit in the keys.  The keys take O(N * J) memory
whatever the number of snapshots, and each replica's trajectory is, bit for
bit, the one that drawing each snapshot's balls in turn gives, however the
replicas are grouped into passes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError, check_whole
from .weights import WeightFamily

__all__ = [
    "OccupancyTrajectory",
    "simulate_deterministic",
    "simulate_poissonized",
    "simulate_replicas",
]

_TRAJECTORY_CSV_HEADER = "replica,j,l,grid_index,time,K,K_star,balls"
_PASS_BALLS = 2**15  # ball budget of one pass over consecutive replicas


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
    replica: int
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


def _keyed_rng(seed: int, index: int, rng=None) -> np.random.Generator:
    """The counter-based stream keyed by (seed, index): a Philox generator at
    counter 0 with key [seed mod 2**64, index mod 2**64], the stream that
    ``Philox(key=...)`` gives.  A ``rng`` from here is re-keyed in place:
    setting the state skips the OS entropy a new ``Philox`` gathers."""
    key = [check_whole("seed", seed, None) % 2**64, index % 2**64]
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _run_starts(a: np.ndarray) -> np.ndarray:
    """True where a run of equal values starts in the sorted ``a``."""
    mark = np.empty(len(a), dtype=bool)
    mark[:1] = True
    np.not_equal(a[1:], a[:-1], out=mark[1:])
    return mark


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


def _count(family: WeightFamily, increments: np.ndarray, draws: np.ndarray,
           work: np.ndarray, J: int, L: int, stride: int, snap_bits: int):
    """K through the guard level, shape (R, J, L + 1, G), and the excess,
    shape (R, J, G), of the R replicas of one pass.  Row r of ``increments``
    holds replica r's ball count per snapshot, ``draws`` the uniforms of all
    the pass's N balls, replica after replica, and ``work`` three rows of at
    least N int64 scratch for the snapshots, codes and keys."""
    R, G = increments.shape
    N = len(draws)
    snap, codes, keys = work[:, :N]
    # The balls that replica r brings at snapshot i are draws[bounds[c]:
    # bounds[c + 1]], c = r * G + i.  Each code starts as the replica's place
    # in the pass, so a key reads (replica, box, snapshot) from the top bits
    # down, and replica r's balls sort to bounds[r * G] <= p < bounds[r * G + G].
    bounds = np.concatenate([[0], np.cumsum(increments)])
    edges = bounds.tolist()
    for c, (lo, hi) in enumerate(zip(edges, edges[1:])):
        snap[lo:hi], codes[lo:hi] = c % G, c // G
    idx = family.table_search(draws)
    K_full = np.empty((R, J, L + 1, G), dtype=np.int64)
    excess = np.empty((R, J, G), dtype=np.int64)
    for g in range(J):
        codes *= stride
        codes += idx[:, g]
        np.left_shift(codes, snap_bits, out=keys)
        keys |= snap
        keys.sort()
        # A box's balls form one run of the sorted keys, cut into one group
        # per snapshot that adds to it.  Positions within the run give the
        # box's count before (old) and after (new) each group's arrivals.
        first = np.flatnonzero(_run_starts(keys))
        group = keys[first]
        box, at = group >> snap_bits, group & (2**snap_bits - 1)
        origin = np.maximum.accumulate(np.where(_run_starts(box), first, 0))
        old = first - origin
        new = np.concatenate((first[1:], [N])) - origin
        # the group adds 1 to K(l) at its (replica, snapshot) cell for
        # old < l <= new: +1 at level old + 1 and -1 at level new + 1 (both
        # capped at L + 2), then summed over levels and snapshots
        cell = at
        if R > 1:
            groups_before = np.searchsorted(first, bounds[::G])
            cell = at + np.repeat(np.arange(0, R * G, G), groups_before[1:] - groups_before[:-1])
        rows, size = cell * (L + 2), R * G * (L + 2)
        step = np.bincount(rows + np.minimum(old, L + 1), minlength=size)
        step -= np.bincount(rows + np.minimum(new, L + 1), minlength=size)
        K = step.reshape(R, G, L + 2).cumsum(axis=2).cumsum(axis=1)
        K_full[:, g] = K[:, :, : L + 1].transpose(0, 2, 1)
        moved = np.where(new > L, new, 0) - np.where(old > L, old, 0)
        excess[:, g] = np.bincount(cell, weights=moved, minlength=R * G).reshape(R, G).cumsum(axis=1)
    return K_full, excess


def _run(
    family: WeightFamily,
    grid: np.ndarray,
    J: int,
    L: int,
    seed: int,
    replicas,
    kind: str,
) -> list:
    """The engine: the trajectories of ``replicas``, in order.

    Replica r's Poisson increments come first, then its uniforms, drawn
    into the pass's buffer.  A pass is counted when the next replica would
    take it over _PASS_BALLS balls or past the ``fit`` replicas whose keys
    fit in int64; a replica above the budget is a pass of its own."""
    stride = len(family.cumulative_table()) + 2
    snap_bits = (len(grid) - 1).bit_length()
    fit = 2**63 // (stride**J << snap_bits)
    if fit == 0:
        raise ValidationError(
            f"cannot pack {J} generations of indices < {stride} and {len(grid)} "
            "snapshots into int64 keys"
        )
    gaps = np.diff(grid, prepend=0)
    draws = np.empty((_PASS_BALLS, J))
    work = np.empty((3, _PASS_BALLS), dtype=np.int64)
    trajectories, held, used, rng = [], [], 0, None

    def count(batch, uniforms, scratch):
        increments = np.array([inc for _, inc in batch])
        K_full, excess = _count(family, increments, uniforms, scratch, J, L, stride, snap_bits)
        trajectories.extend(
            OccupancyTrajectory(
                kind=kind,
                grid=grid,
                K=K_full[i, :, :L, :].copy(),
                K_star=K_full[i, :, :L, :] - K_full[i, :, 1:, :],
                guard=K_full[i, :, L, :].copy(),
                excess=excess[i],
                balls=np.cumsum(increments[i]),
                replica=r,
            )
            for i, (r, _) in enumerate(batch)
        )

    for r in replicas:
        rng = _keyed_rng(seed, r, rng)
        if kind == "poissonized":
            increments = np.array(
                [rng.poisson(gap) if gap > 0.0 else 0 for gap in gaps.tolist()],
                dtype=np.int64,
            )
        else:
            increments = gaps
        N = int(increments.sum())
        _check_memory(N, J)
        if held and (len(held) == fit or used + N > _PASS_BALLS):
            count(held, draws[:used], work)
            held, used = [], 0
        if N > _PASS_BALLS:
            count([(r, increments)], rng.random((N, J)), np.empty((3, N), dtype=np.int64))
        else:
            rng.random(out=draws[used:used + N])
            held.append((r, increments))
            used += N
    if held:
        count(held, draws[:used], work)
    return trajectories


def _ball_counts(values: list, what: str) -> np.ndarray:
    """``values`` as int64; each must be a finite whole number."""
    arr = np.asarray(values)
    if arr.dtype.kind != "i":
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr) & (arr == np.floor(arr)) & (abs(arr) < 2.0**62)):
            raise ValidationError(f"{what} must be finite and whole, got {arr.tolist()}")
    return arr.astype(np.int64)


def simulate_replicas(
    family: WeightFamily,
    grid,
    J: int,
    L: int,
    seed: int,
    replicas,
    *,
    n=None,
) -> list:
    """Trajectories of the replicas listed in ``replicas`` (e.g. a range),
    in that order: of the Poissonized scheme at the times ``grid``, or, when
    ``n`` is given, of the fixed-ball-count scheme at the ball counts
    ``grid``.  Replica r is the trajectory that ``simulate_poissonized`` or
    ``simulate_deterministic`` gives with ``replica=r``, bit for bit."""
    J, L = check_whole("J", J, 1), check_whole("L", L, 1)
    if n is None:
        grid = np.asarray(list(grid), dtype=float)
        if grid.size == 0:
            raise ValidationError("times must be nonempty")
        if not np.all(np.isfinite(grid)):
            raise ValidationError(f"times must be finite, got {grid.tolist()}")
        if np.any(np.diff(grid) < 0) or grid[0] < 0.0:
            raise ValidationError("times must be nondecreasing and nonnegative")
        # the expected ball count, checked before numpy is asked for Poisson
        # draws it cannot make (means above about 9.2e18)
        _check_memory(float(grid[-1]), J)
        return _run(family, grid, J, L, seed, replicas, "poissonized")
    n = int(_ball_counts([n], "ball count n")[0])
    if n < 0:
        raise ValidationError("ball count must be >= 0")
    grid = _ball_counts(list(grid), "time_grid")
    if grid.size == 0:
        raise ValidationError("time_grid must be nonempty")
    if np.any(np.diff(grid) < 0) or grid[0] < 0:
        raise ValidationError("time_grid must be nondecreasing and nonnegative")
    if grid[-1] > n:
        raise ValidationError(f"grid point {grid[-1]} exceeds ball count n={n}")
    return _run(family, grid, J, L, seed, replicas, "deterministic")


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
    return simulate_replicas(family, time_grid, J, L, seed, [replica], n=n)[0]


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
    return simulate_replicas(family, times, J, L, seed, [replica])[0]
