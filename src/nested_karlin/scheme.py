"""Simulation of the nested occupancy scheme: two engines with one law.

Balls arrive one at a time (deterministic scheme) or as a unit-rate Poisson
stream (Poissonized scheme).  Each ball independently draws an infinite path
(ξ_1, ξ_2, ...) of i.i.d. indices from the weight family; its generation-j
box is the prefix (ξ_1, ..., ξ_j).  We only ever materialize prefixes up to
the requested maximum generation J, and only counts-of-counts up to level
L+1 (the guard level makes K* at level L exact).  Replica r draws from its
own counter-based stream keyed by (seed, r), so a replica is the same
however the replicas are grouped or spread over workers.

The ball engine (``simulate_replicas`` and the single-replica functions,
behind the ``simulate`` command) is the literal scheme, run one replica at
a time.  Replica r's ball counts per snapshot come first (Poisson
increments, or the grid's differences), then ``rng.random((N, J))`` for
its N balls, which one search of the family's guide-table inverse CDF
turns into indices.  Per generation a sort of the balls by their parent's
label times the table length plus one, plus their own index, groups each
box's balls and relabels the boxes 0, 1, ..., so labels stay below N; a
second sort puts each box's snapshots in order.  A box reaches level k at
the snapshot of its k-th ball, so one ``bincount`` of (rank in its box,
capped at L + 2; snapshot), summed along the snapshots, gives K through the
guard level and the excess at every snapshot.  A replica holds its N·J
draws and indices and a few length-N arrays per generation.

The box sampler (``sample_counts``, behind ``verify``) draws the same law
box by box, because the counts depend only on how many balls each box
holds.  In the Poissonized scheme each generation-J box receives an
independent Poisson process of rate p_r (Poisson colouring), and a
generation-j count is the sum over the box's descendants.  The active
boxes, p_r * t >= ``moments._ETA`` at the last time t, come from
``moments.enumerate_boxes`` with each depth's prefixes.  A heavy active
box (p_r * t >= _HEAVY) draws one Poisson increment per snapshot.  The
other balls, of total mass the light active boxes plus every inactive box,
arrive as one Poisson count per snapshot and are placed one by one: a ball
picks a light box, or an exit (a live prefix q and its inactive children),
with probability proportional to its mass, q times the weight of those
children.  At an exit it draws the child proportionally to its weight and
the generations below with ``table_search`` over the ball engine's table.
In the fixed-n scheme one multinomial over the heavy boxes and the other
balls replaces the Poisson draws.  Leaf counts summed up the tree give the
active prefixes' counts, and the placed balls that left the tree are
grouped into their inactive boxes.  Replica r draws its increments, then
one uniform per placed ball, then J uniforms per ball that left the tree.
The sampler returns the harness's value matrix, not trajectories.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError, check_grid, check_whole
from .moments import enumerate_boxes
from .weights import _TABLE_TOL, WeightFamily, guide_table, guided_search

__all__ = [
    "OccupancyTrajectory",
    "sample_counts",
    "simulate_deterministic",
    "simulate_poissonized",
    "simulate_replicas",
    "TRAJECTORY_CSV_HEADER",
]

TRAJECTORY_CSV_HEADER = "replica,j,l,grid_index,time,K,K_star,balls"
_PASS_BUDGET = 2**16  # box cells and expected placed balls of one box-sampler pass
_HEAVY = 2.0  # leaves expecting this many balls by the last snapshot draw counts


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


def _keyed_rng(seed: int, index: int, rng=None) -> np.random.Generator:
    """The counter-based stream keyed by (seed, index): a Philox generator at
    counter 0 with key [seed mod 2**64, index mod 2**64], the stream that
    ``Philox(key=...)`` gives.  A ``rng`` from here is re-keyed in place:
    setting the state skips the OS entropy a new ``Philox`` gathers."""
    key = [check_whole("seed", seed, None) % 2**64, check_whole("replica", index, None) % 2**64]
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _check_memory(N: float, J: int) -> None:
    """NumericalError when N balls over J generations would not fit in
    physical memory: the draws and indices take N * J words, the labels,
    the counts and the relabelling's keys N each."""
    _check_bytes(8 * N * (2 * J + 3), f"{N:.6g} balls over {J} generations")


def _check_bytes(need: float, what: str) -> None:
    """NumericalError when ``need`` bytes exceed physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise NumericalError(
            f"{what} need about {need / 2**30:.3g} GiB, "
            f"more than the {memory / 2**30:.3g} GiB of physical memory"
        )


def _checked(grid, J: int, L: int, n, replicas) -> tuple:
    """``(grid, J, L, kind, replicas)`` after the checks both engines make:
    the times of the Poissonized scheme as floats, or, when ``n`` is given,
    the ball counts of the fixed-n scheme as int64; ``_keyed_rng`` checks
    each replica index."""
    J, L = check_whole("J", J, 1), check_whole("L", L, 1)
    whole = n is not None
    grid = check_grid("times", grid, 0.0, whole=whole, order="nondecreasing")
    if whole and grid[-1] > check_whole("ball count n", n, 0):
        raise ValidationError(f"grid point {grid[-1]} exceeds ball count n={n}")
    # the (expected) ball count, checked before numpy is asked for Poisson
    # draws it cannot make (means above about 9.2e18); for the box sampler
    # it also keeps the t * 2**-53 balls expected past the shared table cut
    # negligible (without it, mean K(1) at t = 1e19 falls short)
    _check_memory(float(grid[-1]), J)
    if not np.iterable(replicas):
        raise ValidationError(f"replicas must be a list of replica indices, got {replicas!r}")
    return grid, J, L, "deterministic" if whole else "poissonized", list(replicas)


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
    ``simulate_deterministic`` gives with ``replica=r``, bit for bit: the
    replicas run one at a time (see the module docstring)."""
    grid, J, L, kind, replicas = _checked(grid, J, L, n, replicas)
    G = len(grid)
    # the (J, L + 1, G) counts and what each trajectory keeps of them
    _check_bytes(8 * (len(replicas) + 1) * J * (2 * L + 3) * G,
                 f"the counts of {len(replicas)} replicas at {J} x {L + 1} x {G}")
    stride = len(family.cumulative_table()) + 1
    gaps = np.diff(grid, prepend=0)
    trajectories, rng = [], None
    for r in replicas:
        rng = _keyed_rng(seed, r, rng)
        inc = gaps if kind == "deterministic" else np.array(
            [rng.poisson(gap) if gap > 0.0 else 0 for gap in gaps.tolist()], dtype=np.int64)
        balls = np.cumsum(inc)
        N = int(balls[-1])
        _check_memory(N, J)
        if N * G >= 2**63:  # the (box, snapshot) keys below are < N * G
            raise NumericalError(f"{N} balls over {G} snapshots overflow int64 keys")
        idx = family.table_search(rng.random((N, J)))
        K = np.empty((J, L + 1, G), dtype=np.int64)
        excess = np.empty((J, G), dtype=np.int64)
        box = np.zeros(N, dtype=np.int64)
        snap = np.repeat(np.arange(G), inc)  # the balls arrive in snapshot order
        for g in range(J):
            # sort the balls by generation-(g + 1) box, relabel the boxes
            # 0, 1, ... in that order, and sort each box's snapshots
            key = box * stride + idx[:, g]
            order = np.argsort(key)
            first = np.diff(key[order], prepend=-1) != 0
            label = np.cumsum(first) - 1
            box[order] = label
            when = np.sort(label * G + snap[order]) % G
            # from the snapshot of its k-th ball on, a box holds >= k balls:
            # held[k, i] counts the boxes holding >= k balls at snapshot i for
            # 1 <= k <= L + 1, and held[L + 2, i] the balls past the (L + 1)-th
            # of their box
            rank = np.minimum(np.arange(1, N + 1) - np.flatnonzero(first)[label], L + 2)
            held = _running(np.bincount(rank * G + when,
                                        minlength=(L + 3) * G).reshape(L + 3, G))
            K[g] = held[1 : L + 2]
            excess[g] = held[L + 2] + (L + 1) * held[L + 1]
        trajectories.append(OccupancyTrajectory(
            kind=kind, grid=grid, K=K[:, :L].copy(), K_star=K[:, :L] - K[:, 1:],
            guard=K[:, L].copy(), excess=excess, balls=balls, replica=r,
        ))
    return trajectories


@dataclass(frozen=True)
class _Boxes:
    """The active tree of the box sampler at one rate: the generation-J
    boxes with weight >= ``moments._ETA / rate`` (``leaves``, depth-first)
    and their active prefixes, ``offsets[d - 1]`` delimiting the children
    of the depth-d ones among the depth-(d + 1) ones.

    Every other box lies below an exit: a live prefix (the root included)
    and its inactive children.  Exit e is prefix ``exit_node[e]`` of depth
    ``exit_depth[e]``, whose children from entry ``exit_first[e]`` of the
    descending weight table on are inactive; ``suffix[k]`` sums the table from
    entry k on (``suffix[-1]`` = 0), so the exit's mass is its weight
    times ``suffix[exit_first[e]]``.

    The ``heavy`` leaves draw Poisson counts.  Balls in the ``light``
    leaves and the exits, of total mass ``ball_mass`` > 0, are drawn one by
    one: ``ball_cum`` accumulates the light leaves' masses, then the
    exits', over ``ball_mass``, and ``ball_guide`` is its guide table."""

    leaves: np.ndarray
    heavy: np.ndarray
    light: np.ndarray
    ball_mass: float
    ball_cum: np.ndarray
    ball_guide: np.ndarray
    offsets: tuple
    suffix: np.ndarray
    exit_depth: np.ndarray
    exit_node: np.ndarray
    exit_first: np.ndarray


def _boxes(family: WeightFamily, J: int, rate: float) -> _Boxes:
    """The active tree at ``rate`` (the largest time or ball count), from
    ``enumerate_boxes`` with the table cut where ``cumulative_table`` cuts
    it, at tail mass 2**-53."""
    plan = enumerate_boxes(family, J, 2 * J * _TABLE_TOL, 1.0, rate)
    depths = list(plan.depths)
    if depths[0][0].size == 0:  # even the root is below the threshold
        depths[0] = (np.ones(1), np.zeros(1, dtype=np.int64))
    suffix = np.append(np.cumsum(plan.weights[::-1])[::-1], 0.0)
    leaves = np.concatenate([np.empty(0), *(block for block, _ in plan.blocks())])
    exits = np.concatenate([live * suffix[count] for live, count in depths])
    light = leaves * rate < _HEAVY
    if not exits.any():  # the leaves hold all the mass: keep some for balls
        light[np.argmin(leaves)] = True
    cum = np.cumsum(np.concatenate([leaves[light], exits]))
    ball_cum = cum / cum[-1]
    return _Boxes(
        leaves=leaves,
        heavy=np.flatnonzero(~light),
        light=np.flatnonzero(light),
        ball_mass=float(cum[-1]),
        ball_cum=ball_cum,
        # about 16 buckets per entry, so few draws miss the guide, and at
        # most as many as the family's guide
        ball_guide=guide_table(ball_cum, 1 << min((16 * ball_cum.size).bit_length(), 16)),
        offsets=tuple(np.concatenate([[0], np.cumsum(count)]) for _, count in depths[1:]),
        suffix=suffix,
        exit_depth=np.concatenate([np.full(live.size, d) for d, (live, _) in enumerate(depths)]),
        exit_node=np.concatenate([np.arange(live.size) for live, _ in depths]),
        exit_first=np.concatenate([count for _, count in depths]),
    )


def _running(a: np.ndarray) -> np.ndarray:
    """``a``, turned in place into its running sums along the snapshot axis
    1, one vector add per snapshot (``cumsum`` along a short axis that is
    not the last is many times slower)."""
    for i in range(1, a.shape[1]):
        a[:, i] += a[:, i - 1]
    return a


def _tally(family: WeightFamily, boxes: _Boxes, heavy: np.ndarray, balls: np.ndarray,
           picks: np.ndarray, exits: np.ndarray, J: int, L: int) -> np.ndarray:
    """K through the guard level, shape (R, J, L + 1, G), of the R replicas
    of one pass of the box sampler.  ``heavy[r, i]`` holds replica r's new
    balls per heavy leaf at snapshot i, and ``balls[r, i]`` its other new
    balls.  ``picks`` holds one uniform per such ball, replica after
    replica and snapshot after snapshot, and ``exits`` J uniforms per ball
    that the pick sends to an exit, in the same order."""
    R, G, _ = heavy.shape
    M, light = boxes.leaves.size, boxes.light.size
    cell = np.repeat(np.arange(R * G), balls.ravel())  # replica * G + snapshot
    pick = guided_search(boxes.ball_cum, boxes.ball_guide, picks)
    # a ball picks a light leaf or an exit with probability proportional to
    # its mass; at an exit it draws a child proportionally to its weight
    # among the exit's inactive children, and below that child its indices
    # as the ball engine does
    out = pick >= light
    cell_out, e = cell[out], pick[out] - light
    rep = cell_out // G
    depth = boxes.exit_depth[e]
    # the child is the last entry k with suffix[k] >= (1 - u) suffix[first],
    # found on the suffix sums so that light tails keep their precision
    tail = (exits[:, 0] - 1.0) * boxes.suffix[boxes.exit_first[e]]
    child = np.searchsorted(-boxes.suffix, tail, side="right") - 1
    path = np.column_stack([child, family.table_search(exits[:, 1:])])
    levels = np.zeros((J, R * G * (L + 2)), dtype=np.int64)

    def add(j, held, bins):
        """Add boxes holding ``held`` balls (overwritten), in the (replica,
        snapshot) bins starting at ``bins``, to generation j's counts of
        counts, capped at level L + 1."""
        np.minimum(held, L + 1, out=held)
        held += bins
        levels[j - 1] += np.bincount(held.ravel(), minlength=levels.shape[1])

    # the inactive boxes of generation j hold the balls that left the tree
    # above depth j, grouped by (replica, exit, path down to j)
    ids = rep * boxes.exit_depth.size + e
    base = max(boxes.suffix.size, len(family.cumulative_table()) + 1)
    for j in range(1, J + 1):
        below = depth < j
        step = np.where(below, path[np.arange(e.size), np.maximum(j - 1 - depth, 0)], 0)
        ids = np.unique(ids * base + step, return_inverse=True)[1].ravel()
        if below.any():
            owner = np.zeros(ids.max() + 1, dtype=np.int64)
            owner[ids] = rep
            new = np.bincount(ids[below] * G + cell_out[below] % G, minlength=owner.size * G)
            add(j, _running(new.reshape(owner.size, G)),
                  (owner[:, None] * G + np.arange(G)) * (L + 2))
    # the active boxes, from the leaves up: a prefix holds its children's
    # balls and those that left the tree at it
    held = np.bincount(cell[~out] * M + boxes.light[pick[~out]],
                       minlength=R * G * M).reshape(R, G, M)
    held[:, :, boxes.heavy] = heavy
    held = _running(held)
    bins = (np.arange(R * G) * (L + 2)).reshape(R, G, 1)
    for j in range(J, 0, -1):
        if j > 1:
            o = boxes.offsets[j - 2]
            full = np.flatnonzero(o[1:] > o[:-1])
            parent = np.zeros((R, G, o.size - 1), dtype=np.int64)
            if full.size:
                parent[:, :, full] = np.add.reduceat(held, o[full], axis=2)
            at = depth == j - 1
            left = np.bincount(cell_out[at] * parent.shape[2] + boxes.exit_node[e[at]],
                               minlength=parent.size)
            parent += _running(left.reshape(parent.shape))
        add(j, held, bins)
        if j > 1:
            held = parent
    # K(l) counts the boxes holding at least l balls
    K = np.cumsum(levels.reshape(J, R, G, L + 2)[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    return K.transpose(1, 0, 3, 2)


def sample_counts(
    family: WeightFamily,
    grid,
    J: int,
    L: int,
    seed: int,
    replicas,
    *,
    n=None,
) -> np.ndarray:
    """The counts of the replicas listed in ``replicas``, one row each, in
    that order: K, then K*, each flattened over (j, l, grid) as floats.

    The arguments and the law are those of ``simulate_replicas``, but the
    box sampler draws the counts box by box (see the module docstring).
    Replica r draws from the stream keyed by (seed, r) alone, so its row
    does not depend on the other replicas listed."""
    grid, J, L, kind, replicas = _checked(grid, J, L, n, replicas)
    G = grid.size
    out = np.zeros((len(replicas), 2 * J * L * G))
    if not replicas or grid[-1] == 0:
        return out
    boxes = _boxes(family, J, float(grid[-1]))
    H = boxes.heavy.size
    masses = np.append(boxes.leaves[boxes.heavy], boxes.ball_mass)
    # a pass of one replica holds a few words per leaf and snapshot
    _check_bytes(8 * 8 * G * boxes.leaves.size, f"{boxes.leaves.size} boxes at {G} snapshots")
    gaps = np.diff(grid, prepend=0)
    if kind == "poissonized":
        means = gaps[:, None] * masses
    else:  # the last category is the remainder numpy's multinomial takes
        masses /= masses.sum()
    # a pick below the light leaves' share of the ball mass lands in them
    share = boxes.ball_cum[boxes.light.size - 1] if boxes.light.size else 0.0
    # a pass holds its replicas' leaf counts and their expected placed balls
    per_pass = max(1, int(_PASS_BUDGET // (G * boxes.leaves.size + boxes.ball_mass * grid[-1] + 1)))
    heavy = np.empty((per_pass, G, H), dtype=np.int64)
    balls = np.empty((per_pass, G), dtype=np.int64)
    rng = None
    for lo in range(0, len(replicas), per_pass):
        batch = replicas[lo:lo + per_pass]
        picks, exits = [], []
        for i, r in enumerate(batch):
            rng = _keyed_rng(seed, r, rng)
            drawn = rng.poisson(means) if kind == "poissonized" else rng.multinomial(gaps, masses)
            heavy[i], balls[i] = drawn[:, :H], drawn[:, H]
            picks.append(rng.random(int(balls[i].sum())))
            exits.append(rng.random((int(np.count_nonzero(picks[-1] >= share)), J)))
        R = len(batch)
        K = _tally(family, boxes, heavy[:R], balls[:R], np.concatenate(picks),
                   np.concatenate(exits), J, L)
        out[lo:lo + R] = np.concatenate(
            [K[:, :, :L].reshape(R, -1), (K[:, :, :L] - K[:, :, 1:]).reshape(R, -1)], axis=1)
    return out


def simulate_deterministic(
    family: WeightFamily,
    n: int,
    J: int,
    L: int,
    times,
    seed: int,
    *,
    replica: int = 0,
) -> OccupancyTrajectory:
    """Fixed-ball-count scheme: snapshots at the integer ball counts in
    ``times`` (nondecreasing, max <= n)."""
    return simulate_replicas(family, times, J, L, seed, [replica], n=n)[0]


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
