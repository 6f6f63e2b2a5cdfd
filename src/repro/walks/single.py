"""Single-walk utilities: trajectories, hitting times, displacement, range.

These helpers back the validation of Lemma 1 (visit probability of a node at
distance ``d`` within ``d^2`` steps) and Lemma 2 (displacement concentration
and number of distinct nodes visited).
"""

from __future__ import annotations

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.kernels import StepRule
from repro.mobility.random_walk import RandomWalkMobility
from repro.walks.range_stats import sample_ranges
from repro.walks.walkers import WalkEngine
from repro.util.rng import RandomState, default_rng, spawn_rngs


def walk_trajectory(
    grid: Grid2D,
    start: np.ndarray,
    steps: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> np.ndarray:
    """Trajectory of a single walk: ``(steps + 1, 2)`` array of positions.

    A batch of one through the mobility batch stepper.  The stepper
    pre-draws the generator in blocks, so ``rng`` may be advanced past the
    draws the trajectory used.
    """
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    start = np.asarray(start, dtype=np.int64).reshape(1, 1, 2)
    if not np.all(grid.contains(start[0])):
        raise ValueError("some initial positions lie outside the grid")
    stepper = RandomWalkMobility(grid, rule).batch_stepper(1, [default_rng(rng)])
    trajectory = np.empty((steps + 1, 2), dtype=np.int64)
    trajectory[0] = start[0, 0]
    positions, active = start, np.zeros(1, dtype=np.int64)
    for t in range(1, steps + 1):
        positions = stepper.step(positions, active)
        trajectory[t] = positions[0, 0]
    return trajectory


def hitting_time(
    grid: Grid2D,
    start: np.ndarray,
    target: np.ndarray,
    max_steps: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> int:
    """First time the walk started at ``start`` visits ``target``.

    Returns ``-1`` if the target is not hit within ``max_steps`` steps.
    Time 0 counts (a walk starting on the target hits it immediately).
    """
    start = np.asarray(start, dtype=np.int64).reshape(2)
    target = np.asarray(target, dtype=np.int64).reshape(2)
    if np.array_equal(start, target):
        return 0
    engine = WalkEngine(grid, start.reshape(1, 2), rule=rule, rng=rng)
    for t in range(1, max_steps + 1):
        pos = engine.step()[0]
        if pos[0] == target[0] and pos[1] == target[1]:
            return t
    return -1


def visit_within(
    grid: Grid2D,
    start: np.ndarray,
    target: np.ndarray,
    steps: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> bool:
    """Whether the walk visits ``target`` within ``steps`` steps (Lemma 1 event)."""
    return hitting_time(grid, start, target, steps, rng=rng, rule=rule) >= 0


def max_displacement(trajectory: np.ndarray) -> int:
    """Maximum Manhattan displacement from the starting position.

    ``trajectory`` has shape ``(T + 1, 2)``; the result is
    ``max_t ||x_t - x_0||_1`` (Lemma 2, point 1, concerns this quantity).
    """
    traj = np.asarray(trajectory, dtype=np.int64)
    if traj.ndim != 2 or traj.shape[1] != 2:
        raise ValueError(f"trajectory must have shape (T+1, 2), got {traj.shape}")
    deltas = np.abs(traj - traj[0]).sum(axis=1)
    return int(deltas.max())


def distinct_nodes_visited(trajectory: np.ndarray, grid: Grid2D) -> int:
    """Number of distinct grid nodes touched by the trajectory (Lemma 2, point 2)."""
    traj = np.asarray(trajectory, dtype=np.int64)
    if traj.ndim != 2 or traj.shape[1] != 2:
        raise ValueError(f"trajectory must have shape (T+1, 2), got {traj.shape}")
    node_ids = grid.node_id(traj)
    return int(np.unique(np.atleast_1d(node_ids)).size)


def displacement_tail_probability(
    grid: Grid2D,
    steps: int,
    lam: float,
    trials: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
) -> float:
    """Empirical probability that a walk strays ``>= lam * sqrt(steps)`` from its start.

    Lemma 2 (point 1) bounds this probability by ``2 * exp(-lam^2 / 2)`` for
    each fixed step; here we measure the (larger) probability that the
    maximum displacement over the whole interval exceeds the threshold, which
    is what the experiments report.  Walk ``i`` runs on the ``i``-th
    stream of ``spawn_rngs(rng, trials)``.
    """
    if not trials:
        return 0.0
    _, displacements = sample_ranges(
        grid, grid.center(), steps, spawn_rngs(rng, trials), rule
    )
    return float(np.count_nonzero(displacements >= lam * np.sqrt(steps)) / trials)
