"""Walk-range statistics (validation of Lemma 2, point 2).

Lemma 2 states that with probability greater than 1/2 a walk of length ``ℓ``
visits at least ``c2 * ℓ / log ℓ`` distinct nodes.  This module estimates the
distribution of the range ``R_ℓ`` (number of distinct nodes visited) and of
the maximum displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.kernels import StepRule
from repro.mobility.random_walk import RandomWalkMobility
from repro.util.rng import RandomState, spawn_rngs
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class RangeStatistics:
    """Summary of the range / displacement of walks of a fixed length."""

    steps: int
    trials: int
    mean_range: float
    median_range: float
    min_range: int
    max_range: int
    mean_max_displacement: float
    ranges: np.ndarray
    displacements: np.ndarray

    @property
    def normalised_range(self) -> float:
        """``mean_range * log(steps) / steps`` — should be Θ(1) by Lemma 2."""
        if self.steps <= 1:
            return float(self.mean_range)
        return self.mean_range * math.log(self.steps) / self.steps

    def fraction_above(self, threshold: float) -> float:
        """Fraction of trials whose range is at least ``threshold``."""
        if self.trials == 0:
            return 0.0
        return float(np.count_nonzero(self.ranges >= threshold) / self.trials)

    @classmethod
    def from_samples(
        cls, steps: int, ranges: np.ndarray, displacements: np.ndarray
    ) -> "RangeStatistics":
        """Aggregate per-walk range/displacement samples.

        The single aggregation point shared by
        :func:`estimate_range_statistics` and the sharded E15 sampling
        loop, so the summary definitions cannot drift between the paths.
        """
        ranges = np.asarray(ranges, dtype=np.int64)
        displacements = np.asarray(displacements, dtype=np.int64)
        return cls(
            steps=steps,
            trials=int(ranges.shape[0]),
            mean_range=float(ranges.mean()),
            median_range=float(np.median(ranges)),
            min_range=int(ranges.min()),
            max_range=int(ranges.max()),
            mean_max_displacement=float(displacements.mean()),
            ranges=ranges,
            displacements=displacements,
        )


def sample_ranges(
    grid: Grid2D,
    start: np.ndarray,
    steps: int,
    rngs: Sequence[RandomState],
    rule: StepRule = "lazy",
) -> tuple[np.ndarray, np.ndarray]:
    """Range and maximum displacement of one length-``steps`` walk per generator.

    The walks advance together as one ``(R, 1, 2)`` batch through the
    mobility batch stepper.  Each keeps a visited bitmap over the grid and
    a running maximum of its Manhattan displacement from ``start``, so no
    trajectory is stored.  Returns the ``(R,)`` integer arrays ``ranges``
    (distinct nodes visited, start included) and ``displacements``.
    """
    start = np.asarray(start, dtype=np.int64).reshape(2)
    n_trials = len(rngs)
    side = grid.side
    rows = np.arange(n_trials)
    visited = np.zeros((n_trials, grid.n_nodes), dtype=bool)
    visited[:, grid.node_id(start)] = True
    ranges = np.ones(n_trials, dtype=np.int64)
    displacements = np.zeros(n_trials, dtype=np.int64)
    if not n_trials:
        return ranges, displacements
    stepper = RandomWalkMobility(grid, rule).batch_stepper(1, rngs)
    positions = np.broadcast_to(start, (n_trials, 1, 2)).copy()
    for _ in range(steps):
        positions = stepper.step(positions, rows)
        here = positions[:, 0]
        node = here[:, 0] * side + here[:, 1]
        ranges += ~visited[rows, node]
        visited[rows, node] = True
        np.maximum(displacements, np.abs(here - start).sum(axis=1), out=displacements)
    return ranges, displacements


def estimate_range_statistics(
    grid: Grid2D,
    steps: int,
    trials: int,
    rng: RandomState | int | None = None,
    rule: StepRule = "lazy",
    start: np.ndarray | None = None,
) -> RangeStatistics:
    """Monte-Carlo estimate of the range statistics of a length-``steps`` walk.

    Walk ``i`` runs on the ``i``-th stream of ``spawn_rngs(rng, trials)``,
    so a seed gives the numbers E15 reports for this length.
    """
    steps = check_positive_int(steps, "steps")
    trials = check_positive_int(trials, "trials")
    start = grid.center() if start is None else start
    ranges, displacements = sample_ranges(grid, start, steps, spawn_rngs(rng, trials), rule)
    return RangeStatistics.from_samples(steps, ranges, displacements)
