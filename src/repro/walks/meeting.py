"""Pairwise meeting experiments (validation of Lemma 3).

Lemma 3 states: for two independent simple random walks started at Manhattan
distance ``d >= 1``, the probability that they meet within ``T = d^2`` steps
*at a node of the lens* ``D`` (the set of nodes within distance ``d`` of both
starting points) is at least ``c3 / max(1, log d)``.

:class:`MeetingExperiment` estimates this probability by Monte-Carlo
simulation of pairs of walks, also recording *where* the meeting occurred so
the lens restriction can be checked.

The default step rule is the paper's *lazy* walk.  Two strictly simple
(non-lazy) walks started at odd Manhattan distance can never occupy the same
node simultaneously — the parity of their distance is preserved — so the
literal simple-walk experiment is only meaningful for even ``d``; the lazy
kernel, which is what the paper's agents actually use, has no such parity
constraint and obeys the same asymptotic bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.grid.lattice import Grid2D
from repro.grid.geometry import manhattan_distance
from repro.mobility.kernels import StepRule
from repro.mobility.random_walk import RandomWalkMobility
from repro.util.rng import RandomState, spawn_rngs
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class MeetingResult:
    """Outcome of a Monte-Carlo meeting-probability estimate."""

    initial_distance: int
    horizon: int
    trials: int
    meetings: int
    meetings_in_lens: int

    @property
    def probability(self) -> float:
        """Estimated probability of meeting anywhere within the horizon."""
        return self.meetings / self.trials if self.trials else 0.0

    @property
    def probability_in_lens(self) -> float:
        """Estimated probability of meeting *inside the lens D* (Lemma 3 event)."""
        return self.meetings_in_lens / self.trials if self.trials else 0.0


class MeetingExperiment:
    """Monte-Carlo estimator of the Lemma 3 meeting probability.

    Parameters
    ----------
    grid:
        The lattice.
    initial_distance:
        Manhattan distance ``d`` between the two starting nodes.
    horizon:
        Number of steps to simulate; ``None`` uses the paper's ``T = d^2``.
    rule:
        Step rule; defaults to the paper's lazy walk (see the module
        docstring for why the strictly simple walk is parity-constrained).
    """

    def __init__(
        self,
        grid: Grid2D,
        initial_distance: int,
        horizon: int | None = None,
        rule: StepRule = "lazy",
    ) -> None:
        self._grid = grid
        self._d = check_positive_int(initial_distance, "initial_distance")
        if self._d > grid.diameter:
            raise ValueError(
                f"initial_distance {self._d} exceeds the grid diameter {grid.diameter}"
            )
        self._horizon = int(horizon) if horizon is not None else self._d * self._d
        if self._horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self._horizon}")
        self._rule = rule

    # ------------------------------------------------------------------ #
    @property
    def initial_distance(self) -> int:
        """The initial Manhattan distance ``d``."""
        return self._d

    @property
    def horizon(self) -> int:
        """Number of simulated steps ``T`` (default ``d^2``)."""
        return self._horizon

    # ------------------------------------------------------------------ #
    def _starting_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Two points at distance ``d`` placed symmetrically around the centre."""
        side = self._grid.side
        mid_y = side // 2
        left = self._d // 2
        right = self._d - left
        cx = side // 2
        a = np.array([max(cx - left, 0), mid_y], dtype=np.int64)
        b = np.array([min(cx + right, side - 1), mid_y], dtype=np.int64)
        # If clipping reduced the distance (tiny grids), push b right/left.
        actual = int(manhattan_distance(a, b))
        if actual != self._d:
            b = np.array([min(int(a[0]) + self._d, side - 1), mid_y], dtype=np.int64)
            if int(manhattan_distance(a, b)) != self._d:
                raise ValueError(
                    f"cannot place two nodes at distance {self._d} on a grid of side {side}"
                )
        return a, b

    def run_trials(self, rngs: Sequence[RandomState]) -> list[tuple[bool, bool]]:
        """Simulate one pair of walks per generator; ``(met, met_inside_lens)`` each.

        The pairs advance together as one ``(R, 2, 2)`` batch through the
        mobility batch stepper, and a pair leaves the batch when its walks
        meet.  Each trial consumes only its own generator, so trial ``i``
        is the same whatever batch it runs in.
        """
        a0, b0 = self._starting_points()
        n_trials = len(rngs)
        met = np.zeros(n_trials, dtype=bool)
        in_lens = np.zeros(n_trials, dtype=bool)
        stepper = RandomWalkMobility(self._grid, self._rule).batch_stepper(2, rngs)
        positions = np.broadcast_to(np.stack([a0, b0]), (n_trials, 2, 2)).copy()
        active = np.arange(n_trials)
        for _ in range(self._horizon):
            if not active.size:
                break
            positions = stepper.step(positions, active)
            hit = np.all(positions[:, 0] == positions[:, 1], axis=1)
            if hit.any():
                meeting = positions[hit, 0]
                trials = active[hit]
                met[trials] = True
                in_lens[trials] = (np.abs(meeting - a0).sum(axis=1) <= self._d) & (
                    np.abs(meeting - b0).sum(axis=1) <= self._d
                )
                positions = positions[~hit]
                active = active[~hit]
        return list(zip(met.tolist(), in_lens.tolist()))

    def run_trial(self, rng: RandomState) -> tuple[bool, bool]:
        """Simulate one pair of walks; returns ``(met, met_inside_lens)``."""
        return self.run_trials([rng])[0]

    def estimate(self, trials: int, rng: RandomState | int | None = None) -> MeetingResult:
        """Estimate the meeting probability from ``trials`` independent pairs.

        Trial ``i`` runs on the ``i``-th stream of ``spawn_rngs(rng,
        trials)``, so a seed gives the numbers E5 reports for this point.
        """
        trials = check_positive_int(trials, "trials")
        outcomes = self.run_trials(spawn_rngs(rng, trials))
        return MeetingResult(
            initial_distance=self._d,
            horizon=self._horizon,
            trials=trials,
            meetings=sum(met for met, _ in outcomes),
            meetings_in_lens=sum(lens for _, lens in outcomes),
        )


def estimate_meeting_probability(
    grid: Grid2D,
    initial_distance: int,
    trials: int,
    rng: RandomState | int | None = None,
    horizon: int | None = None,
    rule: StepRule = "lazy",
) -> MeetingResult:
    """Convenience wrapper building a :class:`MeetingExperiment` and running it."""
    experiment = MeetingExperiment(grid, initial_distance, horizon=horizon, rule=rule)
    return experiment.estimate(trials, rng=rng)
