"""The dense mobile model of Clementi et al. (IPDPS 2009 / ICALP 2009).

In that model ``k = Θ(n)`` agents live on the ``n``-node grid.  At every step
an agent (a) exchanges information with all agents within distance ``R`` —
a *single-hop* exchange, not transitive flooding — and (b) jumps to a
uniformly random node within distance ``ρ`` of its current position.  For
``ρ = O(R)`` and ``R = Ω(sqrt(log n))`` the broadcast time is
``Θ(sqrt(n)/R)``; for ``ρ = Ω(max{R, sqrt(log n)})`` it is
``O(sqrt(n)/ρ + log n)``.

The single-hop exchange is the essential modelling difference with the
paper's sparse model: in the dense regime the visibility graph has a giant
(indeed, spanning) component, so the paper's instantaneous intra-component
flooding would finish in one step.  Clementi et al. instead let information
travel only ``R`` per step, which is what produces the ``sqrt(n)/R`` law this
baseline reproduces (experiment E16).

The exchange asks one yes/no question per agent ("is an informed agent within
``R``?") and answers it in ``O(n + k)`` per step without listing neighbour
pairs.  Rotating the grid by 45 degrees, ``u = x + y`` and
``v = x - y + (side - 1)``, turns Manhattan distance into Chebyshev distance,
``|dx| + |dy| = max(|du|, |dv|)``, so the L1 ball of radius ``R`` around an
agent becomes the axis-aligned square ``|du|, |dv| <= h`` on the
``(2 side - 1)^2`` rotated grid.  Agents sit on integer nodes, so their
distances are integers and ``d <= R`` holds exactly when ``d <= floor(R)``:
the half-width ``h = floor(R)`` loses nothing for fractional radii.  A radius
beyond the grid diameter ``2 (side - 1)`` is clamped to it (an infinite
radius reaches every agent in one hop).  The informed agents are counted onto
the rotated grid, a 2-D prefix sum of those counts is taken once, and every
agent reads the informed count of its square from four corners of the prefix
sum.  The exchange draws no randomness, so runs are bit-for-bit those of the
pair-listing exchange it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.grid.lattice import Grid2D
from repro.mobility.jump import JumpMobility
from repro.util.rng import RandomState, default_rng
from repro.util.validation import check_non_negative, check_positive_int


@dataclass(frozen=True)
class DenseModelResult:
    """Outcome of a dense-model broadcast run."""

    n_nodes: int
    n_agents: int
    exchange_radius: float
    jump_radius: int
    broadcast_time: int
    completed: bool
    n_steps: int
    informed_curve: np.ndarray


def _single_hop_exchange(
    positions: np.ndarray, informed: np.ndarray, radius: float, side: int
) -> np.ndarray:
    """One round of single-hop exchange: informed agents inform neighbours within ``radius``.

    ``positions`` are on-grid nodes of the ``side x side`` lattice; see the
    module docstring for the rotated-grid prefix sum.
    """
    if not radius >= 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    half = int(min(radius, 2 * (side - 1)))
    width = 2 * side - 1
    positions = np.asarray(positions, dtype=np.int64)
    u = positions[:, 0] + positions[:, 1]
    v = positions[:, 0] - positions[:, 1] + (side - 1)
    counts = np.bincount(u[informed] * width + v[informed], minlength=width * width)
    # prefix[i, j] = number of informed agents with u < i and v < j.
    prefix = np.zeros((width + 1, width + 1), dtype=np.int64)
    np.cumsum(counts.reshape(width, width), axis=0, out=prefix[1:, 1:])
    np.cumsum(prefix[1:, 1:], axis=1, out=prefix[1:, 1:])
    u_lo, u_hi = np.maximum(u - half, 0), np.minimum(u + half + 1, width)
    v_lo, v_hi = np.maximum(v - half, 0), np.minimum(v + half + 1, width)
    hits = prefix[u_hi, v_hi] - prefix[u_lo, v_hi] - prefix[u_hi, v_lo] + prefix[u_lo, v_lo]
    return informed | (hits > 0)


class DenseModelSimulation:
    """Broadcast in the Clementi et al. dense model (single-hop exchange + jumps).

    Parameters
    ----------
    n_nodes:
        Number of grid nodes.
    n_agents:
        Number of agents; the theoretical guarantees require ``k = Θ(n)`` but
        any value is accepted.
    exchange_radius:
        The communication radius ``R`` (single-hop reach per step).
    jump_radius:
        The mobility radius ``ρ``.
    max_steps:
        Simulation horizon; the default is generous for the ``sqrt(n)/R`` law.
    """

    def __init__(
        self,
        n_nodes: int,
        n_agents: int,
        exchange_radius: float,
        jump_radius: int,
        max_steps: Optional[int] = None,
    ) -> None:
        self._n_nodes = check_positive_int(n_nodes, "n_nodes")
        self._n_agents = check_positive_int(n_agents, "n_agents")
        self._radius = check_non_negative(exchange_radius, "exchange_radius")
        self._rho = check_positive_int(jump_radius, "jump_radius")
        self._grid = Grid2D.from_nodes(n_nodes)
        if max_steps is None:
            max_steps = 200 * self._grid.side + 1000
        self._max_steps = check_positive_int(max_steps, "max_steps")

    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid2D:
        """The underlying lattice."""
        return self._grid

    @property
    def exchange_radius(self) -> float:
        """The single-hop communication radius ``R``."""
        return self._radius

    @property
    def jump_radius(self) -> int:
        """The mobility radius ``ρ``."""
        return self._rho

    # ------------------------------------------------------------------ #
    def run(self, rng: RandomState | int | None = None) -> DenseModelResult:
        """Run one broadcast and return the dense-model result summary."""
        rng = default_rng(rng)
        mobility = JumpMobility(self._grid, jump_radius=self._rho)
        positions = mobility.initial_positions(self._n_agents, rng)
        informed = np.zeros(self._n_agents, dtype=bool)
        informed[int(rng.integers(0, self._n_agents))] = True

        broadcast_time = -1
        curve: list[int] = []
        t = 0
        while t < self._max_steps:
            informed = _single_hop_exchange(positions, informed, self._radius, self._grid.side)
            curve.append(int(informed.sum()))
            if informed.all():
                broadcast_time = t
                break
            positions = mobility.step(positions, rng)
            t += 1

        return DenseModelResult(
            n_nodes=self._n_nodes,
            n_agents=self._n_agents,
            exchange_radius=self._radius,
            jump_radius=self._rho,
            broadcast_time=broadcast_time,
            completed=broadcast_time >= 0,
            n_steps=t,
            informed_curve=np.asarray(curve, dtype=np.int64),
        )
