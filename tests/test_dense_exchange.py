"""The dense model's single-hop exchange on the rotated-grid prefix sum.

:func:`repro.baselines.dense_model._single_hop_exchange` answers "is an
informed agent within ``R``?" for every agent from a prefix sum over the
45-degree rotated grid instead of listing neighbour pairs.  These suites pin
that it changes no number: the exchange equals a brute-force distance-matrix
oracle, whole runs equal the pair-listing loop it replaced, and E16 still
reproduces its pinned report digests.  An infinite radius reaches every
agent in one hop.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dense_model import DenseModelSimulation, _single_hop_exchange
from repro.connectivity.spatial_hash import neighbor_pairs
from repro.experiments import run_experiment
from repro.grid.geometry import pairwise_manhattan
from repro.mobility.jump import JumpMobility
from repro.util.rng import default_rng
from repro.util.serialization import to_jsonable
from tests.strategies import max_examples

REPO_ROOT = Path(__file__).resolve().parents[1]


def _oracle_exchange(positions: np.ndarray, informed: np.ndarray, radius: float) -> np.ndarray:
    """Brute force: an agent is informed if any informed agent is within ``radius``."""
    within = pairwise_manhattan(positions) <= radius
    return informed | (within & informed[None, :]).any(axis=1)


def _pair_listing_run(sim: DenseModelSimulation, seed: int) -> tuple[int, int, np.ndarray]:
    """The dense-model run loop as it was before the prefix sum: one pass over radius pairs."""
    rng = default_rng(seed)
    k = sim._n_agents
    mobility = JumpMobility(sim.grid, jump_radius=sim.jump_radius)
    positions = mobility.initial_positions(k, rng)
    informed = np.zeros(k, dtype=bool)
    informed[int(rng.integers(0, k))] = True
    broadcast_time, curve, t = -1, [], 0
    while t < sim._max_steps:
        new_informed = informed.copy()
        pairs = neighbor_pairs(positions, sim.exchange_radius)
        if pairs.size:
            a, b = pairs[:, 0], pairs[:, 1]
            new_informed[b[informed[a]]] = True
            new_informed[a[informed[b]]] = True
        informed = new_informed
        curve.append(int(informed.sum()))
        if informed.all():
            broadcast_time = t
            break
        positions = mobility.step(positions, rng)
        t += 1
    return broadcast_time, t, np.asarray(curve, dtype=np.int64)


def _digest(report) -> str:
    text = json.dumps(to_jsonable(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@st.composite
def _exchange_cases(draw):
    side = draw(st.integers(1, 24))
    k = draw(st.integers(1, 80))
    coords = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
    positions = np.array(draw(st.lists(coords, min_size=k, max_size=k)), dtype=np.int64)
    mask = draw(
        st.one_of(
            st.just([False] * k),
            st.just([True] * k),
            st.lists(st.booleans(), min_size=k, max_size=k),
        )
    )
    radius = draw(
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 1.5]),
            st.integers(0, 2 * side).map(float),
            st.floats(2 * side, 10 * side),
            st.just(math.inf),
        )
    )
    return side, positions, np.array(mask, dtype=bool), radius


class TestExchange:
    @settings(max_examples=max_examples(300), deadline=None)
    @given(_exchange_cases())
    def test_equals_the_brute_force_oracle(self, case):
        side, positions, informed, radius = case
        got = _single_hop_exchange(positions, informed, radius, side)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, _oracle_exchange(positions, informed, radius))

    def test_does_not_modify_its_input(self):
        positions = np.array([[0, 0], [0, 1], [3, 3]])
        informed = np.array([True, False, False])
        got = _single_hop_exchange(positions, informed, 1.0, 4)
        np.testing.assert_array_equal(got, [True, True, False])
        np.testing.assert_array_equal(informed, [True, False, False])

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_rejects_negative_and_nan_radius(self, radius):
        with pytest.raises(ValueError):
            _single_hop_exchange(np.zeros((2, 2), dtype=np.int64), np.ones(2, bool), radius, 3)


class TestRuns:
    @pytest.mark.parametrize(
        "n_nodes, n_agents, radius, rho",
        [(100, 100, 0, 1), (100, 100, 1.5, 1), (144, 60, 2, 3), (256, 256, 4, 2), (49, 10, 20, 1)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_equals_the_pair_listing_run(self, n_nodes, n_agents, radius, rho, seed):
        sim = DenseModelSimulation(n_nodes, n_agents, exchange_radius=radius, jump_radius=rho)
        result = sim.run(rng=seed)
        broadcast_time, n_steps, curve = _pair_listing_run(sim, seed)
        assert result.broadcast_time == broadcast_time
        assert result.n_steps == n_steps
        np.testing.assert_array_equal(result.informed_curve, curve)

    @pytest.mark.parametrize("scale", ["tiny", "small", "paper"])
    def test_e16_seed_zero_matches_the_pinned_digest(self, scale):
        pinned = json.loads((REPO_ROOT / "regbench" / "pinned.json").read_text())
        assert pinned["seed"] == 0
        assert _digest(run_experiment("E16", scale, 0)) == pinned[scale]["E16"]


class TestInfiniteRadius:
    def test_infinite_radius_informs_everyone_in_one_hop(self):
        result = DenseModelSimulation(100, 100, exchange_radius=math.inf, jump_radius=1).run(rng=0)
        assert result.completed
        assert result.broadcast_time == 0
        np.testing.assert_array_equal(result.informed_curve, [100])
