"""Batched walk trials (E5/E15) against their per-trial references.

The walk library steps whole batches of trials through the mobility batch
steppers.  These suites pin that the batching changes no number: the
simple-rule stream stepper reproduces :func:`simple_step` step for step,
the batched meeting and range samplers reproduce the per-trial
``WalkEngine`` loops, and E5/E15 reproduce their pinned report digests,
inline and on a worker pool alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import SweepExecutor, execution_override, map_replications
from repro.experiments import run_experiment
from repro.grid.geometry import manhattan_distance
from repro.grid.lattice import Grid2D
from repro.mobility.kernels import SimpleStreamStepper, simple_step
from repro.mobility.random_walk import RandomWalkMobility
from repro.util.rng import spawn_rngs
from repro.util.serialization import to_jsonable
from repro.walks.meeting import MeetingExperiment, estimate_meeting_probability
from repro.walks.range_stats import estimate_range_statistics, sample_ranges
from repro.walks.single import (
    displacement_tail_probability,
    distinct_nodes_visited,
    max_displacement,
)
from repro.walks.walkers import WalkEngine
from repro.workloads.configs import get_workload

from tests.strategies import max_examples, seeds

REPO_ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------- #
# Per-trial references: the loops the batched samplers replaced.
# --------------------------------------------------------------------------- #
def _reference_meeting(experiment: MeetingExperiment, rule: str, rng) -> tuple[bool, bool]:
    a0, b0 = experiment._starting_points()
    d = experiment.initial_distance
    engine = WalkEngine(experiment._grid, np.stack([a0, b0]), rule=rule, rng=rng)
    for _ in range(experiment.horizon):
        pos = engine.step()
        if pos[0, 0] == pos[1, 0] and pos[0, 1] == pos[1, 1]:
            meeting = pos[0]
            in_lens = (
                int(manhattan_distance(meeting, a0)) <= d
                and int(manhattan_distance(meeting, b0)) <= d
            )
            return True, in_lens
    return False, False


def _reference_range(grid: Grid2D, steps: int, rule: str, rng) -> tuple[int, int]:
    start = grid.center().reshape(1, 2)
    traj = WalkEngine(grid, start, rule=rule, rng=rng).trajectory(steps)[:, 0, :]
    return distinct_nodes_visited(traj, grid), max_displacement(traj)


def _digest(report) -> str:
    text = json.dumps(to_jsonable(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# The simple-rule stream stepper
# --------------------------------------------------------------------------- #
class TestSimpleStreamStepper:
    @settings(max_examples=max_examples(40), deadline=None)
    @given(
        seed=seeds,
        side=st.integers(2, 3) | st.integers(4, 9),
        n_agents=st.integers(1, 4),
        n_trials=st.integers(1, 5),
        block=st.integers(1, 6) | st.just(256),
        leave_every=st.integers(1, 7),
    )
    def test_matches_per_trial_simple_step(
        self, seed, side, n_agents, n_trials, block, leave_every
    ):
        # Sides 2-3 put every node on a corner or an edge, so most steps
        # need several rejection rounds; tiny blocks refill mid-round.
        grid = Grid2D(side)
        start = np.random.default_rng(seed)
        initial = np.stack([grid.random_positions(n_agents, start) for _ in range(n_trials)])
        stepper = SimpleStreamStepper(grid, spawn_rngs(seed, n_trials), block=block)
        references = spawn_rngs(seed, n_trials)
        expected = initial.copy()
        positions, active = initial.copy(), np.arange(n_trials)
        for t in range(30):
            positions = stepper.step(positions, active)
            for trial in active:
                expected[trial] = simple_step(grid, expected[trial], references[trial])
            assert np.array_equal(positions, expected[active])
            if t % leave_every == leave_every - 1 and active.size > 1:
                keep = np.arange(active.size) != (t % active.size)
                positions, active = positions[keep], active[keep]

    def test_random_walk_model_uses_it_for_the_simple_rule(self):
        model = RandomWalkMobility(Grid2D(8), rule="simple")
        assert isinstance(model.batch_stepper(2, spawn_rngs(0, 3)), SimpleStreamStepper)

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            SimpleStreamStepper(Grid2D(4), spawn_rngs(0, 1), block=0)

    @pytest.mark.parametrize(
        "call",
        [
            "simple_step(Grid2D(1), np.zeros((1, 2), dtype=np.int64), default_rng(0))",
            "RandomWalkMobility(Grid2D(1), 'simple').batch_stepper(1, [default_rng(0)])"
            ".step(np.zeros((1, 1, 2), dtype=np.int64), np.zeros(1, dtype=np.int64))",
        ],
    )
    def test_side_one_grid_is_rejected(self, call):
        # On a side-1 grid no simple-rule proposal is ever accepted; the
        # call must raise instead of looping.  A child process keeps a
        # regression from hanging the suite.
        script = (
            "import numpy as np\n"
            "from numpy.random import default_rng\n"
            "from repro.grid.lattice import Grid2D\n"
            "from repro.mobility.kernels import simple_step\n"
            "from repro.mobility.random_walk import RandomWalkMobility\n"
            f"{call}\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
            ),
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert done.returncode != 0
        assert "ValueError: the simple rule needs a grid of side >= 2" in done.stderr


# --------------------------------------------------------------------------- #
# Batched samplers against the per-trial loops
# --------------------------------------------------------------------------- #
class TestBatchedSamplers:
    @settings(max_examples=max_examples(15), deadline=None)
    @given(
        seed=seeds,
        rule=st.sampled_from(["simple", "lazy"]),
        side=st.integers(3, 12),
        distance=st.integers(1, 6),
        n_trials=st.integers(1, 12),
    )
    def test_run_trials_matches_per_trial_loop(self, seed, rule, side, distance, n_trials):
        grid = Grid2D(side)
        distance = min(distance, side // 2)
        experiment = MeetingExperiment(grid, distance, rule=rule)
        expected = [
            _reference_meeting(experiment, rule, rng) for rng in spawn_rngs(seed, n_trials)
        ]
        assert experiment.run_trials(spawn_rngs(seed, n_trials)) == expected
        assert experiment.run_trial(spawn_rngs(seed, 1)[0]) == expected[0]

    @settings(max_examples=max_examples(15), deadline=None)
    @given(
        seed=seeds,
        rule=st.sampled_from(["simple", "lazy"]),
        side=st.integers(2, 12),
        steps=st.integers(1, 120),
        n_trials=st.integers(1, 8),
    )
    def test_sample_ranges_matches_per_trial_loop(self, seed, rule, side, steps, n_trials):
        grid = Grid2D(side)
        ranges, displacements = sample_ranges(
            grid, grid.center(), steps, spawn_rngs(seed, n_trials), rule
        )
        expected = [_reference_range(grid, steps, rule, rng) for rng in spawn_rngs(seed, n_trials)]
        assert list(zip(ranges.tolist(), displacements.tolist())) == expected

    def test_sample_ranges_with_no_trials(self):
        ranges, displacements = sample_ranges(Grid2D(8), np.array([4, 4]), 10, [])
        assert ranges.shape == displacements.shape == (0,)

    def test_displacement_tail_uses_the_sampled_displacements(self):
        grid = Grid2D(32)
        _, displacements = sample_ranges(grid, grid.center(), 50, spawn_rngs(5, 40))
        expected = np.count_nonzero(displacements >= 1.0 * np.sqrt(50)) / 40
        assert displacement_tail_probability(grid, 50, 1.0, 40, rng=5) == expected


# --------------------------------------------------------------------------- #
# Batched map units, and E5/E15 end to end
# --------------------------------------------------------------------------- #
def _batched_trials(rngs, offset: int) -> list[dict]:
    return [{"value": int(rng.integers(0, 10_000)) + offset} for rng in rngs]


def _trial(rng, offset: int) -> dict:
    return {"value": int(rng.integers(0, 10_000)) + offset}


@pytest.mark.parametrize("chunk_size", [None, 1, 3])
def test_batched_map_equals_per_trial_map(chunk_size):
    inline = map_replications(_batched_trials, 10, seed=4, kwargs={"offset": 7}, batched=True)
    assert inline == map_replications(_trial, 10, seed=4, kwargs={"offset": 7})
    with execution_override(SweepExecutor(jobs=1, chunk_size=chunk_size)):
        sharded = map_replications(
            _batched_trials, 10, seed=4, kwargs={"offset": 7}, batched=True
        )
    assert sharded == inline


class TestWalkExperiments:
    @pytest.mark.parametrize("experiment_id", ["E5", "E15"])
    def test_small_seed_zero_matches_the_pinned_digest(self, experiment_id):
        pinned = json.loads((REPO_ROOT / "regbench" / "pinned.json").read_text())
        assert pinned["seed"] == 0
        report = run_experiment(experiment_id, "small", 0)
        assert _digest(report) == pinned["small"][experiment_id]

    @pytest.mark.parametrize("experiment_id", ["E5", "E15"])
    def test_pool_equals_inline(self, experiment_id):
        inline = run_experiment(experiment_id, "tiny", 3)
        with execution_override(SweepExecutor.from_options(jobs=2, chunk_size=7)):
            pooled = run_experiment(experiment_id, "tiny", 3)
        assert _digest(pooled) == _digest(inline)

    def test_meeting_estimate_reproduces_the_e5_point(self):
        workload = get_workload("E5", "tiny")
        report = run_experiment("E5", "tiny", 11)
        points = spawn_rngs(11, len(workload["distances"]))
        for rng, d, row in zip(points, workload["distances"], report.rows):
            result = estimate_meeting_probability(
                Grid2D(workload["side"]), d, workload["trials"], rng=rng, rule="simple"
            )
            assert result.probability == row["P_meet"]
            assert result.probability_in_lens == row["P_meet_in_lens"]

    def test_range_estimate_reproduces_the_e15_point(self):
        workload = get_workload("E15", "tiny")
        report = run_experiment("E15", "tiny", 11)
        points = spawn_rngs(11, len(workload["lengths"]))
        for rng, length, row in zip(points, workload["lengths"], report.rows):
            stats = estimate_range_statistics(
                Grid2D(workload["side"]), length, workload["trials"], rng=rng
            )
            assert stats.mean_range == row["mean_range"]
            assert stats.mean_max_displacement == row["mean_max_displacement"]
