"""The fused ``r = 0`` block driver of the lazy-walk process kernels.

``backend="compiled"`` on the cc provider runs the hot loop of the frog,
informed-coverage, cover-time and predator–prey kernels block by block in
native code (:func:`repro.compiled.driver.run_process_r0_fused`), reading
each trial's lazy choices from a flat :class:`~repro.mobility.kernels.ChoiceStream`.
These tests pin it field by field against ``backend="serial"`` on the
block-boundary cases — horizons off the block grid, trials finishing inside
a block next to trials running into the horizon, trials finished at
``t = 0``, frozen preys and stream refills forced in mid-block — and pin the
E7, E9, E10 and E11 reports to the benchmark's recorded digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro.compiled
from repro.compiled import driver
from repro.core.batched import _regroup_curves
from repro.dissemination.kernels import (
    CoverProcess,
    FrogProcess,
    InformedCoverageProcess,
    PredatorPreyProcess,
    run_process_replications,
)
from repro.exec import SweepExecutor, execution_override
from repro.experiments import run_experiment
from repro.util.rng import spawn_rngs
from repro.util.serialization import to_jsonable

from tests.test_properties_dissemination import assert_results_identical

REPO_ROOT = Path(__file__).resolve().parents[1]


def _block_driver_ops():
    if not repro.compiled.available():
        return None
    ops = repro.compiled.require_ops()
    return ops if getattr(ops, "has_block_driver", False) else None


OPS = _block_driver_ops()

pytestmark = pytest.mark.skipif(OPS is None, reason="no compiled provider with a block driver")

#: One kernel of each fused kind, with horizons off the 128-step block grid.
KERNELS = [
    FrogProcess(144, 4, max_steps=131),
    InformedCoverageProcess(49, 4, max_steps=259),
    # 50 nodes on a 7 x 7 grid: coverage can never complete.
    InformedCoverageProcess(50, 3, max_steps=140),
    CoverProcess(6, 3, 131),
    CoverProcess(5, 2, 60, record_curve_every=7),
    PredatorPreyProcess(100, 3, 6, max_steps=131),
    PredatorPreyProcess(64, 2, 5, max_steps=300, preys_move=False),
]


def _ids(process) -> str:
    return f"{process.name}-{process.horizon}"


def _serial(process, n, seed):
    return run_process_replications(process, n, seed=seed, backend="serial")[1]


def _fused(process, n, seed):
    """Drive ``run_process_r0_fused`` directly."""
    rngs = spawn_rngs(seed, n)
    bstate = process.init_batch(rngs)
    keep = ~process.initially_stopped(bstate)
    process.compact(bstate, keep)
    active = np.arange(n)[keep]
    step_trials, step_counts, n_steps = driver.run_process_r0_fused(
        OPS, process, bstate, rngs, active, process.horizon
    )
    curves = _regroup_curves(n, step_trials, step_counts)
    return process.build_results(bstate, curves, n_steps)


class TestFusedPathIsTaken:
    @pytest.mark.parametrize("process", KERNELS, ids=_ids)
    def test_compiled_backend_never_calls_step_batch(self, process, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("per-step loop ran")

        monkeypatch.setattr(type(process), "step_batch", boom)
        run_process_replications(process, 3, seed=0, backend="compiled")

    @pytest.mark.parametrize(
        "process",
        [
            FrogProcess(64, 4, radius=1.0),
            PredatorPreyProcess(64, 2, 3, capture_radius=1.0),
            CoverProcess(5, 2, 50, rule="simple"),
        ],
        ids=lambda p: p.name,
    )
    def test_other_kernels_keep_the_per_step_loop(self, process):
        bstate = process.init_batch(spawn_rngs(0, 4))
        assert process.fused_batch(bstate) is None
        assert not driver.fused_process_supported(OPS, process, bstate, 4)

    def test_loop_providers_have_no_block_driver(self):
        from repro.compiled import api, kernels_py

        process = KERNELS[0]
        assert not driver.fused_process_supported(
            api.LoopOps(kernels_py, "python"), process, process.init_batch(spawn_rngs(0, 4)), 4
        )


class TestFusedEqualsSerial:
    @pytest.mark.parametrize("process", KERNELS, ids=_ids)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compiled_backend_matches_serial(self, process, seed):
        _, results = run_process_replications(process, 7, seed=seed, backend="compiled")
        assert_results_identical(_serial(process, 7, seed), results)

    @pytest.mark.parametrize("process", KERNELS, ids=_ids)
    @pytest.mark.parametrize("stream_steps", [1, 2, 3, 17])
    def test_stream_refills_in_mid_block(self, process, stream_steps, monkeypatch):
        # A stream refilled with only a few steps' worst-case draws forces a
        # return and refill before nearly every step of every block.
        monkeypatch.setattr(driver, "STREAM_BLOCK_STEPS", stream_steps)
        assert_results_identical(_serial(process, 5, 3), _fused(process, 5, 3))

    @pytest.mark.parametrize("process", KERNELS, ids=_ids)
    def test_short_blocks_match_serial(self, process, monkeypatch):
        # Seven-step blocks put many completions inside a block next to
        # trials that run on, and several block boundaries before the horizon.
        monkeypatch.setattr(driver, "BLOCK_STEPS", 7)
        assert_results_identical(_serial(process, 6, 4), _fused(process, 6, 4))

    def test_completions_and_horizon_in_the_same_run(self):
        process = FrogProcess(256, 4, max_steps=150)
        results = _fused(process, 12, 1)
        times = sorted(r.activation_time for r in results)
        # Two trials finish inside the first block, one inside the second
        # (150 = one full block plus 22 steps), the rest run into the horizon.
        assert times[-3:] == [58, 65, 142] and times[-4] == -1
        assert {r.n_steps for r in results if r.activation_time < 0} == {150}
        assert_results_identical(_serial(process, 12, 1), results)

    def test_cover_complete_at_time_zero(self):
        process = CoverProcess(1, 3, 10)
        results = _fused(process, 4, 0)
        assert all(r.cover_time == 0 and r.n_steps == 0 for r in results)
        assert_results_identical(_serial(process, 4, 0), results)

    def test_cover_some_trials_complete_at_time_zero(self):
        process = CoverProcess(2, 5, 40)
        results = _fused(process, 12, 1)
        assert any(r.cover_time == 0 for r in results)
        assert any(r.cover_time > 0 for r in results)
        assert_results_identical(_serial(process, 12, 1), results)

    def test_frozen_preys_draw_only_for_predators(self, monkeypatch):
        process = PredatorPreyProcess(49, 3, 8, max_steps=400, preys_move=False)
        assert process.fused_batch(process.init_batch(spawn_rngs(0, 1))).max_draws == 3
        monkeypatch.setattr(driver, "STREAM_BLOCK_STEPS", 1)
        for seed in range(3):
            assert_results_identical(_serial(process, 6, seed), _fused(process, 6, seed))


def _digest(report) -> str:
    text = json.dumps(to_jsonable(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestProcessExperiments:
    @pytest.mark.parametrize("scale", ["tiny", "small", "paper"])
    @pytest.mark.parametrize("experiment_id", ["E7", "E9", "E10", "E11"])
    def test_seed_zero_matches_the_pinned_digest(self, experiment_id, scale):
        pinned = json.loads((REPO_ROOT / "regbench" / "pinned.json").read_text())
        assert pinned["seed"] == 0
        report = run_experiment(experiment_id, scale, 0)
        assert _digest(report) == pinned[scale][experiment_id]

    @pytest.mark.parametrize("experiment_id", ["E7", "E9", "E10", "E11"])
    def test_pool_equals_inline(self, experiment_id):
        inline = run_experiment(experiment_id, "tiny", 7)
        with execution_override(SweepExecutor.from_options(jobs=2, chunk_size=1)):
            pooled = run_experiment(experiment_id, "tiny", 7)
        assert _digest(pooled) == _digest(inline)
