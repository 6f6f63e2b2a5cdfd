"""Fused multi-step ``r = 0`` drivers for the compiled backend.

In the paper's sparse regime the per-step work of a trial is one
co-location interaction plus one mobility apply — a handful of numpy
dispatches whose interpreter overhead dominates once the arrays are in
cache.  The cc provider runs whole *blocks* of steps in a single native
call: ``repro_broadcast_r0_block`` for broadcasts (flood → count →
completion check → apply over pre-drawn mobility blocks) and
``repro_process_r0_block`` for the lazy-walk process kernels (interaction →
count and marks → completion → moves, reading per-trial flat lazy-choice
streams).  This module owns the Python side of those loops: draw handoff,
per-block curve records, completion bookkeeping, step metrics and trial
compaction at block boundaries.

The loop is bit-for-bit equivalent to the batched runner's per-step loop:
draws come from the very same :class:`~repro.mobility.kernels.BlockDrawStepper`
buffers (refilled at the same step indices for the same still-active trial
sets), trials that complete stop being flooded/recorded exactly one step
after completion, and the serial backend's "move even on the completion
step" convention is honoured by construction (the pre-drawn block entries
of a finished trial are simply never read — its generator has already
advanced past them either way).  The process driver holds the same
contract through :class:`~repro.mobility.kernels.ChoiceStream`: a trial's
lazy choices are one flat stream of ``rng.integers(0, 5)`` values whatever
the per-step draw count (the Frog model's ``n_active`` movers, the
predator–prey ``kp`` predators then surviving preys), and bulk draws equal
successive smaller ones.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.compiled.api import SUPPORTED_KERNELS
from repro.mobility.kernels import BlockDrawStepper, ChoiceStream, NoDrawStepper
from repro.obs.metrics import step_loop_instruments

#: Steps per native block call.
BLOCK_STEPS = 128

#: Worst-case steps of lazy choices a process trial's stream is refilled with.
STREAM_BLOCK_STEPS = BLOCK_STEPS


def _block_records(counts_out: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The recorded ``(trial, count)`` entries of one ``(steps, A)`` block.

    Step-major, so a stable sort by trial (``_regroup_curves``) restores
    each trial's curve in step order; ``-1`` entries (finished rows) are
    dropped.
    """
    recorded = counts_out >= 0
    return np.broadcast_to(active, counts_out.shape)[recorded], counts_out[recorded]


def fused_broadcast_supported(
    ops: Any, radius: float, stepper: Any, n_trials: int, n_nodes: int
) -> bool:
    """Whether the fused block driver can run this broadcast workload."""
    from repro.connectivity.incremental import SAME_CELL_TABLE_LIMIT

    if radius != 0 or not getattr(ops, "has_block_driver", False):
        return False
    if n_trials * n_nodes > SAME_CELL_TABLE_LIMIT:
        return False
    if isinstance(stepper, NoDrawStepper):
        return True
    kernel = getattr(stepper, "kernel", None)
    return (
        isinstance(stepper, BlockDrawStepper)
        and kernel is not None
        and kernel[0] in SUPPORTED_KERNELS
    )


def run_broadcast_r0_fused(
    ops: Any,
    grid: Any,
    stepper: Any,
    positions: np.ndarray,
    informed: np.ndarray,
    n_trials: int,
    horizon: int,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Run the whole ``r = 0`` broadcast hot loop through the fused driver.

    Returns ``(step_trials, step_counts, broadcast_time, n_steps,
    n_informed)``: one record pair per block, and the per-trial outcomes
    the batched runner's per-step loop would have produced.  ``positions``
    and ``informed`` are consumed (mutated and compacted).
    """
    k = informed.shape[1]
    side, n_nodes = grid.side, grid.n_nodes
    kernel = getattr(stepper, "kernel", None)
    table = np.zeros(n_trials * n_nodes, dtype=np.int64)
    epoch = 0
    broadcast_time = np.full(n_trials, -1, dtype=np.int64)
    n_steps = np.zeros(n_trials, dtype=np.int64)
    n_informed = np.full(n_trials, k, dtype=np.int64)
    step_trials: list[np.ndarray] = []
    step_counts: list[np.ndarray] = []
    steps_metric, active_metric = step_loop_instruments("batched_broadcast")
    active = np.arange(n_trials)
    t = 0
    while active.size and t < horizon:
        active_metric.set(int(active.size))
        if kernel is None:
            draws = None
            block = min(horizon - t, BLOCK_STEPS)
        else:
            draws = stepper.next_draws(active, horizon - t)
            block = draws.shape[1]
        done_at = np.full(active.size, -1, dtype=np.int64)
        counts_out = np.full((block, active.size), -1, dtype=np.int64)
        steps_run = ops.broadcast_r0_block(
            kernel, side, n_nodes, draws, positions, informed,
            table, epoch, done_at, counts_out,
        )
        epoch += steps_run
        trials, counts = _block_records(counts_out[:steps_run], active)
        step_trials.append(trials)
        step_counts.append(counts)
        steps_metric.inc(int(trials.size))
        t += steps_run
        finished = done_at >= 0
        if finished.any():
            done_trials = active[finished]
            broadcast_time[done_trials] = t - steps_run + done_at[finished]
            n_steps[done_trials] = broadcast_time[done_trials] + 1
            keep = ~finished
            positions = positions[keep]
            informed = informed[keep]
            active = active[keep]
    active_metric.set(0)
    n_steps[active] = t
    if active.size:
        n_informed[active] = informed.sum(axis=1)
    return step_trials, step_counts, broadcast_time, n_steps, n_informed


def fused_process_supported(ops: Any, process: Any, bstate: Any, n_trials: int) -> bool:
    """Whether the fused block driver can run this process workload.

    The kernel must expose a fused batch for ``bstate`` (``r = 0``
    co-location interaction, lazy-walk moves), the provider must carry the
    block driver, and the per-trial epoch table must fit the same-cell
    table limit.
    """
    from repro.connectivity.incremental import SAME_CELL_TABLE_LIMIT

    return bool(
        getattr(ops, "has_block_driver", False)
        and n_trials * process.grid.n_nodes <= SAME_CELL_TABLE_LIMIT
        and process.fused_batch(bstate) is not None
    )


def run_process_r0_fused(
    ops: Any,
    process: Any,
    bstate: Any,
    rngs: Sequence[Any],
    active: np.ndarray,
    horizon: int,
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Run a process kernel's ``r = 0`` hot loop through the fused driver.

    ``bstate`` is the kernel's batch state after ``init_batch`` and the
    ``t = 0`` compaction, ``active`` its still-running trials.  Returns
    ``(step_trials, step_counts, n_steps)`` — one record pair per block —
    with ``bstate`` finalized, exactly as the batched runner's per-step
    loop leaves it.
    """
    n_trials = len(rngs)
    side, n_nodes = process.grid.side, process.grid.n_nodes
    need = process.fused_batch(bstate).max_draws
    stream = ChoiceStream(rngs, 0, STREAM_BLOCK_STEPS * need, need)
    table = np.zeros(n_trials * n_nodes, dtype=np.int64)
    n_steps = np.zeros(n_trials, dtype=np.int64)
    step_trials: list[np.ndarray] = []
    step_counts: list[np.ndarray] = []
    steps_metric, active_metric = step_loop_instruments("batched_process")
    t = 0
    while active.size and t < horizon:
        active_metric.set(int(active.size))
        batch = process.fused_batch(bstate)
        steps = min(horizon - t, BLOCK_STEPS)
        done_at = np.full(active.size, -1, dtype=np.int64)
        counts_out = np.full((steps, active.size), -1, dtype=np.int64)
        s = 0
        while True:
            s = ops.process_r0_block(
                batch, active, stream, side, n_nodes, table, t, s, done_at, counts_out
            )
            running = active[done_at < 0]
            if s == steps or not running.size:
                break
            stream.refill(running, need)
        trials, counts = _block_records(counts_out[:s], active)
        step_trials.append(trials)
        step_counts.append(counts)
        steps_metric.inc(int(trials.size))
        finished = done_at >= 0
        if finished.any():
            n_steps[active[finished]] = t + done_at[finished] + 1
            # Final observables of the finishing rows (the others are
            # overwritten when they finish or at the horizon).
            process.finalize(bstate, active)
            keep = ~finished
            process.compact(bstate, keep)
            active = active[keep]
        t += s
    active_metric.set(0)
    n_steps[active] = t
    process.finalize(bstate, active)
    return step_trials, step_counts, n_steps
