"""Registry mapping experiment identifiers to their ``run`` functions."""

from __future__ import annotations

from typing import Callable

from repro.analysis.report import ExperimentReport
from repro.experiments import (
    e01_broadcast_vs_k,
    e02_broadcast_vs_n,
    e03_radius_insensitivity,
    e04_island_sizes,
    e05_meeting_probability,
    e06_frontier_speed,
    e07_frog_model,
    e08_gossip_time,
    e09_coverage_time,
    e10_cover_time,
    e11_predator_prey,
    e12_wang_refutation,
    e13_percolation,
    e14_above_percolation,
    e15_walk_range,
    e16_dense_baseline,
    e17_barriers,
)
from repro.util.rng import SeedLike

_MODULES = {
    "E1": e01_broadcast_vs_k,
    "E2": e02_broadcast_vs_n,
    "E3": e03_radius_insensitivity,
    "E4": e04_island_sizes,
    "E5": e05_meeting_probability,
    "E6": e06_frontier_speed,
    "E7": e07_frog_model,
    "E8": e08_gossip_time,
    "E9": e09_coverage_time,
    "E10": e10_cover_time,
    "E11": e11_predator_prey,
    "E12": e12_wang_refutation,
    "E13": e13_percolation,
    "E14": e14_above_percolation,
    "E15": e15_walk_range,
    "E16": e16_dense_baseline,
    "E17": e17_barriers,
}


def available_experiments() -> list[str]:
    """Identifiers of all registered experiments, in numeric order."""
    return sorted(_MODULES, key=lambda eid: int(eid[1:]))


def experiment_description(experiment_id: str) -> str:
    """Human-readable title of the experiment."""
    module = _module_for(experiment_id)
    return str(module.TITLE)


def _module_for(experiment_id: str):
    experiment_id = experiment_id.upper()
    try:
        return _MODULES[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {available_experiments()}"
        ) from exc


def run_experiment(
    experiment_id: str, scale: str = "small", seed: SeedLike = 0
) -> ExperimentReport:
    """Run the experiment with the given id at the given scale.

    How its replications execute (the backend, the connectivity engine and
    the sharded executor behind ``--backend``, ``--connectivity`` and
    ``--jobs``) is set by an enclosing :func:`repro.exec.execution_override`
    block, not here.  Every such choice is bit-for-bit interchangeable, so
    the report depends only on the id, the scale and the seed.
    """
    module = _module_for(experiment_id)
    runner: Callable[..., ExperimentReport] = module.run
    return runner(scale=scale, seed=seed)
