"""Random-walk substrate.

The paper's lazy random walk (probability ``1/5`` to move to each existing
neighbour, stay otherwise) and the simple walk step through the mobility
batch steppers of :mod:`repro.mobility.kernels`.  On top of them sit the
batched trial samplers that validate the walk lemmas — the pairwise meeting
experiments of Lemma 3 (:meth:`MeetingExperiment.run_trials`, E5) and the
range/displacement sampler of Lemma 2 (:func:`sample_ranges`, E15), each
stepping ``R`` independent trials as one batch — plus single-walk utilities
(trajectories, hitting times, range, displacement), occupancy checks and
the :class:`WalkEngine` convenience wrapper.
"""

from repro.mobility.kernels import (
    lazy_step,
    lazy_step_batch,
    simple_step,
    simple_step_batch,
)
from repro.walks.walkers import WalkEngine
from repro.walks.single import (
    walk_trajectory,
    hitting_time,
    visit_within,
    max_displacement,
    distinct_nodes_visited,
)
from repro.walks.meeting import MeetingExperiment, MeetingResult, estimate_meeting_probability
from repro.walks.range_stats import RangeStatistics, estimate_range_statistics, sample_ranges
from repro.walks.occupancy import (
    StationarityReport,
    chi_square_uniformity,
    occupancy_counts,
    stationarity_check,
)

__all__ = [
    "WalkEngine",
    "lazy_step",
    "lazy_step_batch",
    "simple_step",
    "simple_step_batch",
    "walk_trajectory",
    "hitting_time",
    "visit_within",
    "max_displacement",
    "distinct_nodes_visited",
    "MeetingExperiment",
    "MeetingResult",
    "estimate_meeting_probability",
    "RangeStatistics",
    "estimate_range_statistics",
    "sample_ranges",
    "StationarityReport",
    "chi_square_uniformity",
    "occupancy_counts",
    "stationarity_check",
]
