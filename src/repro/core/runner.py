"""Replication runner: repeat a stochastic experiment and summarise it.

All headline quantities of the paper are "with high probability" statements,
so every experiment is replicated with independent random streams and the
harness reports means, medians and bootstrap confidence intervals.

Replications can be executed by two interchangeable backends selected via
the ``backend`` argument (or the config's ``backend`` field):

* ``"serial"`` — one :class:`~repro.core.simulation.BroadcastSimulation` /
  :class:`~repro.core.gossip.GossipSimulation` per trial;
* ``"batched"`` — all trials advance together as one vectorised system
  (:mod:`repro.core.batched`), typically an order of magnitude faster on
  replication-heavy workloads;
* ``"compiled"`` — the batched loop with its per-step hot kernels compiled
  (:mod:`repro.compiled`); raises when no provider (numba or the bundled C
  kernels) is available on the host;
* ``"auto"`` — the fastest backend the configuration and host support:
  compiled when a provider is available, else batched, else serial.

All backends consume identical per-trial random streams (derived with
:func:`repro.util.rng.spawn_rngs`) and return bit-for-bit identical results,
so the choice is purely a performance knob.  See ``docs/PERFORMANCE.md``
and ``docs/COMPILED.md``.

Run options are set in one place and resolved in one place.
:func:`repro.exec.execution_override` is the one writer of the
context-local :class:`RunOptions` (backend, connectivity engine,
executor); :func:`resolve_backend` and :func:`resolve_connectivity` are the
one resolver of each choice, for simulation configs and process kernels
alike (explicit argument > innermost context > config field > ``"auto"``
pick).  An active executor shards every replication run into
(sweep-point × replication-chunk) work units executed in process or over a
process pool — with per-trial streams re-derived deterministically, so the
sharded path is also bit-for-bit identical to the plain one.  Because each
unit is a pure function of its spec, the executor may also retry, time out,
requeue (after a worker crash) or lease-steal any unit without changing a
single result bit; runs interrupted by worker failure complete with the
records a fault-free run would produce.  See ``docs/PARALLEL.md``.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.analysis.statistics import ReplicationAggregate
    from repro.dissemination.kernels import ProcessKernel
    from repro.exec.executor import SweepExecutor

from repro.core.config import (
    BroadcastConfig,
    GossipConfig,
    check_backend,
    check_connectivity,
)
from repro.core.gossip import GossipResult, GossipSimulation
from repro.core.simulation import BroadcastResult, BroadcastSimulation
from repro.util.rng import SeedLike, spawn_rngs
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ReplicationSummary:
    """Summary of a replicated scalar measurement (e.g. broadcast times)."""

    values: np.ndarray
    n_replications: int
    n_completed: int

    @property
    def completion_rate(self) -> float:
        """Fraction of replications that completed within the horizon."""
        if self.n_replications == 0:
            return 0.0
        return self.n_completed / self.n_replications

    @property
    def completed_values(self) -> np.ndarray:
        """Values of the completed replications only."""
        return self.values[self.values >= 0]

    @property
    def mean(self) -> float:
        """Mean over completed replications (NaN if none completed)."""
        vals = self.completed_values
        return float(vals.mean()) if vals.size else float("nan")

    @property
    def median(self) -> float:
        """Median over completed replications (NaN if none completed)."""
        vals = self.completed_values
        return float(np.median(vals)) if vals.size else float("nan")

    @property
    def std(self) -> float:
        """Standard deviation over completed replications (NaN if none)."""
        vals = self.completed_values
        return float(vals.std(ddof=1)) if vals.size > 1 else 0.0 if vals.size else float("nan")

    @property
    def min(self) -> float:
        """Minimum over completed replications."""
        vals = self.completed_values
        return float(vals.min()) if vals.size else float("nan")

    @property
    def max(self) -> float:
        """Maximum over completed replications."""
        vals = self.completed_values
        return float(vals.max()) if vals.size else float("nan")


class StreamingReplicationSummary:
    """The :class:`ReplicationSummary` face over a streaming aggregate.

    Exposes the same scalar statistics (``mean``, ``median``, ``std``,
    ``min``, ``max``, ``n_replications``, ``n_completed``,
    ``completion_rate``) computed from a mergeable
    :class:`~repro.analysis.statistics.ReplicationAggregate` instead of a
    buffered value array.  ``median`` is a sketch quantile, accurate to the
    sketch's relative accuracy; counts, min and max are exact.  The
    per-trial arrays were never materialised — that is the point of
    streaming — so :attr:`values` and :attr:`completed_values` raise.
    """

    def __init__(self, aggregate: "ReplicationAggregate") -> None:
        self._aggregate = aggregate

    @property
    def aggregate(self) -> "ReplicationAggregate":
        """The underlying mergeable aggregate."""
        return self._aggregate

    @property
    def n_replications(self) -> int:
        return self._aggregate.n_total

    @property
    def n_completed(self) -> int:
        return self._aggregate.n_completed

    @property
    def completion_rate(self) -> float:
        return self._aggregate.completion_rate

    @property
    def mean(self) -> float:
        return self._aggregate.mean

    @property
    def median(self) -> float:
        return self._aggregate.median

    @property
    def std(self) -> float:
        return self._aggregate.std

    @property
    def min(self) -> float:
        return self._aggregate.min

    @property
    def max(self) -> float:
        return self._aggregate.max

    @property
    def values(self) -> np.ndarray:
        raise RuntimeError(
            "per-trial values are not kept under aggregate='streaming'; "
            "use the scalar statistics, or rerun with the default buffered "
            "aggregation (per-trial records also remain in the result store "
            "when one is configured)"
        )

    @property
    def completed_values(self) -> np.ndarray:
        raise RuntimeError(
            "per-trial values are not kept under aggregate='streaming'; "
            "use the scalar statistics, or rerun with the default buffered "
            "aggregation (per-trial records also remain in the result store "
            "when one is configured)"
        )


def summarise_values(
    values: Sequence[float], aggregate: str = "buffered"
) -> ReplicationSummary | StreamingReplicationSummary:
    """Build a replication summary from raw values (``-1`` = incomplete).

    ``aggregate="buffered"`` (default) keeps the value array and returns the
    classic :class:`ReplicationSummary` — bit-for-bit the historical
    behaviour.  ``aggregate="streaming"`` folds the values through a
    mergeable :class:`~repro.analysis.statistics.ReplicationAggregate` and
    returns the :class:`StreamingReplicationSummary` face instead.
    """
    if aggregate not in ("buffered", "streaming"):
        raise ValueError(
            f"aggregate must be 'buffered' or 'streaming', got {aggregate!r}"
        )
    if aggregate == "streaming":
        from repro.analysis.statistics import ReplicationAggregate

        total = ReplicationAggregate()
        for value in values:
            total.add(float(value))
        return StreamingReplicationSummary(total)
    arr = np.asarray(list(values), dtype=np.float64)
    return ReplicationSummary(
        values=arr,
        n_replications=arr.size,
        n_completed=int(np.count_nonzero(arr >= 0)),
    )


def replicate(
    factory: Callable[[np.random.Generator], float],
    n_replications: int,
    seed: SeedLike = None,
) -> ReplicationSummary:
    """Run ``factory(rng)`` with independent streams and summarise the results.

    ``factory`` must return a scalar measurement (``-1`` meaning "did not
    complete").  Under an active :func:`repro.exec.execution_override` the
    trials are sharded into work units (module-level factories run in worker
    processes; unpicklable factories fall back to in-process chunks) and
    inherit the executor's retry/timeout/crash-recovery policy.
    """
    from repro.exec.executor import map_replications

    n_replications = check_positive_int(n_replications, "n_replications")
    values = [float(v) for v in map_replications(factory, n_replications, seed)]
    return summarise_values(values)


@dataclass(frozen=True)
class RunOptions:
    """How replication runs execute; never what they compute.

    ``backend`` and ``connectivity`` force every run in scope onto one
    backend / engine (``None``: each config's own field decides) and
    ``executor`` shards runs through a :class:`~repro.exec.SweepExecutor`
    (``None``: inline).  Every combination is bit-for-bit identical.
    """

    backend: Optional[str] = None
    connectivity: Optional[str] = None
    executor: Optional[SweepExecutor] = None


#: The one run-options context.  Its only writer is
#: :func:`repro.exec.execution_override`; being context-local, each thread
#: sees its own options and no block can leak into another.
_RUN_OPTIONS: ContextVar[RunOptions] = ContextVar(
    "repro_run_options", default=RunOptions()
)


def current_run_options() -> RunOptions:
    """The :class:`RunOptions` of the innermost active ``execution_override``."""
    return _RUN_OPTIONS.get()


def resolve_backend(
    target: BroadcastConfig | GossipConfig | ProcessKernel, backend: Optional[str] = None
) -> str:
    """Resolve the effective backend (``"serial"``, ``"batched"`` or ``"compiled"``).

    ``target`` is a simulation config or a
    :class:`~repro.dissemination.kernels.ProcessKernel`.  The first of these
    that is set decides: the ``backend`` argument, the active
    :func:`~repro.exec.execution_override`, the config's ``backend`` field
    (``"auto"`` for a process kernel).  ``"auto"`` picks, among the backends
    the target supports (every process kernel supports all three), the
    compiled one when a :mod:`repro.compiled` provider is available on this
    host and the batched one otherwise.  An explicit
    ``"batched"``/``"compiled"`` request for an unsupported configuration
    (or, for ``"compiled"``, a host without any provider) raises when the
    runner is invoked, rather than silently falling back.
    """
    from repro.core.batched import supports_batched_broadcast, supports_batched_gossip

    choice = check_backend(
        _first_set(backend, current_run_options().backend, getattr(target, "backend", "auto"))
    )
    if choice != "auto":
        return choice
    if isinstance(target, BroadcastConfig) and not supports_batched_broadcast(target):
        return "serial"
    if isinstance(target, GossipConfig) and not supports_batched_gossip(target):
        return "serial"
    from repro.compiled import available as compiled_available

    return "compiled" if compiled_available() else "batched"


def resolve_connectivity(
    target: BroadcastConfig | GossipConfig | ProcessKernel, connectivity: Optional[str] = None
) -> str:
    """Resolve the effective engine (``"recompute"`` or ``"incremental"``).

    Precedence as in :func:`resolve_backend`: the ``connectivity``
    argument, then the active :func:`~repro.exec.execution_override`, then
    the config's ``connectivity`` field (``"auto"`` for a process kernel).
    ``"auto"`` picks the incremental engine where it is the faster choice:
    for label-consuming targets (every simulation, and process kernels whose
    ``needs`` is ``"labels"``) at every radius below 2 (the same-cell fast
    path at ``r = 0`` and the one-node-per-cell delta engine up to
    ``r = 1``); larger radii keep the recompute path, whose bucket-level
    candidate expansion wins once cells span several nodes and the edge set
    is dense.  Pair- and connectivity-free kernels have no label engine to
    maintain, so both choices are the same computation for them.  Engines
    are bit-for-bit interchangeable: the choice is purely a performance
    knob.
    """
    choice = check_connectivity(
        _first_set(
            connectivity,
            current_run_options().connectivity,
            getattr(target, "connectivity", "auto"),
        )
    )
    if choice != "auto":
        return choice
    if getattr(target, "needs", "labels") == "labels" and target.radius < 2:
        return "incremental"
    return "recompute"


def _first_set(*values: Optional[str]) -> str:
    return next(value for value in values if value is not None)


def check_rng_streams(rng_streams: Optional[Sequence], n_replications: int) -> None:
    """Validate an explicit per-trial stream list against the trial count."""
    if rng_streams is not None and len(rng_streams) != n_replications:
        raise ValueError(
            f"rng_streams must hold exactly {n_replications} generators, "
            f"got {len(rng_streams)}"
        )


def run_broadcast_replications(
    config: BroadcastConfig,
    n_replications: int,
    seed: SeedLike = None,
    backend: Optional[str] = None,
    *,
    connectivity: Optional[str] = None,
    rng_streams: Optional[Sequence[np.random.Generator]] = None,
) -> tuple[ReplicationSummary, list[BroadcastResult]]:
    """Run ``n_replications`` broadcast simulations and summarise ``T_B``.

    ``backend`` selects ``"serial"``, ``"batched"``, ``"compiled"`` or
    ``"auto"`` execution (default: the config's ``backend`` field); all
    backends produce bit-for-bit identical results for identical seeds.
    ``connectivity`` selects ``"recompute"``, ``"incremental"`` or ``"auto"`` component
    labelling the same way (default: the config's ``connectivity`` field);
    engines too are bit-for-bit interchangeable.

    ``rng_streams`` supplies one explicit generator per trial in place of
    :func:`~repro.util.rng.spawn_rngs` derivation — this is how executor
    work units run a chunk of the trial range on exactly the streams the
    full run would use.  When it is absent and a
    :func:`repro.exec.execution_override` is active, the run is sharded
    through the active :class:`~repro.exec.SweepExecutor`.
    """
    n_replications = check_positive_int(n_replications, "n_replications")
    check_rng_streams(rng_streams, n_replications)
    engine = resolve_connectivity(config, connectivity)
    executor = current_run_options().executor
    if rng_streams is None and executor is not None:
        return executor.run_replications(
            "broadcast", config, n_replications, seed,
            backend=resolve_backend(config, backend),
            connectivity=engine,
        )
    resolved = resolve_backend(config, backend)
    if resolved in ("batched", "compiled"):
        from repro.core.batched import run_broadcast_replications_batched

        return run_broadcast_replications_batched(
            config, n_replications, seed,
            rng_streams=rng_streams, connectivity=engine,
            compiled=resolved == "compiled",
        )
    rngs = rng_streams if rng_streams is not None else spawn_rngs(seed, n_replications)
    results = [
        BroadcastSimulation(config, rng=rng, connectivity=engine).run() for rng in rngs
    ]
    summary = summarise_values([res.broadcast_time for res in results])
    return summary, results


def run_gossip_replications(
    config: GossipConfig,
    n_replications: int,
    seed: SeedLike = None,
    backend: Optional[str] = None,
    *,
    connectivity: Optional[str] = None,
    rng_streams: Optional[Sequence[np.random.Generator]] = None,
) -> tuple[ReplicationSummary, list[GossipResult]]:
    """Run ``n_replications`` gossip simulations and summarise ``T_G``.

    ``backend`` selects ``"serial"``, ``"batched"``, ``"compiled"`` or
    ``"auto"`` execution (default: the config's ``backend`` field); all
    backends produce bit-for-bit identical results for identical seeds.
    ``connectivity``,
    ``rng_streams`` and the executor interception behave as in
    :func:`run_broadcast_replications`.
    """
    n_replications = check_positive_int(n_replications, "n_replications")
    check_rng_streams(rng_streams, n_replications)
    engine = resolve_connectivity(config, connectivity)
    executor = current_run_options().executor
    if rng_streams is None and executor is not None:
        return executor.run_replications(
            "gossip", config, n_replications, seed,
            backend=resolve_backend(config, backend),
            connectivity=engine,
        )
    resolved = resolve_backend(config, backend)
    if resolved in ("batched", "compiled"):
        from repro.core.batched import run_gossip_replications_batched

        return run_gossip_replications_batched(
            config, n_replications, seed,
            rng_streams=rng_streams, connectivity=engine,
            compiled=resolved == "compiled",
        )
    rngs = rng_streams if rng_streams is not None else spawn_rngs(seed, n_replications)
    results = [
        GossipSimulation(config, rng=rng, connectivity=engine).run() for rng in rngs
    ]
    summary = summarise_values([res.gossip_time for res in results])
    return summary, results
