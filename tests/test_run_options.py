"""Contract tests for the one run-options context and its resolvers.

``repro.exec.execution_override`` is the only writer of the run options
(backend, connectivity engine, executor); ``resolve_backend`` and
``resolve_connectivity`` are the only resolvers, for simulation configs and
process kernels alike.  These tests pin

* the ``auto`` picks, as one table over target × radius × provider;
* the precedence: explicit argument > inner context > outer context >
  config field, with a ``None`` field inheriting from the enclosing block;
* thread isolation: each thread sees only its own block.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.config import BroadcastConfig, GossipConfig
from repro.core.runner import (
    RunOptions,
    current_run_options,
    resolve_backend,
    resolve_connectivity,
)
from repro.dissemination.kernels import CoverProcess, FrogProcess, PredatorPreyProcess
from repro.exec import current_executor, execution_override
from repro.exec.executor import _suspended_override
from repro.util.validation import ValidationError

RADII = (0.0, 1.0, 1.99, 2.0, 3.0)
INC, REC = "incremental", "recompute"

#: The ``auto`` picks: target -> (backend with a compiled provider, backend
#: without one, engine at each radius of ``RADII``).
AUTO_PICKS = {
    "broadcast": ("compiled", "batched", (INC, INC, INC, REC, REC)),
    "broadcast+frontier": ("serial", "serial", (INC, INC, INC, REC, REC)),
    "gossip": ("compiled", "batched", (INC, INC, INC, REC, REC)),
    "frog (labels)": ("compiled", "batched", (INC, INC, INC, REC, REC)),
    # Predator–prey consumes labels at r = 0 and capture pairs above it.
    "predator-prey (pairs)": ("compiled", "batched", (INC, REC, REC, REC, REC)),
    "cover (none)": ("compiled", "batched", (REC, REC, REC, REC, REC)),
}


def make_target(name: str, radius: float):
    if name == "broadcast":
        return BroadcastConfig(n_nodes=100, n_agents=4, radius=radius)
    if name == "broadcast+frontier":
        return BroadcastConfig(n_nodes=100, n_agents=4, radius=radius, record_frontier=True)
    if name == "gossip":
        return GossipConfig(n_nodes=100, n_agents=4, radius=radius)
    if name == "frog (labels)":
        return FrogProcess(n_nodes=100, n_agents=4, radius=radius)
    if name == "predator-prey (pairs)":
        return PredatorPreyProcess(
            n_nodes=100, n_predators=2, n_preys=2, capture_radius=radius
        )
    return CoverProcess(side=10, n_walkers=4, max_steps=10)


@pytest.mark.parametrize("provider", ["python", "none"])
@pytest.mark.parametrize("name", sorted(AUTO_PICKS))
def test_auto_picks_match_the_table(name, provider, provider_env):
    provider_env(provider)
    with_provider, without_provider, engines = AUTO_PICKS[name]
    backend = with_provider if provider == "python" else without_provider
    for radius, engine in zip(RADII, engines):
        target = make_target(name, radius)
        assert (resolve_backend(target), resolve_connectivity(target)) == (backend, engine), (
            name,
            radius,
            provider,
        )


def test_precedence_argument_inner_outer_field(provider_env):
    provider_env("none")
    config = BroadcastConfig(
        n_nodes=100, n_agents=4, radius=1.0, backend="serial", connectivity="recompute"
    )
    frog = FrogProcess(n_nodes=100, n_agents=4, radius=1.0)
    assert (resolve_backend(config), resolve_connectivity(config)) == ("serial", REC)
    with execution_override(backend="batched", connectivity="incremental"):
        assert (resolve_backend(config), resolve_connectivity(config)) == ("batched", INC)
        with execution_override(backend="compiled"):
            # The inner block sets the backend; its None connectivity inherits.
            assert current_run_options() == RunOptions("compiled", INC, None)
            assert (resolve_backend(config), resolve_connectivity(config)) == ("compiled", INC)
            assert resolve_backend(frog) == "compiled"
            assert resolve_backend(config, "serial") == "serial"
            assert resolve_connectivity(config, "recompute") == REC
            assert resolve_connectivity(frog, "recompute") == REC
        assert resolve_backend(config) == "batched"
        with execution_override(backend="auto", connectivity="auto"):
            # "auto" in the context beats the config field and re-enables the pick.
            assert (resolve_backend(config), resolve_connectivity(config)) == ("batched", INC)
    assert (resolve_backend(config), resolve_connectivity(config)) == ("serial", REC)
    assert current_run_options() == RunOptions()


class _ClosingStub:
    """Stands in for a SweepExecutor: records close() calls only."""

    def __init__(self) -> None:
        self.closed = 0

    def close(self) -> None:
        self.closed += 1


def test_executor_field_inherits_and_only_its_installer_closes_it():
    outer, inner = _ClosingStub(), _ClosingStub()
    with execution_override(outer, backend="serial"):
        with execution_override(connectivity="recompute"):
            assert current_run_options() == RunOptions("serial", REC, outer)
        assert outer.closed == 0
        with execution_override(inner):
            assert current_executor() is inner
            assert current_run_options().backend == "serial"
        assert inner.closed == 1
        assert current_executor() is outer
        # The work-unit recursion guard clears the executor field only.
        with _suspended_override():
            assert current_run_options() == RunOptions("serial", None, None)
        assert outer.closed == 0
    assert outer.closed == 1
    assert current_run_options() == RunOptions()


def test_invalid_options_rejected():
    with pytest.raises(ValidationError):
        with execution_override(backend="gpu"):
            pass
    with pytest.raises(ValidationError):
        with execution_override(connectivity="magic"):
            pass
    assert current_run_options() == RunOptions()


def test_threads_see_only_their_own_block():
    # Regression: the backend/connectivity options were process globals, so a
    # thread resolved another thread's value and an exit restored the wrong
    # one.  The two threads run in lockstep so their blocks overlap.
    config = BroadcastConfig(n_nodes=100, n_agents=4, radius=1.0)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen: dict[str, object] = {}

    def thread_a() -> None:
        with execution_override(backend="serial", connectivity="recompute"):
            a_in.set()
            b_in.wait(10)
            seen["a_inside"] = (resolve_backend(config), resolve_connectivity(config))
        seen["a_after"] = current_run_options()
        a_out.set()

    def thread_b() -> None:
        a_in.wait(10)
        with execution_override(backend="batched", connectivity="incremental"):
            b_in.set()
            a_out.wait(10)
            seen["b_inside"] = (resolve_backend(config), resolve_connectivity(config))
        seen["b_after"] = current_run_options()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive()
    assert seen == {
        "a_inside": ("serial", REC),
        "a_after": RunOptions(),
        "b_inside": ("batched", INC),
        "b_after": RunOptions(),
    }
    assert current_run_options() == RunOptions()
