"""Layer tracer for the registry benchmark.

The tracer measures the program from outside: it wraps the public functions
and the public methods of every module in the traced ``repro`` packages,
records one span per call, and restores every patched attribute when it is
uninstalled, so the untraced (timed) passes run unpatched code.

A span's *layer* is the package that defines the wrapped function
(``repro.mobility.kernels.lazy_step`` -> ``mobility``), except that the
result store gets its own layer (``exec.store``) so that ``exec.self_s``
excludes store I/O.  A layer's self time is the sum of its spans' durations
minus the time covered by their child spans.

Spans are kept in memory as compact arrays (name, parent, start, end) and
written out by :meth:`Tracer.dump` when the benchmark ends.  Only calls made
by the benchmark's main thread in the benchmark's process are recorded:
spans inside pool workers (which inherit the patches through ``fork``) and
helper threads pass straight through and are not collected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import threading
import time
import types
import warnings
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

#: Packages of ``repro`` whose public functions are wrapped, one layer each.
LAYERS = (
    "walks",
    "mobility",
    "connectivity",
    "compiled",
    "core",
    "dissemination",
    "baselines",
    "exec",
    "exec.store",
    "analysis",
)

#: Modules never imported for tracing (deprecated shims that warn on import).
_SKIP_MODULES = ("repro.walks.engine",)


def _layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    if module_name == "repro.exec.store":
        return "exec.store"
    return parts[1] if parts[1] in LAYERS else None


def _shape(value: Any, axis: int) -> int:
    shape = getattr(value, "shape", None)
    return int(shape[axis]) if shape is not None and len(shape) > axis else 0


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


class _Group:
    """A set of functions whose outermost calls are timed and counted together."""

    __slots__ = ("depth", "calls", "seconds")

    def __init__(self) -> None:
        self.depth = 0
        self.calls = 0
        self.seconds = 0.0


class Tracer:
    """Install span-recording wrappers over the ``repro`` layers.

    Use as a context manager around the traced pass; on exit every patched
    class attribute, module attribute and module-level dict entry is put
    back.  Counters and groups feed ``run.layer_metrics``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.layers: list[str] = list(LAYERS)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_seconds: list[float] = []
        self.entries = [0] * len(self.layers)
        self.groups: dict[str, _Group] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    # -- counting ----------------------------------------------------------- #
    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def group(self, name: str) -> _Group:
        if name not in self.groups:
            self.groups[name] = _Group()
        return self.groups[name]

    # -- wrapping ----------------------------------------------------------- #
    def _wrap(self, fn: Callable, qualname: str, layer: str, probes: list) -> Callable:
        nid = len(self.names)
        self.names.append(qualname)
        layer_id = self.layers.index(layer)
        self.name_layer.append(layer_id)
        self.self_seconds.append(0.0)
        groups = tuple(self.group(g) for g, _ in probes)
        hooks = tuple(hook for _, hook in probes)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        self_seconds, entries = self.self_seconds, self.entries
        pid, thread = self._pid, self._thread
        getpid, get_ident, clock = os.getpid, threading.get_ident, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if get_ident() != thread or getpid() != pid:
                return fn(*args, **kwargs)
            sid = len(starts)
            if stack:
                parent = stack[-1]
                parents.append(parent[0])
                if parent[2] != layer_id:
                    entries[layer_id] += 1
            else:
                parents.append(-1)
                entries[layer_id] += 1
            names.append(nid)
            frame = [sid, 0.0, layer_id]
            stack.append(frame)
            if groups:
                outer = tuple(g for g in groups if g.depth == 0)
                for g in groups:
                    g.depth += 1
            ends.append(0.0)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[sid] = end
                stack.pop()
                duration = end - start
                self_seconds[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if groups:
                    for g in groups:
                        g.depth -= 1
                    for g in outer:
                        g.calls += 1
                        g.seconds += duration
            if groups:
                for g, hook in zip(groups, hooks):
                    if hook is not None and g in outer:
                        hook(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def install(self) -> "Tracer":
        import repro

        # Import every module first, traced or not: a module first imported
        # while the wrappers are installed would bind them for good.
        modules = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__") or info.name in _SKIP_MODULES:
                continue
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    module = importlib.import_module(info.name)
            except ImportError:
                continue  # optional providers (numba) absent on this host
            if _layer_of(info.name) is not None:
                modules.append(module)
        probes = _probes(self)
        replaced: dict[int, Callable] = {}
        for module in modules:
            layer = _layer_of(module.__name__)
            for name, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType) and not name.startswith("_"):
                    wrapper = self._wrap(
                        value, f"{module.__name__}.{name}", layer, probes(module, name)
                    )
                    replaced[id(value)] = wrapper
                    self._patch(module, name, wrapper)
                elif inspect.isclass(value):
                    self._wrap_class(value, module.__name__, layer, probes)
        # Callers that imported a function by name hold their own reference:
        # patch it where they look it up (module globals and module-level
        # dict tables).
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._patch(module, name, replaced[id(value)])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            self._patch(value, key, replaced[id(item)])
        return self

    def _wrap_class(self, cls: type, module_name: str, layer: str, probes) -> None:
        for name, value in list(cls.__dict__.items()):
            if name.startswith("_"):
                continue
            qualname = f"{module_name}.{cls.__name__}.{name}"
            if isinstance(value, types.FunctionType):
                self._patch(cls, name, self._wrap(value, qualname, layer, probes(cls, name)))
            elif isinstance(value, (staticmethod, classmethod)):
                inner = self._wrap(value.__func__, qualname, layer, probes(cls, name))
                self._patch(cls, name, type(value)(inner))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------- #
    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    def layer_self_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(self.layers, 0.0)
        for nid, seconds in enumerate(self.self_seconds):
            totals[self.layers[self.name_layer[nid]]] += seconds
        return totals

    def dump(self, path: Path) -> None:
        """Write the spans (binary arrays) and a name table next to them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as handle:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)
        table = {
            "spans": self.n_spans,
            "columns": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "names": self.names,
            "layers": [self.layers[i] for i in self.name_layer],
            "self_seconds": self.self_seconds,
        }
        path.with_suffix(".json").write_text(json.dumps(table), encoding="utf-8")


# --------------------------------------------------------------------------- #
# Probes: which wrapped functions feed which per-layer group and counter.
# --------------------------------------------------------------------------- #
def _probes(tracer: Tracer) -> Callable[[Any, str], list]:
    """A function mapping (owner, name) to its list of (group, hook) probes.

    The owner is the defining class or module.  A group times and counts the
    outermost calls among its members; a hook sees the arguments and the
    result of those outermost calls and feeds named counters.
    """
    from repro.compiled.engine import CompiledDeltaEngine
    from repro.connectivity.incremental import DeltaConnectivityEngine
    from repro.connectivity.spatial_hash import SpatialHash
    from repro.core.gossip import GossipSimulation
    from repro.core.simulation import BroadcastSimulation
    from repro.dissemination.kernels import ProcessKernel
    from repro.exec.store import ResultStore
    from repro.mobility.base import MobilityModel
    from repro.mobility.kernels import BatchStepper
    from repro.walks.meeting import MeetingExperiment
    from repro.walks.walkers import WalkEngine

    def counter(name: str, measure: Callable[[tuple, dict, Any], float]) -> Callable:
        def hook(args, kwargs, result):
            tracer.count(name, measure(args, kwargs, result))

        return hook

    def one(args, kwargs, result):
        return 1

    def replications(args, kwargs, result):
        return int(_arg(args, kwargs, 1, "n_replications"))

    def resolved(kind: str) -> Callable:
        def hook(args, kwargs, result):
            if isinstance(result, str):
                tracer.count(f"core.resolved.{kind}.{result}")

        return hook

    def n_pairs(args, kwargs, result):
        if isinstance(result, tuple):
            return _shape(result[0], 0)
        return _shape(result, 0)

    def store_get(args, kwargs, result):
        tracer.count("exec.store.hits", result is not None)
        return 1

    def store_put(args, kwargs, result):
        return len(result) if isinstance(result, list) else 1

    def probes(owner: Any, name: str) -> list:
        found: list = []
        if inspect.isclass(owner):
            if issubclass(owner, BatchStepper) and name == "step":
                found.append(("mobility.step", counter(
                    "mobility.agent_steps",
                    lambda a, k, r: _shape(_arg(a, k, 1, "positions"), 0)
                    * _shape(_arg(a, k, 1, "positions"), 1),
                )))
            if issubclass(owner, MobilityModel) and name == "step":
                found.append(("mobility.step", counter(
                    "mobility.agent_steps",
                    lambda a, k, r: _shape(_arg(a, k, 1, "positions"), 0),
                )))
            if issubclass(owner, ProcessKernel) and name in ("step", "step_batch"):
                found.append(("dissemination.step", None))
            if owner is SpatialHash and name in ("pairs_within", "candidate_pairs"):
                found.append(("connectivity.spatial_hash", counter("connectivity.pairs", n_pairs)))
            if issubclass(owner, DeltaConnectivityEngine) and name == "step":
                found.append(("connectivity.delta", None))
            if issubclass(owner, CompiledDeltaEngine) and name == "step":
                found.append(("compiled.delta", None))
            if owner is WalkEngine and name == "step_":
                found.append(("walks.step", counter("walks.steps", one)))
            if owner is MeetingExperiment and name == "run_trial":
                found.append(("walks.trial", counter("walks.trials", one)))
            if owner in (BroadcastSimulation, GossipSimulation) and name == "run":
                found.append(("core.entry", counter("core.replications", one)))
            if owner is ResultStore and name == "get":
                found.append(("exec.store.get", counter("exec.store.get_n", store_get)))
            if owner is ResultStore and name in ("put", "put_many"):
                found.append(("exec.store.put", counter("exec.store.put_n", store_put)))
            return found
        module = owner.__name__
        if module == "repro.walks.single" and name == "walk_trajectory":
            found.append(("walks.trial", counter("walks.trials", one)))
        if module == "repro.connectivity.batched" and name == "batched_visibility_labels":
            found.append(("connectivity.labels", None))
        if module == "repro.compiled.driver" and name == "run_broadcast_r0_fused":
            found.append(("compiled.fused", None))
        if module == "repro.core.protocol" and name.startswith("flood_"):
            found.append(("core.flood", None))
        if module == "repro.core.batched" and name.endswith("_replications_batched"):
            found.append(("core.entry", counter("core.replications", replications)))
        if module == "repro.dissemination.kernels" and name == "run_process_serial":
            found.append(("core.entry", counter("core.replications", one)))
        if name in ("resolve_backend", "resolve_process_backend"):
            found.append(("core.resolve", resolved("backend")))
        if name in ("resolve_connectivity", "resolve_process_connectivity"):
            found.append(("core.resolve", resolved("connectivity")))
        return found

    return probes
