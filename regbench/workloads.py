"""Workloads of the registry benchmark and the pass that runs one of them.

A *pass* is one closed-loop sweep over a workload's experiments: a single
client runs one experiment at a time through
``repro.experiments.run_experiment(eid, scale, seed)`` and waits for its
report before starting the next.  The pass measures its own wall time, the
CPU time of the process tree and the peak resident memory, and returns the
reports' digests for the correctness check.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

ALL_EXPERIMENTS = tuple(f"E{i}" for i in range(1, 18))

#: Worker processes of the sharded workload (fixed, so the workload does not
#: depend on the host; the reference host has two CPUs).
SHARDED_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str
    experiments: tuple[str, ...]
    sharded: bool


#: Why each workload exists is stated in ``BENCHMARK.json`` and the README.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("registry-small", "small", ALL_EXPERIMENTS, False),
        Workload(
            "sim-paper",
            "paper",
            tuple(e for e in ALL_EXPERIMENTS if e not in ("E5", "E15")),
            False,
        ),
        Workload("sharded-small", "small", ALL_EXPERIMENTS, True),
    )
}


def report_digest(report: Any) -> str:
    """SHA-256 of the report as canonical JSON."""
    from repro.util.serialization import to_jsonable

    text = json.dumps(to_jsonable(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Process-tree resource accounting
# --------------------------------------------------------------------------- #
def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _reset_peak_rss() -> None:
    """Reset this process's peak-RSS mark (Linux ``clear_refs``), where supported."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def _own_peak_kib() -> int:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_rss_mib() -> float:
    """Largest peak RSS of this process and of every child reaped so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(_own_peak_kib(), children) / 1024.0


# --------------------------------------------------------------------------- #
# One pass
# --------------------------------------------------------------------------- #
@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    resume_s: float = 0.0
    experiment_s: dict[str, float] = field(default_factory=dict)
    #: ``(eid, phase, digest or None, error or None)`` per experiment run.
    runs: list[tuple[str, str, Optional[str], Optional[str]]] = field(default_factory=list)
    exec_reports: list[Any] = field(default_factory=list)


def _run_experiments(workload: Workload, scale: str, seed: int, result: PassResult, phase: str):
    from repro.experiments import run_experiment

    reports = []
    for eid in workload.experiments:
        start = time.perf_counter()
        try:
            reports.append((eid, run_experiment(eid, scale=scale, seed=seed), None))
        except Exception:  # a failing experiment is counted, the pass goes on
            reports.append((eid, None, traceback.format_exc()))
        result.experiment_s[eid] = result.experiment_s.get(eid, 0.0) + (
            time.perf_counter() - start
        )
    return [(eid, phase, report, error) for eid, report, error in reports]


def run_pass(workload: Workload, scale: str, seed: int, work_dir: Path) -> PassResult:
    """Run ``workload`` once and measure it; the digests are taken after the clock stops."""
    from repro.exec import SweepExecutor, execution_override

    store = work_dir / f"store-{os.getpid()}"
    shutil.rmtree(store, ignore_errors=True)
    gc.collect()
    _reset_peak_rss()
    result = PassResult(0.0, 0.0, 0.0)
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    if not workload.sharded:
        outcomes = _run_experiments(workload, scale, seed, result, "inline")
    else:
        # One executor per sweep, as ``repro run all --jobs 2 --resume DIR``
        # does; closing it joins (and so reaps) the pool workers.
        with SweepExecutor.from_options(jobs=SHARDED_JOBS, store=str(store)) as executor:
            with execution_override(executor):
                outcomes = _run_experiments(workload, scale, seed, result, "pool")
            result.exec_reports.append(executor.execution_report())
        resume_start = time.perf_counter()
        with SweepExecutor.from_options(jobs=SHARDED_JOBS, store=str(store)) as executor:
            with execution_override(executor):
                outcomes += _run_experiments(workload, scale, seed, result, "resume")
            result.exec_reports.append(executor.execution_report())
        result.resume_s = time.perf_counter() - resume_start
    result.wall_s = time.perf_counter() - start
    result.cpu_s = _cpu_seconds() - cpu0
    result.peak_rss_mb = _peak_rss_mib()
    shutil.rmtree(store, ignore_errors=True)
    for eid, phase, report, error in outcomes:
        digest = report_digest(report) if report is not None else None
        result.runs.append((eid, phase, digest, error))
    return result


# --------------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------------- #
class DigestCheck:
    """Compares each experiment run's digest with every reference it has.

    References: the pinned digests (default seed only), the first digest of
    the same experiment in this run (repeat passes, the resume pass and the
    traced pass must agree with it), and the ledger of digests earlier runs
    in this checkout recorded for the same scale and seed — which is how
    ``registry-small`` and ``sharded-small`` are held to identical reports
    at any seed.
    """

    def __init__(self, scale: str, seed: int, pinned: dict, ledger_path: Path) -> None:
        self.pinned = pinned.get(scale, {}) if seed == pinned.get("seed") else {}
        self.ledger_path = ledger_path
        try:
            self.ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.ledger = {}
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, result: PassResult, label: str) -> None:
        for eid, phase, digest, error in result.runs:
            self.attempted += 1
            where = f"{eid} ({label}, {phase})"
            if digest is None:
                last = (error or "").strip().splitlines()[-1:]
                self.failures.append(f"{where}: raised {' '.join(last)}")
                continue
            references = (
                ("pinned", self.pinned.get(eid)),
                ("first pass", self.first.get(eid)),
                ("ledger", self.ledger.get(eid)),
            )
            for name, expected in references:
                if expected is not None and expected != digest:
                    self.failures.append(
                        f"{where}: digest {digest[:12]} != {name} {expected[:12]}"
                    )
                    break
            self.first.setdefault(eid, digest)

    def save_ledger(self) -> None:
        """Record this run's digests for later runs (never overwrites an entry)."""
        merged = {**self.first, **self.ledger}
        self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.ledger_path.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.ledger_path)
