"""Registry benchmark: wall time of the paper's experiments, end to end and by layer.

Run from the root of a checkout of the repository::

    python3 regbench/run.py --workload registry-small --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced pass
with ``--trace 1``.  See ``regbench/README.md`` for the metrics and the
workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".regbench_work"
PINNED = BENCH_DIR / "pinned.json"

#: Fresh interpreters timed for ``setup_s`` (warm kernel cache).
SETUP_SAMPLES = 3

_SETUP_SNIPPET = """
import json, time
start = time.perf_counter()
import repro.experiments
imported = time.perf_counter()
import repro.compiled
repro.compiled.available()
probed = time.perf_counter()
print(json.dumps({"import_s": imported - start, "probe_s": probed - imported}))
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_sample() -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure_setup() -> list[dict]:
    """Time ``SETUP_SAMPLES`` fresh interpreters (run after the passes, so
    their memory stays out of the passes' process-tree peak)."""
    return [_setup_sample() for _ in range(SETUP_SAMPLES)]


def import_program() -> dict:
    """Import ``repro`` in this process, building the kernel cache if it is cold.

    Returns metadata about the cache: the cold build time is recorded, not
    reported as a metric.
    """
    cache = Path(os.environ["REPRO_COMPILED_CACHE"])
    before = set(cache.glob("*.so"))
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import repro.experiments  # noqa: F401
    import repro.compiled

    imported = time.perf_counter()
    repro.compiled.available()
    probed = time.perf_counter()
    built = set(cache.glob("*.so")) - before
    return {
        "kernel_cache": str(cache.relative_to(ROOT)),
        "kernel_cache_was_warm": not built,
        "kernel_cold_build_s": probed - imported if built else None,
        "provider": repro.compiled.provider_name(),
        "in_process_import_s": imported - start,
    }


# --------------------------------------------------------------------------- #
# Provenance
# --------------------------------------------------------------------------- #
def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _filesystem_of(path: Path) -> str | None:
    best, fstype = "", None
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        return None
    return fstype


def provenance(args, workload, meta: dict, resolved: dict) -> dict:
    import multiprocessing

    import numpy

    return {
        "workload": workload.name,
        "scale": args.scale or workload.scale,
        "seed": args.seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "compiled_provider": meta.get("provider"),
        "store_filesystem": _filesystem_of(WORK) if workload.sharded else None,
        "resolved": resolved,
        **meta,
    }


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(tracer, traced, untraced_wall: float, setup: list[dict]) -> dict:
    """Per-layer metrics of the traced pass, every name present (0 where idle)."""
    from workloads import ALL_EXPERIMENTS

    self_s = tracer.layer_self_seconds()
    groups, counts = tracer.groups, tracer.counts

    def g_s(name: str) -> float:
        return groups[name].seconds if name in groups else 0.0

    def g_n(name: str) -> int:
        return groups[name].calls if name in groups else 0

    gets = counts.get("exec.store.get_n", 0)
    layer_id = tracer.layers.index
    values = {f"experiments.{eid}_s": (traced.experiment_s.get(eid, 0.0), "s") for eid in ALL_EXPERIMENTS}
    values.update({
        "walks.self_s": (self_s["walks"], "s"),
        "walks.trials": (counts.get("walks.trials", 0), "count"),
        "walks.steps": (counts.get("walks.steps", 0), "count"),
        "mobility.self_s": (self_s["mobility"], "s"),
        "mobility.calls": (g_n("mobility.step"), "count"),
        "mobility.agent_steps": (counts.get("mobility.agent_steps", 0), "count"),
        "connectivity.self_s": (self_s["connectivity"], "s"),
        "connectivity.calls": (tracer.entries[layer_id("connectivity")], "count"),
        "connectivity.spatial_hash_s": (g_s("connectivity.spatial_hash"), "s"),
        "connectivity.pairs": (counts.get("connectivity.pairs", 0), "count"),
        "connectivity.delta_s": (g_s("connectivity.delta"), "s"),
        "connectivity.labels_s": (g_s("connectivity.labels"), "s"),
        "compiled.self_s": (self_s["compiled"], "s"),
        "compiled.fused_s": (g_s("compiled.fused"), "s"),
        "compiled.fused_calls": (g_n("compiled.fused"), "count"),
        "compiled.delta_s": (g_s("compiled.delta"), "s"),
        "compiled.delta_calls": (g_n("compiled.delta"), "count"),
        "core.self_s": (self_s["core"], "s"),
        "core.flood_s": (g_s("core.flood"), "s"),
        "core.replications": (counts.get("core.replications", 0), "count"),
    })
    for kind, choices in (("backend", ("serial", "batched", "compiled")),
                          ("connectivity", ("recompute", "incremental"))):
        for choice in choices:
            name = f"core.resolved.{kind}.{choice}"
            values[name] = (counts.get(name, 0), "count")
    reports = traced.exec_reports
    values.update({
        "dissemination.self_s": (self_s["dissemination"], "s"),
        "dissemination.calls": (g_n("dissemination.step"), "count"),
        "baselines.self_s": (self_s["baselines"], "s"),
        "exec.self_s": (self_s["exec"], "s"),
        "exec.units": (sum(r.units for r in reports), "count"),
        "exec.executed": (sum(r.executed for r in reports), "count"),
        "exec.retries": (sum(r.retries for r in reports), "count"),
        "exec.store.get_n": (gets, "count"),
        "exec.store.get_s": (g_s("exec.store.get"), "s"),
        "exec.store.hit_ratio": (counts.get("exec.store.hits", 0) / gets if gets else 0.0, "ratio"),
        "exec.store.put_n": (counts.get("exec.store.put_n", 0), "count"),
        "exec.store.put_s": (g_s("exec.store.put"), "s"),
        "exec.resume_s": (traced.resume_s, "s"),
        "analysis.self_s": (self_s["analysis"], "s"),
        "setup.import_s": (_median(s["import_s"] for s in setup), "s"),
        "setup.probe_s": (_median(s["probe_s"] for s in setup), "s"),
        "trace.overhead_frac": (traced.wall_s / untraced_wall - 1.0, "ratio"),
        "trace.coverage": (sum(self_s.values()) / traced.wall_s, "ratio"),
        "trace.spans": (tracer.n_spans, "count"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def resolved_counts(tracer) -> dict:
    return {k: v for k, v in sorted(tracer.counts.items()) if k.startswith("core.resolved.")}


# --------------------------------------------------------------------------- #
# Main
# --------------------------------------------------------------------------- #
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; passes are whole, at least one runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default=None,
                        help="override the workload's scale (the self-test uses tiny)")
    parser.add_argument("--pinned", type=Path, default=PINNED,
                        help="pinned-digest file (the self-test passes a corrupted copy)")
    return parser.parse_args(argv)


def _installed_tracer_leftovers() -> list[str]:
    """Module attributes still bound to a tracer wrapper (must be none)."""
    leftovers = []
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, value in vars(module).items():
                if getattr(value, "__wrapped__", None) is not None and getattr(
                    value, "__code__", None
                ) is not None and value.__code__.co_name == "traced":
                    leftovers.append(f"{name}.{attr}")
    return leftovers


def _traced_pass(workload, scale, seed):
    from tracer import Tracer
    from workloads import run_pass

    tracer = Tracer()
    with tracer:
        result = run_pass(workload, scale, seed, WORK)
    leftovers = _installed_tracer_leftovers()
    if leftovers:
        raise RuntimeError(f"tracer left patched attributes behind: {leftovers}")
    return tracer, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"regbench: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS, DigestCheck, run_pass

    if args.workload not in WORKLOADS:
        print(f"regbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    scale = args.scale or workload.scale
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    (WORK / "kernels").mkdir(exist_ok=True)
    os.environ["REPRO_COMPILED_CACHE"] = str(WORK / "kernels")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    warnings.filterwarnings("ignore", message="numba is not installed")

    meta = import_program()  # the process is set up before any clock starts

    # Warm-up at tiny scale, traced: fills lazy imports and caches, checks the
    # tracer installs and uninstalls cleanly, and records the resolved
    # backend/engine choices for the provenance of untraced runs.
    pinned = json.loads(args.pinned.read_text(encoding="utf-8"))
    checks = {
        s: DigestCheck(s, args.seed, pinned, WORK / "ledger" / f"{s}-seed{args.seed}.json")
        for s in {"tiny", scale}
    }
    warm_tracer, warm = _traced_pass(workload, "tiny", args.seed)
    checks["tiny"].check(warm, "warm-up pass")
    resolved = {"scale": "tiny (warm-up pass)", **resolved_counts(warm_tracer)}
    del warm_tracer, warm

    check = checks[scale]
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(workload, scale, args.seed, WORK))
        check.check(passes[-1], f"pass {len(passes)}")
        if time.perf_counter() - begin + passes[-1].wall_s > args.seconds:
            break
    wall = _median(p.wall_s for p in passes)

    setup = measure_setup()
    if args.trace:
        tracer, traced = _traced_pass(workload, scale, args.seed)
        check.check(traced, "traced pass")
        resolved = {"scale": scale, **resolved_counts(tracer)}
        metrics = layer_metrics(tracer, traced, wall, setup)
        tracer.dump(WORK / "traces" / f"{workload.name}-{scale}-seed{args.seed}")
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": _median(p.cpu_s for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": _median(p.peak_rss_mb for p in passes), "unit": "MiB"},
            "setup_s": {"value": _median(s["import_s"] + s["probe_s"] for s in setup), "unit": "s"},
        }
    failures = [f for c in checks.values() for f in c.failures]
    attempted = sum(c.attempted for c in checks.values())
    for c in checks.values():
        c.save_ledger()
    failed = len(failures)
    failed_frac = failed / attempted
    record = {
        "provenance": provenance(args, workload, meta, resolved),
        "passes": [
            {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb,
             "resume_s": p.resume_s, "experiment_s": p.experiment_s}
            for p in passes
        ],
        "setup_samples": setup,
        "failed_frac": failed_frac,
        "failures": failures,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-{scale}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    for failure in failures:
        print(f"FAILED {failure}")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"{workload.name} scale={scale} seed={args.seed} passes={len(passes)}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':36s} {failed_frac:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
