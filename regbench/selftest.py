"""Self-test of the registry benchmark, at ``tiny`` scale.

Runs every workload of ``BENCHMARK.json`` end to end through ``run.py``
with ``--scale tiny``, untraced and traced, and checks that

* every end-to-end and per-layer metric is emitted with its declared unit,
* no experiment run fails (``failed == 0``, ``failed_frac`` 0),
* a corrupted pinned digest is reported as a failure naming the experiment.

Run from the root of a checkout (about a minute)::

    python3 regbench/selftest.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(*args: str) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--scale", "tiny", "--seconds", "1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if out.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {out.returncode}:\n{out.stderr}")
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def _check_metrics(label: str, emitted: dict, declared: list[dict]) -> list[str]:
    problems = []
    expected = {m["name"]: m["unit"] for m in declared}
    if set(emitted) != set(expected):
        problems.append(
            f"{label}: missing {sorted(set(expected) - set(emitted))}, "
            f"undeclared {sorted(set(emitted) - set(expected))}"
        )
    for name, metric in emitted.items():
        if name in expected and metric["unit"] != expected[name]:
            problems.append(f"{label}: {name} unit {metric['unit']!r} != {expected[name]!r}")
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{label}: {name} value {metric['value']!r} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload['name']} trace={trace}"
            stdout, result = _run("--workload", workload["name"], "--trace", str(trace))
            problems += _check_metrics(label, result["metrics"], declared)
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            if not re.search(r"^\s+failed_frac\s+0 ratio", stdout, re.MULTILINE):
                problems.append(f"{label}: failed_frac line missing or non-zero")
            print(f"{label}: {result['attempted']} runs, {result['failed']} failed")

    # A corrupted pinned digest must surface as a failure naming the experiment.
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))
    digest = pinned["tiny"]["E3"]
    pinned["tiny"]["E3"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    corrupted = ROOT / ".regbench_work" / "tmp" / "pinned-corrupted.json"
    corrupted.parent.mkdir(parents=True, exist_ok=True)
    corrupted.write_text(json.dumps(pinned), encoding="utf-8")
    try:
        stdout, result = _run("--workload", "registry-small", "--seed", str(pinned["seed"]),
                              "--pinned", str(corrupted))
    finally:
        corrupted.unlink()
    if result["correct"] or result["failed"] < 1 or "FAILED E3" not in stdout:
        problems.append(f"corrupted pin not reported: correct={result['correct']} "
                        f"failed={result['failed']}")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
