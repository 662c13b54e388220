"""Fast self-test of the benchmark (about a minute on two cores).

    python3 perfbench/selftest.py

Runs every workload, timed and traced, on a tiny stream and checks that each
run exits 0, reports correct outputs, and emits exactly the metrics that
BENCHMARK.json names, with their units.  It also checks that a traced run's
labels matched the untraced run's, and that the benchmark refuses to run
without the helix sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_benchmark(root, workload, trace, seconds=1):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_run(spec, workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics {got} != {wanted}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{where}: {name} is not a number")
    if trace and detail.get("identical") is not True:
        errors.append(f"{where}: traced labels differ from untraced")
    for name, m in detail["metrics"].items():
        if "samples" not in m:
            errors.append(f"{where}: {name} has no sample count")
    return errors


def check_refuses_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/, the run must fail."""
    bare = ROOT / ".bench_build" / "perfbench-selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without sources: expected a non-zero exit and no result"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    errors = [] if sorted(names) == sorted(WORKLOADS) else [
        f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}"]
    for workload in names:
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    errors += check_refuses_without_sources()
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
