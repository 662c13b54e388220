"""helix benchmark: one workload, one seed, measured in its own process.

    python3 perfbench/run.py --workload paper-72 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The inputs are made from the seed: a ``.pkts``
packet stream and, for the stream workloads, a checkpoint, written under
``.bench_build/perfbench`` and removed afterwards.  A second process, with BLAS
pinned to one thread, then runs the workload for ``--seconds`` and checks its
outputs.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics that BENCHMARK.json names with ``--trace 0``,
and the per-layer metrics of a traced run with ``--trace 1``.  The line before
it holds every metric the run measured with its sample count, the
environment and, for a traced run, each span's calls and inclusive and self
time; the spans themselves go to ``.bench_build/perfbench/traces``.

The end-to-end times are measured over whole units of work and scaled to the
speed of a reference host, which a fixed probe measures between operations
(see ``worker.HostProbe``): the shared host's own speed drifts by 10-20 % over
tens of seconds.  The detail line also holds the unscaled (``raw.``) figures.

Workloads (all closed loops with one client):

* ``paper-72``: the paper model in float32 on the default synthetic scene,
  72-degree slices.
* ``toy-36``: the toy model in float32 on the toy scene, 36-degree slices.
* ``train-toy``: the toy model in float64, training steps on three-rotation
  windows of 360-degree slices, as in acceptance criterion 8.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-72", "toy-36", "train-toy")
TIMEOUT_S = 170        # the whole run, both child processes included
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a short stream, for the self-test only")
    return p.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S
    if not (ROOT / "src" / "helix" / "__init__.py").is_file():
        return fail(f"no helix sources under {ROOT / 'src'}; run from a helix checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, **PINNED_THREADS, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    base = ROOT / ".bench_build" / "perfbench"
    work = base / f"run-{os.getpid()}"
    traces = base / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
    if args.tiny:
        common.append("--tiny")
    trace_file = traces / f"{args.workload}-seed{args.seed}.jsonl"
    out = work / "result.json"
    worker = [sys.executable, "-s", str(HERE / "worker.py")]
    try:
        for step in (["generate"], ["run", "--seconds", str(args.seconds),
                                    "--trace", str(args.trace), "--out", str(out),
                                    "--trace-file", str(trace_file)]):
            subprocess.run(worker + step + common, env=env, check=True, stdout=sys.stderr,
                           timeout=max(1.0, deadline - time.monotonic()))
        result = json.loads(out.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(f"{args.workload}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    wrong = [m["name"] for m in wanted
             if m["name"] in measured and measured[m["name"]]["unit"] != m["unit"]]
    if missing or wrong:
        return fail(f"metrics missing {missing}, with another unit {wrong}")

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **{k: v for k, v in result.items() if k != "metrics"},
              "metrics": measured}
    if args.trace:
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
