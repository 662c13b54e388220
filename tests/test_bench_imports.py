"""The benchmark's worker imports helix names and builds its workloads'
configs from them; loading it here makes renaming or removing any of them
fail the tests, not only a benchmark run."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_worker_loads_and_builds_its_configs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the worker imports ``tracer`` from there
    had_tracer = "tracer" in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, worker)  # its dataclasses look it up
    try:
        spec.loader.exec_module(worker)
    finally:
        if not had_tracer:
            sys.modules.pop("tracer", None)
    assert set(worker.WORKLOADS) == {"paper-72", "toy-36", "train-toy"}
    for w in worker.WORKLOADS.values():
        assert w.scene().packets_per_rotation > 0
        assert w.model(0).seed == 0
        assert w.window_s > 0
