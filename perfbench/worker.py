"""One benchmark step in its own process: generate inputs, or run a workload.

    python3 perfbench/worker.py generate --workload W --seed N --dir D
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 \
        --dir D --out result.json

``run.py`` starts both with BLAS pinned to one thread and ``src`` on the path.
The run step drives the stream through the public calls that
``helix.harness.eval_online`` makes (``iter_slices_from_packets``,
``SegmentationModel.segment_points``, ``ConfusionMatrix.update``), or the
training loop through ``augment_window`` and ``train_step``, and times each
call from outside.  Every loop is closed with one client: the next slice or
step starts when the previous one has finished.

The host is shared, and its speed drifts by 10-20 % over tens of seconds.  So
the run measures whole units of work (a pass of the stream, a rotation, a
cycle over the training windows), runs a fixed reference probe between
operations, and scales each unit's times to the speed the probe sees on the
reference host.  The raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import helix
from helix.harness import EvalConfig, iter_slices_from_packets
from helix.ingest import (
    SequentialPacketStream,
    SynthConfig,
    parse_packet_stream,
    synth_scene,
    write_packet_stream,
)
from helix.metrics import ConfusionMatrix
from helix.model import ModelConfig, SegmentationModel, load_checkpoint, save_checkpoint
from helix.training import (
    Adam,
    augment_window,
    toy_model_config,
    toy_scene_config,
    train_step,
    windows_from_packets,
)

from tracer import NullTracer, Tracer, instrument

SETUP_REPEATS = 11
PROBE_EVERY_S = 0.25         # longest stretch of operations between two host probes
TRAIN_WINDOW_SLICES = 3      # the acceptance criterion-8 window: three rotations
TRAIN_LR = 2e-3


@dataclass(frozen=True)
class Workload:
    kind: str                # "stream" or "train"
    scene: object            # () -> SynthConfig
    scene_seed: int          # the scene layout; fixed, so runs compare code, not layouts
    model: object            # seed -> ModelConfig
    slice_deg: float
    rotations: int           # rotations in the generated stream
    warmup_ops: int          # untimed ops first, so the heap has grown and caches are warm
    tiny_rotations: int      # the same, for the self-test
    unit_slices: int = 0     # slices in one unit of a stream workload; 0: the whole pass

    @property
    def dtheta(self):
        return float(np.deg2rad(self.slice_deg))

    @property
    def window_s(self):
        """Acquisition window of one slice, in seconds."""
        return EvalConfig(dtheta=self.dtheta).acquisition_window


WORKLOADS = {
    # the paper's model and scene; 3 rotations (15 slices) keep the buffer,
    # which pins each slice's autodiff graph, near a 2.9 GB peak at the seed
    "paper-72": Workload("stream", SynthConfig, 0,
                         lambda s: ModelConfig(seed=s, dtype="float32"),
                         72.0, 3, 15, 1),
    # warm-up fills the two-rotation buffer once; a unit is one rotation
    "toy-36": Workload("stream", toy_scene_config, 5,
                       lambda s: toy_model_config(seed=s, dtype="float32"),
                       36.0, 24, 20, 2, unit_slices=10),
    # the acceptance criterion-8 scene: its first six rotations give four
    # windows; a unit is one step on each of them
    "train-toy": Workload("train", toy_scene_config, 5, lambda s: toy_model_config(seed=s),
                          360.0, 6, 2, 4),
}


@dataclass
class Op:
    """One slice segmented or one training step."""

    ok: bool
    step_s: float = 0.0       # the segment_points or train_step call
    loop_s: float = 0.0       # the whole loop iteration: assembly or augmentation included
    sensor_s: float = 0.0     # acquisition time of the slices processed
    digest: str = ""          # predicted labels (stream) or loss (training)
    unit_end: bool = False    # the last op of a unit of work


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def generate(w: Workload, seed, rotations, out: Path):
    """The packet stream, and for the stream workloads a checkpoint of the seed's weights."""
    packets, _ = synth_scene(seed=w.scene_seed, n_rotations=rotations, config=w.scene())
    (out / "scene.pkts").write_bytes(write_packet_stream(packets))
    if w.kind == "stream":
        save_checkpoint(out / "model.ckpt", SegmentationModel(w.model(seed)))


def setup(w: Workload, seed, inputs: Path, tracer):
    """Parse the stream; load the checkpoint, or build windows, model and Adam."""
    with tracer.span("ingest.parse"):
        packets = parse_packet_stream((inputs / "scene.pkts").read_bytes())
    if w.kind == "stream":
        with tracer.span("model.load"):
            model = load_checkpoint(inputs / "model.ckpt")
        return packets, model
    windows = windows_from_packets(packets, w.dtheta, window_slices=TRAIN_WINDOW_SLICES,
                                   stride=1)
    if not windows:
        raise ValueError("stream too short for one training window")
    return windows, fresh_trainer(w, seed)


def fresh_trainer(w: Workload, seed):
    model = SegmentationModel(w.model(seed))
    return model, Adam(model.parameters(), lr=TRAIN_LR)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def stream_ops(w: Workload, model, packets, tracer):
    """Segment the stream slice by slice, restarting it from a fresh buffer at its end.

    A unit ends every ``w.unit_slices`` slices and at the end of the stream.
    The next slice is assembled before an op is handed out, so that the op
    knows whether it ends its unit; assembly counts towards the slice it makes.
    """
    op = 0
    while True:
        buffer = model.new_buffer()
        conf = ConfusionMatrix(model.cfg.n_classes)
        slices = iter_slices_from_packets(SequentialPacketStream(packets), w.dtheta)
        tracer.op = op
        slc, assemble_s = next_slice(slices, tracer)
        k = 0
        while slc is not None:
            tracer.op = op
            try:
                t1 = time.perf_counter()
                with tracer.span("model.segment"):
                    preds, scores = model.segment_points(slc, buffer)
                t2 = time.perf_counter()
                with tracer.span("metrics.update"):
                    conf.update(slc.points.label, preds)
                t3 = time.perf_counter()
                tracer.op = op + 1
                nxt, next_assemble_s = next_slice(slices, tracer)
            except Exception as exc:  # a failed slice counts and restarts the stream
                print(f"perfbench: slice {op} failed: {exc!r}", file=sys.stderr)
                yield Op(ok=False, unit_end=True)
                op += 1
                break
            k += 1
            yield Op(ok=slice_ok(slc, preds, scores, model.cfg.n_classes),
                     step_s=t2 - t1, loop_s=assemble_s + t3 - t1, sensor_s=w.window_s,
                     digest=hashlib.blake2b(preds.tobytes(), digest_size=16).hexdigest(),
                     unit_end=nxt is None or k == w.unit_slices)
            if k == w.unit_slices:
                k = 0
            slc, assemble_s = nxt, next_assemble_s
            op += 1
        del buffer, conf, slices
        gc.collect()


def next_slice(slices, tracer):
    """The next assembled slice, or None at the end of the stream, and the time taken."""
    t0 = time.perf_counter()
    with tracer.span("harness.assemble"):
        slc = next(slices, None)
    return slc, time.perf_counter() - t0


def slice_ok(slc, preds, scores, n_classes):
    """One finite score row per point, n_classes + 1 columns, labels in
    0..n_classes and no-echo points labelled 0."""
    n = len(slc.points)
    return bool(scores.shape == (n, n_classes + 1) and preds.shape == (n,)
                and np.isfinite(scores).all()
                and preds.min(initial=0) >= 0 and preds.max(initial=0) <= n_classes
                and not preds[slc.points.r <= 0].any())


def train_ops(w: Workload, windows, model, opt, seed, tracer):
    """Criterion-8 steps: the next window in turn, one augmentation draw, one
    train_step.  A unit is one step on each window."""
    rng = np.random.default_rng(seed)
    op = 0
    while True:
        tracer.op = op
        window = windows[op % len(windows)]
        try:
            t0 = time.perf_counter()
            with tracer.span("ingest.augment"):
                batch = augment_window(window, rng)
            t1 = time.perf_counter()
            with tracer.span("training.step"):
                loss = train_step([batch], model, opt)
            t2 = time.perf_counter()
        except Exception as exc:  # train_step raises on a non-finite loss
            print(f"perfbench: step {op} failed: {exc!r}", file=sys.stderr)
            yield Op(ok=False, unit_end=(op + 1) % len(windows) == 0)
        else:
            yield Op(ok=bool(np.isfinite(loss)), step_s=t2 - t1, loop_s=t2 - t0,
                     sensor_s=len(batch) * w.window_s, digest=float(loss).hex(),
                     unit_end=(op + 1) % len(windows) == 0)
        op += 1


def take(ops, seconds=None, count=None):
    """Ops until ``seconds`` have passed or ``count`` ops are done."""
    deadline = time.perf_counter() + seconds if seconds is not None else None
    out = []
    for op in ops:
        out.append(op)
        if count is not None and len(out) >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    ops.close()
    return out


def ops_for(w: Workload, state, seed, tracer):
    if w.kind == "stream":
        packets, model = state
        return stream_ops(w, model, packets, tracer)
    windows, (model, opt) = state
    return train_ops(w, windows, model, opt, seed, tracer)


def warm_up(w: Workload, state, seed, tiny):
    """Untimed ops on their own buffer or trainer, so the heap has grown to its
    working size and lazy imports are done before timing."""
    if w.kind == "train":
        state = (state[0], fresh_trainer(w, seed))
    take(ops_for(w, state, seed, NullTracer()), count=1 if tiny else w.warmup_ops)
    gc.collect()


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


class HostProbe:
    """A fixed piece of work, independent of helix, that tracks the host's speed.

    Its three parts mirror what helix spends its time on: interpreter work,
    many numpy calls on small arrays, and gathers and products on larger ones.
    They write into buffers allocated once and fit in a core's L2 cache, and
    each runs once untimed before it is timed, so the probe's time does not
    depend on what the benchmarked program left in the heap or the caches.
    ``REF_S`` holds each part's median time on the reference host, a 2-vCPU
    Intel Xeon VM at 2.1 GHz with numpy 2.4 and OpenBLAS on one thread.
    """

    REF_S = {"python": 0.0028, "small": 0.0015, "gather": 0.0033}

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w_small = (0.1 * rng.standard_normal((32, 32))).astype(np.float32)
        self.x_small = rng.standard_normal((64, 32)).astype(np.float32)
        self.y_small = np.empty_like(self.x_small)
        self.w_big = (0.2 * rng.standard_normal((16, 16))).astype(np.float32)
        self.x_big = rng.standard_normal((2048, 16)).astype(np.float32)
        self.y_big = np.empty_like(self.x_big)
        self.z_big = np.empty_like(self.x_big)
        self.index = rng.integers(0, len(self.x_big), len(self.x_big))
        self.parts = {"python": self._python, "small": self._small, "gather": self._gather}

    @staticmethod
    def _python():
        acc, table = 0, {}
        for i in range(20000):
            table[i & 255] = acc
            acc += i * 3 % 7

    def _small(self):
        for _ in range(300):
            np.matmul(self.x_small, self.w_small, out=self.y_small)
            np.tanh(self.y_small, out=self.y_small)

    def _gather(self):
        for _ in range(60):
            np.take(self.x_big, self.index, axis=0, out=self.y_big, mode="clip")
            np.matmul(self.y_big, self.w_big, out=self.z_big)
            np.tanh(self.z_big, out=self.z_big)

    def sample(self):
        """Seconds each part takes now, warm."""
        out = {}
        for name, part in self.parts.items():
            part()
            t0 = time.perf_counter()
            part()
            out[name] = time.perf_counter() - t0
        return out

    def speed(self, samples):
        """How much faster the host ran, during ``samples``, than the reference
        host: the geometric mean, over the parts, of the reference time over the
        mean time measured.  A time measured then, multiplied by this, is the
        time on the reference host."""
        logs = [np.log(np.mean([s[name] for s in samples]) / ref)
                for name, ref in self.REF_S.items()]
        return float(np.exp(-np.mean(logs)))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    """Whole units of work and the host probes taken while they ran."""

    ops: list
    probes: list


def measure(ops, seconds, probe):
    """Units of ops until ``seconds`` have passed and the current unit is done,
    with a host probe at the start, at the end of every unit and at least
    every ``PROBE_EVERY_S`` of operations."""
    deadline = time.perf_counter() + seconds
    units, current = [], Unit([], [probe.sample()])
    last = time.perf_counter()
    for op in ops:
        current.ops.append(op)
        if op.unit_end or time.perf_counter() - last >= PROBE_EVERY_S:
            current.probes.append(probe.sample())
            last = time.perf_counter()
        if op.unit_end:
            units.append(current)
            if last >= deadline:
                break
            current = Unit([], [])
    ops.close()
    return units


def timed_run(w: Workload, seed, seconds, inputs: Path, tiny):
    """Set-up repeated, a warm-up, then ``seconds`` of whole units.  Each set-up
    and each unit's mean step time and sensor rate are scaled to the reference
    host by the probes around them; the metrics are medians of those."""
    null = NullTracer()
    probe = HostProbe()
    for _ in range(3):
        probe.sample()
    setup_s, setup_raw_s = [], []
    for _ in range(SETUP_REPEATS):
        before = probe.sample()
        t0 = time.perf_counter()
        state = setup(w, seed, inputs, null)
        took = time.perf_counter() - t0
        setup_raw_s.append(took)
        setup_s.append(took * probe.speed([before, probe.sample()]))
    warm_up(w, state, seed, tiny)
    units = measure(ops_for(w, state, seed, null), seconds, probe)

    ops = [op for u in units for op in u.ops]
    good = [op for op in ops if op.ok]
    if not good:
        raise RuntimeError("no operation succeeded")
    step_ms, rate_x, raw_step_ms, raw_rate_x = [], [], [], []
    for u in units:
        done = [op for op in u.ops if op.ok]
        if not done:
            continue
        speed = probe.speed(u.probes)
        raw_step_ms.append(1e3 * statistics.fmean(op.step_s for op in done))
        raw_rate_x.append(sum(op.sensor_s for op in done) / sum(op.loop_s for op in done))
        step_ms.append(raw_step_ms[-1] * speed)
        rate_x.append(raw_rate_x[-1] / speed)
    steps_ms = np.array([1e3 * op.step_s for op in good])
    p95 = float(np.percentile(steps_ms, 95))
    n = len(step_ms)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "step_ms_p50": metric(statistics.median(step_ms), "ms", n, ops=len(good)),
        "sensor_rate_x": metric(statistics.median(rate_x), "x", n, ops=len(good)),
        "peak_rss_mb": metric(peak_rss_mb(), "MB", 1),
        "raw.setup_s": metric(statistics.median(setup_raw_s), "s", len(setup_raw_s)),
        "raw.step_ms_p50": metric(statistics.median(raw_step_ms), "ms", n),
        "raw.sensor_rate_x": metric(statistics.median(raw_rate_x), "x", n),
        "raw.op_step_ms_p50": metric(float(np.median(steps_ms)), "ms", len(good)),
        "raw.op_step_ms_p95": metric(p95, "ms", len(good),
                                     beyond=int(np.count_nonzero(steps_ms > p95))),
        "host.speed": metric(probe.speed([p for u in units for p in u.probes]), "x",
                             sum(len(u.probes) for u in units)),
    }
    return {"ops": ops, "metrics": metrics}


def traced_run(w: Workload, seed, seconds, inputs: Path, tiny, trace_path: Path):
    """Untraced ops for half the time, then the same ops traced; outputs must agree."""
    tracer = Tracer()
    state = setup(w, seed, inputs, tracer)
    warm_up(w, state, seed, tiny)
    state_a = state if w.kind == "stream" else (state[0], fresh_trainer(w, seed))
    plain = take(ops_for(w, state_a, seed, NullTracer()), seconds=seconds / 2)
    state_b = state if w.kind == "stream" else (state[0], fresh_trainer(w, seed))
    model_b = state_b[1] if w.kind == "stream" else state_b[1][0]
    instrument(tracer, model_b)
    try:
        traced = take(ops_for(w, state_b, seed, tracer), count=len(plain))
    finally:
        tracer.restore()
    tracer.write(trace_path)

    identical = [op.digest for op in plain] == [op.digest for op in traced]
    if w.kind == "train":
        identical &= params_digest(state_a[1][0]) == params_digest(model_b)
    n = len(traced)
    overhead_s = sum(op.loop_s for op in traced) - sum(op.loop_s for op in plain)
    spans = tracer.totals()
    counts = tracer.counts

    def per_op_ms(name, key="total_s"):
        return metric(1e3 * spans.get(name, {}).get(key, 0.0) / n, "ms", n)

    def per_call_ms(name):
        row = spans.get(name, {"calls": 0, "total_s": 0.0})
        return metric(1e3 * row["total_s"] / max(row["calls"], 1), "ms", row["calls"])

    def per_op_count(name):
        return metric(counts.get(name, 0.0) / n, "count", n)

    dense = counts.get("attention.dense_pairs", 0.0)
    metrics = {
        "ingest.parse_ms": per_call_ms("ingest.parse"),
        "ingest.augment_ms": per_op_ms("ingest.augment"),
        "harness.assemble_ms": per_op_ms("harness.assemble"),
        "harness.points": per_op_count("harness.points"),
        "geometry.descriptors_ms": per_op_ms("geometry.descriptors"),
        "geometry.voxelize_ms": per_op_ms("geometry.voxelize"),
        "geometry.cells_l1": per_op_count("geometry.cells_l1"),
        "autodiff.point_mlp_ms": per_op_ms("autodiff.point_mlp"),
        "autodiff.head_ms": per_op_ms("autodiff.head"),
        "autodiff.nodes": per_op_count("autodiff.nodes"),
        "autodiff.backward_ms": per_op_ms("autodiff.backward"),
        "sparseconv.conv_ms": per_op_ms("sparseconv.conv"),
        "sparseconv.conv_calls": metric(spans.get("sparseconv.conv", {}).get("calls", 0) / n,
                                        "count", n),
        "sparseconv.strided_ms": per_op_ms("sparseconv.strided"),
        "sparseconv.cells_l2": per_op_count("sparseconv.cells_l2"),
        "sparseconv.cells_l3": per_op_count("sparseconv.cells_l3"),
        "attention.forward_ms": per_op_ms("attention.forward"),
        "attention.mask_ms": per_op_ms("attention.mask"),
        "attention.tokens": per_op_count("attention.tokens"),
        "attention.buffered_tokens": per_op_count("attention.buffered_tokens"),
        "attention.pairs": per_op_count("attention.pairs"),
        "attention.pair_ratio": metric(counts.get("attention.pairs", 0.0) / dense
                                       if dense else 0.0, "ratio", n),
        "model.forward_ms": per_op_ms("model.forward"),
        "model.self_ms": per_op_ms("model.forward", "self_s"),
        "model.load_ms": per_call_ms("model.load"),
        "losses.loss_ms": per_op_ms("losses.loss"),
        "metrics.update_ms": per_op_ms("metrics.update"),
        "training.step_ms": per_op_ms("training.step"),
        "training.adam_ms": per_op_ms("training.adam"),
        "trace.overhead_ms": metric(1e3 * overhead_s / n, "ms", n),
    }
    return {"ops": plain + traced, "metrics": metrics, "identical": identical,
            "spans": dict(sorted(spans.items()))}


def params_digest(model):
    h = hashlib.blake2b(digest_size=16)
    for _, t in model.parameters():
        h.update(t.data.tobytes())
    return h.hexdigest()


def metric(value, unit, samples, **extra):
    return {"value": float(value), "unit": unit, "samples": int(samples), **extra}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("step", choices=["generate", "run"])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--trace-file", type=Path)
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.step == "generate":
        generate(w, args.seed, w.tiny_rotations if args.tiny else w.rotations, args.dir)
        return 0

    env = environment()
    if env["blas_threads"] not in (None, 1):
        raise SystemExit(f"perfbench: BLAS runs {env['blas_threads']} threads, expected 1")
    if args.trace:
        result = traced_run(w, args.seed, args.seconds, args.dir, args.tiny, args.trace_file)
    else:
        result = timed_run(w, args.seed, args.seconds, args.dir, args.tiny)
    ops = result.pop("ops")
    failed = sum(not op.ok for op in ops)
    result.update(attempted=len(ops), failed=failed,
                  correct=failed == 0 and result.get("identical", True),
                  step="train_step" if w.kind == "train" else "segment_points",
                  env=env, helix=str(Path(helix.__file__).parent))
    result["metrics"]["fail_frac"] = metric(failed / len(ops), "ratio", len(ops))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
