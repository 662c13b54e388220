"""Online evaluation: sequential slice processing with latency accounting.

The packets go through a forward-only cursor into the one slicer,
:func:`helix.geometry.iter_slices`, which draws a packet only when it needs
it: the loop provably never touches data released after the slice it is
working on, and a stream whose head angle runs backwards raises
:class:`~helix.ingest.StreamOrderError`.  One replay clock serves every run:

* A slice is released when its last point is (``Slice.t_last``).  It starts
  at ``max(release, previous slice's finish)``: compute slower than the
  sensor builds a queue, and the waiting counts against latency.
* Its duration, measured by a zero-argument timer, covers pulling the slice
  from the packet stream (assembly, also reported as ``preprocess``) and
  ``segment_points``.  Its latency is ``finish - release``.
* The report gives the mean, p50, p95 and max latency, and ``max_queue``: the
  largest number of later slices already released when a slice starts.

The timer defaults to ``time.perf_counter``; a test passes a fake counter its
model double advances, and only then is a run bit-reproducible.  The
real-time verdict compares mean latency against the slice acquisition window
(``rotation_period * dtheta / 2pi``): processing slower than acquisition
falls behind the sensor.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import iter_slices
from .ingest import ROTATION_PERIOD, TWO_PI, SequentialPacketStream
from .metrics import ConfusionMatrix


@dataclass
class EvalConfig:
    dtheta: float = TWO_PI / 5
    rotation_period: float = ROTATION_PERIOD
    skip_rotations: int = 0         # warm-up rotations excluded from metrics

    def __post_init__(self):
        if not (0.0 < self.dtheta <= TWO_PI + 1e-12):
            raise ValueError("dtheta must lie in ]0, 2*pi]")

    @property
    def acquisition_window(self):
        return self.rotation_period * self.dtheta / TWO_PI


@dataclass
class LatencyReport:
    dtheta: float
    acquisition_window: float          # seconds per slice, nominal
    inference: list = field(default_factory=list)    # per-slice finish - release, s
    preprocess: list = field(default_factory=list)   # per-slice assembly seconds
    max_queue: int = 0     # most later slices already released when one starts
    miou: float = float("nan")

    @property
    def mean_inference(self):
        return float(np.mean(self.inference)) if self.inference else 0.0

    @property
    def min_inference(self):
        return float(np.min(self.inference)) if self.inference else 0.0

    @property
    def max_inference(self):
        return float(np.max(self.inference)) if self.inference else 0.0

    @property
    def std_inference(self):
        return float(np.std(self.inference)) if self.inference else 0.0

    def inference_percentile(self, q):
        return float(np.percentile(self.inference, q)) if self.inference else 0.0

    @property
    def mean_preprocess(self):
        return float(np.mean(self.preprocess)) if self.preprocess else 0.0

    @property
    def real_time(self):
        return bool(self.mean_inference <= self.acquisition_window)

    def row(self):
        return {
            "slice_pct": float(100.0 * self.dtheta / TWO_PI),
            "slice_deg": float(np.rad2deg(self.dtheta)),
            "acquisition_ms": float(1e3 * self.acquisition_window),
            "inference_mean_ms": float(1e3 * self.mean_inference),
            "inference_min_ms": float(1e3 * self.min_inference),
            "inference_max_ms": float(1e3 * self.max_inference),
            "inference_std_ms": float(1e3 * self.std_inference),
            "preprocess_mean_ms": float(1e3 * self.mean_preprocess),
            "total_latency_ms": float(1e3 * total_latency(self)),
            "miou": float(self.miou),
            "real_time": self.real_time,
            "inference_p50_ms": float(1e3 * self.inference_percentile(50)),
            "inference_p95_ms": float(1e3 * self.inference_percentile(95)),
            "max_queue": self.max_queue,
        }


def total_latency(report: LatencyReport) -> float:
    """Acquisition plus mean inference, in seconds."""
    return report.acquisition_window + report.mean_inference


def iter_slices_from_packets(stream: SequentialPacketStream, dtheta):
    """:func:`~helix.geometry.iter_slices` over the stream's packets, each read
    through the forward-only cursor only when the slicer asks for it."""
    return iter_slices((stream.read(i).points for i in range(len(stream))), dtheta)


def eval_online(model, packets, cfg: EvalConfig, timer=time.perf_counter):
    """Run the online protocol; returns (ConfusionMatrix, LatencyReport).

    ``model`` needs ``new_buffer()``, ``segment_points(slice, buffer)`` and
    ``cfg.n_classes``.  ``timer`` is a zero-argument counter in seconds; a
    test passes one its model double advances to inject exact durations.
    """
    stream = SequentialPacketStream(packets)
    buffer = model.new_buffer()
    conf = ConfusionMatrix(model.cfg.n_classes)
    report = LatencyReport(cfg.dtheta, cfg.acquisition_window)
    releases, starts = [], []
    finish = float("-inf")
    t0 = timer()
    for slc in iter_slices_from_packets(stream, cfg.dtheta):
        t_assembled = timer()
        preds, _ = model.segment_points(slc, buffer)
        start = max(slc.t_last, finish)
        finish = start + (timer() - t0)
        releases.append(slc.t_last)
        starts.append(start)
        report.inference.append(finish - slc.t_last)
        report.preprocess.append(t_assembled - t0)
        if slc.rotation_index >= cfg.skip_rotations:
            conf.update(slc.points.label, preds)
        t0 = timer()
    # releases are in stream order, so the slices released by a start form a prefix
    queued = np.searchsorted(releases, starts, side="right") - np.arange(1, len(starts) + 1)
    report.max_queue = int(queued.max(initial=0))
    report.miou = conf.miou()
    return conf, report


def bench_latency(model, packets, cfg: EvalConfig, dthetas):
    """One eval_online per slice size; rows suit the latency-vs-slice plot."""
    dthetas = list(dthetas)
    if not dthetas:
        raise ValueError("sweep must contain at least one slice size")
    return [eval_online(model, packets, dataclasses.replace(cfg, dtheta=float(dt)))[1]
            for dt in dthetas]


def reports_to_csv(reports):
    rows = [r.row() for r in reports]
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def reports_to_jsonl(reports):
    return "\n".join(json.dumps(r.row()) for r in reports) + "\n"


def _fmt(v):
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
