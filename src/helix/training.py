"""Optimization: Adam with decoupled weight decay, windows, and the toy loop.

Training samples are contiguous multi-slice windows; the causal buffer resets
at window start and gradients flow through it across the window's slices.
Positional-encoding tables are excluded from weight decay.
"""

from __future__ import annotations

import numpy as np

from .geometry import Slice, slice_stream
from .ingest import packets_to_points
from .losses import segmentation_loss
from .metrics import ConfusionMatrix
from .model import SegmentationModel

NO_DECAY_TAGS = (".pos_",)


class Adam:
    """Adam with decoupled weight decay and a name-based exclusion list."""

    def __init__(self, named_params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01, no_decay_tags=NO_DECAY_TAGS):
        self.params = list(named_params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.no_decay_tags = tuple(no_decay_tags)
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in self.params}
        self.v = {n: np.zeros_like(t.data) for n, t in self.params}

    def decays(self, name):
        return not any(tag in name for tag in self.no_decay_tags)

    def zero_grad(self):
        for _, t in self.params:
            t.zero_grad()

    def step(self):
        self.t += 1
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            m_hat = m / (1 - self.b1 ** self.t)
            v_hat = v / (1 - self.b2 ** self.t)
            if self.weight_decay and self.decays(name):
                p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _window_loss(window, model, warmup_slices):
    """Sum of per-slice losses over one window with a fresh buffer."""
    buffer = model.new_buffer()
    total, n_terms, per_slice = None, 0, []
    for i, slc in enumerate(window):
        scores = model.forward_slice(slc, buffer)
        if i < warmup_slices or not np.any(slc.points.label != 0):
            per_slice.append(float("nan"))
            continue
        term = segmentation_loss(scores, slc.points.label)
        per_slice.append(float(term.data))
        total = term if total is None else total + term
        n_terms += 1
    return total, n_terms, per_slice


def train_step(batch, model: SegmentationModel, optimizer: Adam, warmup_slices=0):
    """One update over a batch of slice windows, each with a fresh buffer.

    ``batch`` is a window (list of slices) or a list of windows.  The first
    ``warmup_slices`` slices of each window only feed the buffer (their labels
    are partly unlearnable without temporal context).  Returns the mean
    per-slice loss; raises on a non-finite loss with the per-slice breakdown.
    """
    if batch and isinstance(batch[0], Slice):
        batch = [batch]
    optimizer.zero_grad()
    total, n_terms, per_slice = None, 0, []
    for window in batch:
        t, n, per = _window_loss(window, model, warmup_slices)
        per_slice.extend(per)
        if t is not None:
            total = t if total is None else total + t
            n_terms += n
    if total is None:
        raise ValueError("batch contains no supervised points")
    loss = total * (1.0 / n_terms)
    value = float(loss.data)
    if not np.isfinite(value):
        raise RuntimeError(f"non-finite loss; per-slice terms: {per_slice}")
    loss.backward()
    optimizer.step()
    return value


def evaluate_slices(model: SegmentationModel, slices, skip_rotations=0) -> ConfusionMatrix:
    """Streaming (untimed) evaluation over slices in release order."""
    buffer = model.new_buffer()
    conf = ConfusionMatrix(model.cfg.n_classes)
    for slc in slices:
        preds, _ = model.segment_points(slc, buffer)
        if slc.rotation_index >= skip_rotations:
            conf.update(slc.points.label, preds)
    return conf


def drop_no_echo(points):
    """No-echo points never reach the model; smaller training slices."""
    return points.take(np.nonzero(points.r > 0)[0])


def windows_from_packets(packets, dtheta, window_slices, stride=None, drop_empty=True):
    """Chop a packet stream into training windows of consecutive slices."""
    points = drop_no_echo(packets_to_points(packets))
    slices = slice_stream(points, dtheta)
    if drop_empty:
        slices = [s for s in slices if np.any(s.points.label != 0)]
    stride = stride or window_slices
    return [slices[i:i + window_slices]
            for i in range(0, len(slices) - window_slices + 1, stride)]


def augment_window(window, rng):
    """One augmentation draw applied to every slice of a window.

    A shared draw keeps cross-slice spatial offsets consistent, which the
    temporal attention relies on.  Timing and grouping fields are untouched.
    """
    from dataclasses import replace

    from .ingest import AugmentDraw, apply_augment

    draw = AugmentDraw.sample(rng)
    out = []
    for slc in window:
        pts = apply_augment(slc.points, draw)
        out.append(replace(slc, points=pts, sensor_position=pts.first_sensor_xyz()))
    return out


def train_toy(model: SegmentationModel, windows, steps, lr=1e-3, seed=0,
              augment=False, warmup_slices=0, log_every=0):
    """Fixed-step toy training, one randomly picked window per step; returns
    the loss trace."""
    if not windows:
        raise ValueError("no training windows")
    rng = np.random.default_rng(seed)
    opt = Adam(model.parameters(), lr=lr)
    losses = []
    for step in range(steps):
        window = windows[int(rng.choice(len(windows), size=1, replace=False)[0])]
        if augment:
            window = augment_window(window, rng)
        losses.append(train_step(window, model, opt, warmup_slices=warmup_slices))
        if log_every and (step + 1) % log_every == 0:
            print(f"step {step + 1}: loss {losses[-1]:.4f}")
    return losses


# ---------------------------------------------------------------------------
# desk-scale presets (shared by the CLI and the acceptance fixture)
# ---------------------------------------------------------------------------


def toy_scene_config():
    """A small moving-vs-static scene: boxes on a ground plane, two movers."""
    from .ingest import SynthConfig

    return SynthConfig(
        packets_per_rotation=100,
        range_max=16.0,
        elev_lo_deg=-25.0,
        elev_hi_deg=45.0,
        n_buildings=3,
        n_static=3,
        n_movers=3,
        # per-rotation displacement (3.12 m) exceeds the vehicle diagonal, so a
        # mover never overlaps its previous footprint: the temporal rule is
        # clean for every surface point
        mover_speed=30.0,
        vehicle_size=(1.6, 2.4, 1.6),
        arena=11.0,
    )


def toy_model_config(n_classes=4, mode="full", slice_by_slice=False, seed=1,
                     dtype="float64"):
    """Compact model matched to the toy scene; temporal offsets (0, 1)."""
    from .attention import AttnConfig
    from .model import ModelConfig
    from .sparseconv import UNetConfig

    return ModelConfig(
        n_classes=n_classes,
        point_hidden=24,
        unet=UNetConfig(channels=(8, 16, 24)),
        attn=AttnConfig(blocks=2, heads=2, dim=24, key_dim=8, radius=8.0,
                        offsets=(0, 1), slice_by_slice=slice_by_slice),
        transformer_mode=mode,
        r_max=16.0,
        grid_l1=(0.4, 150, 0.4),
        seed=seed,
        dtype=dtype,
    )
