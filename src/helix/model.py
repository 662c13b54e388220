"""End-to-end segmentation model over angular slices.

Pipeline per slice: per-point descriptors -> shared point MLP -> maxpool into
the fine cylindrical grid -> convolutional encoder -> spatio-temporal
attention at the coarsest level (with the causal buffer) -> convolutional
decoder -> per-point concat of the voxel feature with the point feature ->
point MLP -> class scores.

Scores have one column per label id including the never-supervised ignore
column 0, so labels index columns directly.  No-echo and out-of-range points
receive zero score rows.

Checkpoint format (little-endian): magic ``HELIXCKP``, u32 version, u32 JSON
length, a JSON blob holding the config and a tensor manifest (name, shape,
offset in floats), then all tensor data concatenated as float32.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .attention import AttnConfig, KVBuffer, TransformerParams, transformer_forward
from .autodiff import MLP, Tensor, concat, gather_rows, no_grad, scatter_add_rows
from .geometry import (
    GridSpec,
    Slice,
    default_grid_specs,
    in_range_mask,
    pack_keys,
    point_descriptors,
    voxel_bins,
    voxelize,
)
from .sparseconv import CylUNet, UNetConfig, make_kernel, sparse_conv

CKPT_MAGIC = b"HELIXCKP"
CKPT_VERSION = 1


@dataclass
class ModelConfig:
    n_classes: int = 9
    point_hidden: int = 64
    unet: UNetConfig = field(default_factory=UNetConfig)
    attn: AttnConfig = field(default_factory=AttnConfig)
    transformer_mode: str = "full"   # "full" | "conv1" (U-Net-only ablation)
    r_max: float = 50.0
    grid_l1: tuple | None = None     # (dr, n_theta, dz) override of the paper grid
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self):
        if self.transformer_mode not in ("full", "conv1"):
            raise ValueError("transformer_mode must be 'full' or 'conv1'")
        if self.attn.dim != self.unet.channels[2]:
            raise ValueError("attention width must equal the coarsest channel count")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def grid_specs(self):
        if self.grid_l1 is None:
            return default_grid_specs(r_max=self.r_max)
        dr, n_theta, dz = self.grid_l1
        l1 = GridSpec(1, dr, int(n_theta), dz, -dz / 2.0, self.r_max)
        l2 = l1.coarsen(self.unet.strides[0])
        l3 = l2.coarsen(self.unet.strides[1])
        return l1, l2, l3

    @staticmethod
    def tiny(n_classes=9, **kw):
        """Narrow channels and maxpool downsampling (the small preset)."""
        return ModelConfig(
            n_classes=n_classes,
            unet=UNetConfig(channels=(16, 32, 64), downsample="maxpool"),
            attn=AttnConfig(dim=64),
            **kw,
        )

    def to_dict(self):
        d = asdict(self)
        return d

    @staticmethod
    def from_dict(d):
        d = dict(d)
        d["unet"] = UNetConfig(**{**d["unet"], "channels": tuple(d["unet"]["channels"]),
                                  "strides": tuple(tuple(s) for s in d["unet"]["strides"])})
        d["attn"] = AttnConfig(**{**d["attn"], "offsets": tuple(d["attn"]["offsets"])})
        if d.get("grid_l1") is not None:
            d["grid_l1"] = tuple(d["grid_l1"])
        return ModelConfig(**d)


class SegmentationModel:
    """Holds all learnable tensors and runs the per-slice forward pass."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        dtype = cfg.np_dtype
        c1 = cfg.unet.channels[0]
        c3 = cfg.unet.channels[2]
        self.specs = cfg.grid_specs()
        self.e_point = MLP([10, cfg.point_hidden, c1], rng=rng, dtype=dtype)
        self.unet = CylUNet(cfg.unet, rng=rng, dtype=dtype)
        if cfg.transformer_mode == "full":
            self.attn = TransformerParams(cfg.attn, rng=rng, dtype=dtype)
            self.mix3 = None
        else:
            self.attn = None
            self.mix3 = make_kernel((1, 1, 1), c3, c3, rng, cfg.unet.bias, dtype)
        self.d_point = MLP([2 * c1, cfg.point_hidden, cfg.n_classes + 1],
                           rng=rng, dtype=dtype)

    # -- parameters -------------------------------------------------------

    def parameters(self):
        """Ordered (name, tensor) pairs for optimizers and checkpoints."""
        out = []
        out.extend(("e_point." + n, t) for n, t in self.e_point.parameters())
        out.extend(self.unet.parameters("unet."))
        if self.attn is not None:
            out.extend(self.attn.parameters("attn."))
        if self.mix3 is not None:
            out.extend(self.mix3.parameters("mix3."))
        out.extend(("d_point." + n, t) for n, t in self.d_point.parameters())
        return out

    def param_dict(self):
        return dict(self.parameters())

    def n_parameters(self):
        return sum(t.size for _, t in self.parameters())

    def new_buffer(self) -> KVBuffer:
        return KVBuffer(self.cfg.attn)

    # -- forward ----------------------------------------------------------

    def encode_slice(self, slc: Slice):
        """Point features and the three encoder maps for a slice.

        Returns ``(keep, f_point, f1, f2, f3)`` where ``keep`` indexes the
        echo points inside the radial extent; None when the slice is empty.
        """
        pts = slc.points
        l1 = self.specs[0]
        keep = np.nonzero(in_range_mask(pts, l1))[0]
        if keep.size == 0:
            return None
        sub = pts.take(keep)
        x = Tensor(point_descriptors(sub, l1).astype(self.cfg.np_dtype))
        f_point = self.e_point(x)
        grid1 = voxelize(sub, f_point, l1, rotation_index=slc.rotation_index,
                         slice_seq=slc.seq, sensor_position=slc.sensor_position)
        f1, f2, f3 = self.unet.encode(grid1)
        return keep, f_point, f1, f2, f3

    def forward_slice(self, slc: Slice, buffer: KVBuffer) -> Tensor:
        """Class scores, one row per point of the slice (zeros where unseen).

        Scores depend only on this slice and the causal buffer state; the
        buffer is advanced with this slice's keys/values.  The scores and the
        buffered keys/values stay connected to the autodiff graph (outside
        :func:`~helix.autodiff.no_grad`), so training windows differentiate
        through the buffer.
        """
        n_all = len(slc.points)
        width = self.cfg.n_classes + 1
        encoded = self.encode_slice(slc)
        if encoded is None:
            return Tensor(np.zeros((n_all, width), dtype=self.cfg.np_dtype))
        keep, f_point, f1, f2, f3 = encoded
        if self.attn is not None:
            g3 = transformer_forward(f3, buffer, self.attn, self.cfg.attn)
        else:
            g3 = sparse_conv(f3, self.mix3)
        g1 = self.unet.decode(g3, f2, f1)

        sub = slc.points.take(keep)
        rows = g1.lookup(pack_keys(*voxel_bins(sub, self.specs[0])))
        per_point = concat([gather_rows(g1.features, rows), f_point], axis=1)
        scores = self.d_point(per_point)
        return scatter_add_rows(scores, keep, n_all)

    def segment_points(self, slc: Slice, buffer: KVBuffer):
        """Predicted labels for every point of the slice.

        No-echo points get 0 (no prediction).  Labeled points the grid never
        saw (beyond the radial extent) still get a forced prediction so that
        metrics account for them.  The forward pass builds no autodiff
        graph, so the buffer keeps this slice's keys and values as plain data.
        """
        from .metrics import predict_labels

        with no_grad():
            scores = self.forward_slice(slc, buffer).data
        preds = predict_labels(scores)
        preds[slc.points.r <= 0] = 0
        return preds, scores


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: SegmentationModel):
    params = model.parameters()
    manifest, offset = [], 0
    for name, t in params:
        manifest.append({"name": name, "shape": list(t.shape), "offset": offset})
        offset += t.size
    header = {"config": model.cfg.to_dict(), "tensors": manifest, "total_floats": offset}
    blob = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(struct.pack("<8sII", CKPT_MAGIC, CKPT_VERSION, len(blob)))
        f.write(blob)
        for _, t in params:
            f.write(t.data.astype("<f4").tobytes())


def load_checkpoint(path) -> SegmentationModel:
    with open(path, "rb") as f:
        magic, version, blob_len = struct.unpack("<8sII", f.read(16))
        if magic != CKPT_MAGIC:
            raise ValueError("not a checkpoint file")
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        header = json.loads(f.read(blob_len).decode())
        data = np.frombuffer(f.read(), dtype="<f4")
    if data.size != header["total_floats"]:
        raise ValueError("checkpoint data length mismatch")
    cfg = ModelConfig.from_dict(header["config"])
    model = SegmentationModel(cfg)
    params = model.param_dict()
    for entry in header["tensors"]:
        t = params[entry["name"]]
        shape = tuple(entry["shape"])
        if t.shape != shape:
            raise ValueError(f"shape mismatch for {entry['name']}")
        chunk = data[entry["offset"]:entry["offset"] + t.size]
        t.data[...] = chunk.reshape(shape).astype(t.dtype)
    return model
