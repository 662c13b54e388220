"""Sparse cylindrical convolutions and the grid U-Net.

All convolutions here are submanifold: output cells are exactly the input's
occupied cells, so occupancy is stable across depth and residual skips align
for free.  The theta axis wraps across the 0/2pi seam (rings tile the circle);
the radial axis is clipped to ``[0, n_r)`` and the z axis is unbounded, absent
neighbors simply contribute nothing.

Downsampling uses strided convolutions whose kernel extents equal their
strides, so source windows tile the grid and every fine cell feeds exactly
one coarse cell.  The decoder mirrors the encoder with transposed strided
convolutions and additive residual skip connections.

Every convolution runs as one :func:`~helix.autodiff.rulebook_conv` call on a
rulebook: per kernel tap, the (dst, src) row pairs it connects, i.e. output
cell ``dst`` reads input cell ``src`` through that tap's weight matrix (the
"kernel map" of submanifold sparse convolution).  Within a tap every output
cell has at most one source and every source feeds at most one output cell
(a cell has one neighbor per offset; a fine cell has one window position), so
the op accumulates in place.  Rulebooks depend only on occupancy and are
cached on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, leaky_relu, rulebook_conv
from .geometry import SparseCylGrid, cell_centers, pack_keys

_LEAKY_SLOPE = 0.01


def kernel_offsets(extents):
    """Tap displacements for a centered kernel of odd/tiling extents.

    Odd extents span ``[-e//2, e//2]``; even extents (used by strided kernels)
    span ``[0, e)`` and are interpreted window-aligned by the strided ops.
    """
    axes = []
    for e in extents:
        if e % 2 == 1:
            axes.append(np.arange(-(e // 2), e // 2 + 1))
        else:
            axes.append(np.arange(e))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid.astype(np.int64)


@dataclass
class ConvKernel:
    """Tap offsets plus one weight matrix per tap (stored stacked row-wise)."""

    offsets: np.ndarray      # (taps, 3) displacements (dr, dtheta, dz)
    weights: Tensor          # (taps * in_ch, out_ch)
    bias: Tensor | None      # (out_ch,)
    in_ch: int
    out_ch: int

    @property
    def taps(self):
        return self.offsets.shape[0]

    def parameters(self, prefix=""):
        yield prefix + "weights", self.weights
        if self.bias is not None:
            yield prefix + "bias", self.bias


def make_kernel(extents, in_ch, out_ch, rng, bias=True, dtype=np.float64) -> ConvKernel:
    offsets = kernel_offsets(extents)
    taps = offsets.shape[0]
    scale = np.sqrt(2.0 / (taps * in_ch))
    w = Tensor(rng.standard_normal((taps * in_ch, out_ch)) * scale,
               requires_grad=True, dtype=dtype)
    b = Tensor(np.zeros(out_ch), requires_grad=True, dtype=dtype) if bias else None
    return ConvKernel(offsets, w, b, in_ch, out_ch)


def identity_kernel(extents, channels, dtype=np.float64) -> ConvKernel:
    """Unit weight at the center tap, zeros elsewhere; for tests."""
    offsets = kernel_offsets(extents)
    w = np.zeros((offsets.shape[0] * channels, channels))
    center = int(np.nonzero((offsets == 0).all(axis=1))[0][0])
    w[center * channels:(center + 1) * channels] = np.eye(channels)
    return ConvKernel(offsets, Tensor(w, requires_grad=True, dtype=dtype), None,
                      channels, channels)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _neighbor_maps(grid: SparseCylGrid, offsets):
    """Per-tap (dst_rows, src_rows) index pairs, cached on the grid occupancy.

    All taps' neighbor cells are packed and looked up at once, then split
    per tap.
    """
    key = offsets.tobytes()
    hit = grid.nbr_cache.get(key)
    if hit is not None:
        return hit
    spec = grid.spec
    r, t, z = (grid.keys[:, i] + offsets[:, i, None] for i in range(3))
    t %= spec.n_theta
    ok = (r >= 0) & (r < spec.n_r)
    src = np.full(ok.shape, -1, dtype=np.int64)
    src[ok] = grid.lookup(pack_keys(r[ok], t[ok], z[ok]))
    found = src >= 0
    tap, dst = np.nonzero(found)
    bounds = np.searchsorted(tap, np.arange(1, len(offsets)))
    maps = list(zip(np.split(dst, bounds), np.split(src[found], bounds)))
    grid.nbr_cache[key] = maps
    return maps


def sparse_conv(grid: SparseCylGrid, kernel: ConvKernel) -> SparseCylGrid:
    """Submanifold sparse convolution with theta wraparound.

    Each occupied output cell sums ``W_t . feature[cell + offset_t]`` over the
    taps whose neighbor is occupied.
    """
    if kernel.in_ch != grid.channels:
        raise ValueError(f"kernel expects {kernel.in_ch} channels, grid has {grid.channels}")
    rules = _neighbor_maps(grid, kernel.offsets)
    return grid.with_features(rulebook_conv(grid.features, kernel.weights, kernel.bias,
                                            rules, grid.n_cells))


def _strided_layout(grid: SparseCylGrid, stride):
    """Coarse occupancy for a tiling stride, each fine cell's coarse cell, and
    the per-tap (coarse dst, fine src) rules of the downsampling convolution."""
    key = (b"strided", tuple(stride))
    hit = grid.nbr_cache.get(key)
    if hit is not None:
        return hit
    sr, st, sz = stride
    if grid.spec.n_theta % st != 0:
        raise ValueError(f"theta stride {st} does not divide ring size {grid.spec.n_theta}")
    coarse_bins = np.stack([grid.keys[:, 0] // sr, grid.keys[:, 1] // st,
                            grid.keys[:, 2] // sz], axis=1)
    taps = np.stack([grid.keys[:, 0] % sr, grid.keys[:, 1] % st,
                     grid.keys[:, 2] % sz], axis=1)
    tap_id = (taps[:, 0] * st + taps[:, 1]) * sz + taps[:, 2]
    packed = pack_keys(coarse_bins[:, 0], coarse_bins[:, 1], coarse_bins[:, 2])
    uniq, dst = np.unique(packed, return_inverse=True)
    by_tap = np.argsort(tap_id, kind="stable")
    bounds = np.searchsorted(tap_id[by_tap], np.arange(1, sr * st * sz))
    rules = [(dst[src], src) for src in np.split(by_tap, bounds)]
    out = (uniq, dst, rules)
    grid.nbr_cache[key] = out
    return out


def strided_conv(grid: SparseCylGrid, kernel: ConvKernel, stride) -> SparseCylGrid:
    """Downsampling convolution with kernel extents equal to the stride.

    A coarse cell is occupied iff any covered fine cell is occupied; each fine
    cell contributes through the tap given by its position in the window.
    """
    if kernel.in_ch != grid.channels:
        raise ValueError(f"kernel expects {kernel.in_ch} channels, grid has {grid.channels}")
    uniq, dst, rules = _strided_layout(grid, stride)
    acc = rulebook_conv(grid.features, kernel.weights, kernel.bias, rules, uniq.shape[0])
    return _make_coarse(grid, stride, uniq, dst, acc)


def strided_maxpool(grid: SparseCylGrid, stride) -> SparseCylGrid:
    """Channelwise max over each stride window ("tiny" downsampling variant)."""
    from .autodiff import segment_maxpool

    uniq, dst, _ = _strided_layout(grid, stride)
    pooled = segment_maxpool(grid.features, dst, uniq.shape[0])
    return _make_coarse(grid, stride, uniq, dst, pooled)


def _make_coarse(grid, stride, uniq, dst, features) -> SparseCylGrid:
    from .geometry import unpack_keys

    spec = grid.spec.coarsen(stride)
    keys = np.stack(unpack_keys(uniq), axis=1) if uniq.size else np.zeros((0, 3), dtype=np.int64)
    t_first = np.full(uniq.shape[0], np.inf)
    if uniq.size:
        np.minimum.at(t_first, dst, grid.t_first)
    rotation = np.zeros(uniq.shape[0], dtype=np.int64)
    if uniq.size:
        rotation[dst] = grid.rotation
    sensor = grid.sensor_position if grid.sensor_position is not None else np.zeros(3)
    return SparseCylGrid(
        spec=spec, keys=keys, keys_packed=uniq, features=features,
        centers=cell_centers(spec, keys, sensor), t_first=t_first, rotation=rotation,
        slice_seq=grid.slice_seq, sensor_position=sensor,
    )


def transposed_strided_conv(coarse: SparseCylGrid, target: SparseCylGrid,
                            kernel: ConvKernel, stride) -> SparseCylGrid:
    """Upsample ``coarse`` onto ``target``'s occupancy (the encoder skip map).

    Every target cell reads its unique parent coarse cell through the tap
    matching its in-window position: the rules of the strided convolution on
    ``target``, with dst and src swapped.  Maps from the same slice guarantee
    the parent exists; a miss is an internal error.
    """
    if kernel.in_ch != coarse.channels:
        raise ValueError(f"kernel expects {kernel.in_ch} channels, grid has {coarse.channels}")
    uniq, _, down_rules = _strided_layout(target, stride)
    parent = coarse.lookup(uniq)
    if np.any(parent < 0):
        raise RuntimeError("occupancy mismatch between skip map and upsampled map")
    rules = [(fine, parent[cell]) for cell, fine in down_rules]
    return target.with_features(rulebook_conv(coarse.features, kernel.weights, kernel.bias,
                                              rules, target.n_cells))


# ---------------------------------------------------------------------------
# U-Net
# ---------------------------------------------------------------------------


@dataclass
class UNetConfig:
    channels: tuple = (32, 64, 128)
    strides: tuple = ((3, 3, 2), (3, 2, 2))
    bias: bool = True
    asymmetric: bool = False          # 3x1x3 / 1x3x3 / 3x3x1 decomposition toggle
    downsample: str = "conv"          # "conv" | "maxpool" (the tiny preset)

    def __post_init__(self):
        if len(self.channels) != 3 or len(self.strides) != 2:
            raise ValueError("three levels expected")
        if self.downsample not in ("conv", "maxpool"):
            raise ValueError("downsample must be 'conv' or 'maxpool'")


class _ConvUnit:
    """One 3x3x3 convolution, or its asymmetric decomposition."""

    def __init__(self, in_ch, out_ch, cfg, rng, dtype):
        if cfg.asymmetric:
            self.kernels = [
                make_kernel((3, 1, 3), in_ch, out_ch, rng, cfg.bias, dtype),
                make_kernel((1, 3, 3), out_ch, out_ch, rng, cfg.bias, dtype),
                make_kernel((3, 3, 1), out_ch, out_ch, rng, cfg.bias, dtype),
            ]
        else:
            self.kernels = [make_kernel((3, 3, 3), in_ch, out_ch, rng, cfg.bias, dtype)]

    def __call__(self, grid):
        for k in self.kernels:
            grid = sparse_conv(grid, k)
        return grid.with_features(leaky_relu(grid.features, _LEAKY_SLOPE))

    def parameters(self, prefix=""):
        for i, k in enumerate(self.kernels):
            yield from k.parameters(f"{prefix}k{i}.")


class CylUNet:
    """Three-level encoder/decoder over sparse cylindrical grids.

    Encoder: per level, two convolution units then a strided downsampling;
    decoder mirrors it with transposed strided convolutions and additive
    residual skips from the encoder maps.
    """

    def __init__(self, cfg: UNetConfig = None, rng=None, dtype=np.float64):
        cfg = cfg or UNetConfig()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.cfg = cfg
        c1, c2, c3 = cfg.channels
        s1, s2 = cfg.strides
        self.enc1a = _ConvUnit(c1, c1, cfg, rng, dtype)
        self.enc1b = _ConvUnit(c1, c1, cfg, rng, dtype)
        if cfg.downsample == "conv":
            self.down1 = make_kernel(s1, c1, c2, rng, cfg.bias, dtype)
            mid2_in = c2
        else:
            self.down1 = None
            mid2_in = c1
        self.enc2a = _ConvUnit(mid2_in, c2, cfg, rng, dtype)
        self.enc2b = _ConvUnit(c2, c2, cfg, rng, dtype)
        if cfg.downsample == "conv":
            self.down2 = make_kernel(s2, c2, c3, rng, cfg.bias, dtype)
        else:
            self.down2 = None
            # a maxpool keeps c2 channels; lift to c3 with a 1x1x1 kernel
            self.lift3 = make_kernel((1, 1, 1), c2, c3, rng, cfg.bias, dtype)
        self.up2 = make_kernel(s2, c3, c2, rng, cfg.bias, dtype)
        self.dec2a = _ConvUnit(c2, c2, cfg, rng, dtype)
        self.dec2b = _ConvUnit(c2, c2, cfg, rng, dtype)
        self.up1 = make_kernel(s1, c2, c1, rng, cfg.bias, dtype)
        self.dec1a = _ConvUnit(c1, c1, cfg, rng, dtype)
        self.dec1b = _ConvUnit(c1, c1, cfg, rng, dtype)

    def encode(self, grid1: SparseCylGrid):
        """Produce the three maps at decreasing resolution."""
        s1, s2 = self.cfg.strides
        f1 = self.enc1b(self.enc1a(grid1))
        if self.down1 is not None:
            x2 = strided_conv(f1, self.down1, s1)
        else:
            x2 = strided_maxpool(f1, s1)
        f2 = self.enc2b(self.enc2a(x2))
        if self.down2 is not None:
            f3 = strided_conv(f2, self.down2, s2)
        else:
            f3 = strided_maxpool(f2, s2)
            f3 = sparse_conv(f3, self.lift3)
        f3 = f3.with_features(leaky_relu(f3.features, _LEAKY_SLOPE))
        return f1, f2, f3

    def decode(self, g3: SparseCylGrid, f2: SparseCylGrid, f1: SparseCylGrid):
        """Upsample back to level 1, adding the encoder maps as residual skips."""
        s1, s2 = self.cfg.strides
        y2 = transposed_strided_conv(g3, f2, self.up2, s2)
        y2 = y2.with_features(add(y2.features, f2.features))
        y2 = self.dec2b(self.dec2a(y2))
        y1 = transposed_strided_conv(y2, f1, self.up1, s1)
        y1 = y1.with_features(add(y1.features, f1.features))
        return self.dec1b(self.dec1a(y1))

    def parameters(self, prefix="unet."):
        for name in ("enc1a", "enc1b", "enc2a", "enc2b", "dec2a", "dec2b", "dec1a", "dec1b"):
            yield from getattr(self, name).parameters(f"{prefix}{name}.")
        for name in ("down1", "down2", "up2", "up1"):
            k = getattr(self, name, None)
            if k is not None:
                yield from k.parameters(f"{prefix}{name}.")
        if getattr(self, "lift3", None) is not None:
            yield from self.lift3.parameters(f"{prefix}lift3.")
