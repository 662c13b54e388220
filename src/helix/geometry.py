"""Angular slicing of point streams and cylindrical voxel grids.

Slicing groups points by the *sensor head* angle, so slice edges are jagged
in point-azimuth space (emitters fan out over 17.3 degrees) but exact in
acquisition time.  One generator, :func:`iter_slices`, does all grouping: it
takes point clouds in release order (one whole stream for
:func:`slice_stream`, packet by packet for the online harness) and refuses a
head angle that runs backwards.

Voxelization bins each point's sensor-relative cylindrical coordinates; the
three default grid levels are exact (3,3,2) / (3,2,2) refinements of one
another so that strided convolutions tile them perfectly, with theta rings of
270 / 90 / 45 bins covering the full circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, segment_maxpool
from .ingest import TWO_PI, PointCloud, StreamOrderError, concat_points

_Z_BIAS = 1 << 15  # packed keys: z bins are signed, r/theta are not


@dataclass(frozen=True)
class GridSpec:
    """One cylindrical resolution level.

    ``z_origin`` is the lower edge of z bin 0 relative to the sensor height;
    all levels share it so coarse bins tile fine bins exactly.
    """

    level: int
    dr: float
    n_theta: int
    dz: float
    z_origin: float = -0.0625
    r_max: float = 50.0

    @property
    def dtheta(self):
        return TWO_PI / self.n_theta

    @property
    def n_r(self):
        return int(np.ceil(self.r_max / self.dr - 1e-9))

    def coarsen(self, stride):
        """Spec of the grid produced by a strided (sr, st, sz) downsampling."""
        sr, st, sz = stride
        if self.n_theta % st != 0:
            raise ValueError(f"theta stride {st} does not divide ring size {self.n_theta}")
        return GridSpec(self.level + 1, self.dr * sr, self.n_theta // st, self.dz * sz,
                        self.z_origin, self.r_max)


def default_grid_specs(r_max=50.0, z_origin=-0.0625):
    """The three default levels: (16.7cm, 1.33deg, 12.5cm) coarsened by
    (3,3,2) then (3,2,2)."""
    l1 = GridSpec(1, 0.5 / 3.0, 270, 0.125, z_origin, r_max)
    l2 = l1.coarsen((3, 3, 2))
    l3 = l2.coarsen((3, 2, 2))
    return l1, l2, l3


# ---------------------------------------------------------------------------
# slicing
# ---------------------------------------------------------------------------


@dataclass
class Slice:
    """A contiguous run of points covering one arc of head rotation."""

    points: PointCloud
    rotation_index: int
    slice_index: int
    seq: int                      # global slice counter along the stream
    theta_range: tuple
    t_last: float
    sensor_position: np.ndarray   # pose at the slice's first point

    def __len__(self):
        return len(self.points)


def assemble_slice(points, k, dtheta) -> Slice:
    """Build slice ``k``'s record from its points."""
    m = TWO_PI / dtheta
    m_int = int(round(m))
    if abs(m - m_int) < 1e-9:
        rotation, within = k // m_int, k % m_int
    else:
        rotation, within = int(np.floor(k * dtheta / TWO_PI + 1e-12)), k
    return Slice(
        points=points,
        rotation_index=int(rotation),
        slice_index=int(within),
        seq=int(k),
        theta_range=(k * dtheta, (k + 1) * dtheta),
        t_last=float(points.t_release[-1]),
        sensor_position=points.first_sensor_xyz(),
    )


def iter_slices(chunks, dtheta):
    """Group point clouds given in release order into slices of ``dtheta``.

    Slice ``k`` holds the points with ``floor(theta_sensor / dtheta) == k``.
    A slice is yielded once a point of a later slice arrives (or the chunks
    run out), so no chunk past the one holding that point has been drawn.  A
    slice inside one chunk is a view of it; only a slice spanning chunks is
    copied, once.  Raises :class:`StreamOrderError` where ``theta_sensor``
    decreases, within a chunk or from one chunk to the next.
    """
    if not (0.0 < dtheta <= TWO_PI + 1e-12):
        raise ValueError("dtheta must lie in ]0, 2*pi]")
    pending, k_open, last = [], None, -np.inf
    for chunk in chunks:
        theta = chunk.theta_sensor
        if np.any(np.diff(theta, prepend=last) < 0):
            raise StreamOrderError("theta_sensor must be sorted (stream order)")
        if len(chunk) == 0:
            continue
        last = theta[-1]
        k = np.floor(theta / dtheta).astype(np.int64)
        bounds = [0, *(np.flatnonzero(k[1:] != k[:-1]) + 1), len(chunk)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if pending and k[lo] != k_open:
                yield assemble_slice(_joined(pending), k_open, dtheta)
                pending = []
            k_open = int(k[lo])
            pending.append(chunk.take(slice(lo, hi)))
    if pending:
        yield assemble_slice(_joined(pending), k_open, dtheta)


def _joined(parts):
    return parts[0] if len(parts) == 1 else concat_points(parts)


def slice_stream(points: PointCloud, dtheta: float):
    """Partition a stream into slices of ``dtheta`` of head rotation.

    ``dtheta == 2*pi`` degenerates to the classic frame-by-frame grouping.
    Only nonempty slices are produced; together they hold every input point
    exactly once, in chronological order.  Each slice's fields are views of
    ``points``' arrays, not copies.
    """
    return list(iter_slices([points], dtheta))


# ---------------------------------------------------------------------------
# voxel grids
# ---------------------------------------------------------------------------


def voxel_bins(points: PointCloud, spec: GridSpec):
    """Per-point (r_bin, theta_bin, z_bin) under ``spec``; no range filtering."""
    r_bin = np.floor(points.r / spec.dr).astype(np.int64)
    t_bin = np.floor(points.theta / spec.dtheta).astype(np.int64) % spec.n_theta
    z_bin = np.floor((points.z_rel - spec.z_origin) / spec.dz).astype(np.int64)
    return r_bin, t_bin, z_bin


def in_range_mask(points: PointCloud, spec: GridSpec):
    """Echo points within the radial extent; everything else has no voxel."""
    return (points.r > 0) & (points.r < spec.r_max)


def pack_keys(r_bin, t_bin, z_bin):
    if np.any(np.abs(z_bin) >= _Z_BIAS):
        raise ValueError("z bin out of packable range")
    return (r_bin.astype(np.int64) << 28) | (t_bin.astype(np.int64) << 16) | (z_bin + _Z_BIAS)


def unpack_keys(packed):
    r_bin = packed >> 28
    t_bin = (packed >> 16) & 0xFFF
    z_bin = (packed & 0xFFFF) - _Z_BIAS
    return r_bin, t_bin, z_bin


def point_descriptors(points: PointCloud, spec: GridSpec):
    """Width-10 per-point descriptor feeding the point encoder.

    ``[intensity, x_rel, y_rel, z_rel, r, theta, z_rel, dr, dtheta, dz]``:
    intensity, the sensor-relative position in Cartesian and cylindrical
    coordinates, and the offset to the center of the point's voxel.
    """
    r_bin, t_bin_raw, z_bin = voxel_bins(points, spec)
    t_bin = np.floor(points.theta / spec.dtheta)  # unwrapped for the offset
    out = np.empty((len(points), 10))
    out[:, 0] = points.intensity
    out[:, 1] = points.r * np.cos(points.theta)
    out[:, 2] = points.r * np.sin(points.theta)
    out[:, 3] = points.z_rel
    out[:, 4] = points.r
    out[:, 5] = points.theta
    out[:, 6] = points.z_rel
    out[:, 7] = points.r - (r_bin + 0.5) * spec.dr
    out[:, 8] = points.theta - (t_bin + 0.5) * spec.dtheta
    out[:, 9] = points.z_rel - (spec.z_origin + (z_bin + 0.5) * spec.dz)
    return out


DESCRIPTOR_WIDTH = 10


@dataclass
class SparseCylGrid:
    """Sparse map from cylindrical bins to feature rows at one level.

    Rows are ordered by packed key (r, theta, z lexicographic), which makes
    grid construction invariant to point order.  ``keys_packed`` is sorted so
    neighbor lookups are a ``searchsorted``.
    """

    spec: GridSpec
    keys: np.ndarray          # (n, 3) int64: r_bin, theta_bin, z_bin
    keys_packed: np.ndarray   # (n,) int64, sorted ascending
    features: Tensor          # (n, channels)
    centers: np.ndarray       # (n, 3) absolute frame
    rotation: np.ndarray      # (n,) rotation index of the cell's slice
    slice_seq: int = 0
    sensor_position: np.ndarray = None
    nbr_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_cells(self):
        return self.keys_packed.shape[0]

    @property
    def channels(self):
        return self.features.data.shape[1]

    def lookup(self, packed):
        """Row index for each packed key, -1 where absent."""
        packed = np.asarray(packed, dtype=np.int64)
        if self.n_cells == 0:
            return np.full(packed.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self.keys_packed, packed)
        pos_c = np.minimum(pos, self.n_cells - 1)
        return np.where(self.keys_packed[pos_c] == packed, pos_c, -1)

    def with_features(self, features: Tensor):
        """Same occupancy and metadata, new feature rows; shares the neighbor cache."""
        if features.data.shape[0] != self.n_cells:
            raise ValueError("feature rows must match cell count")
        return SparseCylGrid(self.spec, self.keys, self.keys_packed, features,
                             self.centers, self.rotation, self.slice_seq,
                             self.sensor_position, self.nbr_cache)


def cell_centers(spec: GridSpec, keys, sensor_position):
    r_c = (keys[:, 0] + 0.5) * spec.dr
    th_c = (keys[:, 1] + 0.5) * spec.dtheta
    z_c = spec.z_origin + (keys[:, 2] + 0.5) * spec.dz
    return np.stack(
        [sensor_position[0] + r_c * np.cos(th_c),
         sensor_position[1] + r_c * np.sin(th_c),
         sensor_position[2] + z_c], axis=1)


def voxelize(points: PointCloud, features: Tensor, spec: GridSpec,
             rotation_index=0, slice_seq=0, sensor_position=None) -> SparseCylGrid:
    """Channelwise max-pool per-point features into occupied cells.

    One feature row per point is required; the caller filters no-echo and
    out-of-range points beforehand.  Cell metadata: center in the fixed frame
    (from the slice's sensor position) and the slice's rotation index.
    """
    if features.data.shape[0] != len(points):
        raise ValueError("one feature row per point required")
    if sensor_position is None:
        sensor_position = points.first_sensor_xyz() if len(points) else np.zeros(3)
    packed = pack_keys(*voxel_bins(points, spec))
    uniq, inverse = np.unique(packed, return_inverse=True)
    n = uniq.shape[0]
    pooled = segment_maxpool(features, inverse, n)

    keys = np.stack(unpack_keys(uniq), axis=1) if n else np.zeros((0, 3), dtype=np.int64)
    sensor_position = np.asarray(sensor_position, dtype=np.float64)
    return SparseCylGrid(
        spec=spec,
        keys=keys,
        keys_packed=uniq,
        features=pooled,
        centers=cell_centers(spec, keys, sensor_position),
        rotation=np.full(n, rotation_index, dtype=np.int64),
        slice_seq=slice_seq,
        sensor_position=sensor_position,
    )

