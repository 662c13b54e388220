"""Timed point streams: packet parsing, dataset files, synthetic scenes.

The stream model follows a roof-mounted rotating sensor.  Points come out in
packets of 6 columns x 64 emitters (384 points, roughly one degree of head
rotation per packet); every point of a packet shares the packet's output
timestamp as its release time.  Emitters ("fibers") are mounted at azimuth
offsets spanning 17.3 degrees, so grouping by the head angle rather than by
per-point azimuth yields jagged slice edges.

On-disk formats (all little-endian):

* points file: records of 9 float32
  ``x, y, z, r, theta, z_rel, intensity, fiber, t_release``
  (absolute Cartesian; cylindrical relative to the sensor at acquisition).
* labels file: one uint32 per point; 0 is the ignore/unlabeled sentinel.
* packet stream: 16-byte header ``magic(8s) version(u32) packet_count(u32)``,
  then per packet ``t_output(f32)`` followed by 384 records of
  ``9xf32 + theta_sensor(f32, unwrapped) + label(u32)``.

No-echo returns are kept in the stream with ``r == 0`` (their coordinates
equal the sensor position) so range-image reshaping stays a plain reshape;
they are masked from losses and metrics downstream.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * np.pi

POINTS_PER_PACKET = 384
COLUMNS_PER_PACKET = 6
N_FIBERS = 64
PACKET_ARC_DEG = 1.0
FIBER_SPAN_DEG = 17.3
PACKET_TRANSFER_DELAY = 278e-6  # first-point acquisition to packet output, seconds
ROTATION_PERIOD = 0.104  # seconds per full head rotation

IGNORE_LABEL = 0

PACKET_MAGIC = b"HELIXPKT"
PACKET_VERSION = 1
_HEADER = struct.Struct("<8sII")
_POINT_RECORD_BYTES = 10 * 4 + 4
_PACKET_RECORD_BYTES = 4 + POINTS_PER_PACKET * _POINT_RECORD_BYTES
POINT_FILE_RECORD_BYTES = 9 * 4


class FormatError(ValueError):
    """Malformed stream or dataset file."""


class StreamOrderError(ValueError):
    """Points or packets accessed out of release order."""


def fiber_azimuth_offsets(n_fibers=N_FIBERS):
    """Azimuth offset of each emitter relative to the head angle (radians).

    Offsets are evenly spread over exactly ``FIBER_SPAN_DEG`` degrees, centered
    on the head direction.
    """
    span = np.deg2rad(FIBER_SPAN_DEG)
    return np.linspace(-span / 2.0, span / 2.0, n_fibers)


def fiber_elevations(n_fibers=N_FIBERS, lo_deg=-24.8, hi_deg=8.0):
    return np.deg2rad(np.linspace(lo_deg, hi_deg, n_fibers))


# ---------------------------------------------------------------------------
# point containers
# ---------------------------------------------------------------------------


@dataclass
class PointCloud:
    """Columnar batch of returns, in stream (release) order.

    ``theta`` is the point azimuth around the sensor in the fixed-orientation
    frame; ``theta_sensor`` is the unwrapped head angle at acquisition, which
    differs from ``theta`` by the emitter's azimuth offset.
    """

    xyz: np.ndarray          # (n, 3) absolute, meters
    r: np.ndarray            # (n,) horizontal range to sensor axis; 0 == no echo
    theta: np.ndarray        # (n,) azimuth relative to sensor, radians
    z_rel: np.ndarray        # (n,) height relative to sensor, meters
    intensity: np.ndarray    # (n,) in [0, 1]
    fiber: np.ndarray        # (n,) emitter index
    t_release: np.ndarray    # (n,) packet output time, seconds
    theta_sensor: np.ndarray  # (n,) unwrapped head angle, radians
    label: np.ndarray        # (n,) class id, 0 == ignore

    def __len__(self):
        return self.xyz.shape[0]

    def take(self, index):
        return PointCloud(*(getattr(self, f)[index] for f in _POINT_FIELDS))

    def copy(self):
        return PointCloud(*(getattr(self, f).copy() for f in _POINT_FIELDS))

    @property
    def echo_mask(self):
        return self.r > 0

    def sensor_xyz(self):
        """Per-point sensor position, recovered from absolute minus relative."""
        rel = self.rel_cartesian()
        return self.xyz - rel

    def first_sensor_xyz(self):
        """The sensor position at the first point: ``sensor_xyz()[0]`` from that row alone."""
        return self.take(slice(0, 1)).sensor_xyz()[0]

    def rel_cartesian(self):
        return np.stack(
            [self.r * np.cos(self.theta), self.r * np.sin(self.theta), self.z_rel], axis=1
        )

    def validate(self):
        n = len(self)
        for name in _POINT_FIELDS:
            if getattr(self, name).shape[0] != n:
                raise FormatError(f"field {name} length mismatch")
        if n == 0:
            return self
        if np.any(np.diff(self.t_release) < 0):
            raise StreamOrderError("t_release must be non-decreasing along the stream")
        if np.any(np.diff(self.theta_sensor) < 0):
            raise StreamOrderError("theta_sensor must be non-decreasing along the stream")
        if np.any(self.r < 0):
            raise FormatError("negative range")
        return self


_POINT_FIELDS = (
    "xyz", "r", "theta", "z_rel", "intensity", "fiber", "t_release", "theta_sensor", "label",
)


def concat_points(clouds):
    if not clouds:
        return empty_points()
    return PointCloud(
        *(np.concatenate([getattr(c, f) for c in clouds], axis=0) for f in _POINT_FIELDS)
    )


def empty_points():
    z = np.zeros(0)
    return PointCloud(np.zeros((0, 3)), z, z.copy(), z.copy(), z.copy(),
                      np.zeros(0, dtype=np.int64), z.copy(), z.copy(),
                      np.zeros(0, dtype=np.int64))


@dataclass
class Packet:
    """One sensor output unit: 384 points released together at ``t_output``."""

    points: PointCloud
    t_output: float
    t_start: float | None = None  # acquisition time of the first point (writer metadata)

    def __post_init__(self):
        if len(self.points) != POINTS_PER_PACKET:
            raise FormatError(f"packet must hold {POINTS_PER_PACKET} points, got {len(self.points)}")


@dataclass
class SensorPose:
    position: np.ndarray  # (3,) meters
    timestamp: float      # seconds

    def validate(self):
        if not np.all(np.isfinite(self.position)) or not np.isfinite(self.timestamp):
            raise FormatError("non-finite sensor pose")
        return self


# ---------------------------------------------------------------------------
# packet stream serialization
# ---------------------------------------------------------------------------


def _monotone_unwrap(wrapped):
    """Unwrap angles stored in [0, 2pi) into a non-decreasing sequence."""
    if wrapped.size == 0:
        return wrapped.astype(np.float64)
    out = np.unwrap(wrapped.astype(np.float64))
    # float32 storage can leave sub-microradian dips; clamp them away
    return np.maximum.accumulate(out)


def write_packet_stream(packets) -> bytes:
    """Serialize packets; inverse of :func:`parse_packet_stream`."""
    chunks = [_HEADER.pack(PACKET_MAGIC, PACKET_VERSION, len(packets))]
    for pkt in packets:
        p = pkt.points
        rec = np.empty((POINTS_PER_PACKET, 10), dtype="<f4")
        rec[:, 0:3] = p.xyz
        rec[:, 3] = p.r
        rec[:, 4] = p.theta
        rec[:, 5] = p.z_rel
        rec[:, 6] = p.intensity
        rec[:, 7] = p.fiber
        rec[:, 8] = p.t_release
        rec[:, 9] = p.theta_sensor
        labels = p.label.astype("<u4")
        body = np.empty(POINTS_PER_PACKET * _POINT_RECORD_BYTES, dtype=np.uint8)
        view = body.reshape(POINTS_PER_PACKET, _POINT_RECORD_BYTES)
        view[:, :40] = rec.view(np.uint8).reshape(POINTS_PER_PACKET, 40)
        view[:, 40:] = labels.view(np.uint8).reshape(POINTS_PER_PACKET, 4)
        chunks.append(struct.pack("<f", pkt.t_output))
        chunks.append(body.tobytes())
    return b"".join(chunks)


def parse_packet_stream(data: bytes):
    """Parse a packet stream; raises :class:`FormatError` with the byte offset
    on truncation."""
    if len(data) == 0:
        return []
    if len(data) < _HEADER.size:
        raise FormatError(f"truncated header at byte offset {len(data)}")
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != PACKET_MAGIC:
        raise FormatError("bad magic")
    if version != PACKET_VERSION:
        raise FormatError(f"unsupported packet stream version {version}")
    expected = _HEADER.size + count * _PACKET_RECORD_BYTES
    if len(data) != expected:
        off = min(len(data), expected)
        raise FormatError(f"truncated packet record at byte offset {off}")

    packets = []
    prev_theta = -np.inf
    off = _HEADER.size
    for _ in range(count):
        (t_output,) = struct.unpack_from("<f", data, off)
        raw = np.frombuffer(data, dtype=np.uint8, count=POINTS_PER_PACKET * _POINT_RECORD_BYTES,
                            offset=off + 4).reshape(POINTS_PER_PACKET, _POINT_RECORD_BYTES)
        rec = raw[:, :40].copy().view("<f4").astype(np.float64)
        labels = raw[:, 40:].copy().view("<u4").astype(np.int64).ravel()
        # the head angle is stored unwrapped; clamping is a no-op on well-formed streams
        theta_s = np.maximum.accumulate(np.maximum(rec[:, 9], prev_theta))
        prev_theta = theta_s[-1]

        pc = PointCloud(
            xyz=rec[:, 0:3],
            r=rec[:, 3],
            theta=rec[:, 4],
            z_rel=rec[:, 5],
            intensity=rec[:, 6],
            fiber=rec[:, 7].astype(np.int64),
            t_release=rec[:, 8],
            theta_sensor=theta_s,
            label=labels,
        )
        packets.append(Packet(points=pc, t_output=float(t_output)))
        off += _PACKET_RECORD_BYTES
    return packets


def packets_to_points(packets):
    return concat_points([p.points for p in packets])


class SequentialPacketStream:
    """Forward-only packet cursor; any rewind or skip raises.

    The online harness consumes packets through this so the evaluation loop
    provably never looks at data released after the slice it is processing.
    """

    def __init__(self, packets):
        self._packets = list(packets)
        self._cursor = 0
        self.max_read = -1

    def __len__(self):
        return len(self._packets)

    def read(self, index):
        if index != self._cursor:
            raise StreamOrderError(
                f"packet {index} requested, cursor at {self._cursor}: streams are forward-only")
        self._cursor += 1
        self.max_read = max(self.max_read, index)
        return self._packets[index]


# ---------------------------------------------------------------------------
# points / labels files
# ---------------------------------------------------------------------------


def write_point_files(points: PointCloud, points_path, labels_path):
    rec = np.empty((len(points), 9), dtype="<f4")
    rec[:, 0:3] = points.xyz
    rec[:, 3] = points.r
    rec[:, 4] = points.theta
    rec[:, 5] = points.z_rel
    rec[:, 6] = points.intensity
    rec[:, 7] = points.fiber
    rec[:, 8] = points.t_release
    with open(points_path, "wb") as f:
        f.write(rec.tobytes())
    with open(labels_path, "wb") as f:
        f.write(points.label.astype("<u4").tobytes())


def load_helixnet_sequence(points_path, labels_path) -> PointCloud:
    """Load a points/labels file pair, reconstructing the head angle.

    The head angle is not one of the nine stored floats; it is recovered as
    ``theta - fiber_offset(fiber)`` and unwrapped along the stream.
    """
    raw = np.fromfile(points_path, dtype=np.uint8)
    if raw.size % POINT_FILE_RECORD_BYTES != 0:
        idx = raw.size // POINT_FILE_RECORD_BYTES
        raise FormatError(f"points file not a whole number of records; trailing record {idx}")
    rec = raw.view("<f4").reshape(-1, 9).astype(np.float64)
    labels = np.fromfile(labels_path, dtype="<u4").astype(np.int64)
    if rec.shape[0] != labels.shape[0]:
        raise FormatError(
            f"point/label count mismatch: {rec.shape[0]} points vs {labels.shape[0]} labels")
    bad = ~np.isfinite(rec[:, 0:6])
    if np.any(bad):
        idx = int(np.argwhere(bad.any(axis=1))[0, 0])
        raise FormatError(f"non-finite coordinate at point index {idx}")

    fiber = rec[:, 7].astype(np.int64)
    offsets = fiber_azimuth_offsets()
    jag = offsets[np.clip(fiber, 0, offsets.size - 1)]
    theta_sensor = _monotone_unwrap(np.mod(rec[:, 4] - jag, TWO_PI))
    return PointCloud(
        xyz=rec[:, 0:3],
        r=rec[:, 3],
        theta=rec[:, 4],
        z_rel=rec[:, 5],
        intensity=rec[:, 6],
        fiber=fiber,
        t_release=rec[:, 8],
        theta_sensor=theta_sensor,
        label=labels,
    )


# ---------------------------------------------------------------------------
# SemanticKITTI-style adaptation
# ---------------------------------------------------------------------------


def adapt_kitti_frame(points_rel, pose_prev: SensorPose, pose_next: SensorPose,
                      frame_period: float, frame_index: int = 0, t_start: float = 0.0,
                      labels=None) -> PointCloud:
    """Approximate per-point timing for a classic 360-degree frame.

    Fibers are assumed vertically aligned (head angle == point azimuth), the
    acquisition time is interpolated linearly from the angular position across
    ``frame_period``, release time equals acquisition time, and the sensor sits
    at ``pose_prev`` for the whole frame.  Points are stably sorted by azimuth
    so the stream invariants hold.
    """
    if frame_period <= 0:
        raise ValueError("frame_period must be positive")
    pose_prev.validate()
    pose_next.validate()
    pts = np.asarray(points_rel, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] not in (3, 4):
        raise ValueError("expected (n, 3) or (n, 4) relative points")
    n = pts.shape[0]
    intensity = pts[:, 3] if pts.shape[1] == 4 else np.zeros(n)

    azimuth = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), TWO_PI)
    order = np.argsort(azimuth, kind="stable")
    pts, azimuth, intensity = pts[order], azimuth[order], intensity[order]
    lab = (np.asarray(labels, dtype=np.int64)[order] if labels is not None
           else np.zeros(n, dtype=np.int64))

    t = t_start + azimuth / TWO_PI * frame_period
    return PointCloud(
        xyz=pts[:, 0:3] + pose_prev.position[None, :],
        r=np.hypot(pts[:, 0], pts[:, 1]),
        theta=azimuth,
        z_rel=pts[:, 2],
        intensity=intensity,
        fiber=np.zeros(n, dtype=np.int64),
        t_release=t,
        theta_sensor=azimuth + TWO_PI * frame_index,
        label=lab,
    )


def frame_index_straight(points: PointCloud):
    """Straight-edge frame ids: group by the point's own unwrapped azimuth.

    Collecting such frames needs 377 degrees of head rotation because of the
    emitter spread; provided as a converter path, slicing is the default.
    """
    offsets = fiber_azimuth_offsets()
    own = points.theta_sensor + offsets[np.clip(points.fiber, 0, offsets.size - 1)]
    return np.floor(own / TWO_PI).astype(np.int64)


def to_range_image(points: PointCloud, n_fibers=N_FIBERS):
    """Reshape a fiber-major stream into a (columns, fibers) range image."""
    if len(points) % n_fibers != 0:
        raise FormatError("stream length is not a multiple of the fiber count")
    return points.r.reshape(-1, n_fibers)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    rotation_period: float = ROTATION_PERIOD
    packets_per_rotation: int = 360
    sensor_height: float = 1.8
    range_max: float = 35.0
    elev_lo_deg: float = -24.8
    elev_hi_deg: float = 8.0
    n_buildings: int = 5
    n_static: int = 4
    n_movers: int = 3
    mover_speed: float = 12.0   # m/s, applied as a per-rotation jump
    platform_speed: float = 0.0
    arena: float = 28.0         # half-extent of object placement, meters
    vehicle_size: tuple = (2.0, 4.0, 1.6)  # full extents, meters

    # class ids
    ground_class: int = 1
    building_class: int = 2
    static_class: int = 3
    mover_class: int = 4

    @property
    def n_classes(self):
        return 4


@dataclass
class _Box:
    center: np.ndarray  # (3,)
    half: np.ndarray    # (3,)
    label: int
    # movers advance along a constant-radius orbit; the chord per rotation
    # equals speed * rotation_period exactly
    orbit: tuple | None = None  # (radius, phase0, dphi_per_rotation, z)


def _ray_box_hits(origins, dirs, box):
    """Slab-method ray/AABB intersection; returns entry distance or +inf."""
    lo = box.center - box.half
    hi = box.center + box.half
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo[None, :] - origins) / dirs
        t2 = (hi[None, :] - origins) / dirs
    tmin = np.nanmax(np.minimum(t1, t2), axis=1)
    tmax = np.nanmin(np.maximum(t1, t2), axis=1)
    hit = (tmax >= tmin) & (tmax > 0)
    t = np.where(tmin > 0, tmin, tmax)
    return np.where(hit, t, np.inf)


def _scene_boxes(rng, cfg: SynthConfig):
    """Buildings in an outer ring; vehicles in an inner band.

    Static vehicles are sampled on the radius distribution that the movers
    sweep, so within any single rotation the two vehicle classes are
    statistically indistinguishable: separating them requires looking across
    rotations.
    """
    boxes = []
    for _ in range(cfg.n_buildings):
        rho = rng.uniform(0.85 * cfg.arena, 1.15 * cfg.arena)
        ang = rng.uniform(0.0, TWO_PI)
        half = np.array([rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0), rng.uniform(3.0, 6.0)])
        boxes.append(_Box(np.array([rho * np.cos(ang), rho * np.sin(ang), half[2]]),
                          half, cfg.building_class))

    vehicle_half = np.asarray(cfg.vehicle_size, dtype=np.float64) / 2.0
    rho_lo = min(4.5, 0.45 * cfg.arena)
    rho_hi = max(0.62 * cfg.arena, rho_lo + 1.0)
    placed = []

    def clear_of_vehicles(xy):
        return all(np.hypot(*(xy - q)) >= 4.5 for q in placed)

    step = cfg.mover_speed * cfg.rotation_period
    n_pairs = max(cfg.n_static, cfg.n_movers)
    for i in range(n_pairs):
        if i < cfg.n_movers:
            # constant-radius orbit; chord per rotation == speed * period
            for _ in range(64):
                rho = rng.uniform(rho_lo, rho_hi)
                phase = rng.uniform(0.0, TWO_PI)
                start = rho * np.array([np.cos(phase), np.sin(phase)])
                if clear_of_vehicles(start):
                    break
            placed.append(start)
            dphi = 2.0 * np.arcsin(min(step / (2.0 * rho), 1.0))
            boxes.append(_Box(np.array([start[0], start[1], vehicle_half[2]]),
                              vehicle_half.copy(), cfg.mover_class,
                              orbit=(rho, phase, dphi, vehicle_half[2])))
        if i < cfg.n_static:
            # statics share the movers' radius band: same law, random angle
            for _ in range(64):
                srho = rng.uniform(rho_lo, rho_hi)
                sang = rng.uniform(0.0, TWO_PI)
                spos = srho * np.array([np.cos(sang), np.sin(sang)])
                if clear_of_vehicles(spos):
                    break
            placed.append(spos)
            boxes.append(_Box(np.array([spos[0], spos[1], vehicle_half[2]]),
                              vehicle_half.copy(), cfg.static_class))
    return boxes


_INTENSITY_BASE = {0: 0.0, 1: 0.3, 2: 0.5, 3: 0.7, 4: 0.7}


def scene_layout(seed, config: SynthConfig | None = None):
    """Boxes of the scene at rotation 0, as cast by :func:`synth_scene`."""
    cfg = config or SynthConfig()
    return _scene_boxes(np.random.default_rng(seed), cfg)


def boxes_at_rotation(boxes, rotation, cfg: SynthConfig):
    """Movers jump along their orbit once per rotation; everything else stays."""
    out = []
    for b in boxes:
        if b.orbit is None:
            out.append(b)
            continue
        rho, phase, dphi, z = b.orbit
        ang = phase + dphi * rotation
        out.append(replace(b, center=np.array([rho * np.cos(ang), rho * np.sin(ang), z])))
    return out


def synth_scene(seed, n_rotations, config: SynthConfig | None = None):
    """Ray-cast a deterministic labeled scene into a packet stream.

    Ground plane, box buildings, and vehicles; moving vehicles jump by
    ``mover_speed * rotation_period`` between rotations so that static and
    moving vehicles are geometrically identical within any single rotation.
    Returns ``(packets, poses)`` with one pose per packet.
    """
    if n_rotations < 1:
        raise ValueError("n_rotations must be >= 1")
    cfg = config or SynthConfig()
    rng = np.random.default_rng(seed)
    boxes = _scene_boxes(rng, cfg)

    n_cols = cfg.packets_per_rotation * COLUMNS_PER_PACKET
    col_dt = cfg.rotation_period / n_cols
    jag = fiber_azimuth_offsets()
    elev = fiber_elevations(lo_deg=cfg.elev_lo_deg, hi_deg=cfg.elev_hi_deg)

    packets, poses = [], []
    for rot in range(n_rotations):
        rot_boxes = boxes_at_rotation(boxes, rot, cfg)
        col_idx = np.arange(n_cols)
        theta_s_col = (rot * n_cols + col_idx) * (TWO_PI / n_cols)
        t_col = (rot * n_cols + col_idx) * col_dt

        # quantize everything through float32 so serialization round-trips bit-exactly
        f32 = lambda a: np.asarray(np.float32(a), dtype=np.float64)

        # rays, fiber-major within each column
        theta_s = np.repeat(theta_s_col, N_FIBERS)
        phi = theta_s + np.tile(jag, n_cols)
        el = np.tile(elev, n_cols)
        fiber = np.tile(np.arange(N_FIBERS), n_cols)
        dirs = np.stack([np.cos(phi) * np.cos(el), np.sin(phi) * np.cos(el), np.sin(el)], axis=1)

        sensor_x = cfg.platform_speed * np.repeat(t_col, N_FIBERS)
        origins = np.stack([sensor_x, np.zeros_like(sensor_x),
                            np.full_like(sensor_x, cfg.sensor_height)], axis=1)

        n_rays = n_cols * N_FIBERS
        best_t = np.full(n_rays, np.inf)
        best_label = np.zeros(n_rays, dtype=np.int64)
        with np.errstate(divide="ignore"):
            tg = -origins[:, 2] / dirs[:, 2]
        ground = (dirs[:, 2] < 0) & (tg > 0)
        best_t = np.where(ground, tg, best_t)
        best_label = np.where(ground, cfg.ground_class, best_label)
        for b in rot_boxes:
            t = _ray_box_hits(origins, dirs, b)
            closer = t < best_t
            best_t = np.where(closer, t, best_t)
            best_label = np.where(closer, b.label, best_label)

        hit = np.isfinite(best_t) & (best_t <= cfg.range_max)
        with np.errstate(invalid="ignore"):
            pts = origins + np.where(hit, best_t, 0.0)[:, None] * dirs
        pts[~hit] = origins[~hit]
        labels = np.where(hit, best_label, IGNORE_LABEL)
        rel = pts - origins
        r = np.where(hit, np.hypot(rel[:, 0], rel[:, 1]), 0.0)
        theta = np.where(hit, np.mod(np.arctan2(rel[:, 1], rel[:, 0]), TWO_PI),
                         np.mod(phi, TWO_PI))
        z_rel = np.where(hit, rel[:, 2], 0.0)
        noise = rng.uniform(-0.05, 0.05, size=n_rays)
        base = np.array([_INTENSITY_BASE[c] for c in range(5)])[labels]
        intensity = np.where(hit, np.clip(base + noise, 0.0, 1.0), 0.0)

        # per column: its packet's output time, one exact product per packet
        first_col = ((rot * n_cols + col_idx) // COLUMNS_PER_PACKET) * COLUMNS_PER_PACKET
        t_release_col = f32(first_col * col_dt + PACKET_TRANSFER_DELAY)
        t_release = np.repeat(t_release_col, N_FIBERS)

        cloud = PointCloud(
            xyz=f32(pts), r=f32(r), theta=f32(theta), z_rel=f32(z_rel),
            intensity=f32(intensity), fiber=fiber.astype(np.int64),
            t_release=t_release,
            theta_sensor=np.maximum.accumulate(f32(theta_s)),
            label=labels,
        )

        per_pkt = COLUMNS_PER_PACKET * N_FIBERS
        for p in range(cfg.packets_per_rotation):
            sel = np.arange(p * per_pkt, (p + 1) * per_pkt)
            pkt_points = cloud.take(sel)
            t_start = float((rot * n_cols + p * COLUMNS_PER_PACKET) * col_dt)
            t_out = float(pkt_points.t_release[0])
            packets.append(Packet(points=pkt_points, t_output=t_out, t_start=t_start))
            poses.append(SensorPose(position=origins[p * per_pkt].copy(), timestamp=t_start))
    return packets, poses


# ---------------------------------------------------------------------------
# training augmentation
# ---------------------------------------------------------------------------


@dataclass
class AugmentDraw:
    flip_x: bool
    flip_y: bool
    angle: float
    scale: np.ndarray       # (3,)
    translation: np.ndarray  # (3,)

    @staticmethod
    def identity():
        return AugmentDraw(False, False, 0.0, np.ones(3), np.zeros(3))

    @staticmethod
    def sample(rng):
        return AugmentDraw(
            flip_x=bool(rng.integers(0, 2)),
            flip_y=bool(rng.integers(0, 2)),
            angle=float(rng.uniform(0.0, TWO_PI)),
            scale=rng.uniform(0.95, 1.05, size=3),
            translation=rng.normal(0.0, 0.2, size=3),
        )


def apply_augment(points: PointCloud, draw: AugmentDraw) -> PointCloud:
    """Apply one augmentation draw to absolute and relative coordinates.

    Timing, grouping and label fields are untouched: augmentation runs after
    slicing, on whole training windows, with a single draw per window.
    """
    rel = points.rel_cartesian()
    sensor = points.xyz - rel

    def xf(a):
        a = a.copy()
        if draw.flip_x:
            a[:, 0] = -a[:, 0]
        if draw.flip_y:
            a[:, 1] = -a[:, 1]
        c, s = np.cos(draw.angle), np.sin(draw.angle)
        a[:, 0], a[:, 1] = c * a[:, 0] - s * a[:, 1], s * a[:, 0] + c * a[:, 1]
        return a * draw.scale[None, :]

    rel2 = xf(rel)
    sensor2 = xf(sensor) + draw.translation[None, :]
    out = points.copy()
    out.xyz = rel2 + sensor2
    out.r = np.hypot(rel2[:, 0], rel2[:, 1])
    out.theta = np.where(out.r > 0, np.mod(np.arctan2(rel2[:, 1], rel2[:, 0]), TWO_PI),
                         points.theta)
    out.z_rel = rel2[:, 2]
    return out


def augment(points: PointCloud, seed) -> PointCloud:
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return apply_augment(points, AugmentDraw.sample(rng))
