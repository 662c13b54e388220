import numpy as np
import pytest

from helix import ingest
from helix.ingest import (
    AugmentDraw,
    FormatError,
    PointCloud,
    SensorPose,
    SynthConfig,
    adapt_kitti_frame,
    apply_augment,
    augment,
    fiber_azimuth_offsets,
    load_helixnet_sequence,
    packets_to_points,
    parse_packet_stream,
    synth_scene,
    write_packet_stream,
    write_point_files,
)

SMALL = SynthConfig(packets_per_rotation=60, n_buildings=2, n_static=1, n_movers=1,
                    range_max=25.0, arena=16.0)


@pytest.fixture(scope="module")
def one_rotation():
    packets, poses = synth_scene(seed=42, n_rotations=1, config=SMALL)
    return packets, poses


# -- packet stream -----------------------------------------------------------


def test_parse_empty_stream():
    assert parse_packet_stream(b"") == []


def test_packet_shape_and_release(one_rotation):
    packets, _ = one_rotation
    pkt = packets[0]
    assert len(pkt.points) == 384
    assert np.all(pkt.points.t_release == pkt.t_output)


def test_packet_covers_about_one_degree(one_rotation):
    packets, _ = one_rotation
    cfg_deg = 360.0 / SMALL.packets_per_rotation
    for pkt in packets[:5]:
        span = pkt.points.theta_sensor.max() - pkt.points.theta_sensor.min()
        assert span <= np.deg2rad(cfg_deg) + 1e-9
    starts = [p.points.theta_sensor[0] for p in packets[:5]]
    np.testing.assert_allclose(np.diff(starts), np.deg2rad(cfg_deg), atol=1e-5)


def test_packet_transfer_delay(one_rotation):
    packets, _ = one_rotation
    first = packets[0]
    assert abs((first.t_output - first.t_start) - 278e-6) < 1e-9
    for pkt in packets:
        assert abs((pkt.t_output - pkt.t_start) - 278e-6) < 5e-6


def test_roundtrip_field_values(one_rotation):
    packets, _ = one_rotation
    ten = packets[:10]
    parsed = parse_packet_stream(write_packet_stream(ten))
    assert len(parsed) == 10
    for a, b in zip(ten, parsed):
        assert a.t_output == b.t_output
        for f in ("xyz", "r", "theta", "z_rel", "intensity", "fiber", "t_release",
                  "theta_sensor", "label"):
            np.testing.assert_array_equal(getattr(a.points, f), getattr(b.points, f),
                                          err_msg=f)


def test_roundtrip_bytes_identical(one_rotation):
    packets, _ = one_rotation
    blob = write_packet_stream(packets[:20])
    assert write_packet_stream(parse_packet_stream(blob)) == blob


def test_truncated_stream_reports_offset(one_rotation):
    packets, _ = one_rotation
    blob = write_packet_stream(packets[:3])
    with pytest.raises(FormatError, match="byte offset"):
        parse_packet_stream(blob[:-5])


# -- points / labels files -----------------------------------------------------


def test_load_empty_pair(tmp_path):
    p, l = tmp_path / "e.bin", tmp_path / "e.label"
    p.write_bytes(b"")
    l.write_bytes(b"")
    assert len(load_helixnet_sequence(p, l)) == 0


def test_point_file_roundtrip(tmp_path, one_rotation):
    packets, _ = one_rotation
    pts = packets_to_points(packets[:10]).take(np.arange(100))
    write_point_files(pts, tmp_path / "a.bin", tmp_path / "a.label")
    back = load_helixnet_sequence(tmp_path / "a.bin", tmp_path / "a.label")
    assert len(back) == 100
    for f in ("xyz", "r", "theta", "z_rel", "intensity", "fiber", "t_release", "label"):
        np.testing.assert_array_equal(getattr(pts, f), getattr(back, f), err_msg=f)
    # reconstructed head angle is approximate but monotone
    assert np.all(np.diff(back.theta_sensor) >= 0)
    np.testing.assert_allclose(back.theta_sensor, pts.theta_sensor, atol=1e-5)


def test_point_file_roundtrip_bytes(tmp_path, one_rotation):
    packets, _ = one_rotation
    pts = packets_to_points(packets[:5])
    write_point_files(pts, tmp_path / "a.bin", tmp_path / "a.label")
    blob1 = (tmp_path / "a.bin").read_bytes(), (tmp_path / "a.label").read_bytes()
    back = load_helixnet_sequence(tmp_path / "a.bin", tmp_path / "a.label")
    write_point_files(back, tmp_path / "b.bin", tmp_path / "b.label")
    blob2 = (tmp_path / "b.bin").read_bytes(), (tmp_path / "b.label").read_bytes()
    assert blob1 == blob2


def test_misaligned_points_file(tmp_path):
    (tmp_path / "bad.bin").write_bytes(b"\x00" * (9 * 4 * 7 + 4))
    (tmp_path / "bad.label").write_bytes(b"\x00" * 4 * 7)
    with pytest.raises(FormatError, match="trailing record 7"):
        load_helixnet_sequence(tmp_path / "bad.bin", tmp_path / "bad.label")


def test_count_mismatch(tmp_path):
    (tmp_path / "c.bin").write_bytes(b"\x00" * 9 * 4 * 3)
    (tmp_path / "c.label").write_bytes(b"\x00" * 4 * 2)
    with pytest.raises(FormatError, match="mismatch"):
        load_helixnet_sequence(tmp_path / "c.bin", tmp_path / "c.label")


def test_nan_coordinate_reports_index(tmp_path):
    rec = np.zeros((4, 9), dtype="<f4")
    rec[:, 3] = 1.0
    rec[2, 1] = np.nan
    (tmp_path / "n.bin").write_bytes(rec.tobytes())
    (tmp_path / "n.label").write_bytes(np.zeros(4, dtype="<u4").tobytes())
    with pytest.raises(FormatError, match="index 2"):
        load_helixnet_sequence(tmp_path / "n.bin", tmp_path / "n.label")


# -- KITTI-style adaptation ----------------------------------------------------


def _poses():
    return (SensorPose(np.array([10.0, -2.0, 1.5]), 0.0),
            SensorPose(np.array([11.0, -2.0, 1.5]), 0.104))


def test_adapt_azimuth_zero_is_frame_start():
    prev, nxt = _poses()
    out = adapt_kitti_frame(np.array([[5.0, 0.0, -1.0, 0.5]]), prev, nxt, 0.104,
                            t_start=2.0)
    assert out.t_release[0] == 2.0
    np.testing.assert_allclose(out.xyz[0], [15.0, -2.0, 0.5])


def test_adapt_azimuth_pi_is_half_period():
    prev, nxt = _poses()
    out = adapt_kitti_frame(np.array([[-5.0, 0.0, 0.0]]), prev, nxt, 0.104, t_start=2.0)
    np.testing.assert_allclose(out.t_release[0], 2.0 + 0.052)


def test_adapt_frame_window_and_monotone():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(500, 3)) * np.array([10, 10, 2])
    prev, nxt = _poses()
    out = adapt_kitti_frame(pts, prev, nxt, 0.104, frame_index=3, t_start=1.0)
    out.validate()
    assert np.all(out.t_release >= 1.0)
    assert np.all(out.t_release < 1.0 + 0.104)
    assert np.all(out.theta_sensor >= 3 * 2 * np.pi)
    assert np.all(out.theta_sensor < 4 * 2 * np.pi)


def test_adapt_rejects_bad_pose():
    prev = SensorPose(np.array([np.nan, 0.0, 0.0]), 0.0)
    nxt = SensorPose(np.zeros(3), 0.1)
    with pytest.raises(FormatError):
        adapt_kitti_frame(np.zeros((1, 3)), prev, nxt, 0.104)


# -- synthetic scenes -----------------------------------------------------------


def test_synth_deterministic():
    a, _ = synth_scene(seed=7, n_rotations=1, config=SMALL)
    b, _ = synth_scene(seed=7, n_rotations=1, config=SMALL)
    assert write_packet_stream(a) == write_packet_stream(b)


def test_synth_seed_changes_stream():
    a, _ = synth_scene(seed=7, n_rotations=1, config=SMALL)
    b, _ = synth_scene(seed=8, n_rotations=1, config=SMALL)
    assert write_packet_stream(a) != write_packet_stream(b)


def test_fiber_spread_exactly_17_3_degrees(one_rotation):
    off = fiber_azimuth_offsets()
    assert np.isclose(off.max() - off.min(), np.deg2rad(17.3), atol=1e-12)
    packets, _ = one_rotation
    pts = packets[0].points
    # within one column the point azimuths fan out by the emitter spread
    col = pts.take(np.arange(64))
    echo = col.echo_mask
    if echo.sum() > 8:
        jag = col.theta[echo] - np.mod(col.theta_sensor[echo], 2 * np.pi)
        jag = np.mod(jag + np.pi, 2 * np.pi) - np.pi
        assert jag.max() - jag.min() <= np.deg2rad(17.3) + 1e-5


def test_mover_displacement_matches_speed():
    cfg = SynthConfig(packets_per_rotation=180, n_buildings=0, n_static=0, n_movers=1,
                      mover_speed=10.0, range_max=30.0, arena=10.0)
    expected = cfg.mover_speed * cfg.rotation_period
    # the cast geometry jumps by exactly speed x period per rotation
    layout = ingest.scene_layout(3, cfg)
    r0 = ingest.boxes_at_rotation(layout, 0, cfg)
    r1 = ingest.boxes_at_rotation(layout, 1, cfg)
    mover0 = [b for b in r0 if b.label == cfg.mover_class][0]
    mover1 = [b for b in r1 if b.label == cfg.mover_class][0]
    assert np.isclose(np.linalg.norm(mover1.center - mover0.center), expected, atol=1e-12)
    # and the sampled stream reflects the translation (visible faces shift)
    packets, _ = synth_scene(seed=3, n_rotations=2, config=cfg)
    pts = packets_to_points(packets)
    rot = np.floor(pts.theta_sensor / (2 * np.pi) + 1e-9).astype(int)
    mover = pts.label == cfg.mover_class
    c0 = pts.xyz[mover & (rot == 0)].mean(axis=0)
    c1 = pts.xyz[mover & (rot == 1)].mean(axis=0)
    d = np.linalg.norm(c1 - c0)
    assert 0.4 * expected < d < 1.6 * expected


def test_synth_has_all_classes(one_rotation):
    packets, _ = one_rotation
    labels = packets_to_points(packets).label
    assert set(np.unique(labels)) >= {0, 1, 2}


# -- augmentation ----------------------------------------------------------------


def test_augment_identity(one_rotation):
    packets, _ = one_rotation
    pts = packets_to_points(packets[:3])
    out = apply_augment(pts, AugmentDraw.identity())
    for f in ("xyz", "r", "theta", "z_rel"):
        np.testing.assert_allclose(getattr(out, f), getattr(pts, f), atol=1e-12)


def test_augment_rotation_is_isometry(one_rotation):
    packets, _ = one_rotation
    pts = packets_to_points(packets[:2])
    keep = pts.echo_mask
    draw = AugmentDraw(False, False, 1.234, np.ones(3), np.zeros(3))
    out = apply_augment(pts, draw)
    a = pts.xyz[keep][:50]
    b = out.xyz[keep][:50]
    da = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)
    db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=2)
    np.testing.assert_allclose(da, db, atol=1e-6)


def test_augment_scale_bounds():
    rng = np.random.default_rng(0)
    draws = [AugmentDraw.sample(rng) for _ in range(10_000)]
    scales = np.array([d.scale for d in draws])
    assert scales.min() >= 0.95
    assert scales.max() <= 1.05
    angles = np.array([d.angle for d in draws])
    assert angles.min() >= 0.0 and angles.max() < 2 * np.pi


def test_augment_keeps_timing_fields(one_rotation):
    packets, _ = one_rotation
    pts = packets_to_points(packets[:2])
    out = augment(pts, 5)
    np.testing.assert_array_equal(out.t_release, pts.t_release)
    np.testing.assert_array_equal(out.theta_sensor, pts.theta_sensor)
    np.testing.assert_array_equal(out.label, pts.label)
    # relative cylindrical fields stay self-consistent
    rel = out.rel_cartesian()
    np.testing.assert_allclose(np.hypot(rel[:, 0], rel[:, 1]), out.r, atol=1e-9)


def test_range_image_reshape(one_rotation):
    packets, _ = one_rotation
    img = ingest.to_range_image(packets[0].points)
    assert img.shape == (6, 64)


def test_first_sensor_xyz_equals_full_evaluation(one_rotation):
    """The one-row sensor position is bit-identical to row 0 of the per-point
    evaluation, for every point taken as the first of its cloud."""
    packets, _ = one_rotation
    pts = packets_to_points(packets)
    for cloud in (pts, augment(pts, 3)):
        full = cloud.sensor_xyz()
        for i in range(len(cloud)):
            tail = cloud.take(slice(i, None))
            assert np.array_equal(tail.first_sensor_xyz(), full[i])
            if i % 997 == 0:
                assert np.array_equal(tail.first_sensor_xyz(), tail.sensor_xyz()[0])
