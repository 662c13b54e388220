import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helix.autodiff import Tensor
from helix.geometry import (
    DESCRIPTOR_WIDTH,
    GridSpec,
    default_grid_specs,
    in_range_mask,
    pack_keys,
    point_descriptors,
    slice_stream,
    unpack_keys,
    voxel_bins,
    voxelize,
)
from helix.ingest import StreamOrderError, SynthConfig, packets_to_points, synth_scene

CFG = SynthConfig(packets_per_rotation=90, n_buildings=2, n_static=1, n_movers=1,
                  range_max=25.0)


@pytest.fixture(scope="module")
def stream():
    packets, _ = synth_scene(seed=11, n_rotations=1, config=CFG)
    return packets_to_points(packets)


def test_full_turn_is_one_slice(stream):
    slices = slice_stream(stream, 2 * np.pi)
    assert len(slices) == 1
    assert len(slices[0]) == len(stream)
    assert slices[0].rotation_index == 0


def test_fifth_turn_gives_five_slices(stream):
    slices = slice_stream(stream, 2 * np.pi / 5)
    assert len(slices) == 5
    period = CFG.rotation_period
    for s in slices:
        # release-time span stays within the nominal window plus one packet
        window = period / 5
        packet_time = period / CFG.packets_per_rotation
        assert s.t_last - s.points.t_release[0] <= window + packet_time + 1e-9
        assert s.rotation_index == 0
    assert [s.slice_index for s in slices] == [0, 1, 2, 3, 4]


def test_slices_partition_stream(stream):
    slices = slice_stream(stream, 2 * np.pi / 7)
    total = sum(len(s) for s in slices)
    assert total == len(stream)
    seen = np.concatenate([s.points.t_release for s in slices])
    np.testing.assert_array_equal(seen, stream.t_release)
    for s in slices:
        th = s.points.theta_sensor
        assert np.all(th >= s.theta_range[0] - 1e-12)
        assert np.all(th < s.theta_range[1] + 1e-12)
        # views of the stream, and the pose at the first point as the per-point
        # evaluation gives it
        assert np.shares_memory(s.points.xyz, stream.xyz)
        assert np.array_equal(s.sensor_position, s.points.sensor_xyz()[0])


def test_slice_rejects_unsorted(stream):
    bad = stream.copy()
    bad.theta_sensor = bad.theta_sensor[::-1].copy()
    with pytest.raises(StreamOrderError):
        slice_stream(bad, 2 * np.pi)


def test_bad_dtheta():
    with pytest.raises(ValueError):
        slice_stream(packets_to_points([]), 0.0)


def test_default_spec_ratios():
    l1, l2, l3 = default_grid_specs()
    assert l1.n_theta == 270 and l2.n_theta == 90 and l3.n_theta == 45
    assert np.isclose(l2.dr / l1.dr, 3) and np.isclose(l3.dr / l2.dr, 3)
    assert np.isclose(l2.dz / l1.dz, 2) and np.isclose(l3.dz / l2.dz, 2)
    # paper-quoted prints
    assert abs(l1.dr - 0.166) < 1e-3
    assert abs(np.rad2deg(l1.dtheta) - 1.33) < 5e-3
    assert abs(np.rad2deg(l2.dtheta) - 4.0) < 1e-9
    assert abs(np.rad2deg(l3.dtheta) - 8.0) < 1e-9


def test_theta_stride_must_divide():
    with pytest.raises(ValueError):
        GridSpec(1, 0.1, 271, 0.1).coarsen((3, 3, 2))


def test_descriptor_width_and_consistency(stream):
    l1, _, _ = default_grid_specs()
    pts = stream.take(np.nonzero(in_range_mask(stream, l1))[0][:500])
    d = point_descriptors(pts, l1)
    assert d.shape == (500, DESCRIPTOR_WIDTH)
    # Cartesian and cylindrical relative coordinates agree
    np.testing.assert_allclose(np.hypot(d[:, 1], d[:, 2]), d[:, 4], atol=1e-6)
    np.testing.assert_allclose(np.mod(np.arctan2(d[:, 2], d[:, 1]), 2 * np.pi),
                               d[:, 5], atol=1e-6)
    np.testing.assert_allclose(d[:, 3], d[:, 6], atol=1e-12)
    # offsets stay inside half a voxel
    assert np.all(np.abs(d[:, 7]) <= l1.dr / 2 + 1e-9)
    assert np.all(np.abs(d[:, 8]) <= l1.dtheta / 2 + 1e-9)
    assert np.all(np.abs(d[:, 9]) <= l1.dz / 2 + 1e-9)


def test_descriptor_center_point_zero_offset(stream):
    l1, _, _ = default_grid_specs()
    pts = stream.take(np.arange(1)).copy()
    pts.r[0] = 1.5 * l1.dr          # bin 1 center
    pts.theta[0] = 0.5 * l1.dtheta  # bin 0 center
    pts.z_rel[0] = l1.z_origin + 2.5 * l1.dz
    d = point_descriptors(pts, l1)
    np.testing.assert_allclose(d[0, 7:10], 0.0, atol=1e-12)


def test_voxelize_single_point(stream):
    l1, _, _ = default_grid_specs()
    pts = stream.take(np.nonzero(in_range_mask(stream, l1))[0][:1])
    feats = Tensor(np.array([[1.0, -2.0, 3.0]]))
    grid = voxelize(pts, feats, l1)
    assert grid.n_cells == 1
    np.testing.assert_array_equal(grid.features.data, feats.data)


def test_voxelize_same_cell_max():
    from helix.ingest import empty_points
    pts = empty_points()
    pts.xyz = np.zeros((2, 3))
    pts.r = np.array([1.0, 1.01])
    pts.theta = np.array([0.5, 0.5])
    pts.z_rel = np.array([0.0, 0.0])
    pts.intensity = np.zeros(2)
    pts.fiber = np.zeros(2, dtype=np.int64)
    pts.t_release = np.array([0.0, 1.0])
    pts.theta_sensor = np.zeros(2)
    pts.label = np.zeros(2, dtype=np.int64)
    spec = GridSpec(1, 0.5, 90, 0.5)
    grid = voxelize(pts, Tensor(np.array([[1.0, 5.0], [3.0, 2.0]])), spec)
    assert grid.n_cells == 1
    np.testing.assert_array_equal(grid.features.data, [[3.0, 5.0]])


def test_voxelize_order_invariant(stream):
    l1, _, _ = default_grid_specs()
    idx = np.nonzero(in_range_mask(stream, l1))[0][:2000]
    pts = stream.take(idx)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((len(pts), 4))
    grid_a = voxelize(pts, Tensor(feats), l1)

    perm = rng.permutation(len(pts))
    pts_b = pts.take(perm)
    pts_b.t_release = pts.t_release.copy()  # keep per-point metadata paired
    grid_b = voxelize(pts.take(perm), Tensor(feats[perm]), l1)
    np.testing.assert_array_equal(grid_a.keys_packed, grid_b.keys_packed)
    np.testing.assert_array_equal(grid_a.features.data, grid_b.features.data)


def test_ring_bin_count(stream):
    l1, _, _ = default_grid_specs()
    idx = np.nonzero(in_range_mask(stream, l1))[0]
    bins = voxel_bins(stream.take(idx), l1)
    assert bins[1].min() >= 0 and bins[1].max() < 270
    assert 2 * np.pi / l1.dtheta == pytest.approx(270.0)


@given(st.integers(0, 2**19), st.integers(0, 269), st.integers(-2000, 2000))
@settings(max_examples=200, deadline=None)
def test_key_packing_roundtrip(r, t, z):
    packed = pack_keys(np.array([r]), np.array([t]), np.array([z]))
    rr, tt, zz = unpack_keys(packed)
    assert (rr[0], tt[0], zz[0]) == (r, t, z)
