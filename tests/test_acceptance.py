"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the training comparison (criterion 8) dominates the runtime.
"""

import dataclasses
import time

import numpy as np
import pytest

from helix.attention import (
    AttnConfig,
    KVBuffer,
    TransformerParams,
    spatial_bin,
    tokens_from_grid,
    transformer_forward,
)
from helix.autodiff import (
    MLP,
    Tensor,
    concat,
    gather_rows,
    gradcheck,
    leaky_relu,
    log_softmax,
    matmul,
    relu,
    scatter_add_rows,
    segment_maxpool,
    segment_softmax,
    softmax,
)
from helix.geometry import GridSpec, slice_stream
from helix.harness import EvalConfig, LatencyReport, SimulatedClock, eval_online, total_latency
from helix.ingest import (
    SynthConfig,
    fiber_azimuth_offsets,
    packets_to_points,
    parse_packet_stream,
    synth_scene,
    write_packet_stream,
    write_point_files,
    load_helixnet_sequence,
)
from helix.losses import segmentation_loss
from helix.metrics import ConfusionMatrix, brute_force_miou
from helix.model import ModelConfig, SegmentationModel
from helix.sparseconv import UNetConfig, make_kernel, sparse_conv
from helix.training import (
    drop_no_echo,
    evaluate_slices,
    toy_model_config,
    toy_scene_config,
    train_toy,
)

from attnref import dense_block_reference, dense_transformer_reference
from test_sparseconv import build_grid, dense_conv_oracle, random_grid


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


# -- criterion 1: positional-encoding bins -------------------------------------


def test_criterion_1_bin_transitions():
    t0 = time.time()
    xs = np.arange(-6.0, 6.0 + 1e-9, 0.001)
    bx = spatial_bin(xs, 1.5)
    jumps_x = xs[1:][np.diff(bx) != 0]
    pos_x = jumps_x[jumps_x > 0]
    np.testing.assert_allclose(pos_x, [0.75, 2.25, 3.0 * np.sqrt(1.6)], atol=0.005)
    np.testing.assert_allclose(pos_x, [0.75, 2.23, 3.79], atol=0.02)  # figure prints
    np.testing.assert_allclose(np.sort(-jumps_x[jumps_x < 0]), pos_x, atol=0.002)

    bz = spatial_bin(xs, 0.5)
    jumps_z = xs[1:][np.diff(bz) != 0]
    pos_z = jumps_z[jumps_z > 0]
    np.testing.assert_allclose(pos_z[:2], [0.25, 0.75], atol=0.005)
    np.testing.assert_allclose(pos_z[2], np.sqrt(1.6), atol=0.005)
    np.testing.assert_allclose(pos_z[2], 1.25, atol=0.02)  # figure print
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"bin_X transitions {np.round(pos_x, 4)} m, bin_Z {np.round(pos_z, 4)} m "
               f"({elapsed:.2f}s)")


# -- criterion 2: attention vs dense oracle -------------------------------------


def test_criterion_2_attention_oracle():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    cfg = AttnConfig(blocks=1, heads=4, dim=16, key_dim=8, radius=6.0, offsets=(0, 1, 2))
    params = TransformerParams(cfg, rng)
    from helix.attention import VoxelTokens, block_forward

    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 51))
        tok = VoxelTokens(
            Tensor(rng.standard_normal((n, cfg.dim))),
            rng.uniform(-5, 5, (n, 3)),
            np.zeros(n),
            rng.integers(0, 3, n).astype(np.int64),
            np.zeros(n, dtype=np.int64),
        )
        out, _ = block_forward(tok, None, 0, params.blocks[0], cfg)
        ref = dense_block_reference(tok.features.data, tok.centers, tok.t,
                                    tok.rotation, tok.slice_seq, 0, params.blocks[0], cfg)
        worst = max(worst, float(np.max(np.abs(out.features.data - ref))))
    elapsed = time.time() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    _report(2, f"10 fixtures <=50 tokens, max |sparse - dense| = {worst:.2e} "
               f"({elapsed:.1f}s)")


# -- criterion 3: streaming causality ---------------------------------------------


def test_criterion_3_streaming_causality():
    t0 = time.time()
    scene = SynthConfig(packets_per_rotation=60, n_buildings=2, n_static=1, n_movers=1,
                        range_max=14.0, arena=9.0)
    packets, _ = synth_scene(seed=33, n_rotations=3, config=scene)
    points = drop_no_echo(packets_to_points(packets))
    slices = slice_stream(points, 2 * np.pi / 3)

    cfg = toy_model_config(mode="full")
    cfg = dataclasses.replace(cfg, attn=dataclasses.replace(cfg.attn, offsets=(0, 1, 2)),
                              seed=11)
    model = SegmentationModel(cfg)

    # streaming transformer over encoder tokens == dense batch reference
    token_sets, streamed = [], []
    buffer = model.new_buffer()
    for slc in slices:
        enc = model.encode_slice(slc)
        token_sets.append(tokens_from_grid(enc[4]))
        out = transformer_forward(enc[4], buffer, model.attn, model.cfg.attn)
        streamed.append(out.features.data.copy())
    feats = np.concatenate([t.features.data for t in token_sets])
    centers = np.concatenate([t.centers for t in token_sets])
    tt = np.concatenate([t.t for t in token_sets])
    rot = np.concatenate([t.rotation for t in token_sets])
    seq = np.concatenate([t.slice_seq for t in token_sets])
    ref = dense_transformer_reference(feats, centers, tt, rot, seq, model.attn,
                                      model.cfg.attn)
    gap = float(np.max(np.abs(np.concatenate(streamed) - ref)))
    assert gap < 1e-6

    # perturbing rotation 3 leaves rotations 1-2 outputs bit-identical
    def run(all_slices):
        buf = model.new_buffer()
        return [model.forward_slice(s, buf).data.copy() for s in all_slices]

    outs_a = run(slices)
    perturbed = []
    for s in slices:
        if s.rotation_index == 2:
            pts = s.points.copy()
            pts.intensity = np.clip(pts.intensity + 0.3, 0, 1)
            perturbed.append(dataclasses.replace(s, points=pts))
        else:
            perturbed.append(s)
    outs_b = run(perturbed)
    changed = False
    for s, a, b in zip(slices, outs_a, outs_b):
        if s.rotation_index < 2:
            np.testing.assert_array_equal(a, b)
        else:
            changed = changed or not np.array_equal(a, b)
    assert changed
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(3, f"stream == batch within {gap:.2e}; past rotations bit-stable "
               f"({elapsed:.1f}s)")


# -- criterion 4: sparse convolution oracle ----------------------------------------


def test_criterion_4_sparse_conv_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        n_r = int(rng.integers(4, 13))
        ring = int(rng.integers(2, 5)) * 3  # <= 12 and divisible for strides
        spec = GridSpec(1, 1.0, ring, 1.0, z_origin=0.0, r_max=float(n_r))
        n_cells = int(rng.integers(1, min(40, n_r * ring * 6)))
        grid = random_grid(rng, spec, n_cells, int(rng.integers(1, 5)), z_range=(0, 6))
        kernel = make_kernel((3, 3, 3), grid.channels, int(rng.integers(1, 5)), rng)
        out = sparse_conv(grid, kernel)
        ref = dense_conv_oracle(grid, kernel)
        worst = max(worst, float(np.max(np.abs(out.features.data - ref))))
    assert worst < 1e-6

    # exact ring-shift equivariance
    spec = GridSpec(1, 1.0, 12, 1.0, z_origin=0.0, r_max=12.0)
    grid = random_grid(rng, spec, 50, 4)
    kernel = make_kernel((3, 3, 3), 4, 4, rng)
    out = sparse_conv(grid, kernel)
    for shift in (1, 5, 11):
        keys2 = grid.keys.copy()
        keys2[:, 1] = (keys2[:, 1] + shift) % spec.n_theta
        grid2 = build_grid(keys2, grid.features.data, spec)
        out2 = sparse_conv(grid2, kernel)
        from helix.geometry import pack_keys

        rows = out2.lookup(pack_keys(out.keys[:, 0],
                                     (out.keys[:, 1] + shift) % spec.n_theta,
                                     out.keys[:, 2]))
        np.testing.assert_array_equal(out.features.data, out2.features.data[rows])
    _report(4, f"20 random grids vs dense circular-theta oracle, max err {worst:.2e}; "
               f"ring shifts exact")


# -- criterion 5: gradient checks ---------------------------------------------------


def test_criterion_5_gradient_checks():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst_op = 0.0

    # every learnable/differentiable op
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    c = Tensor(rng.standard_normal((3, 4)) + 0.3, requires_grad=True)
    seg = np.array([0, 0, 1])
    flat = Tensor(rng.standard_normal(6), requires_grad=True)
    seg6 = np.array([0, 0, 1, 1, 2, 2])
    idx = np.array([2, 0, 1, 2])
    cases = [
        ("matmul", lambda: matmul(a, b).sum(), [a, b]),
        ("add_mul", lambda: ((a + c) * c).sum(), [a, c]),
        ("relu", lambda: relu(a).sum(), [a]),
        ("leaky_relu", lambda: leaky_relu(a, 0.1).sum(), [a]),
        ("softmax", lambda: (softmax(a, 1) * c).sum(), [a, c]),
        ("log_softmax", lambda: (log_softmax(a, 1) * c).sum(), [a, c]),
        ("concat", lambda: concat([a, c], axis=1).abs().sum(), [a, c]),
        ("gather", lambda: gather_rows(a, idx).sum(), [a]),
        ("scatter_add", lambda: (scatter_add_rows(a, np.array([1, 0, 1]), 2)
                                 * scatter_add_rows(a, np.array([1, 0, 1]), 2)).sum(), [a]),
        ("segment_maxpool", lambda: segment_maxpool(a, seg, 2).sum(), [a]),
        ("segment_softmax", lambda: (segment_softmax(flat, seg6, 3) * flat).sum(), [flat]),
    ]
    for name, fn, params in cases:
        err = gradcheck(fn, params)
        worst_op = max(worst_op, err)
        assert err < 1e-4, f"{name} gradient error {err}"

    mlp = MLP([4, 6, 3], rng=rng)
    err = gradcheck(lambda: mlp(a.detach()).abs().sum(), [t for _, t in mlp.parameters()])
    worst_op = max(worst_op, err)
    assert err < 1e-4

    # end-to-end micro-config: D=8, H=2, K=4, W=1, tiny grids, through the buffer
    micro = ModelConfig(
        n_classes=3, point_hidden=6,
        unet=UNetConfig(channels=(4, 6, 8)),
        attn=AttnConfig(blocks=1, heads=2, dim=8, key_dim=4, radius=10.0, offsets=(0, 1)),
        transformer_mode="full", r_max=8.0, grid_l1=(1.0, 12, 1.0), seed=7,
    )
    model = SegmentationModel(micro)
    scene = SynthConfig(packets_per_rotation=24, n_buildings=1, n_static=2, n_movers=0,
                        range_max=8.0, arena=5.0, elev_lo_deg=-25.0, elev_hi_deg=10.0)
    packets, _ = synth_scene(seed=9, n_rotations=2, config=scene)
    pts = drop_no_echo(packets_to_points(packets))
    pts = pts.take(np.arange(0, len(pts), max(1, len(pts) // 60)))  # ~60 points
    window = slice_stream(pts, 2 * np.pi)

    params = [t for _, t in model.parameters()]

    def loss():
        buf = model.new_buffer()
        total = None
        for slc in window:
            term = segmentation_loss(model.forward_slice(slc, buf), slc.points.label)
            total = term if total is None else total + term
        return total

    # eps below the per-op default: activation kinks sit closer to zero than 1e-5
    # in a composed net, and float64 keeps the difference quotient clean
    err_e2e = gradcheck(loss, params, eps=1e-6, max_entries=6,
                        rng=np.random.default_rng(0))
    elapsed = time.time() - t0
    assert err_e2e < 1e-3
    assert elapsed < 300.0
    _report(5, f"per-op rel err <= {worst_op:.2e}, end-to-end {err_e2e:.2e} "
               f"({elapsed:.0f}s)")


# -- criterion 6: latency arithmetic --------------------------------------------------


def test_criterion_6_latency_arithmetic():
    scene = SynthConfig(packets_per_rotation=36, n_buildings=1, n_static=1, n_movers=0,
                        range_max=12.0, arena=8.0)
    packets, _ = synth_scene(seed=6, n_rotations=10, config=scene)

    class Instant:
        cfg = dataclasses.make_dataclass("Cfg", ["n_classes"])(4)

        def new_buffer(self):
            return None

        def segment_points(self, slc, buffer):
            return np.ones(len(slc.points), dtype=np.int64), None

    clock = SimulatedClock()
    _, rep_full = eval_online(Instant(), packets, EvalConfig(dtheta=2 * np.pi), clock=clock)
    assert rep_full.acquisition_window == pytest.approx(0.104, abs=1e-12)
    assert len(rep_full.inference) == 10

    _, rep_fifth = eval_online(Instant(), packets, EvalConfig(dtheta=2 * np.pi / 5),
                               clock=SimulatedClock())
    assert rep_fifth.acquisition_window == pytest.approx(0.0208, abs=1e-12)

    paper_fast = LatencyReport(2 * np.pi / 5, 0.021, inference=[0.019])
    paper_slow = LatencyReport(2 * np.pi, 0.104, inference=[0.108])
    assert abs(total_latency(paper_fast) - 0.040) < 1e-12
    assert abs(total_latency(paper_slow) - 0.212) < 1e-12
    _report(6, "windows 104 / 20.8 ms; totals 40 ms (21+19) and 212 ms (104+108)")


# -- criterion 7: slicing partition -----------------------------------------------------


def test_criterion_7_slicing_partition():
    scene = SynthConfig(packets_per_rotation=360)  # true 1-degree packets
    packets, _ = synth_scene(seed=7, n_rotations=1, config=scene)
    points = packets_to_points(packets)
    assert len(points) >= 100_000
    points = points.take(np.arange(100_000))

    dtheta = 2 * np.pi / 5
    slices = slice_stream(points, dtheta)
    assert sum(len(s) for s in slices) == len(points)
    order = np.concatenate([s.points.theta_sensor for s in slices])
    np.testing.assert_array_equal(order, points.theta_sensor)
    for s in slices:
        assert np.all(s.points.theta_sensor >= s.theta_range[0] - 1e-12)
        assert np.all(s.points.theta_sensor < s.theta_range[1] + 1e-12)

    # full turn reproduces the frame grouping
    frames = slice_stream(points, 2 * np.pi)
    rot_ids = np.floor(points.theta_sensor / (2 * np.pi)).astype(int)
    assert len(frames) == np.unique(rot_ids).size
    for f in frames:
        members = rot_ids == f.rotation_index
        assert len(f.points) == int(members.sum())

    # jag present: own azimuth differs from the head angle by up to ~8.65 deg
    own = points.theta + 0.0
    jag = np.mod(own - points.theta_sensor + np.pi, 2 * np.pi) - np.pi
    span = np.rad2deg(jag.max() - jag.min())
    assert span == pytest.approx(17.3, abs=0.1)

    # and absorbed: some points sit in a different slice than their own azimuth suggests
    own_slice = np.floor(np.mod(own, 2 * np.pi) / dtheta).astype(int)
    assigned = np.concatenate([[s.slice_index] * len(s) for s in slices])
    assert np.any(own_slice != assigned)
    offsets = fiber_azimuth_offsets()
    assert np.rad2deg(offsets.max() - offsets.min()) == pytest.approx(17.3, abs=1e-9)
    _report(7, f"exact partition of 1e5 points; jag span {span:.2f} deg absorbed by "
               f"head-angle slicing")


# -- criterion 8: toy-training ablation echo ----------------------------------------------


@pytest.mark.slow
def test_criterion_8_training_ablations():
    t0 = time.time()
    packets, _ = synth_scene(seed=5, n_rotations=8, config=toy_scene_config())
    points = drop_no_echo(packets_to_points(packets))
    slices = slice_stream(points, 2 * np.pi)
    train_slices = [s for s in slices if s.rotation_index < 6]
    windows = [train_slices[i:i + 3] for i in range(len(train_slices) - 2)]

    results = {}
    for name, kw in (("full", {}), ("conv1", {"mode": "conv1"}),
                     ("sbs", {"slice_by_slice": True})):
        model = SegmentationModel(toy_model_config(**kw))
        train_toy(model, windows, steps=200, lr=2e-3, seed=0, augment=True)
        conf = evaluate_slices(model, slices, skip_rotations=6)
        results[name] = conf.miou()
    elapsed = time.time() - t0
    assert results["full"] >= 0.90, results
    assert results["full"] - results["conv1"] >= 0.05, results
    assert results["full"] - results["sbs"] >= 0.05, results
    assert elapsed < 900.0
    _report(8, f"mIoU full {results['full']:.3f} vs U-Net-only {results['conv1']:.3f} "
               f"vs slice-by-slice {results['sbs']:.3f} ({elapsed:.0f}s)")


# -- criterion 9: metrics oracle ------------------------------------------------------------


def test_criterion_9_metrics_oracle():
    rng = np.random.default_rng(9)
    for trial in range(100):
        n_classes = int(rng.integers(2, 8))
        n = int(rng.integers(1, 300))
        t = rng.integers(0, n_classes + 1, n)
        p = rng.integers(1, n_classes + 1, n)
        conf = ConfusionMatrix(n_classes).update(t, p)
        expected = brute_force_miou(t, p, n_classes)
        got = conf.miou()
        if np.isnan(expected):
            assert np.isnan(got)
        else:
            assert got == expected or abs(got - expected) < 1e-15
    _report(9, "confusion-matrix mIoU equals set-based oracle on 100 random arrays")


# -- criterion 10: format round trips ----------------------------------------------------------


def test_criterion_10_roundtrips(tmp_path):
    scene = SynthConfig(packets_per_rotation=90, n_buildings=2, n_static=1, n_movers=1)
    packets, _ = synth_scene(seed=10, n_rotations=1, config=scene)

    blob1 = write_packet_stream(packets)
    blob2 = write_packet_stream(parse_packet_stream(blob1))
    assert blob1 == blob2

    pts = packets_to_points(packets)
    write_point_files(pts, tmp_path / "a.bin", tmp_path / "a.label")
    first = (tmp_path / "a.bin").read_bytes(), (tmp_path / "a.label").read_bytes()
    back = load_helixnet_sequence(tmp_path / "a.bin", tmp_path / "a.label")
    write_point_files(back, tmp_path / "b.bin", tmp_path / "b.label")
    second = (tmp_path / "b.bin").read_bytes(), (tmp_path / "b.label").read_bytes()
    assert first == second
    _report(10, "packet stream and points/labels files byte-identical after "
                "write -> read -> write")
