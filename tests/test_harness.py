import dataclasses

import numpy as np
import pytest
from oracles import FakeClock
from toyfix import toy_model

from helix.harness import (
    EvalConfig,
    LatencyReport,
    bench_latency,
    eval_online,
    iter_slices_from_packets,
    reports_to_csv,
    total_latency,
)
from helix.ingest import (
    POINTS_PER_PACKET,
    SequentialPacketStream,
    StreamOrderError,
    SynthConfig,
    packets_to_points,
    synth_scene,
)
from helix.geometry import slice_stream

SMALL = SynthConfig(packets_per_rotation=60, n_buildings=2, n_static=1, n_movers=1,
                    range_max=20.0)


@pytest.fixture(scope="module")
def packets():
    pk, _ = synth_scene(seed=21, n_rotations=2, config=SMALL)
    return pk


class FakeModel:
    """Constant-duration test double; advances a fake clock per slice."""

    def __init__(self, clock, delay, n_classes=4):
        self.clock = clock
        self.delay = delay
        self.cfg = dataclasses.make_dataclass("Cfg", ["n_classes"])(n_classes)

    def new_buffer(self):
        return None

    def segment_points(self, slc, buffer):
        self.clock.advance(self.delay)
        preds = np.ones(len(slc.points), dtype=np.int64)
        preds[slc.points.r <= 0] = 0
        return preds, None


# -- slicing from packets -------------------------------------------------------


def test_incremental_slicer_matches_offline(packets):
    """Packet by packet or from the whole array, the same slices bit for bit;
    50 degrees does not divide the turn, and 0.5 degrees is less than a
    packet's arc, so some slices lie inside one packet and stay views of it."""
    for deg in (72.0, 50.0, 0.5):
        dtheta = np.deg2rad(deg)
        inc = list(iter_slices_from_packets(SequentialPacketStream(packets), dtheta))
        off = slice_stream(packets_to_points(packets), dtheta)
        assert len(inc) == len(off)
        lo, inside = 0, 0
        for a, b in zip(inc, off):
            for name in (f.name for f in dataclasses.fields(a.points)):
                x, y = getattr(a.points, name), getattr(b.points, name)
                assert x.dtype == y.dtype
                np.testing.assert_array_equal(x, y, err_msg=f"{deg} {name}")
            np.testing.assert_array_equal(a.sensor_position, b.sensor_position)
            assert (a.seq, a.rotation_index, a.slice_index) == (b.seq, b.rotation_index,
                                                                b.slice_index)
            assert a.theta_range == b.theta_range and a.t_last == b.t_last
            hi = lo + len(b)
            if lo // POINTS_PER_PACKET == (hi - 1) // POINTS_PER_PACKET:
                inside += 1
                packet = packets[lo // POINTS_PER_PACKET]
                assert np.shares_memory(a.points.xyz, packet.points.xyz)
            lo = hi
        assert lo == len(packets) * POINTS_PER_PACKET
        assert (inside > 0) == (deg < 360.0 / SMALL.packets_per_rotation)


def test_out_of_order_streams_fail_loudly(packets):
    """Swapped packets, or a head angle dipping inside one packet, raise
    instead of yielding slices out of sequence."""
    swapped = list(packets)
    swapped[5], swapped[30] = swapped[30], swapped[5]
    dipped = list(packets)
    theta = dipped[7].points.theta_sensor.copy()
    theta[200] = theta[199] - 1e-3
    dipped[7] = dataclasses.replace(
        dipped[7], points=dataclasses.replace(dipped[7].points, theta_sensor=theta))
    for bad in (swapped, dipped):
        with pytest.raises(StreamOrderError):
            list(iter_slices_from_packets(SequentialPacketStream(bad), 2 * np.pi / 5))
        with pytest.raises(StreamOrderError):
            run_fake(bad, 2 * np.pi / 5, delay=0.0)


def test_slicer_never_reads_ahead(packets):
    stream = SequentialPacketStream(packets)
    per_rot = SMALL.packets_per_rotation
    for slc in iter_slices_from_packets(stream, 2 * np.pi / 5):
        # the packet that closed this slice is the furthest ever read
        boundary_deg = np.rad2deg(slc.theta_range[1])
        closing_packet = int(boundary_deg / (360.0 / per_rot))
        assert stream.max_read <= closing_packet


def test_stream_rejects_rewind(packets):
    stream = SequentialPacketStream(packets)
    stream.read(0)
    with pytest.raises(StreamOrderError):
        stream.read(0)
    with pytest.raises(StreamOrderError):
        stream.read(5)


# -- latency accounting ----------------------------------------------------------


def run_fake(packets, dtheta, delay):
    clock = FakeClock()
    return eval_online(FakeModel(clock, delay), packets, EvalConfig(dtheta=dtheta),
                       timer=clock.now)


def test_full_turn_window_is_104ms(packets):
    _, rep = run_fake(packets, 2 * np.pi, delay=0.0)
    assert rep.acquisition_window == pytest.approx(0.104, abs=1e-12)
    assert len(rep.inference) == 2  # one slice per rotation


def test_fifth_turn_window_is_20p8ms(packets):
    _, rep = run_fake(packets, 2 * np.pi / 5, delay=0.0)
    assert rep.acquisition_window == pytest.approx(0.0208, abs=1e-12)


def test_fake_model_verdicts(packets):
    _, rep_5 = run_fake(packets, 2 * np.pi / 5, delay=0.030)
    assert rep_5.real_time is False

    _, rep_1 = run_fake(packets, 2 * np.pi, delay=0.030)
    assert rep_1.real_time is True
    assert rep_1.mean_inference == pytest.approx(0.030, abs=1e-12)


def test_total_latency_paper_pairs():
    rep = LatencyReport(2 * np.pi / 5, 0.021, inference=[0.019])
    assert abs(total_latency(rep) - 0.040) < 1e-12
    rep2 = LatencyReport(2 * np.pi, 0.104, inference=[0.108])
    assert abs(total_latency(rep2) - 0.212) < 1e-12
    rep3 = LatencyReport(2 * np.pi, 0.104, inference=[])
    assert total_latency(rep3) == pytest.approx(0.104, abs=1e-15)


def test_queueing_counts_against_latency(packets):
    # 30 ms of compute per 20.8 ms slice: release-to-segmentation grows
    _, rep = run_fake(packets, 2 * np.pi / 5, delay=0.030)
    assert rep.inference[-1] > rep.inference[0]
    assert rep.mean_inference > 0.030


def test_replay_arithmetic(packets):
    # each slice starts at max(its release, previous finish) and takes 30 ms
    dtheta = 2 * np.pi / 5
    releases = [s.t_last for s in
                iter_slices_from_packets(SequentialPacketStream(packets), dtheta)]
    _, rep = run_fake(packets, dtheta, delay=0.030)
    assert len(rep.inference) == len(releases)
    finish = float("-inf")
    expected = []
    for release in releases:
        finish = max(release, finish) + 0.030
        expected.append(finish - release)
    np.testing.assert_allclose(rep.inference, expected, rtol=0, atol=1e-12)
    assert rep.max_queue >= 1
    row = rep.row()
    assert row["inference_p50_ms"] == pytest.approx(1e3 * np.percentile(expected, 50))
    assert row["inference_p95_ms"] == pytest.approx(1e3 * np.percentile(expected, 95))
    assert row["max_queue"] == rep.max_queue

    _, rep_full = run_fake(packets, 2 * np.pi, delay=0.030)
    assert rep_full.max_queue == 0


# -- end-to-end with the real model ----------------------------------------------


@pytest.fixture(scope="module")
def model():
    return toy_model(seed=3)


class Timed:
    """Wraps a real model; each slice costs 20 us per point on a fake clock."""

    def __init__(self, model, clock):
        self.model, self.clock, self.cfg = model, clock, model.cfg

    def new_buffer(self):
        return self.model.new_buffer()

    def segment_points(self, slc, buffer):
        self.clock.advance(2e-5 * len(slc.points))
        return self.model.segment_points(slc, buffer)


def run_injected(model, packets, cfg):
    clock = FakeClock()
    return eval_online(Timed(model, clock), packets, cfg, timer=clock.now)


def test_sim_eval_reproducible(packets, model):
    cfg = EvalConfig(dtheta=2 * np.pi / 3)
    conf_a, rep_a = run_injected(model, packets, cfg)
    conf_b, rep_b = run_injected(model, packets, cfg)
    np.testing.assert_array_equal(conf_a.counts, conf_b.counts)
    assert rep_a.inference == rep_b.inference
    assert rep_a.max_queue == rep_b.max_queue


def test_clock_mode_does_not_change_confusion(packets, model):
    cfg = EvalConfig(dtheta=2 * np.pi / 3)
    conf_injected, _ = run_injected(model, packets, cfg)
    conf_measured, rep_measured = eval_online(model, packets, cfg)
    np.testing.assert_array_equal(conf_injected.counts, conf_measured.counts)
    # the default timer measures real work: no slice is free
    assert all(t > 0.0 for t in rep_measured.inference)
    assert all(t > 0.0 for t in rep_measured.preprocess)


def test_bench_sweep(packets, model):
    cfg = EvalConfig(dtheta=2 * np.pi)
    reports = bench_latency(model, packets, cfg, [2 * np.pi, 2 * np.pi / 5])
    assert len(reports) == 2
    assert reports[0].acquisition_window >= reports[1].acquisition_window
    single_conf, single = eval_online(model, packets, cfg)
    assert reports[0].acquisition_window == single.acquisition_window
    assert reports[0].miou == pytest.approx(single.miou, nan_ok=True)
    csv = reports_to_csv(reports)
    assert csv.count("\n") == 3  # header + 2 rows
    assert "slice_pct" in csv.splitlines()[0]


def test_bench_sweep_accepts_generator(packets):
    sweep = [2 * np.pi, 2 * np.pi / 5, 2 * np.pi / 10]
    reports = bench_latency(FakeModel(FakeClock(), 0.0), packets, EvalConfig(),
                            (d for d in sweep))
    assert [r.dtheta for r in reports] == sweep
    with pytest.raises(ValueError):
        bench_latency(None, packets, EvalConfig(), iter(()))


def test_skip_rotations_excludes_warmup(packets, model):
    conf_all, _ = eval_online(model, packets, EvalConfig(dtheta=2 * np.pi))
    conf_skip, _ = eval_online(model, packets,
                               EvalConfig(dtheta=2 * np.pi, skip_rotations=1))
    assert conf_skip.counts.sum() < conf_all.counts.sum()


def test_bad_eval_config():
    with pytest.raises(ValueError):
        EvalConfig(dtheta=0.0)
