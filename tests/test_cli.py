import numpy as np
import pytest

from helix.cli import load_config_file, main
from helix.ingest import parse_packet_stream
from helix.model import load_checkpoint


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scene.pkts"
    assert main(["synth", "--seed", "3", "--rotations", "2", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def ckpt_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "toy.ckpt"
    assert main(["train-toy", "--seed", "0", "--steps", "2", "--rotations", "2",
                 "--out", str(path), "--log-every", "0"]) == 0
    return path


def test_synth_writes_parseable_stream(scene_file):
    packets = parse_packet_stream(scene_file.read_bytes())
    assert len(packets) == 200  # toy preset: 100 packets per rotation


def test_train_toy_checkpoint_loads(ckpt_file):
    model = load_checkpoint(ckpt_file)
    assert model.cfg.n_classes == 4


def test_segment_writes_labels(tmp_path, scene_file, ckpt_file):
    out = tmp_path / "pred.label"
    assert main(["segment", "--dataset", str(scene_file), "--checkpoint", str(ckpt_file),
                 "--slice-deg", "120", "--out", str(out)]) == 0
    preds = np.frombuffer(out.read_bytes(), dtype="<u4")
    packets = parse_packet_stream(scene_file.read_bytes())
    assert preds.size == sum(len(p.points) for p in packets)


def test_eval_online_outputs(tmp_path, scene_file, ckpt_file, capsys):
    out = tmp_path / "report"
    assert main(["eval-online", "--dataset", str(scene_file), "--checkpoint",
                 str(ckpt_file), "--slice-deg", "360",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "mIoU" in printed and ("real-time" in printed or "NOT real-time" in printed)
    assert "p95" in printed and "max queue" in printed
    csv = (tmp_path / "report.csv").read_text()
    assert csv.splitlines()[0].startswith("slice_pct")
    assert (tmp_path / "report.jsonl").read_text().strip()


def test_clock_flag_is_gone(scene_file, ckpt_file):
    with pytest.raises(SystemExit) as exc:
        main(["eval-online", "--dataset", str(scene_file), "--checkpoint",
              str(ckpt_file), "--clock", "sim"])
    assert exc.value.code == 2  # argparse usage error


def test_bench_latency_rows(tmp_path, scene_file, ckpt_file):
    out = tmp_path / "bench.csv"
    assert main(["bench-latency", "--dataset", str(scene_file), "--checkpoint",
                 str(ckpt_file), "--slice-degs", "360,120",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_convert_roundtrip(tmp_path, scene_file):
    prefix = tmp_path / "pts"
    assert main(["convert", "--dataset", str(scene_file), "--to", "points",
                 "--out", str(prefix)]) == 0
    back = tmp_path / "back"
    assert main(["convert", "--points", f"{prefix}.bin", "--labels", f"{prefix}.label",
                 "--to", "packets", "--out", str(back)]) == 0
    original = scene_file.read_bytes()
    rebuilt = (tmp_path / "back.pkts").read_bytes()
    # points files do not carry the head angle; packet payload is otherwise equal
    a = parse_packet_stream(original)
    b = parse_packet_stream(rebuilt)
    assert len(a) == len(b)
    for pa, pb in zip(a[:20], b[:20]):
        np.testing.assert_array_equal(pa.points.xyz, pb.points.xyz)
        np.testing.assert_array_equal(pa.points.label, pb.points.label)
        np.testing.assert_allclose(pa.points.theta_sensor, pb.points.theta_sensor,
                                   atol=1e-5)


def test_convert_range_image(tmp_path, scene_file):
    prefix = tmp_path / "ri"
    assert main(["convert", "--dataset", str(scene_file), "--to", "range",
                 "--out", str(prefix)]) == 0
    img = np.load(f"{prefix}.npy")
    assert img.shape[1] == 64


def test_convert_slices(tmp_path, scene_file):
    prefix = tmp_path / "sl"
    assert main(["convert", "--dataset", str(scene_file), "--to", "slices",
                 "--slice-deg", "120", "--out", str(prefix)]) == 0
    files = sorted(tmp_path.glob("sl_slice*.bin"))
    assert len(files) == 6  # 2 rotations x 3 slices


def test_convert_frames(tmp_path, scene_file):
    prefix = tmp_path / "fr"
    assert main(["convert", "--dataset", str(scene_file), "--to", "frames",
                 "--out", str(prefix)]) == 0
    assert len(list(tmp_path.glob("fr_*.bin"))) >= 2


def test_pos_enc_stats(tmp_path, scene_file, ckpt_file):
    out = tmp_path / "stats.csv"
    assert main(["pos-enc-stats", "--dataset", str(scene_file), "--checkpoint",
                 str(ckpt_file), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "block,head,dim,bin,mean_compat"
    assert len(lines) > 10


def test_config_file_defaults_and_override(tmp_path, scene_file, ckpt_file):
    cfg = tmp_path / "helix.cfg"
    cfg.write_text("slice_deg = 360\n# comment\n")
    parsed = load_config_file(cfg)
    assert parsed == {"slice_deg": "360"}
    out = tmp_path / "viacfg"
    assert main(["--config", str(cfg), "eval-online", "--dataset", str(scene_file),
                 "--checkpoint", str(ckpt_file), "--out", str(out)]) == 0
    row = (tmp_path / "viacfg.csv").read_text().splitlines()[1]
    assert row.startswith("100,")  # slice_pct 100 came from the file
    out2 = tmp_path / "via_override"
    assert main(["--config", str(cfg), "eval-online", "--dataset", str(scene_file),
                 "--checkpoint", str(ckpt_file), "--slice-deg", "72",
                 "--out", str(out2)]) == 0
    row2 = (tmp_path / "via_override.csv").read_text().splitlines()[1]
    assert row2.startswith("20,")  # CLI flag overrode the file


@pytest.mark.parametrize("command,line", [
    (["eval-online"], "clock = sim"),     # removed with the one replay clock
    (["segment"], "seed = 3"),            # a flag segment has but never reads
    (["train-toy"], "window = 5"),        # its flag's default would hide the file value
])
def test_config_file_key_the_command_does_not_read_is_refused(tmp_path, capsys, command,
                                                              line):
    cfg = tmp_path / "helix.cfg"
    cfg.write_text(f"slice_deg = 360\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + command)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert repr(line.split(" = ")[0]) in err and str(cfg) in err
