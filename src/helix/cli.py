"""Command-line interface.

Commands: ``segment``, ``eval-online``, ``bench-latency``, ``train-toy``,
``convert``, ``synth``, ``pos-enc-stats``.  A flat key=value config file sets
the defaults of the flags a command reads from it (its ``file_keys``); any
other key is an error.  Explicit command-line flags win over file values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .attention import head_compat_stats, tokens_from_grid
from .harness import (
    EvalConfig,
    bench_latency,
    eval_online,
    iter_slices_from_packets,
    reports_to_csv,
    reports_to_jsonl,
)
from .ingest import (
    POINTS_PER_PACKET,
    Packet,
    SequentialPacketStream,
    load_helixnet_sequence,
    packets_to_points,
    parse_packet_stream,
    frame_index_straight,
    synth_scene,
    to_range_image,
    write_packet_stream,
    write_point_files,
)
from .model import SegmentationModel, load_checkpoint, save_checkpoint
from .training import (
    evaluate_slices,
    toy_model_config,
    toy_scene_config,
    train_toy,
    windows_from_packets,
)


def load_config_file(path):
    """Flat ``key = value`` pairs; '#' starts a comment."""
    out = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _effective(args, file_cfg, key, default=None, cast=str):
    """CLI flag > config-file entry > default."""
    v = getattr(args, key, None)
    if v is not None:
        return v
    if key in file_cfg:
        return cast(file_cfg[key])
    return default


def _read_packets(path):
    return parse_packet_stream(Path(path).read_bytes())


def _slice_rad(deg):
    return np.deg2rad(float(deg))


def cmd_synth(args, file_cfg):
    seed = int(_effective(args, file_cfg, "seed", 0, int))
    rotations = int(_effective(args, file_cfg, "rotations", 3, int))
    out = _effective(args, file_cfg, "out", "scene.pkts")
    cfg = toy_scene_config() if args.preset == "toy" else None
    packets, _ = synth_scene(seed=seed, n_rotations=rotations, config=cfg)
    Path(out).write_bytes(write_packet_stream(packets))
    print(f"wrote {len(packets)} packets ({len(packets) * POINTS_PER_PACKET} points) to {out}")
    return 0


def cmd_convert(args, file_cfg):
    out = Path(_effective(args, file_cfg, "out", "converted"))
    fmt = args.to
    if args.dataset:
        points = packets_to_points(_read_packets(args.dataset))
    else:
        points = load_helixnet_sequence(args.points, args.labels)
    if fmt == "points":
        write_point_files(points, f"{out}.bin", f"{out}.label")
        print(f"wrote {len(points)} points to {out}.bin / {out}.label")
    elif fmt == "packets":
        bounds = np.nonzero(np.diff(points.t_release))[0] + 1
        groups = np.split(np.arange(len(points)), bounds)
        packets = []
        for g in groups:
            if g.size != POINTS_PER_PACKET:
                raise ValueError(f"release group of {g.size} points is not a packet")
            sub = points.take(g)
            packets.append(Packet(points=sub, t_output=float(sub.t_release[0])))
        Path(f"{out}.pkts").write_bytes(write_packet_stream(packets))
        print(f"wrote {len(packets)} packets to {out}.pkts")
    elif fmt == "frames":
        frames = frame_index_straight(points)
        for i in np.unique(frames):
            sub = points.take(np.nonzero(frames == i)[0])
            write_point_files(sub, f"{out}_{i:04d}.bin", f"{out}_{i:04d}.label")
        print(f"wrote {np.unique(frames).size} straight-edge frames to {out}_*.bin")
    elif fmt == "slices":
        from .geometry import slice_stream

        deg = float(_effective(args, file_cfg, "slice_deg", 72.0, float))
        slices = slice_stream(points, _slice_rad(deg))
        for s in slices:
            write_point_files(s.points, f"{out}_slice{s.seq:05d}.bin",
                              f"{out}_slice{s.seq:05d}.label")
        print(f"wrote {len(slices)} slices of {deg} deg to {out}_slice*.bin")
    elif fmt == "range":
        img = to_range_image(points)
        np.save(f"{out}.npy", img)
        print(f"wrote range image {img.shape} to {out}.npy")
    return 0


def cmd_train_toy(args, file_cfg):
    seed = int(_effective(args, file_cfg, "seed", 0, int))
    steps = int(_effective(args, file_cfg, "steps", 200, int))
    rotations = int(_effective(args, file_cfg, "rotations", 6, int))
    lr = float(_effective(args, file_cfg, "lr", 1.5e-3, float))
    out = _effective(args, file_cfg, "out", "toy.ckpt")
    slice_deg = float(_effective(args, file_cfg, "slice_deg", 360.0, float))

    packets, _ = synth_scene(seed=seed + 5, n_rotations=rotations,
                             config=toy_scene_config())
    window = max(1, min(args.window, rotations * max(1, int(360 / slice_deg))))
    windows = windows_from_packets(packets, _slice_rad(slice_deg),
                                   window_slices=window, stride=1)
    model = SegmentationModel(toy_model_config(seed=seed + 1, mode=args.mode,
                                               slice_by_slice=args.slice_by_slice))
    losses = train_toy(model, windows, steps=steps, lr=lr, seed=seed, augment=True,
                       log_every=args.log_every)
    save_checkpoint(out, model)
    points_slices = windows_from_packets(packets, _slice_rad(slice_deg), 1)
    conf = evaluate_slices(model, [s for w in points_slices for s in w], skip_rotations=1)
    print(f"trained {steps} steps, final loss {losses[-1]:.4f}, "
          f"mIoU {conf.miou():.4f}, checkpoint {out}")
    if args.loss_log:
        Path(args.loss_log).write_text(
            "step,loss\n" + "\n".join(f"{i},{v:.6f}" for i, v in enumerate(losses)) + "\n")
    return 0


def cmd_segment(args, file_cfg):
    model = load_checkpoint(_effective(args, file_cfg, "checkpoint", "toy.ckpt"))
    packets = _read_packets(_effective(args, file_cfg, "dataset"))
    slice_deg = float(_effective(args, file_cfg, "slice_deg", 72.0, float))
    out = _effective(args, file_cfg, "out", "predictions.label")
    buffer = model.new_buffer()
    preds = []
    for slc in iter_slices_from_packets(SequentialPacketStream(packets),
                                        _slice_rad(slice_deg)):
        p, _ = model.segment_points(slc, buffer)
        preds.append(p)
    labels = np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)
    Path(out).write_bytes(labels.astype("<u4").tobytes())
    print(f"wrote {labels.size} predicted labels to {out}")
    return 0


def cmd_eval_online(args, file_cfg):
    model = load_checkpoint(_effective(args, file_cfg, "checkpoint", "toy.ckpt"))
    packets = _read_packets(_effective(args, file_cfg, "dataset"))
    slice_deg = float(_effective(args, file_cfg, "slice_deg", 72.0, float))
    out = _effective(args, file_cfg, "out", None)
    cfg = EvalConfig(dtheta=_slice_rad(slice_deg),
                     skip_rotations=int(_effective(args, file_cfg, "skip_rotations", 0, int)))
    conf, report = eval_online(model, packets, cfg)
    row = report.row()
    verdict = "real-time" if report.real_time else "NOT real-time"
    print(f"mIoU {conf.miou():.4f} | window {row['acquisition_ms']:.1f} ms | "
          f"inference mean {row['inference_mean_ms']:.1f} / p50 "
          f"{row['inference_p50_ms']:.1f} / p95 {row['inference_p95_ms']:.1f} ms | "
          f"max queue {row['max_queue']} | "
          f"total latency {row['total_latency_ms']:.1f} ms | {verdict}")
    for cls, iou in conf.per_class().items():
        print(f"  class {cls}: IoU {iou:.4f}")
    if out:
        Path(f"{out}.csv").write_text(reports_to_csv([report]))
        Path(f"{out}.jsonl").write_text(reports_to_jsonl([report]))
        print(f"wrote {out}.csv and {out}.jsonl")
    return 0


def cmd_bench_latency(args, file_cfg):
    model = load_checkpoint(_effective(args, file_cfg, "checkpoint", "toy.ckpt"))
    packets = _read_packets(_effective(args, file_cfg, "dataset"))
    degs = [float(d) for d in
            str(_effective(args, file_cfg, "slice_degs", "360,180,120,72,36")).split(",")]
    out = _effective(args, file_cfg, "out", "bench.csv")
    cfg = EvalConfig(dtheta=_slice_rad(degs[0]))
    reports = bench_latency(model, packets, cfg, [_slice_rad(d) for d in degs])
    Path(out).write_text(reports_to_csv(reports))
    for rep in reports:
        row = rep.row()
        print(f"slice {row['slice_deg']:6.1f} deg | window {row['acquisition_ms']:7.2f} ms | "
              f"mean {row['inference_mean_ms']:8.2f} ms | mIoU {row['miou']:.4f} | "
              f"{'RT' if row['real_time'] else '--'}")
    print(f"wrote {out}")
    return 0


def cmd_pos_enc_stats(args, file_cfg):
    model = load_checkpoint(_effective(args, file_cfg, "checkpoint", "toy.ckpt"))
    if model.attn is None:
        raise SystemExit("checkpoint has no transformer (conv1 mode)")
    packets = _read_packets(_effective(args, file_cfg, "dataset"))
    slice_deg = float(_effective(args, file_cfg, "slice_deg", 360.0, float))
    out = _effective(args, file_cfg, "out", "posenc_stats.csv")
    token_sets = []
    for slc in iter_slices_from_packets(SequentialPacketStream(packets),
                                        _slice_rad(slice_deg)):
        enc = model.encode_slice(slc)
        if enc is not None:
            token_sets.append(tokens_from_grid(enc[4]))
    stats = head_compat_stats(token_sets, model.attn, model.cfg.attn)
    lines = ["block,head,dim,bin,mean_compat"]
    for (w, h, d, b), v in sorted(stats.items()):
        lines.append(f"{w},{h},{d},{b},{v:.6g}")
    Path(out).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(stats)} (block, head, dim, bin) rows to {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="helix",
                                     description="streaming LiDAR segmentation")
    parser.add_argument("--config", help="flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, dataset=True, checkpoint=True):
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        if dataset:
            p.add_argument("--dataset", help="packet stream (.pkts)")
        if checkpoint:
            p.add_argument("--checkpoint")

    p = sub.add_parser("synth", help="write a synthetic packet stream")
    common(p, dataset=False, checkpoint=False)
    p.add_argument("--rotations", type=int)
    p.add_argument("--preset", choices=["toy", "default"], default="toy")
    p.set_defaults(func=cmd_synth, file_keys=("seed", "rotations", "out"))

    p = sub.add_parser("convert", help="convert between stream formats")
    common(p, checkpoint=False)
    p.add_argument("--points", help="points .bin (with --labels) as input")
    p.add_argument("--labels")
    p.add_argument("--to", required=True,
                   choices=["points", "packets", "frames", "slices", "range"])
    p.add_argument("--slice-deg", type=float, dest="slice_deg")
    p.set_defaults(func=cmd_convert, file_keys=("out", "slice_deg"))

    p = sub.add_parser("train-toy", help="train the compact model on a synthetic scene")
    common(p, dataset=False, checkpoint=False)
    p.add_argument("--steps", type=int)
    p.add_argument("--rotations", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--slice-deg", type=float, dest="slice_deg")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--mode", choices=["full", "conv1"], default="full")
    p.add_argument("--slice-by-slice", action="store_true")
    p.add_argument("--log-every", type=int, default=25)
    p.add_argument("--loss-log")
    p.set_defaults(func=cmd_train_toy,
                   file_keys=("seed", "steps", "rotations", "lr", "out", "slice_deg"))

    p = sub.add_parser("segment", help="stream a dataset and write predictions")
    common(p)
    p.add_argument("--slice-deg", type=float, dest="slice_deg")
    p.set_defaults(func=cmd_segment, file_keys=("checkpoint", "dataset", "slice_deg", "out"))

    p = sub.add_parser("eval-online", help="online evaluation with latency verdict")
    common(p)
    p.add_argument("--slice-deg", type=float, dest="slice_deg")
    p.add_argument("--skip-rotations", type=int, dest="skip_rotations")
    p.set_defaults(func=cmd_eval_online, file_keys=("checkpoint", "dataset", "slice_deg",
                                                    "out", "skip_rotations"))

    p = sub.add_parser("bench-latency", help="latency sweep over slice sizes")
    common(p)
    p.add_argument("--slice-degs", dest="slice_degs")
    p.set_defaults(func=cmd_bench_latency,
                   file_keys=("checkpoint", "dataset", "slice_degs", "out"))

    p = sub.add_parser("pos-enc-stats", help="head/bin compatibility table")
    common(p)
    p.add_argument("--slice-deg", type=float, dest="slice_deg")
    p.set_defaults(func=cmd_pos_enc_stats,
                   file_keys=("checkpoint", "dataset", "slice_deg", "out"))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    file_cfg = load_config_file(args.config) if args.config else {}
    unread = [key for key in file_cfg if key not in args.file_keys]
    if unread:
        parser.error(f"{args.config}: {args.command} reads no config key {unread[0]!r} "
                     f"(it reads {', '.join(args.file_keys)})")
    return args.func(args, file_cfg)


if __name__ == "__main__":
    sys.exit(main())
