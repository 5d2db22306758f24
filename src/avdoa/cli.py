"""Command-line pipeline driver.

Subcommands: simulate, features, train, eval, robustness, baseline.
Exit codes: 0 success, 2 validation error, 3 numeric failure during
training, 4 I/O error.  Commands validate their inputs and compute
results in memory before writing any output file.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import audio as audio_mod
from . import dataset as dataset_mod
from . import evaluation, geom, nn
from .errors import AvdoaError, ConfigError, NaNLoss
from .store import read_feature_store, read_key_values, write_feature_store

GCC_STORE = "gcc.doaf"
VISUAL_STORE = "visual.doaf"
LABELS_NAME = "labels.jsonl"


# ---------------------------------------------------------------------------
# config file helpers (key = value text)
# ---------------------------------------------------------------------------

def _parse_pair(text):
    parts = text.replace(":", ",").split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 'low,high', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_counts(text):
    counts = {}
    for item in text.split(","):
        n, _, p = item.partition(":")
        counts[int(n)] = float(p) if p else 1.0
    return counts


def _parse_widths(text):
    return tuple(int(x) for x in text.split(","))


def _parse_variances(text):
    parts = [float(x) for x in text.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ConfigError("bbox noise needs one or three variances")
    return tuple(parts)


# (args attribute = dataclass field, config-file key, parser) per command;
# the defaults live only in ScenarioConfig and TrainConfig
SIMULATE_KEYS = (
    ("frames", "frames", int),
    ("source_counts", "sources", _parse_counts),
    ("azimuth_range", "azimuth_range", _parse_pair),
    ("distance_range", "distance_range", _parse_pair),
    ("z_range", "z_range", _parse_pair),
    ("visibility", "visibility", float),
    ("min_separation_deg", "min_separation_deg", float),
    ("source_kind", "source_kind", str),
    ("wav_path", "wav_path", str),
    ("sample_rate", "sample_rate", int),
    ("frame_len_s", "frame_len_s", float),
    ("bbox_noise_var", "bbox_noise_var", _parse_variances),
    ("seed", "seed", int),
)
TRAIN_KEYS = (
    ("epochs", "epochs", int),
    ("batch_size", "batch_size", int),
    ("learning_rate", "learning_rate", float),
    ("hidden", "hidden", _parse_widths),
    ("weight_net_hidden", "weight_net_hidden", int),
    ("target_sigma_deg", "target_sigma_deg", float),
    ("seed", "seed", int),
)


def _configured(args, table):
    """Config dataclass keyword arguments set by a flag or, failing that, the
    --config file; a field set by neither keeps the dataclass default."""
    config_file = {} if args.config is None else dict(read_key_values(args.config))
    values = {}
    for field, key, parse in table:
        if getattr(args, field) is not None:
            values[field] = parse(getattr(args, field))
        elif key in config_file:
            try:
                values[field] = parse(config_file[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
    return values


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    config = dataset_mod.ScenarioConfig(**_configured(args, SIMULATE_KEYS))
    array = None
    if args.array is not None:
        array = geom.load_array_geometry(args.array)
    calibration = None
    if args.calibration is not None:
        calibration = geom.load_calibration(args.calibration)
    dataset_mod.simulate(config, args.out, array=array, calibration=calibration)
    print(f"wrote dataset with {config.frames} frames to {args.out}")


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def cmd_features(args):
    ds = dataset_mod.FrameDataset.load(args.dataset)
    gcc, vis = dataset_mod.extract_features(
        ds, snr_db=args.snr, fdsp=args.fdsp,
        seed=args.seed if args.seed is not None else 0,
    )
    os.makedirs(args.out, exist_ok=True)
    indices = [f.frame_index for f in ds.frames]
    write_feature_store(os.path.join(args.out, GCC_STORE), list(zip(indices, gcc)))
    write_feature_store(os.path.join(args.out, VISUAL_STORE), list(zip(indices, vis)))
    with open(os.path.join(args.out, LABELS_NAME), "w", encoding="utf-8") as fh:
        for frame in ds.frames:
            fh.write(json.dumps({
                "frame_index": frame.frame_index,
                "timestamp_s": frame.timestamp_s,
                "azimuths": [float(a) for a in frame.azimuths],
            }) + "\n")
    print(f"wrote {len(ds)} feature frames to {args.out}")


def _read_store(features_dir, name, indices):
    """One row per record; the records' frame indices must equal ``indices``."""
    frames = read_feature_store(os.path.join(features_dir, name))
    if [frame_index for frame_index, _ in frames] != indices:
        raise ConfigError(f"{features_dir}: {name} frame indices differ from {LABELS_NAME}")
    return np.stack([values.reshape(-1) for _, values in frames])


def _load_features_dir(features_dir, need_visual=True):
    """(gcc, vis, azimuths, frame indices) of a features directory, in label order."""
    with open(os.path.join(features_dir, LABELS_NAME), "r", encoding="utf-8") as fh:
        labels = [json.loads(line) for line in fh if line.strip()]
    indices = [int(record["frame_index"]) for record in labels]
    gcc = _read_store(features_dir, GCC_STORE, indices)
    vis = _read_store(features_dir, VISUAL_STORE, indices) if need_visual else None
    return gcc, vis, [record["azimuths"] for record in labels], indices


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args):
    config = nn.TrainConfig(**_configured(args, TRAIN_KEYS))
    need_visual = args.model != "gcc_only"
    gcc, vis, azimuths, _ = _load_features_dir(args.features, need_visual)
    targets = np.stack([
        nn.encode_target(az, config.target_sigma_deg) for az in azimuths
    ])
    train_idx, _ = dataset_mod.split_indices(len(gcc), args.holdout)
    if not train_idx:
        raise ConfigError("holdout leaves no training frames")
    model = nn.build_model(args.model, hidden=config.hidden,
                           weight_net_hidden=config.weight_net_hidden,
                           seed=config.seed, gcc_dim=gcc.shape[1],
                           vis_dim=0 if vis is None else vis.shape[1])
    history = nn.train_model(
        model,
        gcc[train_idx],
        None if vis is None else vis[train_idx],
        targets[train_idx],
        config,
    )
    nn.save_checkpoint(model, args.out)
    with open(f"{args.out}.losses.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(history):
            fh.write(f"{epoch},{loss:.10g}\n")
    print(f"trained {args.model} on {len(train_idx)} frames; "
          f"final loss {history[-1]:.6g}; checkpoint at {args.out}")


# ---------------------------------------------------------------------------
# eval / baseline summaries
# ---------------------------------------------------------------------------

def _report(summary, out_dir, prefix):
    """Write <prefix>results.jsonl and <prefix>summary.csv; print the summary."""
    columns = []
    values = []
    for label in ("n1", "n2", "overall"):
        columns += [f"mae_{label}", f"acc_{label}"]
        result = summary[label]
        values += ["" if result is None else f"{result.mae:.4f}",
                   "" if result is None else f"{result.acc:.2f}"]
    os.makedirs(out_dir, exist_ok=True)
    evaluation.write_results(summary["overall"],
                             os.path.join(out_dir, f"{prefix}results.jsonl"))
    with open(os.path.join(out_dir, f"{prefix}summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.write(",".join(values) + "\n")
    for label, title in (("n1", "N=1"), ("n2", "N=2"), ("overall", "overall")):
        result = summary[label]
        if result is None:
            print(f"{title:>8}: (no frames)")
        else:
            print(f"{title:>8}: MAE {result.mae:6.2f} deg   ACC {result.acc:5.1f} %"
                  f"   ({result.frame_count} frames)")


def _select_subset(n_frames, holdout, subset):
    """Row indices of the chosen subset; ConfigError when it is empty."""
    train_rows, test_rows = dataset_mod.split_indices(n_frames, holdout)
    rows = {"train": train_rows, "holdout": test_rows, "all": list(range(n_frames))}[subset]
    if not rows:
        raise ConfigError("selected subset is empty")
    return rows


def cmd_eval(args):
    model = nn.load_checkpoint(args.checkpoint)
    need_visual = model.kind != "gcc_only"
    gcc, vis, azimuths, indices = _load_features_dir(args.features, need_visual)
    rows = _select_subset(len(indices), args.holdout, args.subset)
    gcc = gcc[rows]
    vis = None if vis is None else vis[rows]
    azimuths = [azimuths[i] for i in rows]
    indices = [indices[i] for i in rows]
    posterior = model.forward(gcc, vis, train=False)
    _report(evaluation.score(posterior, azimuths, indices), args.out, "")


def cmd_baseline(args):
    ds = dataset_mod.FrameDataset.load(args.dataset)
    rows = _select_subset(len(ds), args.holdout, args.subset)
    subset = ds.subset(rows)
    gcc, _ = dataset_mod.extract_features(subset, snr_db=args.snr,
                                          seed=args.seed if args.seed is not None else 0)
    feature = audio_mod.GccFeature(gcc, *audio_mod.DEFAULT_LAGS, subset.audio.sample_rate)
    srp = audio_mod.srp_phat(feature, subset.array)
    summary = evaluation.score(srp, [f.azimuths for f in subset.frames],
                               [f.frame_index for f in subset.frames])
    _report(summary, args.out, "baseline_")


# ---------------------------------------------------------------------------
# robustness grid
# ---------------------------------------------------------------------------

def _parse_snr_levels(text):
    levels = []
    for item in text.split(","):
        item = item.strip().lower()
        levels.append(None if item == "clean" else float(item))
    return tuple(levels)


def _parse_fdsp_levels(text):
    return tuple(float(x) / 100.0 for x in text.split(","))


def cmd_robustness(args):
    model = nn.load_checkpoint(args.checkpoint)
    ds = dataset_mod.FrameDataset.load(args.dataset)
    rows = _select_subset(len(ds), args.holdout, args.subset)
    subset = ds.subset(rows)
    grid = evaluation.robustness_grid(
        model, subset,
        snr_levels=(evaluation.SNR_LEVELS_DB if args.snr_levels is None
                    else _parse_snr_levels(args.snr_levels)),
        fdsp_levels=(evaluation.FDSP_LEVELS if args.fdsp_levels is None
                     else _parse_fdsp_levels(args.fdsp_levels)),
        seed=args.seed if args.seed is not None else 0,
    )
    os.makedirs(args.out, exist_ok=True)
    evaluation.write_grid_csv(grid, os.path.join(args.out, "robustness_grid.csv"))
    evaluation.write_plot_data(grid, os.path.join(args.out, "mae_vs_snr.csv"))
    evaluation.render_svg_chart(grid, os.path.join(args.out, "robustness.svg"))
    for snr in grid.snr_levels:
        cells = "  ".join(
            f"{mae:6.2f}/{acc:5.1f}" for mae, acc in grid.row(snr)
        )
        print(f"SNR {evaluation.snr_label(snr):>5}: {cells}")


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="avdoa",
        description="multi-speaker DoA estimation with audio-visual fusion",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master random seed")
    common.add_argument("--config", default=None, help="key = value config file")
    common.add_argument("--out", required=True, help="output directory or file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic dataset directory")
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--sources", dest="source_counts", default=None,
                   help="source-count distribution, e.g. '1:0.7,2:0.3'")
    p.add_argument("--azimuth-range", default=None, help="degrees, 'low,high'")
    p.add_argument("--distance-range", default=None, help="meters, 'low,high'")
    p.add_argument("--z-range", default=None, help="meters, 'low,high'")
    p.add_argument("--visibility", type=float, default=None,
                   help="fraction of sources inside the camera FoV")
    p.add_argument("--min-separation", dest="min_separation_deg", type=float, default=None,
                   help="minimum azimuth separation between concurrent sources")
    p.add_argument("--source-kind", default=None,
                   choices=["white", "speech_like_ar", "wav_file"])
    p.add_argument("--wav", dest="wav_path", default=None,
                   help="source WAV for --source-kind wav_file")
    p.add_argument("--sample-rate", type=int, default=None)
    p.add_argument("--frame-len", dest="frame_len_s", type=float, default=None,
                   help="seconds")
    p.add_argument("--bbox-noise-var", default=None,
                   help="3D annotation noise variance (m^2), one or three values")
    p.add_argument("--array", default=None, help="array geometry file to use")
    p.add_argument("--calibration", default=None, help="camera calibration file to use")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("features", parents=[common],
                       help="extract GCC and visual feature stores")
    p.add_argument("--dataset", required=True)
    p.add_argument("--snr", type=float, default=None,
                   help="corrupt audio at this SNR (dB) before extraction")
    p.add_argument("--fdsp", type=float, default=0.0,
                   help="fraction of frames whose detections get swapped")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", parents=[common], help="train a model on features")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, choices=["avc", "avaw", "gcc_only"])
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--widths", dest="hidden", default=None,
                   help="hidden widths, e.g. '1000,1000,1000'")
    p.add_argument("--weight-net-hidden", type=int, default=None)
    p.add_argument("--sigma", dest="target_sigma_deg", type=float, default=None,
                   help="target smoothing (deg)")
    p.add_argument("--holdout", type=float, default=0.2,
                   help="trailing fraction of frames excluded from training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--subset", default="holdout", choices=["holdout", "train", "all"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("robustness", parents=[common],
                       help="SNR x FDSP degradation grid for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--snr-levels", default=None,
                   help="dB values or 'clean', e.g. '0,clean' (default: the paper's five)")
    p.add_argument("--fdsp-levels", default=None,
                   help="percentages, e.g. '0,50' (default: the paper's five)")
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--subset", default="holdout", choices=["holdout", "train", "all"])
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("baseline", parents=[common],
                       help="SRP-PHAT baseline on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--holdout", type=float, default=0.0)
    p.add_argument("--subset", default="all", choices=["holdout", "train", "all"])
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except NaNLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (AvdoaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
