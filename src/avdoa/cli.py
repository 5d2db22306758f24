"""Command-line pipeline driver.

Subcommands: simulate, features, train, eval, robustness, baseline.
Exit codes: 0 success, 2 validation error, 3 numeric failure during
training, 4 I/O error.  Commands validate their inputs and compute
results in memory before writing any output file.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import audio as audio_mod
from . import dataset as dataset_mod
from . import evaluation, geom, nn
from .errors import AvdoaError, ConfigError, NaNLoss
from .store import (json_field, json_numbers, read_feature_store, read_jsonl,
                    read_key_values, write_feature_store, write_jsonl, write_text)

GCC_STORE = "gcc.doaf"
VISUAL_STORE = "visual.doaf"
LABELS_NAME = "labels.jsonl"


# ---------------------------------------------------------------------------
# simulate/train options: parsers of flag and config-file text, one row each
# ---------------------------------------------------------------------------

def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_pair(text):
    parts = text.replace(":", ",").split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'low,high', got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


def _parse_counts(text):
    counts = {}
    for item in text.split(","):
        n, _, p = item.partition(":")
        counts[int(n)] = _finite(p) if p else 1.0
    return counts


def _parse_widths(text):
    return tuple(int(x) for x in text.split(","))


def _parse_variances(text):
    parts = [_finite(x) for x in text.split(",")]
    if len(parts) not in (1, 3):
        raise ValueError("bbox noise needs one or three variances")
    return tuple(parts * (3 // len(parts)))


# One row per simulate/train option: (ScenarioConfig/TrainConfig field,
# config-file key, parser, flag, help).  build_parser adds the flag as a
# string option; flag text and file text then go through the same parser.
# The defaults and the checks live only in the dataclasses.
SIMULATE_KEYS = (
    ("frames", "frames", int, "--frames", None),
    ("source_counts", "sources", _parse_counts, "--sources",
     "source-count distribution, e.g. '1:0.7,2:0.3'"),
    ("azimuth_range", "azimuth_range", _parse_pair, "--azimuth-range", "degrees, 'low,high'"),
    ("distance_range", "distance_range", _parse_pair, "--distance-range", "meters, 'low,high'"),
    ("z_range", "z_range", _parse_pair, "--z-range", "meters, 'low,high'"),
    ("visibility", "visibility", _finite, "--visibility",
     "fraction of sources inside the camera FoV"),
    ("min_separation_deg", "min_separation_deg", _finite, "--min-separation",
     "minimum azimuth separation between concurrent sources"),
    ("source_kind", "source_kind", str, "--source-kind", ", ".join(audio_mod.SOURCE_KINDS)),
    ("wav_path", "wav_path", str, "--wav", "source WAV for --source-kind wav_file"),
    ("sample_rate", "sample_rate", int, "--sample-rate", None),
    ("frame_len_s", "frame_len_s", _finite, "--frame-len", "seconds"),
    ("bbox_noise_var", "bbox_noise_var", _parse_variances, "--bbox-noise-var",
     "3D annotation noise variance (m^2), one or three values"),
    ("seed", "seed", int, "--seed", "master random seed"),
)
TRAIN_KEYS = (
    ("epochs", "epochs", int, "--epochs", None),
    ("batch_size", "batch_size", int, "--batch", None),
    ("learning_rate", "learning_rate", _finite, "--lr", None),
    ("hidden", "hidden", _parse_widths, "--widths", "hidden widths, e.g. '1000,1000,1000'"),
    ("weight_net_hidden", "weight_net_hidden", int, "--weight-net-hidden", None),
    ("target_sigma_deg", "target_sigma_deg", _finite, "--sigma", "target smoothing (deg)"),
    ("seed", "seed", int, "--seed", "master random seed"),
)
# one --config file may serve both simulate and train
CONFIG_KEYS = {row[1] for row in SIMULATE_KEYS + TRAIN_KEYS}


def _parsed(parse, text, where):
    """``parse(text)``, None for no text; a ValueError becomes a ConfigError
    naming ``where``, the flag or the config key."""
    if text is None:
        return None
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _configured(args, table):
    """Config dataclass keyword arguments set by a flag or, failing that, the
    --config file; a field set by neither keeps the dataclass default."""
    config_file = {} if args.config is None else dict(read_key_values(args.config))
    unknown = sorted(set(config_file) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{args.config}: unknown keys {', '.join(unknown)}")
    values = {}
    for field, key, parse, flag, _ in table:
        text, where = getattr(args, field), flag
        if text is None:
            text, where = config_file.get(key), f"config key {key!r}"
        if text is not None:
            values[field] = _parsed(parse, text, where)
    return values


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    config = dataset_mod.ScenarioConfig(**_configured(args, SIMULATE_KEYS))
    array = None if args.array is None else geom.load_array_geometry(args.array)
    calibration = None if args.calibration is None else geom.load_calibration(args.calibration)
    dataset_mod.simulate(config, args.out, array=array, calibration=calibration)
    print(f"wrote dataset with {config.frames} frames to {args.out}")


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def cmd_features(args):
    snr, fdsp = _parsed(_finite, args.snr, "--snr"), _parsed(_finite, args.fdsp, "--fdsp")
    ds = dataset_mod.FrameDataset.load(args.dataset)
    gcc, vis = dataset_mod.extract_features(ds, snr, fdsp, args.seed)
    os.makedirs(args.out, exist_ok=True)
    indices = [f.frame_index for f in ds.frames]
    write_feature_store(os.path.join(args.out, GCC_STORE), list(zip(indices, gcc)))
    write_feature_store(os.path.join(args.out, VISUAL_STORE), list(zip(indices, vis)))
    write_jsonl(os.path.join(args.out, LABELS_NAME), (
        {"frame_index": frame.frame_index, "timestamp_s": frame.timestamp_s,
         "azimuths": [float(a) for a in frame.azimuths]}
        for frame in ds.frames))
    print(f"wrote {len(ds)} feature frames to {args.out}")


def _read_store(features_dir, name, indices):
    """One row per record; the records' frame indices must equal ``indices``."""
    frames = read_feature_store(os.path.join(features_dir, name))
    if [frame_index for frame_index, _ in frames] != indices:
        raise ConfigError(f"{features_dir}: {name} frame indices differ from {LABELS_NAME}")
    return np.stack([values.reshape(-1) for _, values in frames])


def _load_features_dir(features_dir, need_visual=True):
    """(gcc, vis, azimuths, frame indices) of a features directory, in label order."""
    path = os.path.join(features_dir, LABELS_NAME)
    indices, azimuths = [], []
    for lineno, record in read_jsonl(path):
        where = f"{path}:{lineno}"
        indices.append(json_field(record, "frame_index", int, where))
        azimuths.append(json_numbers(json_field(record, "azimuths", list, where),
                                     where, "'azimuths'"))
        if not azimuths[-1]:
            raise ConfigError(f"{where}: 'azimuths' is empty")
    gcc = _read_store(features_dir, GCC_STORE, indices)
    vis = _read_store(features_dir, VISUAL_STORE, indices) if need_visual else None
    return gcc, vis, azimuths, indices


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
                           vis_dim=0 if vis is None else vis.shape[1], dtype=np.float32)
    history = nn.train_model(
        model,
        gcc[train_idx],
        None if vis is None else vis[train_idx],
        targets[train_idx],
        config,
    )
    nn.save_checkpoint(model, args.out)
    write_text(f"{args.out}.losses.csv",
               ["epoch,loss", *(f"{epoch},{loss:.10g}" for epoch, loss in enumerate(history))])
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
    write_jsonl(os.path.join(out_dir, f"{prefix}results.jsonl"), summary["overall"].records)
    write_text(os.path.join(out_dir, f"{prefix}summary.csv"),
               [",".join(columns), ",".join(values)])
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


def _load_subset(args):
    """The frames of ``args.dataset`` that --holdout and --subset select.

    Only the subset is returned, so the rest of the recording is freed
    before any noise is drawn.
    """
    ds = dataset_mod.FrameDataset.load(args.dataset)
    return ds.subset(_select_subset(len(ds), args.holdout, args.subset))


def cmd_baseline(args):
    snr = _parsed(_finite, args.snr, "--snr")
    subset = _load_subset(args)
    gcc = dataset_mod.gcc_stack(subset, snr, args.seed)
    feature = audio_mod.GccFeature(gcc, *audio_mod.DEFAULT_LAGS, subset.audio.sample_rate)
    srp = audio_mod.srp_phat(feature, subset.array)
    summary = evaluation.score(srp, [f.azimuths for f in subset.frames],
                               [f.frame_index for f in subset.frames])
    _report(summary, args.out, "baseline_")


# ---------------------------------------------------------------------------
# robustness grid
# ---------------------------------------------------------------------------

def _distinct(levels, label):
    """``levels``, refused when two are equal or share an output label."""
    labels = [label(level) for level in levels]
    if len(set(levels)) < len(levels) or len(set(labels)) < len(labels):
        raise ValueError(f"repeated level among {', '.join(map(str, labels))}")
    return levels


def _parse_snr_levels(text):
    return _distinct(tuple(None if item.strip().lower() == "clean" else _finite(item)
                           for item in text.split(",")), evaluation.snr_label)


def _parse_fdsp_levels(text):
    return _distinct(tuple(_finite(x) / 100.0 for x in text.split(",")),
                     evaluation.fdsp_percent)


def cmd_robustness(args):
    # a parsed level list is never empty, so None (no flag) takes the default
    snr_levels = (_parsed(_parse_snr_levels, args.snr_levels, "--snr-levels")
                  or evaluation.SNR_LEVELS_DB)
    fdsp_levels = (_parsed(_parse_fdsp_levels, args.fdsp_levels, "--fdsp-levels")
                   or evaluation.FDSP_LEVELS)
    subset = _load_subset(args)
    model = nn.load_checkpoint(args.checkpoint)
    grid = evaluation.robustness_grid(model, subset, snr_levels, fdsp_levels, args.seed)
    os.makedirs(args.out, exist_ok=True)
    evaluation.write_grid_csv(grid, os.path.join(args.out, "robustness_grid.csv"))
    evaluation.write_plot_data(grid, os.path.join(args.out, "mae_vs_snr.csv"))
    evaluation.render_svg_chart(grid, os.path.join(args.out, "robustness.svg"))
    for snr in grid.snr_levels:
        cells = "  ".join(f"{mae:6.2f}/{acc:5.1f}" for mae, acc in grid.row(snr))
        print(f"SNR {evaluation.snr_label(snr):>5}: {cells}")


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="avdoa",
        description="multi-speaker DoA estimation with audio-visual fusion",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory or file")
    seeded = argparse.ArgumentParser(add_help=False, parents=[out])
    seeded.add_argument("--seed", type=int, default=0, help="master random seed")
    configured = argparse.ArgumentParser(add_help=False, parents=[out])
    configured.add_argument("--config", default=None, help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[configured],
                       help="generate a synthetic dataset directory")
    for field, _, _, flag, help_text in SIMULATE_KEYS:
        p.add_argument(flag, dest=field, help=help_text)
    p.add_argument("--array", default=None, help="array geometry file to use")
    p.add_argument("--calibration", default=None, help="camera calibration file to use")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("features", parents=[seeded],
                       help="extract GCC and visual feature stores")
    p.add_argument("--dataset", required=True)
    p.add_argument("--snr", default=None,
                   help="corrupt audio at this SNR (dB) before extraction")
    p.add_argument("--fdsp", default="0",
                   help="fraction of frames whose detections get swapped")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", parents=[configured], help="train a model on features")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True, choices=["avc", "avaw", "gcc_only"])
    for field, _, _, flag, help_text in TRAIN_KEYS:
        p.add_argument(flag, dest=field, help=help_text)
    p.add_argument("--holdout", type=float, default=0.2,
                   help="trailing fraction of frames excluded from training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[out], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--subset", default="holdout", choices=["holdout", "train", "all"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("robustness", parents=[seeded],
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

    p = sub.add_parser("baseline", parents=[seeded],
                       help="SRP-PHAT baseline on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--snr", default=None)
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
