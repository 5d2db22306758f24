"""Azimuth decoding and localization metrics.

Errors are circular (wrapped to [0, 180]); multi-source frames are scored
after matching predictions to ground truths with the permutation that
minimizes the total angular error, exact for up to four sources.  A frame
counts toward accuracy when its matched error is at most the allowance
(5 degrees, inclusive).
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CardinalityMismatch, EmptyDataset
from .geom import wrap_degrees

ACC_ALLOWANCE_DEG = 5.0
NMS_RADIUS_DEG = 10.0
SNR_LEVELS_DB = (-10.0, 0.0, 10.0, 20.0, None)   # None = clean
FDSP_LEVELS = (0.0, 0.1, 0.3, 0.5, 0.7)
_MAX_SOURCES = 4


def angular_error(a, b):
    """Absolute circular distance between azimuths in degrees, in [0, 180]."""
    return np.abs(wrap_degrees(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


def decode_doa(scores, n_sources, min_separation_deg=NMS_RADIUS_DEG):
    """Pick ``n_sources`` azimuths from a 360-bin score vector.

    Bin i maps to azimuth i - 180.  One greedy pick per source: bins are
    visited with circular local maxima first, each group in decreasing
    score order (ties to the lower index), and the first bin not yet taken
    nor within ``min_separation_deg`` of an accepted pick is accepted.
    When every bin is taken or suppressed, the highest untaken bin is used,
    so exactly n azimuths return.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    n_bins = scores.size
    if not 1 <= n_sources <= _MAX_SOURCES:
        raise ValueError(f"n_sources must be in 1..{_MAX_SOURCES}")
    bins = np.arange(n_bins)
    is_peak = (scores >= np.roll(scores, 1)) & (scores >= np.roll(scores, -1))
    order = np.lexsort((bins, -scores, ~is_peak))
    blocked = np.zeros(n_bins, dtype=bool)   # taken or suppressed
    chosen = []
    for _ in range(min(n_sources, n_bins)):
        free = order[~blocked[order]]
        if free.size:
            pick = free[0]
        else:
            untaken = np.setdiff1d(bins, chosen)
            pick = untaken[np.argmax(scores[untaken])]
        chosen.append(pick)
        gap = np.abs(bins - pick)
        blocked |= np.minimum(gap, n_bins - gap) * (360.0 / n_bins) < min_separation_deg
        blocked[pick] = True
    return [float(i - 180) for i in chosen]


def match_sources(predictions, ground_truths):
    """Matched per-source errors under the cost-minimizing permutation."""
    preds = list(predictions)
    truths = list(ground_truths)
    if len(preds) != len(truths):
        raise CardinalityMismatch(f"{len(preds)} predictions vs {len(truths)} ground truths")
    if len(truths) > _MAX_SOURCES:
        raise ValueError(f"exhaustive matching supports at most {_MAX_SOURCES} sources")
    if not truths:
        return []
    best = None
    for perm in itertools.permutations(range(len(preds))):
        errors = [float(angular_error(preds[i], truths[k])) for k, i in enumerate(perm)]
        if best is None or sum(errors) < sum(best):
            best = errors
    return best


@dataclass
class EvalResult:
    mae: float
    acc: float
    frame_count: int
    records: list = field(default_factory=list)   # per-frame dicts


def mae_acc(pred_sets, gt_sets, frame_indices=None, allowance_deg=ACC_ALLOWANCE_DEG):
    """MAE and accuracy over per-frame azimuth sets (known source count)."""
    pred_sets = list(pred_sets)
    gt_sets = list(gt_sets)
    if len(pred_sets) != len(gt_sets):
        raise CardinalityMismatch("pred and gt frame counts differ")
    if not gt_sets:
        raise EmptyDataset("evaluation needs at least one frame")
    if frame_indices is None:
        frame_indices = range(len(gt_sets))
    records = []
    errors = []
    for index, preds, truths in zip(frame_indices, pred_sets, gt_sets):
        matched = match_sources(preds, truths)
        errors.extend(matched)
        records.append({
            "frame_index": int(index),
            "gt": [float(g) for g in truths],
            "pred": [float(p) for p in preds],
            "matched_errors": matched,
        })
    errors = np.array(errors)
    if errors.size == 0:
        raise EmptyDataset("no sources to score")
    return EvalResult(
        mae=float(errors.mean()),
        acc=float(100.0 * np.mean(errors <= allowance_deg)),
        frame_count=len(gt_sets),
        records=records,
    )


def write_results(result, path):
    """Per-frame results as line-delimited JSON records."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in result.records:
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# robustness protocol: SNR x FDSP grid, corruptions at test time only
# ---------------------------------------------------------------------------

@dataclass
class RobustnessGrid:
    snr_levels: tuple              # dB values, None meaning clean audio
    fdsp_levels: tuple             # fractions in [0, 1]
    cells: dict                    # (snr, fdsp) -> (mae, acc)

    def row(self, snr):
        return [self.cells[(snr, f)] for f in self.fdsp_levels]


def snr_label(snr):
    return "clean" if snr is None else f"{snr:g}"


def robustness_grid(model, dataset, snr_levels=SNR_LEVELS_DB, fdsp_levels=FDSP_LEVELS,
                    seed=0):
    """Evaluate a trained model over the SNR x FDSP corruption grid.

    Each cell re-extracts features from the dataset with that cell's audio
    noise and detection swapping (seeded per cell, so the grid is
    deterministic), runs the model in eval mode and scores it.
    """
    from .dataset import extract_features, feature_matrices

    cells = {}
    for i, snr in enumerate(snr_levels):
        for j, fdsp in enumerate(fdsp_levels):
            gcc, vis = extract_features(
                dataset, snr_db=snr, fdsp=fdsp, seed=[seed, i, j],
            )
            gcc_mat, vis_mat = feature_matrices(gcc, vis)
            posterior = model.forward(gcc_mat, vis_mat, train=False)
            preds = [
                decode_doa(posterior[k], len(frame.azimuths))
                for k, frame in enumerate(dataset.frames)
            ]
            gts = [frame.azimuths for frame in dataset.frames]
            result = mae_acc(preds, gts)
            cells[(snr, fdsp)] = (result.mae, result.acc)
    return RobustnessGrid(tuple(snr_levels), tuple(fdsp_levels), cells)


def write_grid_csv(grid, path):
    """Grid summary CSV: rows SNR, columns FDSP, cells "mae/acc"."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ["snr_db"] + [f"fdsp_{int(round(100 * f))}pct" for f in grid.fdsp_levels]
        fh.write(",".join(header) + "\n")
        for snr in grid.snr_levels:
            cells = [f"{mae:.3f}/{acc:.2f}" for mae, acc in grid.row(snr)]
            fh.write(",".join([snr_label(snr)] + cells) + "\n")
