"""Azimuth decoding and localization metrics.

Errors are circular (wrapped to [0, 180]); multi-source frames are scored
after matching predictions to ground truths with the permutation that
minimizes the total angular error, exact for up to four sources.  A frame
counts toward accuracy when its matched error is at most the allowance
(5 degrees, inclusive).
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CardinalityMismatch, EmptyDataset
from .geom import wrap_degrees
from .store import write_text

ACC_ALLOWANCE_DEG = 5.0
NMS_RADIUS_DEG = 10.0
SNR_LEVELS_DB = (-10.0, 0.0, 10.0, 20.0, None)   # None = clean
FDSP_LEVELS = (0.0, 0.1, 0.3, 0.5, 0.7)
_MAX_SOURCES = 4
_TIE_DEG = 1e-9     # matching costs closer than this tie


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
    """Matched per-source errors under the cost-minimizing permutation.

    Matchings whose costs differ by at most 1e-9 tie (both predictions on
    one side of both truths, say); the first in ``itertools`` order wins,
    so summation rounding does not pick among them.
    """
    preds = list(predictions)
    truths = list(ground_truths)
    if len(preds) != len(truths):
        raise CardinalityMismatch(f"{len(preds)} predictions vs {len(truths)} ground truths")
    if len(truths) > _MAX_SOURCES:
        raise ValueError(f"exhaustive matching supports at most {_MAX_SOURCES} sources")
    if not truths:
        return []
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(len(preds))):
        errors = [float(angular_error(preds[i], truths[k])) for k, i in enumerate(perm)]
        if sum(errors) < best_cost - _TIE_DEG:
            best, best_cost = errors, sum(errors)
    return best


@dataclass
class EvalResult:
    mae: float
    acc: float
    frame_count: int
    records: list = field(default_factory=list)   # per-frame dicts


def mae_acc(pred_sets, gt_sets, frame_indices=None):
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
    for index, preds, truths in zip(frame_indices, pred_sets, gt_sets):
        records.append({
            "frame_index": int(index),
            "gt": [float(g) for g in truths],
            "pred": [float(p) for p in preds],
            "matched_errors": match_sources(preds, truths),
        })
    return _result(records)


def _result(records):
    errors = np.array([e for record in records for e in record["matched_errors"]])
    if errors.size == 0:
        raise EmptyDataset("no sources to score")
    return EvalResult(
        mae=float(errors.mean()),
        acc=float(100.0 * np.mean(errors <= ACC_ALLOWANCE_DEG)),
        frame_count=len(records),
        records=records,
    )


def score(score_maps, truths, frame_indices=None):
    """Decode each frame's 360-bin map for its known source count and score it.

    Returns {"n1", "n2", "overall"} -> EvalResult, None for a subset with no
    frames.  Every frame is matched once: the N=1 and N=2 results are built
    from the overall result's per-frame records.
    """
    truths = list(truths)
    preds = [decode_doa(scores, len(t)) for scores, t in zip(score_maps, truths)]
    overall = mae_acc(preds, truths, frame_indices)
    summary = {"overall": overall}
    for label, n in (("n1", 1), ("n2", 2)):
        records = [record for record in overall.records if len(record["gt"]) == n]
        summary[label] = _result(records) if records else None
    return summary


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


def fdsp_percent(fdsp):
    """An FDSP fraction as the whole percent that labels its column."""
    return int(round(100 * fdsp))


def robustness_grid(model, dataset, snr_levels=SNR_LEVELS_DB, fdsp_levels=FDSP_LEVELS,
                    seed=0):
    """Evaluate a trained model over the SNR x FDSP corruption grid.

    One visual stack per FDSP level (first: a bad level fails before any
    GCC work) times one GCC stack per SNR level, seeded as ``features``
    seeds them: cell (snr, fdsp) is the model, in eval mode, on
    ``extract_features(dataset, snr, fdsp, seed)``.
    """
    from .dataset import feature_matrices, gcc_stack, visual_stack

    truths = [frame.azimuths for frame in dataset.frames]
    visuals = [visual_stack(dataset, fdsp, seed) for fdsp in fdsp_levels]
    cells = {}
    for snr in snr_levels:
        gcc = gcc_stack(dataset, snr, seed)
        for fdsp, vis in zip(fdsp_levels, visuals):
            posterior = model.forward(*feature_matrices(gcc, vis), train=False)
            result = score(posterior, truths)["overall"]
            cells[(snr, fdsp)] = (result.mae, result.acc)
    return RobustnessGrid(tuple(snr_levels), tuple(fdsp_levels), cells)


def _write_table(grid, path, column, cell):
    """CSV with one row per SNR level and one column per FDSP level; each
    cell is ``cell.format(mae, acc)``."""
    header = ["snr_db"] + [f"{column}_{fdsp_percent(f)}pct" for f in grid.fdsp_levels]
    write_text(path, [",".join(header), *(
        ",".join([snr_label(snr)] + [cell.format(mae, acc) for mae, acc in grid.row(snr)])
        for snr in grid.snr_levels)])


def write_grid_csv(grid, path):
    """Grid summary CSV: rows SNR, columns FDSP, cells "mae/acc"."""
    _write_table(grid, path, "fdsp", "{0:.3f}/{1:.2f}")


def write_plot_data(grid, path):
    """MAE-vs-SNR curves, one column per FDSP level."""
    _write_table(grid, path, "mae_fdsp", "{0:.4f}")


def render_svg_chart(grid, path):
    """Dependency-free static line chart of the MAE-vs-SNR curves."""
    width, height, left, right, top, bottom = 640, 420, 60, 150, 30, 50
    plot_w, plot_h = width - left - right, height - top - bottom
    colors = ["#d62728", "#ff7f0e", "#2ca02c", "#1f77b4", "#9467bd", "#8c564b"]
    y_max = max(mae for mae, _ in grid.cells.values()) * 1.05 or 1.0

    def x_pos(i):
        return left + plot_w * (i / max(len(grid.snr_levels) - 1, 1))

    def y_pos(value):
        return top + plot_h * (1.0 - value / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" '
        f'x2="{left + plot_w}" y2="{top + plot_h}" stroke="black"/>',
        f'<text x="{left - 45}" y="{top + plot_h / 2}" font-size="12" '
        f'transform="rotate(-90 {left - 45} {top + plot_h / 2})">MAE (deg)</text>',
        f'<text x="{left + plot_w / 2 - 30}" y="{height - 12}" '
        f'font-size="12">audio SNR (dB)</text>',
        *(f'<text x="{x_pos(i) - 10}" y="{top + plot_h + 18}" font-size="11">'
          f"{snr_label(snr)}</text>" for i, snr in enumerate(grid.snr_levels)),
        *(f'<text x="{left - 38}" y="{y_pos(tick) + 4}" font-size="11">{tick:.0f}</text>'
          for tick in np.linspace(0.0, y_max, 5)),
    ]
    for j, fdsp in enumerate(grid.fdsp_levels):
        color, ly = colors[j % len(colors)], top + 16 * j + 10
        points = " ".join(f"{x_pos(i):.1f},{y_pos(grid.cells[(snr, fdsp)][0]):.1f}"
                          for i, snr in enumerate(grid.snr_levels))
        parts += [
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>',
            f'<line x1="{width - right + 10}" y1="{ly}" x2="{width - right + 35}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>',
            f'<text x="{width - right + 42}" y="{ly + 4}" font-size="11">'
            f"FDSP {fdsp_percent(fdsp)}%</text>",
        ]
    parts.append("</svg>")
    write_text(path, parts)
