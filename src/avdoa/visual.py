"""Face-detection encoding and detection-level corruption.

Detections are encoded per image axis: a horizontal and a vertical track
of L grid points, each holding the peak-1 Gaussian bump of the nearest
detection (std = box width for the horizontal axis, box height for the
vertical one).  Frames without detections get a flat 1/L vector so
"nothing seen" stays numerically distinct from every detection encoding.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyDataset
from .geom import BoundingBox
from .store import json_field, json_numbers, read_jsonl

FEATURE_LENGTH = 51


@dataclass(frozen=True)
class DetectionFrame:
    frame_index: int
    boxes: tuple = field(default_factory=tuple)   # BoundingBox, possibly empty

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))


def _axis_track(grid, centers, sigmas):
    gauss = np.exp(-((grid[None, :] - centers[:, None]) ** 2)
                   / (2.0 * sigmas[:, None] ** 2))
    return gauss.max(axis=0)


def encode_visual(frame, image_w, image_h):
    """Encode a frame's detections as a (2, FEATURE_LENGTH) feature.

    Row 0 samples the horizontal axis at FEATURE_LENGTH points spanning
    [0, image_w] inclusive, row 1 the vertical axis over [0, image_h].
    Multiple detections combine by pointwise max.  Box centers outside the
    image are still encoded; their tails may reach into the grid.
    """
    if image_w <= 0 or image_h <= 0:
        raise ValueError("image dimensions must be positive")
    if not frame.boxes:
        return np.full((2, FEATURE_LENGTH), 1.0 / FEATURE_LENGTH)
    centers = np.array([box.center for box in frame.boxes])
    widths = np.array([box.w for box in frame.boxes])
    heights = np.array([box.h for box in frame.boxes])
    grid_u = np.linspace(0.0, image_w, FEATURE_LENGTH)
    grid_v = np.linspace(0.0, image_h, FEATURE_LENGTH)
    return np.stack([
        _axis_track(grid_u, centers[:, 0], widths),
        _axis_track(grid_v, centers[:, 1], heights),
    ])


def swap_detections(frames, fdsp, seed=None):
    """Exchange detection sets between random frame pairs.

    ``fdsp`` is the fraction of frames whose detections get swapped away:
    ceil(fdsp * F) distinct frames are selected and paired at random; an
    odd leftover swaps with a random non-selected frame (or stays put when
    every frame was selected).  The multiset of detection sets over all
    frames is preserved; the input list is not modified.  Deterministic
    for a fixed seed.
    """
    if not 0.0 <= fdsp <= 1.0:
        raise ValueError("fdsp must be in [0, 1]")
    frames = list(frames)
    n = len(frames)
    rng = np.random.default_rng(seed)
    selected = rng.permutation(n)[:int(np.ceil(fdsp * n))]
    boxes = [frame.boxes for frame in frames]
    for i in range(0, len(selected) - 1, 2):
        a, b = selected[i], selected[i + 1]
        boxes[a], boxes[b] = boxes[b], boxes[a]
    if len(selected) % 2 == 1:
        leftover = selected[-1]
        others = np.setdiff1d(np.arange(n), selected)
        if others.size:
            partner = int(rng.choice(others))
            boxes[leftover], boxes[partner] = boxes[partner], boxes[leftover]
    return [
        DetectionFrame(frame.frame_index, box_set)
        for frame, box_set in zip(frames, boxes)
    ]


def detection_rate(frames):
    """Percentage of frames that contain at least one detection."""
    frames = list(frames)
    if not frames:
        raise EmptyDataset("detection rate needs at least one frame")
    hits = sum(1 for frame in frames if frame.boxes)
    return 100.0 * hits / len(frames)


# ---------------------------------------------------------------------------
# detection files: one JSON record per line {"frame_index", "boxes"}
# ---------------------------------------------------------------------------

def save_detections(frames, path):
    with open(path, "w", encoding="utf-8") as fh:
        for frame in frames:
            record = {
                "frame_index": frame.frame_index,
                "boxes": [[box.u, box.v, box.w, box.h] for box in frame.boxes],
            }
            fh.write(json.dumps(record) + "\n")


def load_detections(path):
    frames = []
    seen = set()
    for lineno, record in read_jsonl(path):
        where = f"{path}:{lineno}"
        index = json_field(record, "frame_index", int, where)
        if index in seen:
            raise ConfigError(f"{where}: a second record for frame {index}")
        seen.add(index)
        values = [json_numbers(box, where, "each box", 4)
                  for box in json_field(record, "boxes", list, where)]
        try:
            boxes = tuple(BoundingBox(*box) for box in values)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        frames.append(DetectionFrame(index, boxes))
    return frames
