"""Synthetic dataset generation and loading.

A dataset directory holds one multichannel WAV (one fixed-length audio
frame per record), a line-delimited manifest whose first line names the
sidecar files, a detections file, and the array/camera geometry files:

    manifest.jsonl     header + one JSON record per frame
    audio.wav          float32, channels = mic count
    detections.jsonl   {"frame_index", "boxes": [[u, v, w, h], ...]}
    array.txt          mic geometry (key = value)
    camera.txt         pinhole calibration (key = value)

Frame records carry the 3D source positions and their azimuths; azimuths
are re-derived from the positions on load and must agree to 1e-6 degrees.
"""

import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import audio as audio_mod
from . import geom, visual
from .errors import ConfigError, EmptyDataset, SampleRateMismatch, TooShort
from .nn import encode_target
from .store import json_field, read_jsonl, write_jsonl

MANIFEST_NAME = "manifest.jsonl"
_IN_FOV_TRIES = 1000


@dataclass(frozen=True)
class SourceRecord:
    source_id: int
    position: np.ndarray            # world meters
    azimuth_deg: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))


@dataclass(frozen=True)
class FrameRecord:
    frame_index: int
    timestamp_s: float
    audio_offset: int               # first sample of this frame in the WAV
    sources: tuple                  # SourceRecord, at least one

    @property
    def azimuths(self):
        return [s.azimuth_deg for s in self.sources]


@dataclass
class ScenarioConfig:
    """Knobs for the synthetic scene generator."""

    frames: int = 200
    source_counts: dict = field(default_factory=lambda: {1: 1.0})
    azimuth_range: tuple = (-180.0, 180.0)
    distance_range: tuple = (1.5, 3.5)
    z_range: tuple = (-0.2, 0.2)
    visibility: float = 0.5         # fraction of sources placed inside the FoV
    min_separation_deg: float = 10.0
    source_kind: str = "speech_like_ar"
    wav_path: str = None
    sample_rate: int = 48000
    frame_len_s: float = audio_mod.DEFAULT_FRAME_LEN_S
    bbox_noise_var: tuple = (0.0, 0.0, 0.0)   # m^2 per axis; 0.2 mimics jittery detectors
    seed: int = 0

    def __post_init__(self):
        if self.frames < 1:
            raise ConfigError("frames must be >= 1")
        counts = {int(k): float(v) for k, v in self.source_counts.items()}
        if not counts or any(n < 1 or n > 2 for n in counts):
            raise ConfigError("source counts must be 1 or 2")
        if abs(sum(counts.values()) - 1.0) > 1e-9 or any(v < 0 for v in counts.values()):
            raise ConfigError("source count probabilities must be >= 0 and sum to 1")
        self.source_counts = counts
        if not -180.0 <= self.azimuth_range[0] < self.azimuth_range[1] <= 180.0:
            raise ConfigError("azimuth_range must be a (low, high) pair inside [-180, 180]")
        if not 0.0 < self.distance_range[0] < self.distance_range[1]:
            raise ConfigError("distance_range must be a (low, high) pair of positive distances")
        if not self.z_range[0] <= self.z_range[1]:
            raise ConfigError("z_range must be a (low, high) pair")
        if not 0.0 <= self.visibility <= 1.0:
            raise ConfigError("visibility must be in [0, 1]")
        # a WAV header holds the rate in a u32, and round(x) >= 1 exactly when x > 0.5
        if not 0 < self.sample_rate < 2**32:
            raise ConfigError("sample_rate must lie in [1, 2**32)")
        if not 0.5 < self.frame_len_s * self.sample_rate < 2**32:
            raise ConfigError("frame_len_s must give from 1 to 2**32 samples")
        if self.source_kind not in audio_mod.SOURCE_KINDS:
            raise ConfigError(f"source_kind must be one of {', '.join(audio_mod.SOURCE_KINDS)}")
        if self.source_kind == "wav_file" and self.wav_path is None:
            raise ConfigError("source_kind wav_file needs wav_path")


def default_calibration():
    """640 x 480 camera, focal length 500 px, at the array origin looking along +x."""
    rotation = np.array([
        [0.0, -1.0, 0.0],    # camera x (right)  = world -y
        [0.0, 0.0, -1.0],    # camera y (down)   = world -z
        [1.0, 0.0, 0.0],     # camera z (optic)  = world +x
    ])
    return geom.CameraCalibration(
        rotation=rotation, translation=np.zeros(3),
        f_u=500.0, f_v=500.0, c_u=320.0, c_v=240.0, width=640, height=480,
    )


def _sample_position(rng, config, array, cal, want_visible, taken_azimuths):
    """Rejection-sample a source pose honoring visibility and separation."""
    for _ in range(_IN_FOV_TRIES):
        azimuth = rng.uniform(*config.azimuth_range)
        distance = rng.uniform(*config.distance_range)
        z = rng.uniform(*config.z_range) if config.z_range[0] < config.z_range[1] \
            else config.z_range[0]
        if any(abs(geom.wrap_degrees(azimuth - a)) < config.min_separation_deg
               for a in taken_azimuths):
            continue
        theta = np.radians(azimuth + array.yaw_deg)
        position = array.origin + np.array(
            [distance * np.cos(theta), distance * np.sin(theta), z]
        )
        if geom.in_view(position, cal) == want_visible:
            return position, float(geom.wrap_degrees(azimuth))
    raise ConfigError(
        "could not place a source with the requested visibility; "
        "check azimuth_range against the camera field of view"
    )


def simulate(config, out_dir, array=None, calibration=None):
    """Generate a dataset directory from a scenario config.

    Deterministic for a fixed config seed.  Face boxes are synthesized only
    for sources designated visible (and land inside the image by
    construction when ``bbox_noise_var`` is zero).
    """
    array = array if array is not None else geom.MicArray.square()
    cal = calibration if calibration is not None else default_calibration()
    frame_samples = int(round(config.frame_len_s * config.sample_rate))
    wav_path = os.path.join(out_dir, "audio.wav")
    # refused here, before any file of the dataset is written
    audio_mod.check_wav_size(wav_path, array.n_mics, config.frames * frame_samples,
                             config.sample_rate)
    # a wav_file scene reads its file once; each source takes a segment of it
    wav = None
    if config.source_kind == "wav_file":
        wav = audio_mod.load_wav(config.wav_path)
        if wav.sample_rate != config.sample_rate:
            raise SampleRateMismatch(
                f"{config.wav_path}: {wav.sample_rate} Hz, requested {config.sample_rate} Hz")
        if wav.n_samples < frame_samples:
            raise TooShort(
                f"{config.wav_path}: {wav.n_samples} samples < {frame_samples} requested")

    # time-major, so the WAV writer gets C-contiguous (frames, channels) data
    buffer = np.zeros((config.frames * frame_samples, array.n_mics), dtype=np.float32)
    records = []
    detection_frames = []
    count_values = sorted(config.source_counts)
    count_probs = [config.source_counts[k] for k in count_values]
    for f in range(config.frames):
        scene_rng = np.random.default_rng([config.seed, 2, f])
        n_sources = int(scene_rng.choice(count_values, p=count_probs))
        sources = []
        boxes = []
        rendered = []
        for s in range(n_sources):
            visible = bool(scene_rng.random() < config.visibility)
            position, azimuth = _sample_position(
                scene_rng, config, array, cal, visible,
                [src.azimuth_deg for src in sources],
            )
            sources.append(SourceRecord(s, position, azimuth))
            signal = audio_mod.synth_source(
                config.source_kind, config.frame_len_s, config.sample_rate,
                seed=[config.seed, 3, f, s], wav=wav,
            )
            rendered.append((signal, azimuth))
            if visible:
                box = geom.synthesize_bbox(
                    position, cal, variances=config.bbox_noise_var,
                    rng=np.random.default_rng([config.seed, 4, f, s]),
                )
                if box is not None:
                    boxes.append(box)
        frame_audio = audio_mod.render_array(rendered, array)
        start = f * frame_samples
        buffer[start:start + frame_samples] = frame_audio.samples[:, :frame_samples].T
        records.append(FrameRecord(
            frame_index=f,
            timestamp_s=f * config.frame_len_s,
            audio_offset=start,
            sources=tuple(sources),
        ))
        detection_frames.append(visual.DetectionFrame(f, tuple(boxes)))

    os.makedirs(out_dir, exist_ok=True)
    geom.save_array_geometry(array, os.path.join(out_dir, "array.txt"))
    geom.save_calibration(cal, os.path.join(out_dir, "camera.txt"))
    audio_mod.save_wav(wav_path, audio_mod.MultichannelAudio(buffer.T, config.sample_rate))
    visual.save_detections(detection_frames, os.path.join(out_dir, "detections.jsonl"))
    header = {
        "format": "avdoa-dataset",
        "version": 1,
        "sample_rate": config.sample_rate,
        "frame_samples": frame_samples,
        "frame_len_s": config.frame_len_s,
        "array_file": "array.txt",
        "calibration_file": "camera.txt",
        "audio_file": "audio.wav",
        "detections_file": "detections.jsonl",
    }
    write_jsonl(os.path.join(out_dir, MANIFEST_NAME), [header] + [
        {
            "frame_index": record.frame_index,
            "timestamp_s": record.timestamp_s,
            "audio_offset": record.audio_offset,
            "active_sources": [
                {"id": src.source_id, "x": src.position[0], "y": src.position[1],
                 "z": src.position[2], "azimuth_deg": src.azimuth_deg}
                for src in record.sources
            ],
        }
        for record in records
    ])
    return out_dir


def _read_frame(raw, where, array, frame_samples, n_samples):
    """A manifest frame record, checked against the array and the WAV's length."""
    index = json_field(raw, "frame_index", int, where)
    if not 0 <= index < 2**32:      # feature stores keep it as a u32
        raise ConfigError(f"{where}: 'frame_index' must lie in [0, 2**32)")
    sources = []
    for src in json_field(raw, "active_sources", list, where):
        if not isinstance(src, dict):
            raise ConfigError(f"{where}: each active source must be a JSON object")
        position = np.array([json_field(src, axis, float, where) for axis in "xyz"])
        derived = geom.doa_from_position(position, array)
        azimuth = geom.checked_azimuth(
            float(json_field(src, "azimuth_deg", float, where, derived)), where)
        if abs(geom.wrap_degrees(azimuth - derived)) > 1e-6:
            raise ConfigError(
                f"{where}: frame {index} azimuth {azimuth} inconsistent "
                f"with position (expected {derived:.8f})"
            )
        sources.append(SourceRecord(json_field(src, "id", int, where, len(sources)),
                                    position, azimuth))
    if not sources:
        raise ConfigError(f"{where}: 'active_sources' is empty")
    # plain annotation manifests may omit the offset; frames then sit back
    # to back in the WAV
    offset = json_field(raw, "audio_offset", int, where, index * frame_samples)
    if offset < 0 or offset + frame_samples > n_samples:
        raise TooShort(f"{where}: frame {index} needs samples {offset} to "
                       f"{offset + frame_samples}, but the WAV has {n_samples}")
    return FrameRecord(index, float(json_field(raw, "timestamp_s", float, where)),
                       offset, tuple(sources))


class FrameDataset:
    """A loaded dataset: frame records, detections and the shared audio."""

    def __init__(self, frames, detections, audio, array, calibration, frame_samples):
        if len(frames) != len(detections):
            raise ConfigError("frame and detection counts differ")
        if not frames:
            raise EmptyDataset("dataset has no frames")
        for record, det in zip(frames, detections):
            if record.frame_index != det.frame_index:
                raise ConfigError("manifest and detection frame indices disagree")
        self.frames = list(frames)
        self.detections = list(detections)
        self.audio = audio
        self.array = array
        self.calibration = calibration
        self.frame_samples = frame_samples

    def __len__(self):
        return len(self.frames)

    @classmethod
    def load(cls, dataset_dir):
        manifest = os.path.join(dataset_dir, MANIFEST_NAME)
        records = read_jsonl(manifest)
        lineno, header = next(records, (None, None))
        if header is None:
            raise ConfigError(f"{manifest}: empty manifest")
        where = f"{manifest}:{lineno}"
        if header.get("format") != "avdoa-dataset":
            raise ConfigError(f"{where}: not a dataset manifest")

        def sidecar(key):
            return os.path.join(dataset_dir, json_field(header, key, str, where))

        array = geom.load_array_geometry(sidecar("array_file"))
        cal = geom.load_calibration(sidecar("calibration_file"))
        audio = audio_mod.load_wav(sidecar("audio_file"))
        if audio.sample_rate != json_field(header, "sample_rate", int, where):
            raise ConfigError(f"{where}: WAV sample rate disagrees with header")
        detections = visual.load_detections(sidecar("detections_file"))
        frame_samples = json_field(header, "frame_samples", int, where)
        if frame_samples < 1:
            raise ConfigError(f"{where}: 'frame_samples' must be positive")
        frames = []
        for lineno, raw in records:
            where = f"{manifest}:{lineno}"
            frame = _read_frame(raw, where, array, frame_samples, audio.n_samples)
            if frames and frame.frame_index <= frames[-1].frame_index:
                raise ConfigError(f"{where}: frame indices must strictly increase")
            frames.append(frame)
        detections_by_index = {d.frame_index: d for d in detections}
        try:
            aligned = [detections_by_index[r.frame_index] for r in frames]
        except KeyError as exc:
            raise ConfigError(f"{manifest}: missing detections for frame {exc}") from exc
        return cls(frames, aligned, audio, array, cal, frame_samples)

    def subset(self, indices):
        """Dataset restricted to the given frame positions.

        The shared audio is sliced down to just the selected frames (with
        offsets rewritten, dtype kept), so corruption and feature extraction
        on a subset cost proportionally to its size.  A dataset that already
        holds exactly those frames back to back is returned as it is.
        """
        indices = list(indices)
        n = self.frame_samples
        if (indices == list(range(len(self))) and self.audio.n_samples == len(self) * n
                and [f.audio_offset for f in self.frames] == list(range(0, len(self) * n, n))):
            return self
        buffer = np.empty((self.audio.n_channels, len(indices) * n), self.audio.samples.dtype)
        frames = []
        for k, i in enumerate(indices):
            record = self.frames[i]
            buffer[:, k * n:(k + 1) * n] = \
                self.audio.samples[:, record.audio_offset:record.audio_offset + n]
            frames.append(replace(record, audio_offset=k * n))
        return FrameDataset(
            frames,
            [self.detections[i] for i in indices],
            audio_mod.MultichannelAudio(buffer, self.audio.sample_rate),
            self.array, self.calibration, self.frame_samples,
        )


def _seed_list(seed):
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    return [int(seed)]


def gcc_stack(dataset, snr_db=None, seed=0):
    """Per-frame GCC-PHAT, shape (F, pairs, lags), of audio noised to ``snr_db`` if given."""
    signal = dataset.audio
    if snr_db is not None:
        signal = audio_mod.add_noise_at_snr(signal, snr_db, seed=_seed_list(seed) + [0])
    n = dataset.frame_samples
    rows = []
    for record in dataset.frames:
        frame = audio_mod.MultichannelAudio(
            signal.samples[:, record.audio_offset:record.audio_offset + n], signal.sample_rate)
        rows.append(audio_mod.gcc_feature(frame).values)
    return np.stack(rows)


def visual_stack(dataset, fdsp=0.0, seed=0):
    """Per-frame visual features, shape (F, 2, FEATURE_LENGTH), after swapping a share ``fdsp``."""
    if not 0.0 <= fdsp <= 1.0:
        raise ConfigError(f"FDSP must be a fraction in [0, 1], got {fdsp}")
    detections = dataset.detections
    if fdsp > 0.0:
        detections = visual.swap_detections(detections, fdsp, seed=_seed_list(seed) + [1])
    cal = dataset.calibration
    return np.stack([visual.encode_visual(det, cal.width, cal.height) for det in detections])


def extract_features(dataset, snr_db=None, fdsp=0.0, seed=0):
    """``gcc_stack`` and ``visual_stack`` of a dataset, each with its own corruption."""
    vis = visual_stack(dataset, fdsp, seed)    # first: it checks fdsp before the GCC pass
    return gcc_stack(dataset, snr_db, seed), vis


def feature_matrices(gcc, vis):
    """Flatten stacked per-frame features to network input matrices."""
    return gcc.reshape(len(gcc), -1), vis.reshape(len(vis), -1)


def build_targets(frames):
    """Stack soft azimuth targets, at the default sigma, for a list of frame records."""
    return np.stack([encode_target(f.azimuths) for f in frames])


def split_indices(n_frames, holdout_frac):
    """Deterministic train/test split: the trailing fraction is held out."""
    if not 0.0 <= holdout_frac < 1.0:
        raise ConfigError("holdout fraction must be in [0, 1)")
    n_test = int(round(holdout_frac * n_frames))
    return list(range(n_frames - n_test)), list(range(n_frames - n_test, n_frames))
