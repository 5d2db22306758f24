"""Camera geometry and array geometry.

World-to-camera transforms, pinhole projection, synthetic face bounding
boxes from (optionally jittered) 3D positions, and ground-truth azimuth
computation for a microphone array.

Conventions, used consistently everywhere in this package:
  * world frame: x forward, y left, z up (right-handed)
  * azimuth: degrees in [-180, 180), 0 along the array forward axis,
    counter-clockwise positive when viewed from above
  * extrinsics map world to camera coordinates, p_cam = R @ p + t
  * camera frame: x right, y down, z along the optical axis
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCamera, ConfigError, DegenerateGeometry
from .store import read_key_values, write_key_values


def wrap_degrees(angle):
    """Wrap an angle (scalar or array, degrees) into [-180, 180)."""
    return (np.asarray(angle, dtype=float) + 180.0) % 360.0 - 180.0


def checked_azimuth(azimuth, where):
    """``azimuth``, read from a file; ConfigError naming ``where`` unless it
    lies in [-180, 180)."""
    if not -180.0 <= azimuth < 180.0:
        raise ConfigError(f"{where}: azimuth {azimuth} outside [-180, 180)")
    return azimuth


def _as_point(p):
    p = np.asarray(p, dtype=float).reshape(3)
    if not np.all(np.isfinite(p)):
        raise ValueError(f"point has non-finite components: {p}")
    return p


@dataclass(frozen=True)
class CameraCalibration:
    """Pinhole camera: rigid world-to-camera extrinsics plus intrinsics."""

    rotation: np.ndarray        # 3x3, world -> camera
    translation: np.ndarray     # 3-vector, meters
    f_u: float                  # focal lengths, pixels
    f_v: float
    c_u: float                  # principal point, pixels
    c_v: float
    width: int                  # image size, pixels
    height: int

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation must be orthonormal with determinant +1")
        if self.f_u <= 0 or self.f_v <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")


@dataclass(frozen=True)
class FaceSize:
    """Physical face extent used for synthetic bounding boxes (meters)."""

    width_m: float = 0.14
    height_m: float = 0.18

    def __post_init__(self):
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("face dimensions must be positive")


@dataclass(frozen=True)
class BoundingBox:
    """Face detection box: top-left pixel position plus size in pixels."""

    u: float
    v: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError("bounding box width and height must be positive")

    @property
    def center(self):
        return (self.u + 0.5 * self.w, self.v + 0.5 * self.h)


@dataclass(frozen=True)
class MicArray:
    """Microphone positions (array frame, meters) and array pose in the world.

    The array frame shares the azimuth convention of the module: its x axis
    is the forward direction that azimuth 0 refers to.
    """

    positions: np.ndarray                 # (n_mics, 3)
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw_deg: float = 0.0
    speed_of_sound: float = 343.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(3))
        if len(pos) < 2:
            raise ValueError("need at least two microphones")
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        if dist.min() < 1e-9:
            raise ValueError("two microphones coincide")
        if self.speed_of_sound <= 0:
            raise ValueError("speed of sound must be positive")

    @property
    def n_mics(self):
        return len(self.positions)

    def pairs(self):
        """Unordered mic pairs (l < p) in lexicographic order."""
        n = self.n_mics
        return [(l, p) for l in range(n) for p in range(l + 1, n)]

    @classmethod
    def square(cls, side=0.1, **kwargs):
        """Four mics at the corners of a horizontal square (default geometry)."""
        s = side / 2.0
        pos = [(s, s, 0.0), (-s, s, 0.0), (-s, -s, 0.0), (s, -s, 0.0)]
        return cls(positions=np.array(pos), **kwargs)


def perturb_location(point, variances, rng):
    """Add independent zero-mean Gaussian noise to a 3D point.

    ``variances`` are the per-axis noise variances in m^2 (the diagonal of
    the spatial noise covariance).  ``rng`` is a seed or a
    numpy.random.Generator; a fixed seed gives bit-reproducible output.
    """
    p = _as_point(point)
    var = np.asarray(variances, dtype=float).reshape(3)
    if np.any(var < 0) or not np.all(np.isfinite(var)):
        raise ValueError("noise variances must be finite and non-negative")
    rng = np.random.default_rng(rng)
    return p + rng.normal(0.0, np.sqrt(var))


def world_to_camera(point, cal):
    """Rigid transform into camera coordinates: R @ p + t."""
    return cal.rotation @ _as_point(point) + cal.translation


def project_point(point_cam, cal):
    """Pinhole projection of a camera-frame point to pixel coordinates.

    Raises BehindCamera when the point is not strictly in front of the
    camera (z <= 0).
    """
    x, y, z = _as_point(point_cam)
    if z <= 0:
        raise BehindCamera(f"point at z={z:.6g} is not in front of the camera")
    return np.array([cal.f_u * x / z + cal.c_u, cal.f_v * y / z + cal.c_v])


def in_view(point, cal):
    """Whether a world point is visible: strictly in front of the camera, with
    its projection inside the image (right and bottom edges excluded)."""
    p_cam = world_to_camera(point, cal)
    if p_cam[2] <= 0:
        return False
    u, v = project_point(p_cam, cal)
    return bool(0 <= u < cal.width and 0 <= v < cal.height)


def synthesize_bbox(point, cal, face=FaceSize(), variances=(0.0, 0.0, 0.0), rng=None):
    """Simulate a face detection for a 3D head position.

    The position is jittered by ``variances``, moved into camera
    coordinates, and a face-sized rectangle perpendicular to the optical
    axis is projected: top-left corner offset (-W/2, -H/2, 0), bottom-right
    (+W/2, +H/2, 0).  The box is (top_left, bottom_right - top_left).

    Returns None when the jittered point is not ``in_view``: behind the
    camera, or with its projection center outside the image.  Boxes
    whose corners stick out of the image are kept un-clipped.
    """
    noisy = perturb_location(point, variances, rng)
    if not in_view(noisy, cal):
        return None
    p_cam = world_to_camera(noisy, cal)
    half = np.array([face.width_m / 2.0, face.height_m / 2.0, 0.0])
    top_left = project_point(p_cam - half, cal)
    bottom_right = project_point(p_cam + half, cal)
    size = bottom_right - top_left
    return BoundingBox(u=top_left[0], v=top_left[1], w=size[0], h=size[1])


def doa_from_position(point, array):
    """Ground-truth azimuth of a world point relative to an array, degrees.

    Measured in the horizontal plane from the array's forward (yaw) axis,
    counter-clockwise positive, wrapped to [-180, 180).
    """
    delta = _as_point(point) - array.origin
    if np.hypot(delta[0], delta[1]) <= 1e-6:
        raise DegenerateGeometry("target is on the array's vertical axis")
    azimuth = np.degrees(np.arctan2(delta[1], delta[0])) - array.yaw_deg
    return float(wrap_degrees(azimuth))


# ---------------------------------------------------------------------------
# key = value text files for calibration and array geometry
# ---------------------------------------------------------------------------

def _floats(value, key, count, path):
    """The ``count`` finite numbers of one entry's value."""
    try:
        numbers = [float(p) for p in value.split()]
    except ValueError:
        numbers = [math.nan]
    if len(numbers) != count or not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{path}: '{key}' needs {count} finite number(s), got {value!r}")
    return numbers


def _kv_floats(entries, key, count, path):
    values = [v for k, v in entries if k == key]
    if len(values) != 1:
        raise ConfigError(f"{path}: expected exactly one '{key}' entry")
    return _floats(values[0], key, count, path)


def save_calibration(cal, path):
    write_key_values(path, "pinhole camera calibration", [
        ("rotation", cal.rotation.ravel()), ("translation", cal.translation),
        *((key, [getattr(cal, key)]) for key in ("f_u", "f_v", "c_u", "c_v", "width", "height"))])


def load_calibration(path):
    entries = read_key_values(path)
    try:
        return CameraCalibration(
            rotation=np.array(_kv_floats(entries, "rotation", 9, path)).reshape(3, 3),
            translation=np.array(_kv_floats(entries, "translation", 3, path)),
            f_u=_kv_floats(entries, "f_u", 1, path)[0],
            f_v=_kv_floats(entries, "f_v", 1, path)[0],
            c_u=_kv_floats(entries, "c_u", 1, path)[0],
            c_v=_kv_floats(entries, "c_v", 1, path)[0],
            width=int(_kv_floats(entries, "width", 1, path)[0]),
            height=int(_kv_floats(entries, "height", 1, path)[0]),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_array_geometry(array, path):
    write_key_values(path, "microphone array geometry (meters)", [
        ("c", [array.speed_of_sound]), ("origin", array.origin), ("yaw_deg", [array.yaw_deg]),
        *(("mic", pos) for pos in array.positions)])


def load_array_geometry(path):
    entries = read_key_values(path)
    mics = [v for k, v in entries if k == "mic"]
    if len(mics) < 2:
        raise ConfigError(f"{path}: need at least two 'mic' entries")
    try:
        return MicArray(
            positions=np.array([_floats(value, "mic", 3, path) for value in mics]),
            origin=np.array(_kv_floats(entries, "origin", 3, path)),
            yaw_deg=_kv_floats(entries, "yaw_deg", 1, path)[0],
            speed_of_sound=_kv_floats(entries, "c", 1, path)[0],
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
