"""Computations made apart from avdoa, used to check its outputs.

Nothing here imports the program: the file formats are parsed from their
bytes and every quantity is derived from first principles (free-field
propagation, the pinhole model, circular distance), so a fault in the
program cannot hide behind the same fault in its checker.
"""

import itertools
import struct

import numpy as np

ACC_ALLOWANCE_DEG = 5.0          # a source counts toward ACC within 5 degrees, inclusive


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def read_wav(path):
    """(sample_rate, (channels, samples) float64) from a float32 WAV."""
    with open(path, "rb") as fh:
        data = fh.read()
    require(data[:4] == b"RIFF" and data[8:12] == b"WAVE", f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        tag, size = data[pos:pos + 4], struct.unpack_from("<I", data, pos + 4)[0]
        body = data[pos + 8:pos + 8 + size]
        if tag == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
        elif tag == b"data":
            payload = body
        pos += 8 + size + (size & 1)
    require(fmt is not None and payload is not None, f"{path}: missing fmt or data chunk")
    code, channels, rate, _, _, bits = fmt
    require(code == 3 and bits == 32, f"{path}: not a float32 WAV ({code}/{bits})")
    samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return rate, samples.reshape(-1, channels).T


def read_doaf(path):
    """Feature store records as {frame_index: float32 (P, L) array}."""
    with open(path, "rb") as fh:
        data = fh.read()
    require(data[:4] == b"DOAF", f"{path}: bad magic")
    pos = 6
    records = {}
    while pos < len(data):
        index, p, l = struct.unpack_from("<IHH", data, pos)
        pos += 8
        records[index] = np.frombuffer(data, dtype="<f4", count=p * l, offset=pos).reshape(p, l)
        pos += 4 * p * l
    require(pos == len(data), f"{path}: trailing bytes")
    return records


def read_key_value_file(path):
    """'key = value' text as {key: [values...]} ('#' starts a comment)."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                key, value = (part.strip() for part in line.split("=", 1))
                out.setdefault(key, []).append([float(x) for x in value.split()])
    return out


# ---------------------------------------------------------------------------
# signal processing
# ---------------------------------------------------------------------------

def phat_correlation(x_l, x_p, lags, fft_len):
    """Time-domain PHAT correlator at integer lags lags[0]..lags[1].

    Each channel's spectrum is whitened to unit magnitude (bins below
    1e-12 of the channel's peak dropped), turned back into a time signal,
    and the two signals are correlated with an explicit circular lag loop:
    r(tau) = sum_n w_l[n + tau] w_p[n].  The result is scaled by
    fft_len / (bins kept in both channels), so identical channels give
    exactly 1 at lag 0.  A peak at tau = -d means x_p lags x_l by d.
    """
    def whiten(x):
        spec = np.fft.fft(np.asarray(x, dtype=float), fft_len)
        mag = np.abs(spec)
        keep = mag > 1e-12 * mag.max()
        out = np.zeros_like(spec)
        out[keep] = spec[keep] / mag[keep]
        return np.fft.ifft(out).real, keep

    w_l, keep_l = whiten(x_l)
    w_p, keep_p = whiten(x_p)
    scale = fft_len / np.count_nonzero(keep_l & keep_p)
    return scale * np.array([
        np.dot(np.roll(w_l, -tau), w_p) for tau in range(lags[0], lags[1] + 1)
    ])


def realised_snr_db(clean, noisy):
    """10 log10(signal power / added-noise power) over all samples."""
    clean = np.asarray(clean, dtype=float)
    noise = np.asarray(noisy, dtype=float) - clean
    return 10.0 * np.log10(np.mean(clean**2) / np.mean(noise**2))


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def azimuth_deg(position, origin, yaw_deg):
    """Horizontal bearing of a world point seen from the array, [-180, 180)."""
    dx, dy = position[0] - origin[0], position[1] - origin[1]
    return (np.degrees(np.arctan2(dy, dx)) - yaw_deg + 180.0) % 360.0 - 180.0


def expected_peak_lag(mic_l, mic_p, azimuth, speed_of_sound, sample_rate):
    """GCC lag (samples) at which a far-field source peaks for pair (l, p).

    A plane wave from unit direction u reaches mic m at time -(d_m . u) / c
    (mics nearer the source hear it first), so x_p lags x_l by
    d = ((d_l - d_p) . u) / c seconds and the PHAT peak sits at -d.
    """
    theta = np.radians(azimuth)
    u = np.array([np.cos(theta), np.sin(theta), 0.0])
    delay = (np.dot(mic_l, u) - np.dot(mic_p, u)) / speed_of_sound
    return -delay * sample_rate


def pinhole_project(point, rotation, translation, f_u, f_v, c_u, c_v):
    """Pixel (u, v) of a world point, or None when it is not in front."""
    x, y, z = np.asarray(rotation) @ np.asarray(point, dtype=float) + np.asarray(translation)
    if z <= 0:
        return None
    return f_u * x / z + c_u, f_v * y / z + c_v


def nearest_grid_index(value, extent, length):
    """Index of the grid point nearest ``value`` on linspace(0, extent, length)."""
    return int(np.clip(np.rint(value / extent * (length - 1)), 0, length - 1))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def circular_distance(a, b):
    d = abs(float(a) - float(b)) % 360.0
    return min(d, 360.0 - d)


def optimal_matchings(predictions, truths, tol=1e-9):
    """Per-truth error lists of every cheapest one-to-one matching.

    Brute force over all permutations.  Several matchings tie when, say,
    both predictions lie on the same side of both truths; they share the
    MAE but may split the errors differently around the ACC allowance.
    """
    require(len(predictions) == len(truths), "prediction and truth counts differ")
    options = [[circular_distance(p, t) for p, t in zip(perm, truths)]
               for perm in itertools.permutations(predictions)]
    best = min(sum(errors) for errors in options)
    return [errors for errors in options if sum(errors) <= best + tol]


def mae_acc(pred_sets, truth_sets, allowance_deg=ACC_ALLOWANCE_DEG):
    """(MAE in degrees, lowest ACC, highest ACC in %) over all matched sources.

    The ACC range spans the choices among tied cheapest matchings.
    """
    total = 0.0
    count = 0
    hits_lo = hits_hi = 0
    for preds, truths in zip(pred_sets, truth_sets):
        options = optimal_matchings(preds, truths)
        total += sum(options[0])
        count += len(truths)
        hits = [sum(e <= allowance_deg for e in errors) for errors in options]
        hits_lo += min(hits)
        hits_hi += max(hits)
    return total / count, 100.0 * hits_lo / count, 100.0 * hits_hi / count
