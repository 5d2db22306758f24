"""Multichannel audio synthesis and GCC-PHAT / SRP-PHAT features.

The renderer uses a free-field far-field model: each microphone receives
the source signal delayed by the projection of its offset onto the arrival
direction.  GCC-PHAT follows the whitened cross-spectrum form

    gcc_lp(tau) = sum_k Re( S_l[k] conj(S_p[k]) / |S_l[k] conj(S_p[k])|
                            * exp(j 2 pi k tau / N) )

evaluated at integer lags by one inverse real FFT of the one-sided
whitened cross spectra of all mic pairs (the identical sum: real frames
have Hermitian cross spectra).  Sign convention: when channel p lags
channel l by d samples the peak sits at tau = -d.  The renderer and the
SRP-PHAT steering both use this convention, so a source at azimuth theta
produces pair peaks at the lags SRP-PHAT predicts for theta.
"""

import functools
import os
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    AllZeroSpectrum,
    BadWav,
    ConfigError,
    LagRangeTooSmall,
    SampleRateMismatch,
    SilentSignal,
)
from .store import write_bytes

DEFAULT_FRAME_LEN_S = 0.170
DEFAULT_LAGS = (-25, 25)
SOURCE_KINDS = ("white", "speech_like_ar", "wav_file")    # synth_source kinds
_BLOCK_SAMPLES = 65536      # scratch size of the blocked passes over a whole recording

# fixed all-pole coefficients for the speech-like source: a mild formant
# resonance cascaded with a low-pass tilt pole
_SPEECH_AR = np.polymul([1.0, -0.9], [1.0, -1.2, 0.45])
_SYLLABLE_RATE_HZ = 3.0


@dataclass(frozen=True)
class MultichannelAudio:
    """C equal-length channels: a recording, one analysis frame or a mono source.

    The float array is kept as given, without a copy, so a float32 WAV stays
    float32 in memory; GCC-PHAT and the noise power compute in float64.
    """

    samples: np.ndarray      # (C, T) float32 or float64
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 2 or s.dtype.kind != "f":
            raise ValueError("samples must be a (channels, time) float array")
        object.__setattr__(self, "samples", s)
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")

    @property
    def n_channels(self):
        return self.samples.shape[0]

    @property
    def n_samples(self):
        return self.samples.shape[1]


@dataclass(frozen=True)
class GccFeature:
    """Per-pair GCC-PHAT values, one row per mic pair (l < p, lexicographic)."""

    values: np.ndarray       # (n_pairs, n_lags), or a (frames, n_pairs, n_lags) stack
    lag_min: int
    lag_max: int
    sample_rate: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape[-1] != self.lag_max - self.lag_min + 1:
            raise ValueError("lag axis inconsistent with lag range")


def synth_source(kind, duration_s, sample_rate, seed=None, wav=None):
    """Generate (or load) a one-channel test source, deterministic per seed.

    kind:
      * "white"          unit-variance white Gaussian noise
      * "speech_like_ar" white noise through a fixed low-order all-pole
                         filter, amplitude-modulated at a syllabic rate so
                         the signal has spectral tilt and near-pauses
      * "wav_file"       a segment of the first channel of ``wav``, loaded
                         audio at ``sample_rate`` at least as long as the
                         duration, starting at a seeded random sample
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * sample_rate))
    rng = np.random.default_rng(seed)
    if kind == "white":
        return MultichannelAudio(rng.standard_normal((1, n)), sample_rate)
    if kind == "speech_like_ar":
        # the all-pole filter as a division of spectra, at the shortest
        # length f * 2**a (f = 1, 3, 5 or 9, all quick for np.fft) at least
        # 408 samples past the signal: the filter's impulse response falls
        # below 1e-18 by then, so nothing wraps around into it
        n_fft = min(f << (-(-(n + 408) // f) - 1).bit_length() for f in (1, 3, 5, 9))
        x = np.fft.irfft(np.fft.rfft(rng.standard_normal(n), n_fft)
                         / np.fft.rfft(_SPEECH_AR, n_fft), n_fft)[:n]
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n) / sample_rate
        envelope = (0.5 + 0.5 * np.sin(2.0 * np.pi * _SYLLABLE_RATE_HZ * t + phase)) ** 2
        x = x * envelope
        rms = np.sqrt(np.mean(x**2))
        if rms > 0:
            x = x / rms
        return MultichannelAudio(x[None, :], sample_rate)
    if kind == "wav_file":      # dataset.simulate checks the rate and the length
        start = int(rng.integers(wav.n_samples - n + 1))
        return MultichannelAudio(wav.samples[:1, start:start + n], sample_rate)
    raise ValueError(f"unknown source kind {kind!r}")


def render_array(sources, array):
    """Far-field render of (one-channel audio, azimuth_deg) sources to all mics.

    Each mic m receives the source delayed by -(d_m . u(az)) / c where d_m
    is the mic offset in the array frame and u(az) the unit direction
    toward the source.  Fractional delays are exact frequency-domain phase
    shifts.  The frame is zero-padded to the power of two at or above its
    length plus the worst-case delay on both ends, so nothing wraps around
    into it.  Sources sum linearly, in the spectrum: one inverse transform
    per frame.
    """
    if not sources:
        raise ValueError("need at least one source")
    fs = sources[0][0].sample_rate
    for sig, az in sources:
        if sig.sample_rate != fs:
            raise SampleRateMismatch("all sources must share one sample rate")
        if not -180.0 <= az < 180.0:
            raise ValueError(f"azimuth {az} outside [-180, 180)")
    n = max(sig.n_samples for sig, _ in sources)
    positions = array.positions
    pad = int(np.ceil(fs * np.linalg.norm(positions, axis=1).max()
                      / array.speed_of_sound)) + 1
    n_fft = 1 << (n + 2 * pad - 1).bit_length()
    n_bins = n_fft // 2 + 1
    # phase factors exp(s k) = exp(s (k - k % 64)) exp(s (k % 64)): the outer
    # product of two small tables is a few ulp from exp per bin, and far cheaper
    coarse, fine = np.arange(0, n_bins, 64), np.arange(64)
    spectrum = np.zeros((array.n_mics, n_bins), dtype=complex)
    for sig, az in sources:
        theta = np.radians(az)
        direction = np.array([np.cos(theta), np.sin(theta), 0.0])
        delays = -(positions @ direction) * fs / array.speed_of_sound
        step = (-2j * np.pi / n_fft) * delays[:, None]
        shift = np.exp(step * coarse)[:, :, None] * np.exp(step * fine)[:, None, :]
        # float64: numpy transforms float32 input in single precision
        x = np.fft.rfft(np.asarray(sig.samples[0], dtype=np.float64), n_fft)
        spectrum += x * shift.reshape(array.n_mics, -1)[:, :n_bins]
    return MultichannelAudio(np.fft.irfft(spectrum, n_fft, axis=1)[:, :n], fs)


def _mean_square(x, scratch):
    """``np.mean(np.square(x, dtype=float64))``, bit for bit, through ``scratch``.

    numpy sums a whole array pairwise in memory order, halving each range at
    a multiple of 8.  This follows the same halving down to ranges that fit
    the 1-D float64 ``scratch`` and squares only those, so no temporary the
    size of ``x`` is made; a WAV's F-ordered (C, T) view is read in place.
    """
    flat = np.ravel(x, order="K")      # a view of any C- or F-contiguous array

    def total(part):
        n = part.size
        if n <= scratch.size:
            return np.add.reduce(np.square(part, out=scratch[:n], dtype=np.float64))
        half = n // 2 - n // 2 % 8
        return total(part[:half]) + total(part[half:])

    return float(total(flat)) / max(flat.size, 1)      # an empty signal is silent


def add_noise_at_snr(audio, snr_db, seed=None):
    """Add white Gaussian noise so the realized SNR equals ``snr_db``.

    Independent noise per channel; the scale is computed from the realized
    noise power, so the output power ratio matches the request exactly.
    Both powers are summed in float64 whatever the samples' dtype.  The
    noise is drawn into the float64 output buffer and the signal added into
    it, so for C- or F-contiguous samples the only other memory is a scratch
    block of 65,536 samples.
    """
    samples = audio.samples
    scratch = np.empty(_BLOCK_SAMPLES)
    power = _mean_square(samples, scratch)
    if power <= 0:
        raise SilentSignal("cannot set an SNR on an all-zero signal")
    try:
        target = power / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):
        target = 0.0
    if not 0.0 < target < np.inf:
        raise ConfigError(f"SNR {snr_db:g} dB needs a noise power outside the float range")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(samples.shape)
    noise *= np.sqrt(target / _mean_square(noise, scratch))
    noise += samples        # the same bits as samples + noise
    return MultichannelAudio(noise, audio.sample_rate)


@functools.lru_cache(maxsize=1)
def _gcc_scratch(channels, fft_len):
    """Work arrays of _gcc_rows for one (channels, fft_len), kept between calls."""
    l, p = np.triu_indices(channels, k=1)
    bins, pairs = fft_len // 2 + 1, len(l)
    return SimpleNamespace(
        l=l, p=p, x=np.zeros((channels, fft_len)), spectra_abs=np.empty((channels, bins)),
        spectra=np.empty((channels, bins), complex), conj=np.empty((channels, bins), complex),
        cross=np.empty((pairs, bins), complex), weights=np.empty((pairs, bins), complex),
        mag=np.empty((pairs, bins)), keep=np.empty((pairs, bins), bool),
        cc=np.empty((pairs, fft_len)))


def _gcc_rows(samples, lags, fft_len):
    """GCC-PHAT rows of every pair of a (C, T) frame; see gcc_phat_pair.

    Each step writes into the work arrays of ``_gcc_scratch``, kept for the
    last (channels, fft_len) up to 2**14 points, so a stack of frames
    allocates only its rows; that makes this function not reentrant.  Each
    channel's spectrum is scaled by the power of two that brings its largest
    bin into [0.5, 1) (or up by 2**1021 at most): exact, and no cross
    spectrum can overflow.  The PHAT weights zero the bins under 1e-12 of
    their pair's largest bin, so scaling either input changes nothing.
    """
    lag_min, lag_max = int(lags[0]), int(lags[1])
    if lag_min > lag_max:
        raise ValueError("lag range is empty")
    channels, n = samples.shape
    if fft_len is None:
        fft_len = 1 << int(np.ceil(np.log2(max(n, 2))))
    if fft_len < n:
        raise ValueError("fft_len must be at least the frame length")
    s = _gcc_scratch(channels, fft_len)
    if fft_len > 2**14:    # longer than a frame: held only by s, freed on return
        _gcc_scratch.cache_clear()
    # float64 here: numpy transforms float32 input in single precision.  The
    # tail is zeroed on every call, as a longer frame may have filled it.
    s.x[:, :n] = samples
    s.x[:, n:] = 0.0
    spectra = np.fft.rfft(s.x, axis=1, out=s.spectra)
    _, exponent = np.frexp(np.abs(spectra, out=s.spectra_abs).max(axis=1, keepdims=True))
    spectra *= np.ldexp(1.0, -np.maximum(exponent, -1021))
    np.conjugate(spectra, out=s.conj)
    for k, (l, p) in enumerate(zip(s.l, s.p)):
        np.multiply(spectra[l], s.conj[p], out=s.cross[k])
    mag = np.abs(s.cross, out=s.mag)
    peak = mag.max(axis=1, keepdims=True)
    if np.any(peak == 0.0):
        raise AllZeroSpectrum("all cross-spectrum bins vanished (silent frame?)")
    keep = np.greater(mag, 1e-12 * peak, out=s.keep)
    s.weights.fill(0.0)
    np.divide(s.cross, mag, out=s.weights, where=keep)
    # an interior bin is two bins of the two-sided spectrum; DC and Nyquist one
    nyquist = keep[:, -1] if fft_len % 2 == 0 else 0
    n_bins = 2 * keep.sum(axis=1) - keep[:, 0] - nyquist
    cc = np.fft.irfft(s.weights, fft_len, axis=-1, out=s.cc)
    idx = np.arange(lag_min, lag_max + 1) % fft_len
    return cc[:, idx] * (fft_len / n_bins)[:, None]


def gcc_phat_pair(frame_l, frame_p, lags=DEFAULT_LAGS, fft_len=None):
    """GCC-PHAT between two equal-length real frames at integer lags.

    Frames are zero-padded to ``fft_len`` (next power of two by default)
    and the output is normalized by the number of contributing bins of the
    two-sided spectrum: twice the kept bins of the one-sided real FFT, less
    DC and (for even ``fft_len``) Nyquist when kept.  So gcc_phat_pair(x, x)
    peaks at exactly 1.0 at lag 0.  Output is ordered lag_min..lag_max.
    """
    x_l = np.asarray(frame_l).reshape(-1)
    x_p = np.asarray(frame_p).reshape(-1)
    if x_l.size != x_p.size:
        raise ValueError("frames must have equal length")
    return _gcc_rows(np.stack([x_l, x_p]), lags, fft_len)[0]


def gcc_feature(frame, lags=DEFAULT_LAGS, fft_len=None):
    """GCC-PHAT rows for every mic pair of a multichannel frame.

    One real FFT of the frame and one inverse over all pairs; rows appear
    in lexicographic (l < p) order, e.g. 6 rows for 4 channels.
    """
    if frame.n_channels < 2:
        raise ValueError("need at least two channels")
    values = _gcc_rows(frame.samples, lags, fft_len)
    return GccFeature(values, int(lags[0]), int(lags[1]), frame.sample_rate)


def pair_lag_for_azimuth(array, sample_rate, azimuth_deg):
    """Predicted GCC peak lag (samples) per mic pair for a far-field azimuth.

    Consistent with both the renderer's delays and Eq-form GCC above: the
    peak for pair (l, p) sits at fs * ((d_p - d_l) . u(az)) / c.
    """
    theta = np.radians(np.asarray(azimuth_deg, dtype=float))
    direction = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
    pairs = array.pairs()
    baselines = np.stack([array.positions[p] - array.positions[l] for l, p in pairs])
    return sample_rate * (baselines @ direction) / array.speed_of_sound


def srp_phat(feature, array):
    """Steered response power map over integer azimuths -180..179 degrees.

    For each candidate azimuth, sums the per-pair GCC values at the lags
    that azimuth predicts, linearly interpolated between integer lags.  A
    (frames, pairs, lags) stack gives one map per frame, (frames, 360).
    """
    if feature.values.shape[-2] != len(array.pairs()):
        raise ValueError("feature pair count does not match the array")
    azimuths = np.arange(-180, 180, dtype=float)
    lags = pair_lag_for_azimuth(array, feature.sample_rate, azimuths)  # (P, 360)
    max_lag = np.abs(lags).max()
    if max_lag > feature.lag_max or -max_lag < feature.lag_min:
        raise LagRangeTooSmall(
            f"array needs lags up to {max_lag:.2f} samples, range is "
            f"[{feature.lag_min}, {feature.lag_max}]"
        )
    lo = np.floor(lags).astype(int)
    frac = lags - lo
    lo_idx = lo - feature.lag_min
    hi_idx = np.minimum(lo_idx + 1, feature.values.shape[-1] - 1)
    rows = np.arange(feature.values.shape[-2])[:, None]
    values = ((1.0 - frac) * feature.values[..., rows, lo_idx]
              + frac * feature.values[..., rows, hi_idx])
    return values.sum(axis=-2)


def decode_srp(srp_map, n_sources):
    """Top-N azimuths from an SRP map (peak picking with suppression)."""
    from .evaluation import decode_doa  # late import, keeps layering one-way

    return decode_doa(srp_map, n_sources)


# ---------------------------------------------------------------------------
# WAV files: PCM 16/32 and float32 in, float32 out; no resampling
# ---------------------------------------------------------------------------

_WAV_DTYPES = {(1, 16): "<i2", (1, 32): "<i4", (3, 32): "<f4"}   # (format code, bits)
_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHHH4sII4sI")   # RIFF, fmt (cbSize 0), fact, data
_WAV_MAX_DATA = 0xFFFFFFFF - (_WAV_HEADER.size - 8)      # the RIFF size (file - 8) is u32


def load_wav(path):
    """(C, T) audio of a WAV file: float32 data as stored, PCM scaled to [-1, 1)
    (PCM16 in float32, PCM32 in float64).

    Takes PCM16, PCM32 and float32, each plain or WAVE_FORMAT_EXTENSIBLE.
    Chunks after the data chunk are ignored.  Anything else, a damaged
    header, a truncated data chunk and non-finite samples raise BadWav.
    """
    with open(path, "rb") as fh:
        riff = fh.read(12)
        if riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise BadWav(f"{path}: not a RIFF/WAVE file")
        fmt = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                raise BadWav(f"{path}: no data chunk")
            tag, size = struct.unpack("<4sI", head)
            if tag == b"data":
                break
            end = fh.tell() + size + size % 2      # a chunk is padded to even length
            if tag == b"fmt ":
                fmt = fh.read(size)
            fh.seek(end)
        if fmt is None or len(fmt) < 16:
            raise BadWav(f"{path}: {'no' if fmt is None else 'short'} fmt chunk before the data")
        code, channels, rate, _, block, bits = struct.unpack_from("<HHIIHH", fmt)
        if code == 0xFFFE and len(fmt) >= 26:    # EXTENSIBLE: its sub-format's code
            code, = struct.unpack_from("<H", fmt, 24)
        dtype = _WAV_DTYPES.get((code, bits))
        if dtype is None:
            kind = {1: "PCM", 3: "float"}.get(code, f"format {code:#x}")
            raise BadWav(f"{path}: unsupported sample format {bits}-bit {kind}")
        if channels == 0 or rate == 0:
            raise BadWav(f"{path}: {channels} channels at {rate} Hz")
        if block != channels * bits // 8:
            raise BadWav(f"{path}: block align {block} for {channels} channels of {bits} bits")
        if size % block:
            raise BadWav(f"{path}: {size} data bytes are not whole blocks of {block}")
        if os.fstat(fh.fileno()).st_size - fh.tell() < size:
            raise BadWav(f"{path}: truncated data chunk")
        data = np.fromfile(fh, dtype=dtype, count=size // (bits // 8))
    if dtype != "<f4":
        # exact: a power of two, in float32 for PCM16 (15 bits fit its mantissa)
        data = data * (np.float32 if bits == 16 else np.float64)(2.0 ** (1 - bits))
    elif not all(np.isfinite(data[i:i + _BLOCK_SAMPLES]).all()
                 for i in range(0, data.size, _BLOCK_SAMPLES)):
        raise BadWav(f"{path}: non-finite samples")
    return MultichannelAudio(data.reshape(-1, channels).T, rate)


def check_wav_size(path, channels, frames, rate):
    """Data bytes of a float32 WAV of this shape; BadWav when its data size or
    byte rate does not fit the u32 fields of a RIFF header."""
    size = 4 * channels * frames
    if size > _WAV_MAX_DATA or rate * 4 * channels > 0xFFFFFFFF:
        raise BadWav(f"{path}: {size} bytes at {rate} Hz exceed a RIFF WAV's u32 sizes")
    return size


def save_wav(path, audio):
    """Write float32 samples, one WAV channel per audio channel, after a 58-byte
    header (an 18-byte IEEE float fmt chunk, a fact chunk); BadWav past u32 sizes."""
    channels, frames = audio.samples.shape
    rate, block = audio.sample_rate, 4 * channels
    size = check_wav_size(path, channels, frames, rate)
    header = _WAV_HEADER.pack(b"RIFF", _WAV_HEADER.size - 8 + size, b"WAVE",
                              b"fmt ", 18, 3, channels, rate, rate * block, block, 32, 0,
                              b"fact", 4, frames, b"data", size)
    # a view, not a copy, when the samples are a (T, C) float32 array transposed
    write_bytes(path, [header, np.ascontiguousarray(audio.samples.T, dtype="<f4")])
