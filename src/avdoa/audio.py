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

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import (
    AllZeroSpectrum,
    BadWav,
    LagRangeTooSmall,
    SampleRateMismatch,
    SilentSignal,
    TooShort,
)

DEFAULT_FRAME_LEN_S = 0.170
DEFAULT_LAGS = (-25, 25)
SOURCE_KINDS = ("white", "speech_like_ar", "wav_file")    # synth_source kinds

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


def synth_source(kind, duration_s, sample_rate, seed=None, wav_path=None):
    """Generate (or load) a one-channel test source, deterministic per seed.

    kind:
      * "white"          unit-variance white Gaussian noise
      * "speech_like_ar" white noise through a fixed low-order all-pole
                         filter, amplitude-modulated at a syllabic rate so
                         the signal has spectral tilt and near-pauses
      * "wav_file"       a segment of ``wav_path``'s first channel, as long
                         as the duration, starting at a seeded random sample
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * sample_rate))
    rng = np.random.default_rng(seed)
    if kind == "white":
        return MultichannelAudio(rng.standard_normal((1, n)), sample_rate)
    if kind == "speech_like_ar":
        from scipy.signal import lfilter

        x = lfilter([1.0], _SPEECH_AR, rng.standard_normal(n))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(n) / sample_rate
        envelope = (0.5 + 0.5 * np.sin(2.0 * np.pi * _SYLLABLE_RATE_HZ * t + phase)) ** 2
        x = x * envelope
        rms = np.sqrt(np.mean(x**2))
        if rms > 0:
            x = x / rms
        return MultichannelAudio(x[None, :], sample_rate)
    if kind == "wav_file":      # ScenarioConfig makes sure wav_path is set
        audio = load_wav(wav_path)
        if audio.sample_rate != sample_rate:
            raise SampleRateMismatch(
                f"{wav_path}: {audio.sample_rate} Hz, requested {sample_rate} Hz"
            )
        if audio.n_samples < n:
            raise TooShort(f"{wav_path}: {audio.n_samples} samples < {n} requested")
        start = int(rng.integers(audio.n_samples - n + 1))
        return MultichannelAudio(audio.samples[:1, start:start + n], sample_rate)
    raise ValueError(f"unknown source kind {kind!r}")


def render_array(sources, array):
    """Far-field render of (one-channel audio, azimuth_deg) sources to all mics.

    Each mic m receives the source delayed by -(d_m . u(az)) / c where d_m
    is the mic offset in the array frame and u(az) the unit direction
    toward the source.  Fractional delays are exact frequency-domain phase
    shifts; the signal is zero-padded by the worst-case delay on both ends
    so nothing wraps around.  Sources sum linearly.
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
    n_pad = n + 2 * pad
    freqs = np.fft.rfftfreq(n_pad)
    out = np.zeros((array.n_mics, n))
    for sig, az in sources:
        theta = np.radians(az)
        direction = np.array([np.cos(theta), np.sin(theta), 0.0])
        delays = -(positions @ direction) * fs / array.speed_of_sound
        x = np.zeros(n_pad)
        x[pad:pad + sig.n_samples] = sig.samples[0]
        spectrum = np.fft.rfft(x)
        shifted = spectrum[None, :] * np.exp(-2j * np.pi * freqs[None, :] * delays[:, None])
        out += np.fft.irfft(shifted, n=n_pad, axis=1)[:, pad:pad + n]
    return MultichannelAudio(out, fs)


def add_noise_at_snr(audio, snr_db, seed=None):
    """Add white Gaussian noise so the realized SNR equals ``snr_db``.

    Independent noise per channel; the scale is computed from the realized
    noise power, so the output power ratio matches the request exactly.
    The signal power is summed in float64 whatever the samples' dtype.
    """
    power = float(np.mean(np.square(audio.samples, dtype=np.float64)))
    if power <= 0:
        raise SilentSignal("cannot set an SNR on an all-zero signal")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(audio.samples.shape)
    noise_power = float(np.mean(noise**2))
    target = power / 10.0 ** (snr_db / 10.0)
    noise *= np.sqrt(target / noise_power)
    return MultichannelAudio(audio.samples + noise, audio.sample_rate)


def _whitened_cross_spectrum(spectra, fft_len):
    """PHAT-whitened one-sided cross spectra of all channel pairs (l < p).

    Bins under 1e-12 of their pair's largest bin are zeroed, so scaling
    either input changes nothing.  Returns the (P, bins) weights and, per
    pair, the number of contributing bins of the two-sided spectrum.
    """
    l, p = np.triu_indices(spectra.shape[0], k=1)
    cross = np.multiply(spectra[l], np.conj(spectra[p]))
    mag = np.abs(cross)
    peak = mag.max(axis=1, keepdims=True)
    if np.any(peak == 0.0):
        raise AllZeroSpectrum("all cross-spectrum bins vanished (silent frame?)")
    keep = mag > 1e-12 * peak
    weights = np.divide(cross, mag, out=np.zeros_like(cross), where=keep)
    # an interior bin is two bins of the two-sided spectrum; DC and Nyquist one
    nyquist = keep[:, -1] if fft_len % 2 == 0 else 0
    return weights, 2 * keep.sum(axis=1) - keep[:, 0] - nyquist


def _gcc_rows(samples, lags, fft_len):
    """GCC-PHAT rows of every pair of a (C, T) frame; see gcc_phat_pair."""
    lag_min, lag_max = int(lags[0]), int(lags[1])
    if lag_min > lag_max:
        raise ValueError("lag range is empty")
    if fft_len is None:
        fft_len = 1 << int(np.ceil(np.log2(max(samples.shape[1], 2))))
    if fft_len < samples.shape[1]:
        raise ValueError("fft_len must be at least the frame length")
    # float64 here: numpy transforms float32 input in single precision
    spectra = np.fft.rfft(np.asarray(samples, dtype=np.float64), fft_len, axis=1)
    weights, n_bins = _whitened_cross_spectrum(spectra, fft_len)
    cc = np.fft.irfft(weights, fft_len, axis=-1)
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
# WAV ingestion (PCM 16/32 and float32; no resampling)
# ---------------------------------------------------------------------------

def load_wav(path):
    """(C, T) audio of a WAV file: float data as stored, PCM scaled to [-1, 1).

    Non-finite samples raise BadWav.
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise BadWav(f"{path}: {exc}") from exc
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype not in (np.float32, np.float64):
        raise BadWav(f"{path}: unsupported sample format {data.dtype}")
    elif not np.isfinite(data).all():
        raise BadWav(f"{path}: non-finite samples")
    return MultichannelAudio(np.atleast_2d(data.T), int(rate))


def save_wav(path, audio):
    """Write float32 samples, one WAV channel per audio channel."""
    wavfile.write(path, audio.sample_rate, audio.samples.T.astype(np.float32, copy=False))
