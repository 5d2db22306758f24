"""Shared numeric oracles for the test suite."""

import itertools
import math

import numpy as np

from avdoa import nn
from avdoa.errors import AllZeroSpectrum


def finite_difference(loss_fn, arrays, h=1e-5, sample=None, rng=None):
    """Central-difference gradients for a scalar loss over parameter arrays.

    With ``sample`` set, only that many entries per array are probed (random
    but seeded), which keeps whole-network checks fast without losing
    coverage of every parameter tensor.
    """
    grads = []
    for arr in arrays:
        flat = arr.reshape(-1)
        grad = np.full(flat.size, np.nan)
        if sample is None or flat.size <= sample:
            indices = range(flat.size)
        else:
            indices = rng.choice(flat.size, size=sample, replace=False)
        for i in indices:
            original = flat[i]
            flat[i] = original + h
            up = loss_fn()
            flat[i] = original - h
            down = loss_fn()
            flat[i] = original
            grad[i] = (up - down) / (2 * h)
        grads.append(grad.reshape(arr.shape))
    return grads


def tiny_model(dtype, gcc_dim=4, vis_dim=2):
    """A seeded avaw model of ``dtype`` with out_dim 5, whose checkpoint is a
    few hundred bytes at the default input widths: small enough to load every
    truncation of."""
    widths = dict(gcc_dim=gcc_dim, vis_dim=vis_dim, out_dim=5, hidden=(3, 2))
    table = nn._layout("avaw", wn_hidden=2, **widths)
    rng = np.random.default_rng(0)
    arrays = [rng.uniform(0.5, 1.5, shape).astype(dtype)
              for k in (1, 2) for layer in table for shape in layer[k]]
    return nn.DoaModel("avaw", weight_net_hidden=2, arrays=arrays, **widths)


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        mask = ~np.isnan(n)
        if not mask.any():
            continue
        a = a[mask]
        n = n[mask]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def time_domain_phat_oracle(x_l, x_p, lags, fft_len):
    """Independent PHAT correlation: whiten each channel's spectrum to unit
    magnitude, reconstruct the time signals and correlate them directly with
    an explicit circular lag loop (no steering vectors, no cross-spectrum
    inverse transform)."""

    def whiten(x):
        spec = np.fft.fft(x, fft_len)
        mag = np.abs(spec)
        out = np.zeros_like(spec)
        keep = mag > 1e-12 * mag.max()
        out[keep] = spec[keep] / mag[keep]
        return np.fft.ifft(out).real

    w_l = whiten(x_l)
    w_p = whiten(x_p)
    return np.array([
        np.dot(np.roll(w_l, -tau), w_p) for tau in range(lags[0], lags[1] + 1)
    ])


def three_pass_decode_doa(scores, n_sources, min_separation_deg=10.0):
    """Reference peak picker: the three-pass decoder that ``decode_doa``
    replaced, kept verbatim so the one-pass version is checked against it.

    Pass 1 takes circular local maxima by decreasing score (ties to the
    lower index) outside the suppression radius of earlier picks, pass 2
    any bin under the same rule, pass 3 any bin not yet taken.
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    n_bins = scores.size
    is_peak = (scores >= np.roll(scores, 1)) & (scores >= np.roll(scores, -1))

    def ordered(indices):
        return sorted(indices, key=lambda i: (-scores[i], i))

    chosen = []

    def far_enough(i):
        return all(
            min(abs(i - j), n_bins - abs(i - j)) * (360.0 / n_bins) >= min_separation_deg
            for j in chosen
        )

    for candidates, check in (
        (ordered(np.flatnonzero(is_peak)), True),
        (ordered(range(n_bins)), True),
        (ordered(range(n_bins)), False),
    ):
        for i in candidates:
            if len(chosen) == n_sources:
                break
            if i in chosen or (check and not far_enough(i)):
                continue
            chosen.append(i)
        if len(chosen) == n_sources:
            break
    return [float(i - 180) for i in chosen]


def complex_fft_gcc_feature(samples, lags=(-25, 25), fft_len=None):
    """Reference GCC-PHAT: the complex-FFT, pair-by-pair implementation that
    ``audio.gcc_feature`` replaced, kept so the real-FFT version is checked
    against it.

    ``samples`` is a (C, T) frame; returns one row per mic pair (l < p,
    lexicographic), ordered lag_min..lag_max.  Each pair's cross spectrum
    is whitened over all ``fft_len`` two-sided bins, bins below 1e-12 of
    the pair's peak are dropped, and the inverse FFT is scaled by
    fft_len / (number of kept bins).
    """
    samples = np.asarray(samples, dtype=float)
    n_channels, n_samples = samples.shape
    lag_min, lag_max = int(lags[0]), int(lags[1])
    if fft_len is None:
        fft_len = 1 << int(np.ceil(np.log2(max(n_samples, 2))))
    spectra = np.fft.fft(samples, fft_len, axis=1)
    idx = np.arange(lag_min, lag_max + 1) % fft_len
    rows = []
    for l in range(n_channels):
        for p in range(l + 1, n_channels):
            cross = spectra[l] * np.conj(spectra[p])
            mag = np.abs(cross)
            peak = mag.max()
            if peak == 0.0:
                raise AllZeroSpectrum("all cross-spectrum bins vanished (silent frame?)")
            keep = mag > 1e-12 * peak
            weights = np.zeros_like(cross)
            weights[keep] = cross[keep] / mag[keep]
            cc = np.fft.ifft(weights).real * (fft_len / int(keep.sum()))
            rows.append(cc[idx])
    return np.stack(rows)


def first_cheapest_matching(predictions, truths, tol=1e-9):
    """Reference matcher: per-truth circular errors of the first permutation,
    in ``itertools`` order, whose exactly summed (``math.fsum``) cost is
    within ``tol`` of the cheapest."""
    options = []
    for perm in itertools.permutations(predictions):
        options.append([abs((p - t + 180.0) % 360.0 - 180.0) for p, t in zip(perm, truths)])
    best = min(math.fsum(errors) for errors in options)
    return next(errors for errors in options if math.fsum(errors) <= best + tol)
