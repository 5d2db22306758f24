"""Shared numeric oracles for the test suite."""

import numpy as np


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
