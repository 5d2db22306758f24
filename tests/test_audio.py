import os
import struct
import subprocess
import sys
import tracemalloc
import wave

import numpy as np
import pytest

from avdoa import audio, geom
from avdoa.errors import (
    AllZeroSpectrum,
    BadWav,
    LagRangeTooSmall,
    SampleRateMismatch,
    SilentSignal,
)
from helpers import complex_fft_gcc_feature, time_domain_phat_oracle


class TestSynthSource:
    def test_white_statistics(self):
        sig = audio.synth_source("white", 1.0, 48000, seed=0)
        assert sig.samples.size == 48000
        assert abs(np.var(sig.samples) - 1.0) < 0.05

    @pytest.mark.parametrize("kind", ["white", "speech_like_ar"])
    def test_one_channel(self, kind):
        sig = audio.synth_source(kind, 0.01, 48000, seed=0)
        assert isinstance(sig, audio.MultichannelAudio)
        assert (sig.n_channels, sig.n_samples) == (1, 480)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            audio.synth_source("white", 0.0, 48000, seed=0)

    def test_seed_determinism(self):
        a = audio.synth_source("speech_like_ar", 0.3, 48000, seed=5)
        b = audio.synth_source("speech_like_ar", 0.3, 48000, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_speech_like_has_pauses_and_tilt(self):
        x = audio.synth_source("speech_like_ar", 1.0, 48000, seed=1).samples[0]
        frame = x.reshape(-1, 4800)
        powers = (frame**2).mean(axis=1)
        assert powers.max() > 5 * powers.min()   # amplitude modulation
        spec = np.abs(np.fft.rfft(x))**2
        low = spec[: len(spec) // 8].mean()
        high = spec[-len(spec) // 8:].mean()
        assert low > 10 * high                   # low-frequency emphasis

    def test_speech_filter_matches_a_direct_recursion(self):
        # the fixed all-pole filter (1 - 0.9/z)(1 - 1.2/z + 0.45/z^2), run
        # sample by sample on the same seeded noise, then the same 3 Hz
        # envelope and unit RMS
        fs, seed = 48000, 7
        got = audio.synth_source("speech_like_ar", 0.05, fs, seed=seed).samples[0]
        n = got.size
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(n)
        a1, a2, a3 = -2.1, 1.53, -0.405
        y = [0.0, 0.0, 0.0]
        for t in range(n):
            y.append(noise[t] - a1 * y[-1] - a2 * y[-2] - a3 * y[-3])
        phase = rng.uniform(0.0, 2.0 * np.pi)
        envelope = (0.5 + 0.5 * np.sin(2.0 * np.pi * 3.0 * np.arange(n) / fs + phase)) ** 2
        want = np.array(y[3:]) * envelope
        want /= np.sqrt(np.mean(want**2))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_wav_file_kind(self, tmp_path):
        ref = audio.synth_source("white", 0.5, 16000, seed=2)
        path = tmp_path / "src.wav"
        audio.save_wav(path, ref)
        wav = audio.load_wav(path)
        stored = wav.samples[0]
        segments = []
        for seed in (0, 0, 1):
            sig = audio.synth_source("wav_file", 0.25, 16000, seed=seed, wav=wav)
            assert sig.samples.shape == (1, 4000)
            # a contiguous run of the file's samples
            starts = [s for s in range(stored.size - 4000 + 1)
                      if np.array_equal(stored[s:s + 4000], sig.samples[0])]
            assert len(starts) == 1
            segments.append(starts[0])
        assert segments[0] == segments[1] != segments[2]


class TestRenderArray:
    def test_broadside_pair_zero_delay(self):
        # mics symmetric about the origin along y, source on x: equal paths
        array = geom.MicArray(positions=[[0, 0.05, 0], [0, -0.05, 0]])
        sig = audio.synth_source("white", 0.2, 48000, seed=0)
        out = audio.render_array([(sig, 0.0)], array)
        gcc = audio.gcc_phat_pair(out.samples[0], out.samples[1], fft_len=16384)
        assert np.argmax(gcc) == 25   # lag 0

    def test_endfire_pair_delay(self):
        # 0.1 m along x at 48 kHz: 0.1/343*48000 = 13.99 samples
        array = geom.MicArray(positions=[[0, 0, 0], [0.1, 0, 0]])
        sig = audio.synth_source("white", 0.2, 48000, seed=1)
        out = audio.render_array([(sig, 0.0)], array)
        c0, c1 = out.samples
        lags = np.arange(-30, 31)
        xcorr = [np.dot(np.roll(c0, -tau), c1) for tau in lags]
        assert lags[np.argmax(xcorr)] == 14

    @pytest.mark.parametrize("k", [3, -5])
    def test_integer_delay_is_an_exact_shift(self, k):
        # a mic k * c / fs along x hears a source at azimuth 0 exactly k
        # samples early (late for negative k); the mic at the origin hears it as is
        fs = 48000
        array = geom.MicArray(positions=[[0, 0, 0], [k * 343.0 / fs, 0, 0]])
        sig = audio.synth_source("white", 0.05, fs, seed=4)
        x = sig.samples[0]
        out = audio.render_array([(sig, 0.0)], array).samples
        shifted = np.zeros_like(x)
        if k > 0:
            shifted[:-k] = x[k:]
        else:
            shifted[-k:] = x[:k]
        assert np.abs(out[0] - x).max() < 1e-12
        assert np.abs(out[1] - shifted).max() < 1e-12

    def test_superposition_is_exact(self):
        array = geom.MicArray.square()
        a = audio.synth_source("white", 0.1, 48000, seed=2)
        b = audio.synth_source("white", 0.1, 48000, seed=3)
        only_a = audio.render_array([(a, 30.0)], array)
        only_b = audio.render_array([(b, -60.0)], array)
        both = audio.render_array([(a, 30.0), (b, -60.0)], array)
        assert np.max(np.abs(both.samples - (only_a.samples + only_b.samples))) < 1e-9

    def test_sample_rate_mismatch(self):
        array = geom.MicArray.square()
        a = audio.synth_source("white", 0.1, 48000, seed=0)
        b = audio.synth_source("white", 0.1, 44100, seed=0)
        with pytest.raises(SampleRateMismatch):
            audio.render_array([(a, 0.0), (b, 10.0)], array)


class TestAddNoise:
    def test_realized_snr_exact(self):
        array = geom.MicArray.square()
        sig = audio.synth_source("white", 0.2, 48000, seed=0)
        clean = audio.render_array([(sig, 10.0)], array)
        for snr in (-10.0, 0.0, 10.0, 20.0):
            noisy = audio.add_noise_at_snr(clean, snr, seed=4)
            noise = noisy.samples - clean.samples
            measured = 10 * np.log10(np.mean(clean.samples**2) / np.mean(noise**2))
            assert abs(measured - snr) < 0.01

    def test_high_snr_is_nearly_identity(self):
        sig = audio.synth_source("white", 0.1, 48000, seed=1)
        x = audio.MultichannelAudio(np.stack([sig.samples[0]] * 2), 48000)
        noisy = audio.add_noise_at_snr(x, 100.0, seed=0)
        rel = np.sqrt(np.mean((noisy.samples - x.samples) ** 2) / np.mean(x.samples**2))
        assert rel < 1e-4

    def test_silent_signal(self):
        x = audio.MultichannelAudio(np.zeros((2, 100)), 48000)
        with pytest.raises(SilentSignal):
            audio.add_noise_at_snr(x, 0.0, seed=0)

    def test_float32_audio_gets_the_noise_of_its_float64_copy(self):
        # the signal power is summed in float64: float32 squares would move
        # the noise scale, and with it every noisy sample
        x = np.random.default_rng(3).standard_normal((4, 8160)).astype(np.float32)
        single = audio.add_noise_at_snr(audio.MultichannelAudio(x, 48000), 0.0, seed=1)
        double = audio.add_noise_at_snr(
            audio.MultichannelAudio(x.astype(np.float64), 48000), 0.0, seed=1)
        assert np.array_equal(single.samples, double.samples)

    @pytest.mark.parametrize("layout", ["C", "wav"])
    def test_blocked_powers_give_the_whole_array_result(self, tmp_path, layout):
        # 4 x 50,001 samples: three whole blocks and a part, summed block by
        # block in numpy's own pairwise order, so the bits do not move
        x = np.random.default_rng(7).standard_normal((4, 50001)).astype(np.float32)
        clean = audio.MultichannelAudio(x, 16000)
        if layout == "wav":
            audio.save_wav(tmp_path / "x.wav", clean)
            clean = audio.load_wav(tmp_path / "x.wav")
            assert clean.samples.flags.f_contiguous and not clean.samples.flags.c_contiguous
        noisy = audio.add_noise_at_snr(clean, -5.0, seed=2)
        signal = clean.samples.astype(np.float64)
        realised = 10 * np.log10(np.mean(signal**2) / np.mean((noisy.samples - signal) ** 2))
        assert abs(realised + 5.0) < 1e-9
        noise = np.random.default_rng(2).standard_normal(x.shape)
        target = np.mean(signal**2) / 10.0 ** -0.5
        assert np.array_equal(noisy.samples,
                              signal + noise * np.sqrt(target / np.mean(noise**2)))


def _traced_peak(call):
    """(result, peak bytes numpy and Python allocated during ``call()``)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryPeaks:
    """numpy reports its buffers to tracemalloc, so these peaks repeat exactly."""

    def test_noise_needs_no_more_than_its_output(self):
        x = audio.MultichannelAudio(
            np.random.default_rng(0).standard_normal((4, 240000)).astype(np.float32), 16000)
        noisy, peak = _traced_peak(lambda: audio.add_noise_at_snr(x, 0.0, seed=1))
        assert peak <= 1.1 * noisy.samples.nbytes

    def test_wav_load_needs_no_more_than_its_data(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((4, 240000)).astype(np.float32)
        audio.save_wav(tmp_path / "x.wav", audio.MultichannelAudio(x, 16000))
        loaded, peak = _traced_peak(lambda: audio.load_wav(tmp_path / "x.wav"))
        assert np.array_equal(loaded.samples, x)
        assert peak <= 1.05 * x.nbytes

    def test_pcm16_load_scales_in_float32_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        pcm = rng.integers(-2**15, 2**15, (240000, 4)).astype(np.int16)
        pcm[:2, 0] = (-2**15, 2**15 - 1)
        _write_pcm(tmp_path / "x.wav", pcm, 16000)
        loaded, peak = _traced_peak(lambda: audio.load_wav(tmp_path / "x.wav"))
        assert peak <= 3.05 * pcm.nbytes      # the int16 data and its float32 copy
        wide = pcm.T * 2.0**-15
        assert loaded.samples.dtype == np.float32 and np.array_equal(loaded.samples, wide)
        for start in (0, 8000, 100000):
            frames = [audio.MultichannelAudio(x[:, start:start + 2000], 16000)
                      for x in (loaded.samples, wide)]
            got, want = (audio.gcc_feature(frame).values for frame in frames)
            assert np.array_equal(got, want)


class TestGccPhatPair:
    def test_autocorrelation_peak(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8160)
        gcc = audio.gcc_phat_pair(x, x)
        assert gcc.size == 51
        assert np.argmax(gcc) == 25
        assert gcc[25] == pytest.approx(1.0, abs=1e-6)

    def test_delayed_copy_sign_convention(self):
        # channel p lagging channel l by d puts the peak at -d
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8192)
        delayed = np.roll(x, 5)
        gcc = audio.gcc_phat_pair(x, delayed)
        assert np.argmax(gcc) - 25 == -5

    def test_oracle_equivalence_100_trials(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(100):
            x = rng.standard_normal(8192)
            delay = int(rng.integers(-25, 26))
            y = np.roll(x, delay)
            gcc = audio.gcc_phat_pair(x, y, fft_len=8192)
            oracle = time_domain_phat_oracle(x, y, (-25, 25), 8192)
            assert np.argmax(gcc) == np.argmax(oracle)
            hits += 1
        assert hits == 100

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(4096)
        b = np.roll(rng.standard_normal(4096), 7)
        ab = audio.gcc_phat_pair(a, b)
        ba = audio.gcc_phat_pair(b, a)
        assert np.max(np.abs(ab - ba[::-1])) < 1e-9

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(4096)
        b = rng.standard_normal(4096)
        base = audio.gcc_phat_pair(a, b)
        for scale in (1e-6, 0.5, 3.0, 1e6):
            assert np.max(np.abs(audio.gcc_phat_pair(a * scale, b) - base)) < 1e-9
            assert np.max(np.abs(audio.gcc_phat_pair(a, b * scale) - base)) < 1e-9

    def test_values_bounded(self):
        rng = np.random.default_rng(5)
        gcc = audio.gcc_phat_pair(rng.standard_normal(2048), rng.standard_normal(2048))
        assert np.all(np.abs(gcc) <= 1.0 + 1e-12)

    def test_all_silent_error(self):
        with pytest.raises(AllZeroSpectrum):
            audio.gcc_phat_pair(np.zeros(1024), np.zeros(1024))


class TestGccFeature:
    def test_four_channels_give_six_pairs(self):
        rng = np.random.default_rng(0)
        frame = audio.MultichannelAudio(rng.standard_normal((4, 8160)), 48000)
        feature = audio.gcc_feature(frame)
        assert feature.values.shape == (6, 51)

    def test_two_channels(self):
        rng = np.random.default_rng(1)
        frame = audio.MultichannelAudio(rng.standard_normal((2, 4096)), 48000)
        assert audio.gcc_feature(frame).values.shape == (1, 51)

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(2)
        frame = audio.MultichannelAudio(rng.standard_normal((4, 4096)), 48000)
        feature = audio.gcc_feature(frame, fft_len=4096)
        for row, (l, p) in enumerate(geom.MicArray.square().pairs()):
            direct = audio.gcc_phat_pair(frame.samples[l], frame.samples[p],
                                         fft_len=4096)
            assert np.array_equal(feature.values[row], direct)

    def test_float32_frame_gives_the_values_of_its_float64_copy(self):
        # the frame is cast to float64 before the FFT: numpy transforms
        # float32 input in single precision
        x = np.random.default_rng(4).standard_normal((4, 8160)).astype(np.float32)
        single = audio.gcc_feature(audio.MultichannelAudio(x, 48000)).values
        double = audio.gcc_feature(audio.MultichannelAudio(x.astype(np.float64), 48000)).values
        assert np.array_equal(single, double)

    @pytest.mark.parametrize("exponent", [1000, -1000])
    def test_huge_and_tiny_frames_give_the_unscaled_values(self, exponent):
        # each channel's spectrum is scaled by a power of two before the
        # cross spectra, so 2**1000 cannot overflow them and nothing is rounded
        x = np.random.default_rng(5).standard_normal((4, 8160))
        x[2] *= 3.0
        want = audio.gcc_feature(audio.MultichannelAudio(x, 48000)).values
        got = audio.gcc_feature(audio.MultichannelAudio(np.ldexp(x, exponent), 48000)).values
        assert np.array_equal(got, want)

    def test_silent_frame_error(self):
        frame = audio.MultichannelAudio(np.zeros((4, 2048)), 48000)
        with pytest.raises(AllZeroSpectrum):
            audio.gcc_feature(frame)

    def test_one_silent_channel_error(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((4, 2048))
        samples[2] = 0.0
        with pytest.raises(AllZeroSpectrum):
            audio.gcc_feature(audio.MultichannelAudio(samples, 48000))


class TestGccScratch:
    """_gcc_rows works in one set of arrays kept between calls: no call may
    see what an earlier one left there, or hand out a view of them."""

    # (seed, channels, samples, fft_len, dtype): a longer frame at the same
    # FFT length before a shorter one, other channel counts and FFT lengths,
    # float32 and float64 frames, and a transform too long to be kept
    CASES = [(0, 4, 8160, None, np.float64), (1, 4, 5000, 8192, np.float64),
             (2, 2, 8160, None, np.float32), (3, 4, 300, 8192, np.float32),
             (4, 6, 2000, 4096, np.float64), (5, 4, 8160, 16384, np.float64),
             (6, 4, 100, 8192, np.float64), (7, 3, 20000, None, np.float64)]

    @staticmethod
    def _frame(seed, channels, samples, fft_len, dtype):
        x = np.random.default_rng(seed).standard_normal((channels, samples)).astype(dtype)
        return audio.MultichannelAudio(x, 48000)

    @classmethod
    def _gcc(cls, i):
        return audio.gcc_feature(cls._frame(*cls.CASES[i]), fft_len=cls.CASES[i][3]).values

    def test_results_equal_a_fresh_process_whatever_ran_before(self):
        # the reference: each case alone, in a child process of its own
        src = os.path.dirname(os.path.dirname(os.path.abspath(audio.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import sys, numpy as np\n"
                  "from avdoa import audio\n"
                  "from test_audio import TestGccScratch as T\n"
                  "sys.stdout.write(T._gcc(int(sys.argv[1])).tobytes().hex())\n")
        fresh = []
        for i in range(len(self.CASES)):
            done = subprocess.run([sys.executable, "-c", script, str(i)], env=env,
                                  cwd=os.path.dirname(__file__), capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            fresh.append(done.stdout)
        order = list(range(len(self.CASES)))
        silent = audio.MultichannelAudio(np.zeros((4, 8160)), 48000)
        for sequence in (order, order[::-1], order[1::2] + order[::2]):
            with pytest.raises(AllZeroSpectrum):       # stops part-way through the scratch
                audio.gcc_feature(silent)
            for i in sequence:
                assert self._gcc(i).tobytes().hex() == fresh[i], (sequence, i)

    def test_a_result_is_not_changed_by_the_next_call(self):
        first = self._gcc(0)
        kept = first.copy()
        self._gcc(1)
        assert np.array_equal(first, kept)
        pair = audio.gcc_phat_pair(*self._frame(*self.CASES[2]).samples)
        kept = pair.copy()
        audio.gcc_phat_pair(*self._frame(*self.CASES[3]).samples[:2])
        assert np.array_equal(pair, kept)

    def test_only_frame_sized_work_arrays_are_kept(self):
        self._gcc(7)                                   # 32768 points
        assert audio._gcc_scratch.cache_info().currsize == 0
        self._gcc(5)                                   # 16384 points
        assert audio._gcc_scratch.cache_info().currsize == 1

    def test_a_warm_frame_allocates_little(self):
        # the work arrays of a (4, 8160) frame take about 2.3 MB; once they
        # exist a frame peaks at 130 kB (1.44 MB when each call made its own)
        frame = self._frame(*self.CASES[0])
        audio.gcc_feature(frame)
        _, peak = _traced_peak(lambda: audio.gcc_feature(frame))
        assert peak < 256 * 1024


class TestGccAgainstComplexFft:
    """gcc_feature and gcc_phat_pair against the complex-FFT, pair-by-pair
    implementation they replaced (helpers.complex_fft_gcc_feature)."""

    def test_random_frames(self):
        # 240 frames: 2-6 channels; power-of-two (given or default), even
        # and odd fft_len; asymmetric lag ranges; every fourth frame
        # band-limited at fft_len == frame length, so its high bins fall
        # under the PHAT guard; every fifth frame zero-mean, so DC does
        rng = np.random.default_rng(12)
        guarded = 0
        for trial in range(240):
            n_channels = int(rng.integers(2, 7))
            n_samples = int(rng.integers(64, 1500))
            length_kind = trial % 3
            if length_kind == 0:
                fft_len = 1 << int(np.ceil(np.log2(n_samples)))
            else:
                fft_len = n_samples + int(rng.integers(0, 300))
                fft_len += (fft_len % 2) ^ (length_kind == 2)
            if trial % 4 == 3:
                n_samples = fft_len
                bins = fft_len // 2 + 1
                spectrum = (rng.standard_normal((n_channels, bins))
                            + 1j * rng.standard_normal((n_channels, bins)))
                spectrum[:, int(rng.integers(bins // 4, bins - 1)):] = 0.0
                samples = np.fft.irfft(spectrum, fft_len, axis=1)
            else:
                samples = rng.standard_normal((n_channels, n_samples))
                if trial % 5 == 0:
                    samples -= samples.mean(axis=1, keepdims=True)
            lag_min = -int(rng.integers(0, 60))
            lags = (lag_min, int(rng.integers(lag_min, 60)))
            given_len = None if length_kind == 0 and trial % 2 else fft_len

            want = complex_fft_gcc_feature(samples, lags, given_len)
            got = audio.gcc_feature(audio.MultichannelAudio(samples, 48000),
                                    lags, given_len).values
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12

            pairs = [(l, p) for l in range(n_channels) for p in range(l + 1, n_channels)]
            row = int(rng.integers(len(pairs)))
            l, p = pairs[row]
            pair = audio.gcc_phat_pair(samples[l], samples[p], lags, given_len)
            assert np.max(np.abs(pair - want[row])) <= 1e-12

            spectra = np.fft.rfft(samples[:2], fft_len, axis=1)
            cross = np.abs(spectra[0] * np.conj(spectra[1]))
            guarded += bool(np.any(cross <= 1e-12 * cross.max()))
        assert guarded >= 60

    def test_odd_fft_len(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(1001)
        auto = audio.gcc_phat_pair(x, x, fft_len=1001)
        assert auto[25] == pytest.approx(1.0, abs=1e-12)
        y = np.roll(x, 3)
        shifted = audio.gcc_phat_pair(x, y, fft_len=1001)
        reference = complex_fft_gcc_feature(np.stack([x, y]), fft_len=1001)[0]
        assert np.max(np.abs(shifted - reference)) <= 1e-12
        assert np.argmax(shifted) - 25 == -3


class TestSrpPhat:
    def _render_feature(self, azimuth, seed=0, snr_db=None):
        array = geom.MicArray.square()
        sig = audio.synth_source("white", 0.17, 48000, seed=seed)
        out = audio.render_array([(sig, azimuth)], array)
        if snr_db is not None:
            out = audio.add_noise_at_snr(out, snr_db, seed=seed + 1)
        return audio.gcc_feature(out), array

    def test_single_source_recovery(self):
        feature, array = self._render_feature(40.0)
        srp = audio.srp_phat(feature, array)
        decoded = audio.decode_srp(srp, 1)
        assert abs(geom.wrap_degrees(decoded[0] - 40.0)) <= 5.0

    def test_mirrored_array_symmetry(self):
        array = geom.MicArray.square()
        mirrored = geom.MicArray(positions=array.positions * np.array([1.0, -1.0, 1.0]))
        sig = audio.synth_source("white", 0.17, 48000, seed=3)
        out = audio.render_array([(sig, 25.0)], array)
        out_m = audio.render_array([(sig, -25.0)], mirrored)
        srp = audio.srp_phat(audio.gcc_feature(out), array)
        srp_m = audio.srp_phat(audio.gcc_feature(out_m), mirrored)
        # score(theta) of the scene equals score(-theta) of the mirrored scene
        idx = np.arange(-180, 180)
        mirrored_idx = (-idx + 180) % 360   # bin of -theta
        assert np.max(np.abs(srp - srp_m[mirrored_idx])) < 1e-6

    def test_noise_only_still_returns_peaks(self):
        rng = np.random.default_rng(9)
        frame = audio.MultichannelAudio(rng.standard_normal((4, 8160)), 48000)
        array = geom.MicArray.square()
        srp = audio.srp_phat(audio.gcc_feature(frame), array)
        decoded = audio.decode_srp(srp, 2)
        assert len(decoded) == 2

    def test_frame_stack_gives_one_map_per_frame(self):
        rng = np.random.default_rng(11)
        array = geom.MicArray.square()
        features = []
        for _ in range(3):
            frame = audio.MultichannelAudio(rng.standard_normal((4, 2048)), 48000)
            features.append(audio.gcc_feature(frame))
        stack = audio.GccFeature(np.stack([f.values for f in features]), -25, 25, 48000)
        maps = audio.srp_phat(stack, array)
        assert maps.shape == (3, 360)
        for row, feature in zip(maps, features):
            assert np.array_equal(row, audio.srp_phat(feature, array))

    def test_lag_range_too_small(self):
        array = geom.MicArray.square(side=0.5)   # needs ~99 sample lags
        rng = np.random.default_rng(0)
        frame = audio.MultichannelAudio(rng.standard_normal((4, 8160)), 48000)
        feature = audio.gcc_feature(frame)
        with pytest.raises(LagRangeTooSmall):
            audio.srp_phat(feature, array)

    def test_end_to_end_random_azimuths(self):
        # anechoic high-SNR single source: >= 95 % within 5 degrees
        rng = np.random.default_rng(10)
        hits = 0
        for k in range(100):
            azimuth = float(rng.uniform(-180.0, 180.0))
            feature, array = self._render_feature(azimuth, seed=100 + k, snr_db=20.0)
            decoded = audio.decode_srp(audio.srp_phat(feature, array), 1)
            if abs(geom.wrap_degrees(decoded[0] - azimuth)) <= 5.0:
                hits += 1
        assert hits >= 95


class TestMultichannelAudio:
    def test_keeps_the_array_it_is_given(self):
        x = np.zeros((2, 10), dtype=np.float32)
        assert audio.MultichannelAudio(x, 48000).samples is x

    def test_rejects_integer_and_one_dimensional_samples(self):
        for samples in (np.zeros((2, 10), dtype=np.int16), np.zeros(10)):
            with pytest.raises(ValueError):
                audio.MultichannelAudio(samples, 48000)


def _write_pcm(path, pcm, rate):
    """A plain PCM WAV of (T, C) integer samples, written by the stdlib."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(pcm.shape[1])
        fh.setsampwidth(pcm.dtype.itemsize)
        fh.setframerate(rate)
        fh.writeframes(pcm.astype(pcm.dtype.newbyteorder("<")).tobytes())


def _fmt(code, channels, rate, bits, extra=b""):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", code, channels, rate, rate * block, block, bits) + extra


def _riff(*chunks):
    """A RIFF/WAVE file of (tag, body) chunks, each padded to even length."""
    body = b"".join(tag + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
                    for tag, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


_DATA = (b"data", bytes(48))     # whole blocks of every format below


class TestWavIo:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, bad):
        x = np.zeros((2, 100), dtype=np.float32)
        x[1, 40] = bad
        path = tmp_path / "x.wav"
        audio.save_wav(path, audio.MultichannelAudio(x, 48000))
        with pytest.raises(BadWav, match="non-finite samples"):
            audio.load_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_in_the_last_partial_block_rejected(self, tmp_path, bad):
        # 80,000 samples: one whole block of the check and a part
        x = np.zeros((2, 40000), dtype=np.float32)
        x[1, -1] = bad
        path = tmp_path / "x.wav"
        audio.save_wav(path, audio.MultichannelAudio(x, 48000))
        with pytest.raises(BadWav, match="non-finite samples"):
            audio.load_wav(path)

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = audio.MultichannelAudio(
            rng.standard_normal((4, 4800)).astype(np.float32), 48000)
        path = tmp_path / "x.wav"
        audio.save_wav(path, x)
        loaded = audio.load_wav(path)
        assert loaded.sample_rate == 48000
        assert loaded.samples.dtype == np.float32
        assert np.array_equal(loaded.samples, x.samples)

    def test_pcm16_ingestion(self, tmp_path):
        rng = np.random.default_rng(1)
        pcm = (rng.uniform(-0.5, 0.5, size=(1000, 2)) * 32767).astype(np.int16)
        path = tmp_path / "pcm.wav"
        _write_pcm(path, pcm, 16000)
        loaded = audio.load_wav(path)
        assert loaded.samples.shape == (2, 1000)
        assert np.max(np.abs(loaded.samples)) <= 1.0

    def test_pcm32_ingestion(self, tmp_path):
        rng = np.random.default_rng(2)
        pcm = (rng.uniform(-0.5, 0.5, size=800) * (2**31 - 1)).astype(np.int32)
        path = tmp_path / "pcm32.wav"
        _write_pcm(path, pcm[:, None], 48000)
        loaded = audio.load_wav(path)
        assert loaded.samples.shape == (1, 800)
        assert np.allclose(loaded.samples[0], pcm / 2**31, atol=1e-9)

    def test_bad_wav(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"definitely not a wav file")
        with pytest.raises(BadWav):
            audio.load_wav(path)

    def test_header_is_the_58_bytes_of_an_ieee_float_wav(self, tmp_path):
        x = np.arange(6, dtype=np.float32).reshape(3, 2)
        path = tmp_path / "x.wav"
        audio.save_wav(path, audio.MultichannelAudio(x, 48000))
        assert path.read_bytes() == _riff((b"fmt ", _fmt(3, 3, 48000, 32, b"\0\0")),
                                          (b"fact", struct.pack("<I", 2)),
                                          (b"data", x.T.astype("<f4").tobytes()))

    def test_extensible_float32_loads_as_the_plain_file(self, tmp_path):
        x = np.random.default_rng(3).standard_normal((3, 40)).astype(np.float32)
        plain = tmp_path / "plain.wav"
        audio.save_wav(plain, audio.MultichannelAudio(x, 16000))
        # cbSize 22, 32 valid bits, no channel mask, then KSDATAFORMAT_SUBTYPE_IEEE_FLOAT
        guid = struct.pack("<H", 3) + bytes.fromhex("000000001000800000aa00389b71")
        extensible = tmp_path / "extensible.wav"
        extensible.write_bytes(_riff(
            (b"fmt ", _fmt(0xFFFE, 3, 16000, 32, struct.pack("<HHI", 22, 32, 0) + guid)),
            (b"data", x.T.tobytes())))
        loaded, expected = audio.load_wav(extensible), audio.load_wav(plain)
        assert loaded.sample_rate == expected.sample_rate == 16000
        assert loaded.samples.dtype == np.float32
        assert np.array_equal(loaded.samples, expected.samples)

    def test_chunks_around_the_data_are_skipped(self, tmp_path):
        x = np.arange(8, dtype=np.float32).reshape(2, 4)
        path = tmp_path / "x.wav"
        path.write_bytes(_riff((b"LIST", b"odd"), (b"fmt ", _fmt(3, 2, 8000, 32)),
                               (b"junk", b"12345"), (b"data", x.T.tobytes()),
                               (b"cue ", b"trailing")))
        assert np.array_equal(audio.load_wav(path).samples, x)

    @pytest.mark.parametrize("chunks, match", [
        ([(b"fmt ", _fmt(1, 2, 16000, 8)), _DATA], "unsupported sample format 8-bit PCM"),
        ([(b"fmt ", _fmt(1, 2, 16000, 24)), _DATA], "unsupported sample format 24-bit PCM"),
        ([(b"fmt ", _fmt(3, 2, 16000, 64)), _DATA], "unsupported sample format 64-bit float"),
        ([_DATA, (b"fmt ", _fmt(3, 2, 16000, 32))], "no fmt chunk before the data"),
        ([(b"fmt ", _fmt(3, 2, 16000, 32)[:14]), _DATA], "short fmt chunk"),
        ([(b"fmt ", _fmt(3, 0, 16000, 32)), _DATA], "0 channels at 16000 Hz"),
        ([(b"fmt ", _fmt(3, 2, 0, 32)), _DATA], "2 channels at 0 Hz"),
        ([(b"fmt ", _fmt(3, 2, 16000, 32)[:12] + struct.pack("<HH", 4, 32)), _DATA],
         "block align 4 for 2 channels of 32 bits"),
        ([(b"fmt ", _fmt(3, 2, 16000, 32)), (b"data", bytes(36))],
         "36 data bytes are not whole blocks of 8"),
    ], ids=["pcm8", "pcm24", "float64", "data_first", "short_fmt", "no_channels",
            "zero_rate", "block_align", "partial_block"])
    def test_malformed_or_unsupported_header_rejected(self, tmp_path, chunks, match):
        path = tmp_path / "x.wav"
        path.write_bytes(_riff(*chunks))
        with pytest.raises(BadWav, match=match):
            audio.load_wav(path)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        audio.save_wav(path, audio.MultichannelAudio(np.zeros((2, 50), np.float32), 16000))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(BadWav, match="truncated data chunk"):
            audio.load_wav(path)

    def test_oversized_data_refused_before_writing(self, tmp_path):
        # a broadcast view: 4 GiB of samples that take no memory
        x = np.broadcast_to(np.zeros((1, 1), np.float32), (1, 2**30))
        path = tmp_path / "x.wav"
        with pytest.raises(BadWav, match="u32"):
            audio.save_wav(path, audio.MultichannelAudio(x, 16000))
        assert not path.exists()

    def test_unreadable_path_is_an_os_error(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            audio.load_wav(tmp_path)
