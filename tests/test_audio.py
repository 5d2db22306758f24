import numpy as np
import pytest

from avdoa import audio, geom
from avdoa.errors import (
    AllZeroSpectrum,
    BadWav,
    LagRangeTooSmall,
    SampleRateMismatch,
    SilentSignal,
    TooShort,
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

    def test_wav_file_kind(self, tmp_path):
        ref = audio.synth_source("white", 0.5, 16000, seed=2)
        path = tmp_path / "src.wav"
        audio.save_wav(path, ref)
        stored = audio.load_wav(path).samples[0]
        segments = []
        for seed in (0, 0, 1):
            sig = audio.synth_source("wav_file", 0.25, 16000, seed=seed, wav_path=str(path))
            assert sig.samples.shape == (1, 4000)
            # a contiguous run of the file's samples
            starts = [s for s in range(stored.size - 4000 + 1)
                      if np.array_equal(stored[s:s + 4000], sig.samples[0])]
            assert len(starts) == 1
            segments.append(starts[0])
        assert segments[0] == segments[1] != segments[2]
        with pytest.raises(SampleRateMismatch):
            audio.synth_source("wav_file", 0.25, 48000, wav_path=str(path))
        with pytest.raises(TooShort):
            audio.synth_source("wav_file", 2.0, 16000, wav_path=str(path))
        with pytest.raises(FileNotFoundError):
            audio.synth_source("wav_file", 0.1, 16000, wav_path=str(tmp_path / "no.wav"))


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


class TestWavIo:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, tmp_path, bad):
        x = np.zeros((2, 100), dtype=np.float32)
        x[1, 40] = bad
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
        from scipy.io import wavfile

        rng = np.random.default_rng(1)
        pcm = (rng.uniform(-0.5, 0.5, size=(1000, 2)) * 32767).astype(np.int16)
        path = tmp_path / "pcm.wav"
        wavfile.write(path, 16000, pcm)
        loaded = audio.load_wav(path)
        assert loaded.samples.shape == (2, 1000)
        assert np.max(np.abs(loaded.samples)) <= 1.0

    def test_pcm32_ingestion(self, tmp_path):
        from scipy.io import wavfile

        rng = np.random.default_rng(2)
        pcm = (rng.uniform(-0.5, 0.5, size=800) * (2**31 - 1)).astype(np.int32)
        path = tmp_path / "pcm32.wav"
        wavfile.write(path, 48000, pcm)
        loaded = audio.load_wav(path)
        assert loaded.samples.shape == (1, 800)
        assert np.allclose(loaded.samples[0], pcm / 2**31, atol=1e-9)

    def test_bad_wav(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"definitely not a wav file")
        with pytest.raises(BadWav):
            audio.load_wav(path)
