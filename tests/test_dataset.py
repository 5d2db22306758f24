import json
import re

import numpy as np
import pytest

from avdoa import audio, dataset, geom, visual
from avdoa.errors import ConfigError, SampleRateMismatch, TooShort


def small_config(**overrides):
    kwargs = dict(frames=20, visibility=1.0, seed=0,
                  source_kind="white")
    kwargs.update(overrides)
    return dataset.ScenarioConfig(**kwargs)


class TestScenarioConfig:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigError):
            dataset.ScenarioConfig(source_counts={1: 0.5, 2: 0.2})

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            dataset.ScenarioConfig(distance_range=(3.0, 1.0))
        with pytest.raises(ConfigError):
            dataset.ScenarioConfig(azimuth_range=(-200, 10))

    def test_rejects_unknown_source_kind(self):
        with pytest.raises(ConfigError, match="source_kind"):
            dataset.ScenarioConfig(source_kind="bogus")
        with pytest.raises(ConfigError, match="wav_path"):
            dataset.ScenarioConfig(source_kind="wav_file")

    def test_rejects_three_plus_sources(self):
        with pytest.raises(ConfigError):
            dataset.ScenarioConfig(source_counts={3: 1.0})


class TestSimulate:
    def test_layout_and_load(self, tmp_path):
        out = tmp_path / "ds"
        dataset.simulate(small_config(), out)
        for name in ("manifest.jsonl", "audio.wav", "detections.jsonl",
                     "array.txt", "camera.txt"):
            assert (out / name).exists()
        ds = dataset.FrameDataset.load(out)
        assert len(ds) == 20
        assert ds.audio.n_channels == 4
        assert ds.frame_samples == 8160

    def test_all_visible_gives_full_detection_rate(self, tmp_path):
        out = tmp_path / "ds"
        dataset.simulate(small_config(frames=100), out)
        ds = dataset.FrameDataset.load(out)
        assert visual.detection_rate(ds.detections) == 100.0

    def test_visibility_fraction_controls_detection_rate(self, tmp_path):
        out = tmp_path / "ds"
        dataset.simulate(small_config(frames=2000, visibility=0.1), out)
        ds = dataset.FrameDataset.load(out)
        rate = visual.detection_rate(ds.detections)
        assert abs(rate - 10.0) < 3.0

    def test_two_source_frames_respect_separation(self, tmp_path):
        out = tmp_path / "ds"
        dataset.simulate(small_config(frames=60, source_counts={2: 1.0},
                                      visibility=0.5), out)
        ds = dataset.FrameDataset.load(out)
        for frame in ds.frames:
            assert len(frame.sources) == 2
            a, b = frame.azimuths
            assert abs(geom.wrap_degrees(a - b)) >= 10.0

    def test_manifest_azimuths_match_positions(self, tmp_path):
        out = tmp_path / "ds"
        dataset.simulate(small_config(frames=30, visibility=0.3), out)
        ds = dataset.FrameDataset.load(out)
        for frame in ds.frames:
            for src in frame.sources:
                derived = geom.doa_from_position(src.position, ds.array)
                assert abs(geom.wrap_degrees(derived - src.azimuth_deg)) <= 1e-6

    def test_wav_file_scene_loads_its_wav_once(self, tmp_path, monkeypatch):
        path = tmp_path / "speech.wav"
        audio.save_wav(path, audio.synth_source("white", 1.0, 16000, seed=0))
        calls = []
        load_wav = audio.load_wav
        monkeypatch.setattr(audio, "load_wav", lambda p: calls.append(p) or load_wav(p))
        scene = dict(source_kind="wav_file", wav_path=str(path), sample_rate=16000,
                     source_counts={2: 1.0})
        dataset.simulate(small_config(**scene), tmp_path / "ds")
        assert calls == [str(path)]      # 20 frames of two sources each
        with pytest.raises(SampleRateMismatch,
                           match=re.escape(f"{path}: 16000 Hz, requested 8000 Hz")):
            dataset.simulate(small_config(**dict(scene, sample_rate=8000)), tmp_path / "a")
        with pytest.raises(TooShort,
                           match=re.escape(f"{path}: 16000 samples < 32000 requested")):
            dataset.simulate(small_config(**dict(scene, frame_len_s=2.0)), tmp_path / "b")
        with pytest.raises(FileNotFoundError):
            dataset.simulate(small_config(**dict(scene, wav_path=str(tmp_path / "no.wav"))),
                             tmp_path / "c")

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        dataset.simulate(small_config(frames=10), a)
        dataset.simulate(small_config(frames=10), b)
        assert (a / "audio.wav").read_bytes() == (b / "audio.wav").read_bytes()
        assert (a / "manifest.jsonl").read_text() == (b / "manifest.jsonl").read_text()
        assert (a / "detections.jsonl").read_text() == (b / "detections.jsonl").read_text()

    def test_optional_keys_may_be_omitted(self, tmp_path):
        # audio_offset defaults to back-to-back frames, id to the source's
        # position in the record, azimuth_deg to the one the position gives
        out = tmp_path / "ds"
        dataset.simulate(small_config(frames=5, source_counts={2: 1.0}), out)
        full = dataset.FrameDataset.load(out)
        manifest = out / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        for i in range(1, len(lines)):
            record = json.loads(lines[i])
            del record["audio_offset"]
            for src in record["active_sources"]:
                del src["id"], src["azimuth_deg"]
            lines[i] = json.dumps(record)
        manifest.write_text("\n".join(lines) + "\n")
        bare = dataset.FrameDataset.load(out)
        for a, b in zip(full.frames, bare.frames):
            assert a.audio_offset == b.audio_offset
            assert [s.source_id for s in a.sources] == [s.source_id for s in b.sources]
            assert np.allclose(a.azimuths, b.azimuths, atol=1e-6)

    def test_inconsistent_azimuth_rejected(self, tmp_path):
        out = tmp_path / "ds"
        dataset.simulate(small_config(frames=3), out)
        manifest = out / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        record = json.loads(lines[1])
        record["active_sources"][0]["azimuth_deg"] += 1.0
        lines[1] = json.dumps(record)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            dataset.FrameDataset.load(out)


@pytest.fixture(scope="module")
def ds(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ds"
    dataset.simulate(small_config(frames=12), out)
    return dataset.FrameDataset.load(out)


class TestExtractFeatures:

    def test_shapes(self, ds):
        gcc, vis = dataset.extract_features(ds)
        assert gcc.shape == (12, 6, 51)
        assert vis.shape == (12, 2, 51)

    def test_clean_extraction_deterministic(self, ds):
        a = dataset.extract_features(ds)
        b = dataset.extract_features(ds)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert np.array_equal(dataset.gcc_stack(ds), a[0])
        assert np.array_equal(dataset.visual_stack(ds), a[1])

    def test_snr_changes_audio_only(self, ds):
        clean = dataset.extract_features(ds)
        for seed in (1, [1, 2]):
            noisy = dataset.extract_features(ds, snr_db=0.0, seed=seed)
            assert not np.array_equal(clean[0], noisy[0])
            assert np.array_equal(clean[1], noisy[1])
            # the two stacks are the halves, bit for bit, at the same seed
            assert np.array_equal(dataset.gcc_stack(ds, 0.0, seed), noisy[0])
            assert np.array_equal(dataset.visual_stack(ds, 0.0, seed), noisy[1])
        assert not np.array_equal(dataset.gcc_stack(ds, 0.0, 1),
                                  dataset.gcc_stack(ds, 0.0, [1, 2]))

    def test_fdsp_changes_visual_only(self, ds):
        clean = dataset.extract_features(ds)
        for seed in (1, [1, 2]):
            swapped = dataset.extract_features(ds, fdsp=0.5, seed=seed)
            assert np.array_equal(clean[0], swapped[0])
            assert not np.array_equal(clean[1], swapped[1])
            assert np.array_equal(dataset.gcc_stack(ds, None, seed), swapped[0])
            assert np.array_equal(dataset.visual_stack(ds, 0.5, seed), swapped[1])

    def test_feature_matrices(self, ds):
        gcc, vis = dataset.extract_features(ds)
        gcc_mat, vis_mat = dataset.feature_matrices(gcc, vis)
        assert gcc_mat.shape == (12, 306)
        assert vis_mat.shape == (12, 102)
        assert np.array_equal(gcc_mat[0], gcc[0].reshape(-1))

    def test_subset(self, ds):
        sub = ds.subset([2, 5, 7])
        gcc, vis = dataset.extract_features(sub)
        full_gcc, _ = dataset.extract_features(ds)
        assert np.array_equal(gcc, full_gcc[[2, 5, 7]])

    def test_subset_of_every_frame_is_the_dataset(self, ds):
        whole = ds.subset(range(len(ds)))
        assert whole is ds
        assert np.array_equal(dataset.gcc_stack(whole), dataset.gcc_stack(ds))
        reordered = ds.subset(reversed(range(len(ds))))
        assert reordered is not ds
        assert np.array_equal(dataset.gcc_stack(reordered), dataset.gcc_stack(ds)[::-1])

    def test_audio_stays_float32(self, ds):
        assert ds.audio.samples.dtype == np.float32
        assert ds.subset([2, 5, 7]).audio.samples.dtype == np.float32


class TestRobustnessGrid:
    def test_clean_cell_equals_direct_evaluation(self, ds):
        from avdoa import evaluation, nn

        gcc, vis = dataset.extract_features(ds)
        gcc_mat, vis_mat = dataset.feature_matrices(gcc, vis)
        targets = dataset.build_targets(ds.frames)
        config = nn.TrainConfig(epochs=2, batch_size=4, hidden=(16, 16, 16), seed=0)
        model = nn.build_model("avc", hidden=(16, 16, 16), seed=0)
        nn.train_model(model, gcc_mat, vis_mat, targets, config)

        grid = evaluation.robustness_grid(model, ds, snr_levels=(None,),
                                          fdsp_levels=(0.0,), seed=3)
        posterior = model.forward(gcc_mat, vis_mat, train=False)
        preds = [evaluation.decode_doa(posterior[i], len(f.azimuths))
                 for i, f in enumerate(ds.frames)]
        direct = evaluation.mae_acc(preds, [f.azimuths for f in ds.frames])
        assert grid.cells[(None, 0.0)] == (direct.mae, direct.acc)


class TestSplit:
    def test_split_indices(self):
        train, test = dataset.split_indices(10, 0.2)
        assert train == list(range(8))
        assert test == [8, 9]

    def test_no_holdout(self):
        train, test = dataset.split_indices(5, 0.0)
        assert train == list(range(5))
        assert test == []

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            dataset.split_indices(10, 1.0)
