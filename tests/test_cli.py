import hashlib
import json
import shutil

import numpy as np
import pytest

from avdoa import cli, evaluation, nn
from avdoa.cli import main
from avdoa.errors import ConfigError
from avdoa.store import read_feature_store, write_feature_store


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    feats = root / "feats"
    ckpt = root / "model.doam"
    assert run("simulate", "--out", ds, "--frames", 160, "--seed", 3,
               "--visibility", "1.0", "--source-kind", "white") == 0
    assert run("features", "--dataset", ds, "--out", feats) == 0
    assert run("train", "--features", feats, "--model", "gcc_only",
               "--widths", "32,32,32", "--epochs", 4, "--seed", 0,
               "--out", ckpt) == 0
    return root, ds, feats, ckpt


class TestSimulate:
    def test_writes_expected_files(self, pipeline):
        _, ds, _, _ = pipeline
        for name in ("manifest.jsonl", "audio.wav", "detections.jsonl",
                     "array.txt", "camera.txt"):
            assert (ds / name).exists()

    def test_invalid_config_exits_2(self, tmp_path):
        assert run("simulate", "--out", tmp_path / "x", "--frames", 0) == 2

    def test_nothing_written_on_validation_error(self, tmp_path):
        out = tmp_path / "nope"
        assert run("simulate", "--out", out, "--frames", 10,
                   "--visibility", "2.0") == 2
        assert not out.exists()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("frames = 12\nvisibility = 1.0\nsource_kind = white\n")
        out = tmp_path / "ds"
        assert run("simulate", "--out", out, "--config", cfg, "--seed", 1) == 0
        lines = (out / "manifest.jsonl").read_text().strip().splitlines()
        assert len(lines) == 13   # header + 12 records


class TestConfigTables:
    def _values(self, tmp_path, table, argv, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        args = cli.build_parser().parse_args([*argv, "--out", "x", "--config", str(cfg)])
        return cli._configured(args, table)

    def test_simulate_keys_and_precedence(self, tmp_path):
        values = self._values(
            tmp_path, cli.SIMULATE_KEYS, ["simulate", "--frames", "5", "--wav", "a.wav"],
            "frames = 12\nsources = 1:0.5,2:0.5\nazimuth_range = -90,90\n"
            "bbox_noise_var = 0.1\nwav_path = b.wav\nseed = 4\n",
        )
        assert values == {"frames": 5, "source_counts": {1: 0.5, 2: 0.5},
                          "azimuth_range": (-90.0, 90.0),
                          "bbox_noise_var": (0.1, 0.1, 0.1), "wav_path": "a.wav",
                          "seed": 4}

    def test_train_keys_and_precedence(self, tmp_path):
        values = self._values(
            tmp_path, cli.TRAIN_KEYS,
            ["train", "--features", "f", "--model", "avc", "--lr", "0.01"],
            "learning_rate = 0.5\nhidden = 8,4\nbatch_size = 32\n",
        )
        assert values == {"learning_rate": 0.01, "hidden": (8, 4), "batch_size": 32}

    def test_unset_fields_keep_dataclass_defaults(self, tmp_path):
        assert self._values(tmp_path, cli.SIMULATE_KEYS, ["simulate"], "") == {}

    def test_bad_value_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            self._values(tmp_path, cli.TRAIN_KEYS,
                         ["train", "--features", "f", "--model", "avc"], "epochs = ten\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames = many\n")
        assert run("simulate", "--out", tmp_path / "ds", "--config", cfg) == 2
        assert not (tmp_path / "ds").exists()


class TestFeatures:
    def test_store_layout(self, pipeline):
        _, _, feats, _ = pipeline
        assert sorted(p.name for p in feats.iterdir()) == [
            "gcc.doaf", "labels.jsonl", "visual.doaf"]
        gcc = read_feature_store(feats / "gcc.doaf")
        assert [index for index, _ in gcc] == list(range(160))
        assert all(values.shape == (6, 51) for _, values in gcc)

    def test_repeat_runs_byte_identical(self, pipeline, tmp_path):
        _, ds, feats, _ = pipeline
        again = tmp_path / "again"
        assert run("features", "--dataset", ds, "--out", again) == 0
        assert sha256(feats / "gcc.doaf") == sha256(again / "gcc.doaf")
        assert sha256(feats / "visual.doaf") == sha256(again / "visual.doaf")

    def test_snr_changes_gcc_store_only(self, pipeline, tmp_path):
        _, ds, feats, _ = pipeline
        noisy = tmp_path / "noisy"
        assert run("features", "--dataset", ds, "--out", noisy,
                   "--snr", 0, "--seed", 5) == 0
        assert sha256(noisy / "gcc.doaf") != sha256(feats / "gcc.doaf")
        assert sha256(noisy / "visual.doaf") == sha256(feats / "visual.doaf")

    def test_fdsp_changes_visual_store_only(self, pipeline, tmp_path):
        _, ds, feats, _ = pipeline
        swapped = tmp_path / "swapped"
        assert run("features", "--dataset", ds, "--out", swapped,
                   "--fdsp", 0.3, "--seed", 5) == 0
        assert sha256(swapped / "gcc.doaf") == sha256(feats / "gcc.doaf")
        assert sha256(swapped / "visual.doaf") != sha256(feats / "visual.doaf")

    def test_missing_dataset_exits_4(self, tmp_path):
        assert run("features", "--dataset", tmp_path / "missing",
                   "--out", tmp_path / "o") == 4
        assert not (tmp_path / "o").exists()   # nothing written on error


class TestTrain:
    def test_checkpoint_and_history(self, pipeline):
        root, _, _, ckpt = pipeline
        assert ckpt.exists()
        lines = (root / "model.doam.losses.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 5
        losses = [float(line.split(",")[1]) for line in lines[1:]]
        assert losses[-1] < losses[0]

    def test_gcc_only_ignores_visual_store(self, pipeline, tmp_path):
        _, ds, feats, ckpt = pipeline
        # same features but with the visual store removed entirely
        stripped = tmp_path / "stripped"
        assert run("features", "--dataset", ds, "--out", stripped) == 0
        (stripped / "visual.doaf").unlink()
        out = tmp_path / "m.doam"
        assert run("train", "--features", stripped, "--model", "gcc_only",
                   "--widths", "32,32,32", "--epochs", 4, "--seed", 0,
                   "--out", out) == 0
        assert sha256(out) == sha256(ckpt)

    def test_avaw_round_trip(self, pipeline, tmp_path):
        _, _, feats, _ = pipeline
        out = tmp_path / "avaw.doam"
        assert run("train", "--features", feats, "--model", "avaw",
                   "--widths", "16,16,16", "--epochs", 2, "--seed", 1,
                   "--out", out) == 0
        from avdoa import nn
        model = nn.load_checkpoint(out)
        assert model.kind == "avaw"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_exits_3(self, pipeline, tmp_path):
        # an absurd learning rate overflows the parameters within an epoch
        _, _, feats, _ = pipeline
        assert run("train", "--features", feats, "--model", "gcc_only",
                   "--widths", "16,16,16", "--epochs", 4, "--lr", "1e300",
                   "--seed", 0, "--out", tmp_path / "boom.doam") == 3
        assert not (tmp_path / "boom.doam").exists()

    def test_train_determinism_bit_identical(self, pipeline, tmp_path):
        _, _, feats, ckpt = pipeline
        out = tmp_path / "again.doam"
        assert run("train", "--features", feats, "--model", "gcc_only",
                   "--widths", "32,32,32", "--epochs", 4, "--seed", 0,
                   "--out", out) == 0
        assert sha256(out) == sha256(ckpt)


class TestEvalCommand:
    def test_summary_columns(self, pipeline, tmp_path):
        _, _, feats, ckpt = pipeline
        out = tmp_path / "eval"
        assert run("eval", "--checkpoint", ckpt, "--features", feats,
                   "--out", out) == 0
        header, values = (out / "summary.csv").read_text().strip().splitlines()
        assert header == "mae_n1,acc_n1,mae_n2,acc_n2,mae_overall,acc_overall"
        cells = values.split(",")
        assert cells[2] == "" and cells[3] == ""   # no two-source frames here
        assert float(cells[4]) >= 0.0
        records = [json.loads(l) for l in
                   (out / "results.jsonl").read_text().strip().splitlines()]
        assert all(set(r) == {"frame_index", "gt", "pred", "matched_errors"}
                   for r in records)

    def test_repeatable_summaries(self, pipeline, tmp_path):
        _, _, feats, ckpt = pipeline
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run("eval", "--checkpoint", ckpt, "--features", feats, "--out", a) == 0
        assert run("eval", "--checkpoint", ckpt, "--features", feats, "--out", b) == 0
        assert (a / "summary.csv").read_text() == (b / "summary.csv").read_text()

    def test_empty_holdout_exits_2(self, pipeline, tmp_path):
        _, _, feats, ckpt = pipeline
        out = tmp_path / "eval"
        assert run("eval", "--checkpoint", ckpt, "--features", feats,
                   "--holdout", 0, "--subset", "holdout", "--out", out) == 2
        assert not (out / "results.jsonl").exists()

    def test_truncated_checkpoint_exits_2(self, pipeline, tmp_path):
        _, _, feats, ckpt = pipeline
        cut = tmp_path / "cut.doam"
        cut.write_bytes(ckpt.read_bytes()[:10])
        assert run("eval", "--checkpoint", cut, "--features", feats,
                   "--out", tmp_path / "o") == 2

    def test_zero_hidden_layer_checkpoint_exits_2(self, pipeline, tmp_path):
        _, _, feats, ckpt = pipeline
        data = bytearray(ckpt.read_bytes())
        data[19:21] = (0).to_bytes(2, "little")   # the hidden-layer count
        bad = tmp_path / "zero.doam"
        bad.write_bytes(bytes(data))
        assert run("eval", "--checkpoint", bad, "--features", feats,
                   "--out", tmp_path / "o") == 2

    def test_wrong_checkpoint_path_exits_4(self, pipeline, tmp_path):
        _, _, feats, _ = pipeline
        assert run("eval", "--checkpoint", tmp_path / "none.doam",
                   "--features", feats, "--out", tmp_path / "o") == 4


class TestFeaturesDirectoryCheck:
    """train and eval exit 2, writing nothing, when the labels and the stores
    of a features directory disagree on the frame order."""

    def _copy(self, pipeline, tmp_path):
        _, _, feats, _ = pipeline
        copy = tmp_path / "feats"
        shutil.copytree(feats, copy)
        return copy

    def _assert_refused(self, feats, checkpoint, store, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "m.doam"
        assert run("train", "--features", feats, "--model", "avc",
                   "--widths", "8,8,8", "--epochs", 1, "--out", out) == 2
        assert not out.exists()
        assert not (tmp_path / "m.doam.losses.csv").exists()
        assert run("eval", "--checkpoint", checkpoint, "--features", feats,
                   "--out", tmp_path / "eval") == 2
        assert not (tmp_path / "eval").exists()
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        assert all(line.startswith("error: ") and str(feats) in line and store in line
                   for line in errors)

    def test_reversed_labels(self, pipeline, tmp_path, capsys):
        feats = self._copy(pipeline, tmp_path)
        labels = feats / "labels.jsonl"
        labels.write_text("".join(reversed(labels.read_text().splitlines(keepends=True))))
        self._assert_refused(feats, pipeline[3], "gcc.doaf", tmp_path, capsys)

    def test_visual_store_out_of_order(self, pipeline, tmp_path, capsys):
        feats = self._copy(pipeline, tmp_path)
        records = read_feature_store(feats / "visual.doaf")
        records[0], records[1] = records[1], records[0]
        write_feature_store(feats / "visual.doaf", records)
        avc = tmp_path / "avc.doam"
        nn.save_checkpoint(nn.build_model("avc", hidden=(8, 8, 8)), avc)
        self._assert_refused(feats, avc, "visual.doaf", tmp_path, capsys)


class TestRobustnessCommand:
    def test_small_grid(self, pipeline, tmp_path):
        _, ds, _, ckpt = pipeline
        out = tmp_path / "rob"
        assert run("robustness", "--checkpoint", ckpt, "--dataset", ds,
                   "--snr-levels", "0,clean", "--fdsp-levels", "0,50",
                   "--seed", 1, "--out", out) == 0
        grid_lines = (out / "robustness_grid.csv").read_text().strip().splitlines()
        assert grid_lines[0] == "snr_db,fdsp_0pct,fdsp_50pct"
        assert len(grid_lines) == 3
        plot_lines = (out / "mae_vs_snr.csv").read_text().strip().splitlines()
        assert plot_lines[0] == "snr_db,mae_fdsp_0pct,mae_fdsp_50pct"
        svg = (out / "robustness.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_default_levels_are_the_papers_grid(self, pipeline, tmp_path):
        assert cli._parse_snr_levels("-10,0,10,20,clean") == evaluation.SNR_LEVELS_DB
        assert cli._parse_fdsp_levels("0,10,30,50,70") == evaluation.FDSP_LEVELS
        _, ds, _, ckpt = pipeline
        out = tmp_path / "rob"
        assert run("robustness", "--checkpoint", ckpt, "--dataset", ds,
                   "--seed", 1, "--out", out) == 0
        grid_lines = (out / "robustness_grid.csv").read_text().strip().splitlines()
        assert grid_lines[0] == ("snr_db,fdsp_0pct,fdsp_10pct,fdsp_30pct,"
                                 "fdsp_50pct,fdsp_70pct")
        assert [line.split(",")[0] for line in grid_lines[1:]] == [
            "-10", "0", "10", "20", "clean"]
        assert all(len(line.split(",")) == 6 for line in grid_lines)


class TestBaselineCommand:
    def test_srp_baseline_on_clean_single_source(self, pipeline, tmp_path):
        _, ds, _, _ = pipeline
        out = tmp_path / "base"
        assert run("baseline", "--dataset", ds, "--out", out) == 0
        header, values = (out / "baseline_summary.csv").read_text().strip().splitlines()
        cells = dict(zip(header.split(","), values.split(",")))
        assert float(cells["acc_overall"]) > 90.0


class TestThreeMicArray:
    def test_pipeline_sizes_the_model_from_the_stores(self, pipeline, tmp_path):
        _, ds, _, _ = pipeline
        lines = (ds / "array.txt").read_text().splitlines(keepends=True)
        last_mic = max(i for i, line in enumerate(lines) if line.startswith("mic"))
        array = tmp_path / "array.txt"
        array.write_text("".join(lines[:last_mic] + lines[last_mic + 1:]))
        ds3, feats, ckpt = tmp_path / "ds", tmp_path / "feats", tmp_path / "m.doam"
        assert run("simulate", "--out", ds3, "--array", array, "--frames", 40,
                   "--seed", 2, "--visibility", "1.0", "--source-kind", "white") == 0
        assert run("features", "--dataset", ds3, "--out", feats) == 0
        assert read_feature_store(feats / "gcc.doaf")[0][1].shape == (3, 51)
        assert run("train", "--features", feats, "--model", "avaw",
                   "--widths", "16,16,16", "--epochs", 2, "--seed", 1,
                   "--out", ckpt) == 0
        model = nn.load_checkpoint(ckpt)
        assert (model.gcc_dim, model.vis_dim) == (153, 102)
        assert run("eval", "--checkpoint", ckpt, "--features", feats,
                   "--out", tmp_path / "eval") == 0
        assert run("robustness", "--checkpoint", ckpt, "--dataset", ds3,
                   "--snr-levels", "0,clean", "--fdsp-levels", "0,50",
                   "--out", tmp_path / "rob") == 0


class TestFullDeterminism:
    def test_two_pipelines_bit_identical(self, tmp_path):
        digests = []
        for name in ("one", "two"):
            root = tmp_path / name
            assert run("simulate", "--out", root / "ds", "--frames", 60,
                       "--seed", 11, "--source-kind", "white",
                       "--visibility", "0.5") == 0
            assert run("features", "--dataset", root / "ds",
                       "--out", root / "feats") == 0
            assert run("train", "--features", root / "feats", "--model", "avc",
                       "--widths", "16,16,16", "--epochs", 2, "--seed", 4,
                       "--out", root / "m.doam") == 0
            assert run("eval", "--checkpoint", root / "m.doam",
                       "--features", root / "feats", "--out", root / "eval") == 0
            digests.append((
                sha256(root / "ds" / "audio.wav"),
                sha256(root / "feats" / "gcc.doaf"),
                sha256(root / "m.doam"),
                (root / "eval" / "summary.csv").read_text(),
            ))
        assert digests[0] == digests[1]
