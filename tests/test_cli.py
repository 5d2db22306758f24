import argparse
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

import avdoa
from avdoa import audio, cli, evaluation, nn, visual
from avdoa.cli import main
from avdoa.errors import ConfigError, VersionMismatch
from avdoa.store import read_feature_store, write_feature_store
from helpers import tiny_model


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

    def test_speech_scene_does_not_import_scipy(self, tmp_path):
        # in a child process, so no other test's imports count
        src = os.path.dirname(os.path.dirname(os.path.abspath(avdoa.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        ds, out = str(tmp_path / "ds"), str(tmp_path / "out")
        script = ("import sys\n"
                  "from avdoa import cli\n"
                  f"codes = [cli.main(['simulate', '--out', {ds!r}, '--frames', '4', "
                  "'--source-kind', 'speech_like_ar']),\n"
                  f"         cli.main(['features', '--dataset', {ds!r}, '--out', {out!r}]),\n"
                  f"         cli.main(['baseline', '--dataset', {ds!r}, '--out', {out!r}])]\n"
                  "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"

    def test_frames_past_the_wav_size_limit_exit_2_at_once(self, tmp_path, capsys):
        # 4 mics x 8,160 samples x 4 bytes: 32,896 frames fit a RIFF WAV's u32 sizes
        out = tmp_path / "ds"
        assert run("simulate", "--out", out, "--frames", 40000) == 2
        assert "u32" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_rate_past_the_wav_size_limit_exits_2_before_writing(self, tmp_path, capsys):
        # 48,000 bytes of data fit, but 16 bytes a frame at 300 MHz is past u32
        out = tmp_path / "ds"
        assert run("simulate", "--out", out, "--frames", 1, "--sample-rate", 300000000,
                   "--frame-len", 0.00001, "--source-kind", "white") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "u32" in err[0]
        assert not (out / "array.txt").exists() and not (out / "camera.txt").exists()

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


class TestOptionRows:
    """Each simulate/train option is one table row: one string flag, one
    config key, and one parser for both, so both refuse the same values."""

    @pytest.mark.parametrize("command, table", [("simulate", cli.SIMULATE_KEYS),
                                                ("train", cli.TRAIN_KEYS)])
    def test_every_row_has_exactly_one_flag(self, command, table):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = [a for a in sub.choices[command]._actions if a.option_strings]
        for field, _, _, flag, _ in table:
            matching = [a for a in actions if a.dest == field]
            assert [a.option_strings for a in matching] == [[flag]]
            assert (matching[0].type, matching[0].choices, matching[0].default) == \
                (None, None, None)

    # (command, flag or None for a config-file line, value): one flag and one
    # file key for each parser of the rows
    BAD_VALUES = [
        ("simulate", "--frame-len", "inf"),
        ("simulate", "--min-separation", "nan"),
        ("train", "--lr", "nan"),
        ("train", None, "target_sigma_deg = inf"),
        ("simulate", "--azimuth-range", "0,nan"),
        ("simulate", None, "distance_range = 1,inf"),
        ("simulate", "--bbox-noise-var", "nan"),
        ("simulate", None, "bbox_noise_var = 0.1,-inf,0.1"),
        ("simulate", "--sources", "1:nan"),
        ("simulate", None, "sources = 1:0.5,2:inf"),
        ("simulate", "--frames", "abc"),
        ("train", None, "hidden = 8,x"),
    ]

    @pytest.mark.parametrize("command, flag, value", BAD_VALUES)
    def test_bad_value_exits_2_naming_the_flag_or_key(self, command, flag, value,
                                                      tmp_path, capsys):
        argv = [command, "--out", tmp_path / "out"]
        if command == "train":
            argv += ["--features", tmp_path / "feats", "--model", "avc"]
        if flag is None:
            (tmp_path / "run.cfg").write_text(value + "\n")
            argv += ["--config", tmp_path / "run.cfg"]
            where = f"config key {value.split(' =')[0]!r}: "
        else:
            argv += [flag, value]
            where = f"{flag}: "
        assert run(*argv) == 2
        assert not (tmp_path / "out").exists()
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: {where}")

    def test_unknown_source_kind_exits_2_from_flag_and_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("source_kind = bogus\n")
        out = tmp_path / "ds"
        assert run("simulate", "--out", out, "--frames", 2, "--source-kind", "bogus") == 2
        assert run("simulate", "--out", out, "--frames", 2, "--config", cfg) == 2
        assert not out.exists()
        errors = capsys.readouterr().err.splitlines()
        assert errors == ["error: source_kind must be one of white, speech_like_ar, wav_file"] * 2


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["features", "--dataset", "d", "--config", "c"],
        ["eval", "--checkpoint", "m", "--features", "f", "--config", "c"],
        ["robustness", "--checkpoint", "m", "--dataset", "d", "--config", "c"],
        ["baseline", "--dataset", "d", "--config", "c"],
        ["eval", "--checkpoint", "m", "--features", "f", "--seed", "1"],
    ], ids=["features-config", "eval-config", "robustness-config", "baseline-config",
            "eval-seed"])
    def test_options_a_command_does_not_use_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", "o")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frmaes = 12\nepochs = 3\nvisibilty = 1\n")
        assert run("simulate", "--out", tmp_path / "ds", "--config", cfg) == 2
        assert run("train", "--features", tmp_path / "f", "--model", "avc",
                   "--config", cfg, "--out", tmp_path / "m.doam") == 2
        assert not (tmp_path / "ds").exists() and not (tmp_path / "m.doam").exists()
        errors = capsys.readouterr().err.splitlines()
        assert errors == [f"error: {cfg}: unknown keys frmaes, visibilty"] * 2

    def test_config_file_not_utf8_exits_2_naming_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"frames = 12\n\xff = 1\n")
        assert run("simulate", "--out", tmp_path / "ds", "--config", cfg) == 2
        assert not (tmp_path / "ds").exists()
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:2: not UTF-8 text (byte 0xff at offset 0)"]


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

    def test_very_low_snr_gives_finite_gcc(self, tmp_path):
        # noise about 1e154 times the signal: its cross spectra would overflow
        # without the per-channel power-of-two scaling
        ds = tmp_path / "ds"
        assert run("simulate", "--out", ds, "--frames", 20, "--seed", 2) == 0
        assert run("features", "--dataset", ds, "--snr=-3080", "--seed", 1,
                   "--out", tmp_path / "f") == 0
        gcc = read_feature_store(tmp_path / "f" / "gcc.doaf")
        assert len(gcc) == 20 and all(np.all(np.isfinite(values)) for _, values in gcc)

    def test_missing_dataset_exits_4(self, tmp_path):
        assert run("features", "--dataset", tmp_path / "missing",
                   "--out", tmp_path / "o") == 4
        assert not (tmp_path / "o").exists()   # nothing written on error

    def test_unreadable_wav_exits_4(self, pipeline, tmp_path):
        _, ds, _, _ = pipeline
        shutil.copytree(ds, tmp_path / "ds", ignore=shutil.ignore_patterns("audio.wav"))
        (tmp_path / "ds" / "audio.wav").mkdir()
        assert run("features", "--dataset", tmp_path / "ds", "--out", tmp_path / "o") == 4
        assert not (tmp_path / "o").exists()


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

    def test_numeric_blowup_exits_3(self, pipeline, tmp_path):
        # an absurd learning rate overflows the parameters within an epoch
        _, _, feats, _ = pipeline
        assert run("train", "--features", feats, "--model", "gcc_only",
                   "--widths", "16,16,16", "--epochs", 4, "--lr", "1e20",
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
        data[20:22] = (0).to_bytes(2, "little")   # the hidden-layer count
        bad = tmp_path / "zero.doam"
        bad.write_bytes(bytes(data))
        assert run("eval", "--checkpoint", bad, "--features", feats,
                   "--out", tmp_path / "o") == 2

    def test_huge_width_in_header_exits_2_at_once(self, pipeline, tmp_path, capsys):
        _, _, feats, ckpt = pipeline
        data = bytearray(ckpt.read_bytes())
        data[22:26] = (3_000_000_000).to_bytes(4, "little")   # the first hidden width
        bad = tmp_path / "wide.doam"
        bad.write_bytes(bytes(data))
        start = time.perf_counter()
        assert run("eval", "--checkpoint", bad, "--features", feats,
                   "--out", tmp_path / "o") == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_checkpoint_of_another_output_width_exits_2(self, pipeline, tmp_path, capsys):
        """Scores are 360-bin maps, so a 5-class model is refused, not decoded."""
        _, ds, feats, _ = pipeline
        narrow = tmp_path / "narrow.doam"
        nn.save_checkpoint(tiny_model(np.float32, gcc_dim=306, vis_dim=102), narrow)
        capsys.readouterr()
        for argv in [("eval", "--features", feats),
                     ("robustness", "--dataset", ds, "--snr-levels", "clean",
                      "--fdsp-levels", "0")]:
            assert run(*argv, "--checkpoint", narrow, "--out", tmp_path / "out") == 2
            assert not (tmp_path / "out").exists()
            assert "(32, 360) score maps" in capsys.readouterr().err

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


def _edit_record(path, line, change):
    """Apply ``change`` to the JSON record on 0-based ``line`` of a JSON-lines file."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line])
    change(record)
    lines[line] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def _replace_line(path, line, text):
    lines = path.read_text().splitlines()
    lines[line] = text
    path.write_text("\n".join(lines) + "\n")


def _set_key(path, key, value):
    """Give the first ``key = ...`` line of a geometry file a new value."""
    lines = path.read_text().splitlines()
    line = next(i for i, text in enumerate(lines) if text.startswith(f"{key} ="))
    _replace_line(path, line, f"{key} = {value}")


def _prefix_bytes(path, line, data):
    """Put ``data`` (bytes that are not UTF-8) at the start of 0-based ``line``."""
    lines = path.read_bytes().splitlines()
    lines[line] = data + lines[line]
    path.write_bytes(b"\n".join(lines) + b"\n")


def _cut_wav(ds):
    wav = audio.load_wav(ds / "audio.wav")
    audio.save_wav(ds / "audio.wav", audio.MultichannelAudio(
        wav.samples[:, :-4000], wav.sample_rate))


def _spoil_wav(path):
    """Write a NaN and an inf into the first two frames of a dataset WAV."""
    wav = audio.load_wav(path)
    samples = wav.samples.copy()
    samples[0, 100] = np.nan
    samples[2, 9000] = np.inf
    audio.save_wav(path, audio.MultichannelAudio(samples, wav.sample_rate))


# (directory, file, edit of that file, the file:line the error must name)
MALFORMED = {
    "labels_without_azimuths": (
        "feats", "labels.jsonl",
        lambda p: _edit_record(p, 0, lambda r: r.pop("azimuths")), "labels.jsonl:1:"),
    "labels_azimuth_not_a_number": (
        "feats", "labels.jsonl",
        lambda p: _edit_record(p, 2, lambda r: r.update(azimuths=["north"])), "labels.jsonl:3:"),
    "labels_without_a_source": (
        "feats", "labels.jsonl",
        lambda p: _edit_record(p, 0, lambda r: r.update(azimuths=[])), "labels.jsonl:1:"),
    "labels_bad_json": (
        "feats", "labels.jsonl", lambda p: _replace_line(p, 4, "{oops"), "labels.jsonl:5:"),
    "labels_azimuth_out_of_range": (
        "feats", "labels.jsonl",
        lambda p: _edit_record(p, 3, lambda r: r.update(azimuths=[500.0])), "labels.jsonl:4:"),
    "manifest_without_timestamp": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 2, lambda r: r.pop("timestamp_s")), "manifest.jsonl:3:"),
    "header_without_frame_samples": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 0, lambda r: r.pop("frame_samples")), "manifest.jsonl:1:"),
    "manifest_bad_json": (
        "ds", "manifest.jsonl", lambda p: _replace_line(p, 3, '{"frame_index": 2,'),
        "manifest.jsonl:4:"),
    "manifest_record_not_an_object": (
        "ds", "manifest.jsonl", lambda p: _replace_line(p, 3, "[2, 0.34]"),
        "manifest.jsonl:4:"),
    "manifest_sources_alias": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r.update(sources=r.pop("active_sources"))),
        "manifest.jsonl:2:"),
    "source_azimuth_out_of_range": (    # derived azimuth + 360: it wraps to the right one
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r["active_sources"][0].update(
            azimuth_deg=r["active_sources"][0]["azimuth_deg"] + 360.0)),
        "manifest.jsonl:2:"),
    "source_without_z": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r["active_sources"][0].pop("z")),
        "manifest.jsonl:2:"),
    "source_coordinate_is_bool": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r["active_sources"][0].update(x=True)),
        "manifest.jsonl:2:"),
    "frame_index_is_float": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r.update(frame_index=0.5)), "manifest.jsonl:2:"),
    "frame_index_beyond_u32": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 20, lambda r: r.update(frame_index=2**32)),
        "manifest.jsonl:21:"),
    "no_active_source": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r.update(active_sources=[])), "manifest.jsonl:2:"),
    "integer_beyond_float_range": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r.update(timestamp_s=10**400)),
        "manifest.jsonl:2:"),
    "detections_without_boxes": (
        "ds", "detections.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r.pop("boxes")), "detections.jsonl:2:"),
    "detections_frame_twice": (
        "ds", "detections.jsonl",
        lambda p: p.write_text(p.read_text() + p.read_text().splitlines()[0] + "\n"),
        "detections.jsonl:21:"),
    "box_of_three_numbers": (
        "ds", "detections.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r.update(boxes=[[1.0, 2.0, 3.0]])),
        "detections.jsonl:2:"),
    "negative_audio_offset": (
        "ds", "manifest.jsonl",
        lambda p: _edit_record(p, 1, lambda r: r.update(audio_offset=-1)),
        "manifest.jsonl:2: frame 0 "),
    "wav_cut_short": (
        "ds", "audio.wav", lambda p: _cut_wav(p.parent), "manifest.jsonl:21: frame 19 "),
    "wav_non_finite": ("ds", "audio.wav", _spoil_wav, "audio.wav: non-finite samples"),
    "speed_of_sound_nan": (
        "ds", "array.txt", lambda p: _set_key(p, "c", "nan"), "array.txt: 'c' "),
    "mic_at_infinity": (
        "ds", "array.txt", lambda p: _set_key(p, "mic", "inf 0 0"), "array.txt: 'mic' "),
    "mic_not_a_number": (
        "ds", "array.txt", lambda p: _set_key(p, "mic", "0 zero 0"), "array.txt: 'mic' "),
    "focal_length_nan": (
        "ds", "camera.txt", lambda p: _set_key(p, "f_u", "nan"), "camera.txt: 'f_u' "),
    "labels_not_utf8": (
        "feats", "labels.jsonl", lambda p: _prefix_bytes(p, 2, b"\xff"), "labels.jsonl:3:"),
    "manifest_not_utf8": (
        "ds", "manifest.jsonl", lambda p: _prefix_bytes(p, 4, b"\xc3("), "manifest.jsonl:5:"),
    "detections_not_utf8": (
        "ds", "detections.jsonl", lambda p: _prefix_bytes(p, 0, b"\xff"), "detections.jsonl:1:"),
    "array_not_utf8": (
        "ds", "array.txt", lambda p: _prefix_bytes(p, 1, b"# \x80"), "array.txt:2:"),
    "camera_not_utf8": (
        "ds", "camera.txt", lambda p: _prefix_bytes(p, 0, b"\xfe"), "camera.txt:1:"),
}


class TestMalformedInputs:
    """Each malformed dataset or features file ends the commands that read it
    with exit 2 and one error line naming the file (and line), writing nothing."""

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("small")
        assert run("simulate", "--out", root / "ds", "--frames", 20, "--seed", 1,
                   "--source-kind", "white") == 0
        assert run("features", "--dataset", root / "ds", "--out", root / "feats") == 0
        nn.save_checkpoint(nn.build_model("avaw", hidden=(8, 8, 8)), root / "avaw.doam")
        return root

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_naming_the_place(self, case, small, tmp_path, capsys):
        directory, name, edit, place = MALFORMED[case]
        shutil.copytree(small / directory, tmp_path / directory)
        edit(tmp_path / directory / name)
        if directory == "ds":
            commands = [("features", "--dataset", tmp_path / "ds"),
                        ("baseline", "--dataset", tmp_path / "ds"),
                        ("robustness", "--dataset", tmp_path / "ds",
                         "--checkpoint", small / "avaw.doam")]
        else:
            commands = [("train", "--features", tmp_path / "feats", "--model", "gcc_only",
                         "--widths", "8,8,8", "--epochs", 1),
                        ("eval", "--features", tmp_path / "feats",
                         "--checkpoint", small / "avaw.doam")]
        capsys.readouterr()
        for argv in commands:
            assert run(*argv, "--out", tmp_path / "out") == 2
            assert not (tmp_path / "out").exists()
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == len(commands)
        assert all(line.startswith("error: ") and place in line for line in errors)


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
        assert {path.name for path in out.iterdir()} == {"robustness_grid.csv", "mae_vs_snr.csv"}

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

    def test_computes_no_visual_features(self, pipeline, tmp_path, monkeypatch):
        _, ds, _, _ = pipeline
        calls = []
        encode = visual.encode_visual
        monkeypatch.setattr(visual, "encode_visual",
                            lambda *a, **k: calls.append(1) or encode(*a, **k))
        assert run("baseline", "--dataset", ds, "--snr", 10, "--out", tmp_path / "base") == 0
        assert calls == []
        assert run("features", "--dataset", ds, "--out", tmp_path / "feats") == 0
        assert len(calls) == 160


class TestRefusedLevelsAndWidths:
    """Non-finite, out-of-range or repeated corruption levels, a target sigma
    that is zero or whose square leaves the float range, zero widths, and a
    frame length or sample rate outside what a WAV holds exit 2 with one
    error line, before anything is written, as does a learning rate that the
    model's float32 cannot hold.  An SNR is out of range when its
    noise power is not a finite positive float."""

    @pytest.mark.parametrize("argv", [
        ["features", "--snr", "nan"],
        ["features", "--fdsp", "nan"],
        ["features", "--fdsp", "-0.5"],
        ["features", "--fdsp", "1.5"],
        ["baseline", "--snr", "nan"],
        ["robustness", "--snr-levels", "nan,clean"],
        ["robustness", "--fdsp-levels=-50,0"],
        ["robustness", "--fdsp-levels", "0,nan"],
        ["train", "--model", "avc", "--sigma", "0"],
        ["train", "--model", "avc", "--sigma", "1e300"],      # its square overflows
        ["train", "--model", "avc", "--sigma", "1e-300"],     # its square underflows to 0
        ["train", "--model", "avc", "--sigma", "1e-152"],     # 180**2 / its square overflows
        ["simulate", "--frame-len", "1e-300"],                # rounds to 0 samples
        ["simulate", "--frame-len", "0.00001"],
        ["simulate", "--sample-rate", "1" + "0" * 400],       # past float and u32
        ["train", "--model", "avc", "--widths", "0,8"],
        ["train", "--model", "avaw", "--weight-net-hidden", "0"],
        ["features", "--snr", "1e300"],
        ["features", "--snr=-1e300"],
        ["features", "--snr=-4000"],
        ["baseline", "--snr", "1e300"],
        ["baseline", "--snr=-4000"],
        ["robustness", "--snr-levels", "clean,1e300"],
        ["robustness", "--snr-levels=-4000,clean"],
        ["robustness", "--snr-levels", "0,0", "--fdsp-levels", "0,0"],
        ["robustness", "--snr-levels", "0,clean,CLEAN"],
        ["robustness", "--snr-levels", "0,-0"],
        ["robustness", "--fdsp-levels", "0,10,10.4"],
        ["train", "--model", "avc", "--lr", "1e-46"],         # rounds to 0 in float32
        ["train", "--model", "avc", "--lr", "1e-300"],
        ["train", "--model", "avc", "--lr", "1e300"],         # past the float32 range
    ])
    def test_exits_2_and_writes_nothing(self, argv, pipeline, tmp_path, capsys):
        _, ds, feats, ckpt = pipeline
        inputs = {"features": ["--dataset", ds], "baseline": ["--dataset", ds],
                  "robustness": ["--checkpoint", ckpt, "--dataset", ds],
                  "train": ["--features", feats], "simulate": []}[argv[0]]
        out = tmp_path / "out"
        assert run(*argv, *inputs, "--out", out) == 2
        assert list(tmp_path.iterdir()) == []
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ")

    @pytest.mark.parametrize("flag, levels", [
        ("--snr-levels", "10,clean,10.0"),
        ("--fdsp-levels", "10,10.4"),
    ])
    def test_repeated_levels_name_the_flag(self, flag, levels, pipeline, tmp_path, capsys):
        _, ds, _, ckpt = pipeline
        assert run("robustness", "--checkpoint", ckpt, "--dataset", ds, flag, levels,
                   "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")


class TestCheckpointBatchNormConstants:
    def test_other_eps_is_refused(self, pipeline, tmp_path):
        _, _, feats, ckpt = pipeline
        blob = ckpt.read_bytes()
        at = blob.index(struct.pack("<dd", nn.BatchNorm.momentum, nn.BatchNorm.eps)) + 8
        patched = tmp_path / "patched.doam"
        patched.write_bytes(blob[:at] + struct.pack("<d", 1e-5) + blob[at + 8:])
        with pytest.raises(VersionMismatch):
            nn.load_checkpoint(patched)
        assert run("eval", "--checkpoint", patched, "--features", feats,
                   "--out", tmp_path / "eval") == 2
        assert not (tmp_path / "eval").exists()


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
