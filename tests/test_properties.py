"""Property tests of the readers: a damaged .doaf, .doam or .wav file, or a
damaged text file of a dataset or features directory, gives a result or a typed
error (AvdoaError, OSError), never any other exception.  A WAV gives finite
audio or BadWav (or OSError).  And a fuzz of the CLI: any argv of a command's
own options exits 0, 2, 3 or 4, never with a traceback."""

import argparse
import itertools
import shutil
import wave

import numpy as np
import pytest

from avdoa import audio, cli, geom, nn, visual
from avdoa.dataset import FrameDataset
from avdoa.errors import AvdoaError, BadWav
from avdoa.store import read_feature_store, read_jsonl, write_feature_store
from helpers import tiny_model

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _damaged(data):
    """Truncations, appended bytes and overwritten byte ranges of ``data``."""
    cut = st.integers(0, len(data) - 1).map(lambda n: data[:n])
    appended = st.binary(min_size=1, max_size=64).map(lambda extra: data + extra)
    overwritten = st.tuples(st.integers(0, len(data) - 1), st.binary(min_size=1, max_size=16)) \
        .map(lambda at: data[:at[0]] + at[1] + data[at[0] + len(at[1]):])
    return st.one_of(cut, appended, overwritten)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("props")
    rng = np.random.default_rng(0)
    write_feature_store(root / "valid.doaf",
                        [(i, rng.standard_normal((3, 5))) for i in range(4)])
    nn.save_checkpoint(tiny_model(np.float64), root / "valid.doam")
    audio.save_wav(root / "valid.wav", audio.MultichannelAudio(
        rng.standard_normal((3, 40)).astype(np.float32), 16000))
    with wave.open(str(root / "valid.pcm16.wav"), "wb") as fh:
        fh.setnchannels(3)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(rng.integers(-2**15, 2**15, (40, 3)).astype("<i2").tobytes())
    return root


@pytest.mark.parametrize("name, reader", [("doaf", read_feature_store),
                                          ("doam", nn.load_checkpoint),
                                          ("wav", audio.load_wav),
                                          ("pcm16.wav", audio.load_wav)])
def test_damaged_file_gives_result_or_typed_error(files, name, reader):
    damaged = files / f"damaged.{name}"
    is_wav = name.endswith("wav")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_damaged((files / f"valid.{name}").read_bytes()))
    def check(data):
        damaged.write_bytes(data)
        try:
            result = reader(damaged)
        except (BadWav, OSError) if is_wav else (AvdoaError, OSError):
            return
        if is_wav:
            assert np.isfinite(result.samples).all()

    check()


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A 3-frame dataset directory that also holds its features' labels.jsonl."""
    root = tmp_path_factory.mktemp("scene")
    assert cli.main(["simulate", "--out", str(root / "ds"), "--frames", "3", "--seed", "1",
                     "--source-kind", "white"]) == 0
    assert cli.main(["features", "--dataset", str(root / "ds"),
                     "--out", str(root / "feats")]) == 0
    shutil.copy(root / "feats" / "labels.jsonl", root / "ds")
    return root / "ds"


TEXT_READERS = {
    "manifest.jsonl": lambda path: FrameDataset.load(path.parent),
    "detections.jsonl": visual.load_detections,
    "labels.jsonl": lambda path: list(read_jsonl(path)),
    "camera.txt": geom.load_calibration,
    "array.txt": geom.load_array_geometry,
}


@pytest.mark.parametrize("name", sorted(TEXT_READERS))
def test_damaged_text_file_gives_result_or_typed_error(scene, tmp_path, name):
    damaged = tmp_path / "ds"
    shutil.copytree(scene, damaged)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_damaged((scene / name).read_bytes()))
    def check(data):
        (damaged / name).write_bytes(data)
        try:
            TEXT_READERS[name](damaged / name)
        except (AvdoaError, OSError):
            pass

    check()


# ---------------------------------------------------------------------------
# CLI fuzz
# ---------------------------------------------------------------------------

# values tried on any option: non-finite, huge, tiny, signed zero, blank, repeated
ODD_VALUES = ["nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "1e-46", "1e20", "0", "-0",
              "-1", "", " ", "1,1", "0,0", "clean,clean", "x"]
# options that size a run: (good values, bad values), the only ones they take,
# so that no run allocates much
SIZES = {
    "--frames": (["6", "2", "1"], ["0", "-1", "1.5", ""]),
    "--sample-rate": (["8000", "16000"], ["0", "-8000", "1" + "0" * 400, "nan", ""]),
    "--frame-len": (["0.032", "0.064"], ["0", "-0.032", "1e-300", "0.00001", "1e300", ""]),
    "--widths": (["8,8,8", "8", "16,16,16"], ["0,8", "8,-8", "8,,8", "", "nan"]),
    "--epochs": (["1", "2"], ["0", "-1", ""]),
    "--batch": (["2", "4"], ["1", "0", ""]),
    "--weight-net-hidden": (["4"], ["0", "-1", ""]),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid values of each option: a 6-frame dataset, its features, a 16^3
    checkpoint, a config file, and a few good numbers."""
    root = tmp_path_factory.mktemp("fuzz")
    ds, feats, ckpt, config = root / "ds", root / "feats", root / "m.doam", root / "run.cfg"
    assert cli.main(["simulate", f"--out={ds}", "--frames=6", "--sample-rate=16000",
                     "--frame-len=0.064", "--source-kind=white", "--visibility=1"]) == 0
    assert cli.main(["features", f"--dataset={ds}", f"--out={feats}"]) == 0
    assert cli.main(["train", f"--features={feats}", "--model=avc", "--widths=16,16,16",
                     "--epochs=1", "--batch=4", f"--out={ckpt}"]) == 0
    config.write_text("seed = 2\nvisibility = 1\nepochs = 1\n", encoding="utf-8")
    values = {
        "--dataset": [ds], "--features": [feats], "--checkpoint": [ckpt], "--config": [config],
        "--array": [ds / "array.txt"], "--calibration": [ds / "camera.txt"],
        "--wav": [ds / "audio.wav"], "--seed": ["0", "7"], "--holdout": ["0.2", "0.5", "0"],
        "--snr": ["10", "-5"], "--fdsp": ["0.5", "1"], "--snr-levels": ["0,clean", "20"],
        "--fdsp-levels": ["0,50", "100"], "--sources": ["1:0.5,2:0.5", "2"],
        "--azimuth-range": ["-90,90", "0:30"], "--distance-range": ["1,2"],
        "--z-range": ["-0.1,0.1"], "--visibility": ["0.5", "1"], "--min-separation": ["20"],
        "--bbox-noise-var": ["0.01", "0,0,0.2"], "--lr": ["0.01"], "--sigma": ["8", "0.5"],
        "--source-kind": audio.SOURCE_KINDS,
    }
    return {flag: [str(v) for v in pool] for flag, pool in values.items()}, root / "missing"


def _options(command):
    """(flag, required, choices) of each option of a command but --out and --help."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings[-1], a.required, a.choices)
            for a in sub.choices[command]._actions
            if a.option_strings and a.dest not in ("out", "help")]


def _argv(command, valid, missing):
    """An argv strategy: required and size options always, others maybe, each
    with a good value, and then one or two options with a bad one.  Each is
    passed as --flag=value, so that a value with a leading '-' stays a value."""
    good, bad = {}, {}
    for flag, required, choices in _options(command):
        good_values, bad[flag] = SIZES.get(flag, (
            [*valid.get(flag, []), *(choices or [])], [*ODD_VALUES, str(missing)]))
        value = st.sampled_from(good_values or bad[flag])
        good[flag] = value if required or flag in SIZES else st.none() | value
    spoilt = st.sampled_from(sorted(bad)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(bad[flag])))
    return st.tuples(st.fixed_dictionaries(good), st.lists(spoilt, min_size=1, max_size=2)).map(
        lambda drawn: [command] + [f"{flag}={value}" for flag, value in
                                   {**drawn[0], **dict(drawn[1])}.items() if value is not None])


@pytest.mark.parametrize("command", ["simulate", "features", "train", "eval",
                                     "robustness", "baseline"])
def test_cli_fuzz_exits_with_a_code_and_leaves_no_partial_output(
        command, fuzz_inputs, tmp_path, capsys):
    """Exit 0, 2, 3 or 4, or argparse's SystemExit(2); an error exit prints one
    'error:' line; exit 2 writes nothing; no temp file is left behind; and a
    dataset that simulate writes loads."""
    valid, missing = fuzz_inputs
    runs = itertools.count()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(_argv(command, valid, missing))
    def check(argv):
        work = tmp_path / f"run{next(runs)}"
        work.mkdir()
        out = work / "out"
        try:
            code = cli.main([*argv, f"--out={out}"])
        except SystemExit as exc:         # argparse refused the argv
            assert exc.code == 2
            code = None
        errors = capsys.readouterr().err.splitlines()
        written = [p.name for p in work.rglob("*")]
        assert [name for name in written if name.endswith(".tmp")] == []
        if code in (None, 2):
            assert written == []
        else:
            assert code in (0, 3, 4)
        if code:
            assert len(errors) == 1 and errors[0].startswith("error: ")
        if command == "simulate" and code == 0:
            FrameDataset.load(out)
        shutil.rmtree(work)

    check()
