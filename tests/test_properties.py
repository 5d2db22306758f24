"""Property tests of the readers: a damaged .doaf, .doam or .wav file, or a
damaged text file of a dataset or features directory, gives a result or a typed
error (AvdoaError, OSError), never any other exception.  A WAV gives finite
audio or BadWav (or OSError)."""

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
