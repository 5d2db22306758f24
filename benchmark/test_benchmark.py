"""Self-tests of the benchmark: its oracles on hand-worked cases, and a
tiny-size smoke run of each workload.

    python3 -m pytest benchmark -q
"""

import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# oracles on hand-worked cases
# ---------------------------------------------------------------------------

def test_phat_correlation_of_delayed_impulse():
    # x_p is x_l delayed by 3 samples, so the peak sits at lag -3 with value 1
    x_l = np.zeros(16)
    x_l[0] = 1.0
    x_p = np.roll(x_l, 3)
    r = oracles.phat_correlation(x_l, x_p, (-5, 5), 16)
    expect = np.zeros(11)
    expect[5 - 3] = 1.0
    np.testing.assert_allclose(r, expect, atol=1e-12)


def test_phat_correlation_of_identical_channels_is_one_at_zero():
    x = np.random.default_rng(0).standard_normal(64)
    r = oracles.phat_correlation(x, x, (-2, 2), 64)
    assert r[2] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(np.delete(r, 2)) < 1e-12)


def test_expected_peak_lag_front_source():
    # mic 0 at +x hears a source at azimuth 0 first; mic 1, 0.1 m behind,
    # lags by 0.1 / 343 s = 13.994 samples at 48 kHz, so the peak is at -13.994
    lag = oracles.expected_peak_lag([0.05, 0, 0], [-0.05, 0, 0], 0.0, 343.0, 48000)
    assert lag == pytest.approx(-0.1 / 343.0 * 48000)
    assert oracles.expected_peak_lag([0.05, 0, 0], [-0.05, 0, 0], 90.0, 343.0, 48000) \
        == pytest.approx(0.0, abs=1e-9)


def test_azimuth_of_points():
    assert oracles.azimuth_deg([1.0, 1.0, 0.3], [0, 0, 0], 0.0) == pytest.approx(45.0)
    assert oracles.azimuth_deg([-1.0, 0.0, 0.0], [0, 0, 0], 0.0) == pytest.approx(-180.0)
    assert oracles.azimuth_deg([2.0, 1.0, 0.0], [1, 0, 0], 90.0) == pytest.approx(-45.0)


def test_pinhole_projection():
    identity = np.eye(3)
    # x/z = 0.25 and y/z = -0.1 with f = 500 around (320, 240)
    assert oracles.pinhole_project([0.5, -0.2, 2.0], identity, [0, 0, 0],
                                   500, 500, 320, 240) == pytest.approx((445.0, 190.0))
    assert oracles.pinhole_project([0.0, 0.0, -1.0], identity, [0, 0, 0],
                                   500, 500, 320, 240) is None
    # a camera looking along world +x: world +y is image left, world +z is up
    looking_x = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    assert oracles.pinhole_project([2.0, 0.0, 0.0], looking_x, [0, 0, 0],
                                   500, 500, 320, 240) == pytest.approx((320.0, 240.0))
    assert oracles.pinhole_project([2.0, 1.0, 0.5], looking_x, [0, 0, 0],
                                   500, 500, 320, 240) == pytest.approx((70.0, 115.0))


def test_nearest_grid_index():
    assert oracles.nearest_grid_index(0.0, 640, 51) == 0
    assert oracles.nearest_grid_index(640.0, 640, 51) == 50
    assert oracles.nearest_grid_index(320.0, 640, 51) == 25
    assert oracles.nearest_grid_index(19.0, 640, 51) == 1      # grid step 12.8


def test_circular_assignment():
    # crossing the +-180 seam: 10 <-> 5 and -170 <-> -175 cost 5 each
    assert oracles.optimal_matchings([10.0, -170.0], [-175.0, 5.0]) == [[5.0, 5.0]]
    assert oracles.optimal_matchings([179.0], [-179.0]) == [[2.0]]
    assert oracles.optimal_matchings([90.0], [-90.0]) == [[180.0]]
    # both predictions below both truths: two matchings cost 40
    assert sorted(oracles.optimal_matchings([0.0, 10.0], [20.0, 30.0])) \
        == [[10.0, 30.0], [20.0, 20.0]]


def test_mae_acc_allowance_is_inclusive_and_ties_give_a_range():
    assert oracles.mae_acc([[5.0]], [[0.0]]) == (5.0, 100.0, 100.0)
    assert oracles.mae_acc([[0.0], [30.0]], [[0.0], [0.0]]) == (15.0, 50.0, 50.0)
    # matchings [5, 4.5] and [4, 5.5] both cost 9.5 but score two hits or one
    assert oracles.mae_acc([[0.0, 1.0]], [[5.0, 5.5]]) == (4.75, 50.0, 100.0)


def test_realised_snr():
    clean = np.array([1.0, -1.0, 1.0, -1.0])
    noisy = clean + np.array([0.1, 0.1, -0.1, -0.1])
    assert oracles.realised_snr_db(clean, noisy) == pytest.approx(20.0)


def test_file_parsers(tmp_path):
    store = tmp_path / "f.doaf"
    values = np.arange(6, dtype="<f4").reshape(2, 3)
    store.write_bytes(b"DOAF" + struct.pack("<H", 1) + struct.pack("<IHH", 7, 2, 3)
                      + values.tobytes())
    records = oracles.read_doaf(store)
    assert list(records) == [7]
    np.testing.assert_array_equal(records[7], values)

    wav = tmp_path / "a.wav"
    samples = np.array([[0.5, -0.25], [1.0, 0.0], [0.0, -1.0]], dtype="<f4")  # (T, C)
    fmt = struct.pack("<HHIIHH", 3, 2, 48000, 48000 * 8, 8, 32)
    data = samples.tobytes()
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(data)) + data
    wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    rate, channels = oracles.read_wav(wav)
    assert rate == 48000
    np.testing.assert_array_equal(channels, samples.T.astype(np.float64))

    kv = tmp_path / "k.txt"
    kv.write_text("# comment\nmic = 1 2 3\nmic = 4 5 6  # trailing\nc = 343\n")
    assert oracles.read_key_value_file(kv) == {"mic": [[1, 2, 3], [4, 5, 6]], "c": [[343]]}


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmark/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# per-layer values each workload's timed phase must produce
LAYERS_SEEN = {
    "simulate": ["audio.render_array.calls", "audio.synth_source.self_s",
                 "store.write_feature_store.bytes", "audio.save_wav.rss_hwm_mb",
                 "audio.srp_phat.calls", "cli.self_s"],
    "train": ["nn.Adam.step.calls", "nn.Dense.backward.self_s", "nn.save_checkpoint.bytes",
              "store.read_feature_store.bytes", "nn.load_checkpoint.self_s"],
    "grid": ["evaluation.robustness_grid.gcc_per_cell", "visual.swap_detections.changed_share",
             "audio.add_noise_at_snr.rss_hwm_mb", "dataset.FrameDataset.load.rss_hwm_mb",
             "nn.Dense.forward.calls"],
}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["simulate", "train", "grid"])
def test_tiny_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "0.1",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == names
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace == "1":
        assert all(result["metrics"][name]["value"] > 0 for name in LAYERS_SEEN[workload])
        assert result["metrics"]["audio.render_array.calls"]["value"] \
            == (8 if workload == "simulate" else 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmark"), tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "simulate", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
