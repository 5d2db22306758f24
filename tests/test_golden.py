"""Golden SHA-256 digests of the named outputs of an 80-frame seeded pipeline.

simulate -> features (clean, and at 0 dB SNR with 30 % FDSP) -> train
(avaw, 16^3) -> eval -> robustness (2 x 2) -> baseline at 10 dB, plus the
lines eval, robustness and baseline print.  A change that moves any digest
changes numbers or bytes and must say why.

The trained checkpoint, and so everything scored with it, depends on the
BLAS summation order, which changes with the BLAS thread count.  Each
command therefore runs in a child process with BLAS held to one thread.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import avdoa

GOLDEN = {
    "ds/audio.wav":
        "fdbdafcc0b2357ec926de8449014bf82b6ad92dc30759ad915456c6499821177",
    "ds/manifest.jsonl":
        "a3b08c90afb2e83a3d7c481eabd19eba456263dbf625ef89450beb62dcddcd23",
    "feats/gcc.doaf":
        "90652cf1f026e9232a603ff89d0736a402ca80f616f49cccf6fd56da998185b9",
    "feats/visual.doaf":
        "a21e1015ada9e6b96ef89fe264e6aca47ccff539dbe241781a48be1c6d17e0f1",
    "noisy/gcc.doaf":
        "e7d4d579e22336bdd2b9a07b4a4462b17afa39557f9862dd711836ffa4c12ab6",
    "noisy/visual.doaf":
        "cbc796119e0edc8e05edad6e55bf57fa84859539a5c97c5ded32a244392405fb",
    "avaw.doam":
        "48deaedf58befecc0e165001144c1c04a4817a8cb65235f5c58ec06af5cf1d07",
    "eval/results.jsonl":
        "1ea04318419c2f5512f3fbfe4fdf56054a597526d653781ae84af2fe5a86e70c",
    "eval/summary.csv":
        "6c313a401935b437d17d17b8395fbdcd0329156048dfd583e67f39b187eb810e",
    "eval.stdout":
        "f417d0d13aadbc9233dd0a21e82c9e3c963442e67872e8a8a009d9cf1f1d6f3e",
    "grid/robustness_grid.csv":
        "ef307d34826aaa39512aab76a2081f2f1e319b8e9974886b7df0672d996598de",
    "grid/mae_vs_snr.csv":
        "b5dd0cad7a57c457f92031271b6de6ed20a56b2f37bd6742ac377b8bd70719df",
    "grid.stdout":
        "b827c4fc05e52748179322c25457af0f7988694096c857d528f679a692f158d0",
    "srp/baseline_results.jsonl":
        "18fe5d783c7aeb66b151cc2a666686b5dc4c9a267701b8314c9618a120c96187",
    "srp/baseline_summary.csv":
        "c34bdfdcdd5ca12001c2d846f8a83584e12a9548670d3de70f914208a6bd9258",
    "srp.stdout":
        "6e596c172e2fb53e304d3a27f4d14030b1bae41a81e1cf3fa05e9a2aa5e50e2d",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")

    src = os.path.dirname(os.path.dirname(os.path.abspath(avdoa.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(name, *argv):
        done = subprocess.run([sys.executable, "-m", "avdoa.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        (root / f"{name}.stdout").write_text(done.stdout)

    run("ds", "simulate", "--out", root / "ds", "--frames", 80, "--seed", 5,
        "--sources", "1:0.5,2:0.5", "--visibility", "0.5")
    run("feats", "features", "--dataset", root / "ds", "--out", root / "feats")
    run("noisy", "features", "--dataset", root / "ds", "--out", root / "noisy",
        "--snr", 0, "--fdsp", 0.3, "--seed", 2)
    run("train", "train", "--features", root / "feats", "--model", "avaw",
        "--widths", "16,16,16", "--epochs", 3, "--seed", 2, "--out", root / "avaw.doam")
    run("eval", "eval", "--checkpoint", root / "avaw.doam", "--features", root / "feats",
        "--out", root / "eval")
    run("grid", "robustness", "--checkpoint", root / "avaw.doam", "--dataset", root / "ds",
        "--snr-levels", "0,clean", "--fdsp-levels", "0,50", "--seed", 1,
        "--out", root / "grid")
    run("srp", "baseline", "--dataset", root / "ds", "--snr", 10, "--seed", 4,
        "--out", root / "srp")
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert hashlib.sha256((outputs / name).read_bytes()).hexdigest() == GOLDEN[name]
