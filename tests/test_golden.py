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
        "1f26a8e1efb46235f19d81c543f5f881da85ebaf1be456fcaffbcdb712964a91",
    "ds/manifest.jsonl":
        "a3b08c90afb2e83a3d7c481eabd19eba456263dbf625ef89450beb62dcddcd23",
    "feats/gcc.doaf":
        "2621d6c184314206f0c91995a5222b4165ba8688464e2282584447d4b059e1c9",
    "feats/visual.doaf":
        "a21e1015ada9e6b96ef89fe264e6aca47ccff539dbe241781a48be1c6d17e0f1",
    "noisy/gcc.doaf":
        "2d4ed26ab6e4afbdde18783d1e543f7e9c3c19c0bb5e1fc8e62be632198e209d",
    "noisy/visual.doaf":
        "cbc796119e0edc8e05edad6e55bf57fa84859539a5c97c5ded32a244392405fb",
    "avaw.doam":
        "a5cc294e2cd8166d522037e54a2a60cc781bccc60601df14bf4c655b8df6f7ca",
    "eval/results.jsonl":
        "1ea04318419c2f5512f3fbfe4fdf56054a597526d653781ae84af2fe5a86e70c",
    "eval/summary.csv":
        "6c313a401935b437d17d17b8395fbdcd0329156048dfd583e67f39b187eb810e",
    "eval.stdout":
        "f417d0d13aadbc9233dd0a21e82c9e3c963442e67872e8a8a009d9cf1f1d6f3e",
    "grid/robustness_grid.csv":
        "7b4bdf2da5727ed7573fd46f1771f88c3cd95872ae498fee43195dfb7c155d73",
    "grid/mae_vs_snr.csv":
        "6b6c21783cc95e21884909492903eb08a194a8c418b6e5876169c0cd3e79de33",
    "grid.stdout":
        "b7fa240e9e65546d7bc10da9ffab4d9a86c49f6a111cc9653c8bc9a64d1e3fe8",
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
