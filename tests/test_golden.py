"""Golden SHA-256 digests of the named outputs of an 80-frame seeded pipeline.

simulate -> features -> train (avaw, 16^3) -> eval -> robustness (2 x 2)
-> baseline at 10 dB, plus the lines eval, robustness and baseline print.
A change that moves any digest changes numbers or bytes and must say why.
The checkpoint and everything scored with it also depend on the BLAS
build's summation order.
"""

import contextlib
import hashlib
import io

import pytest

from avdoa.cli import main

GOLDEN = {
    "ds/audio.wav":
        "1f26a8e1efb46235f19d81c543f5f881da85ebaf1be456fcaffbcdb712964a91",
    "ds/manifest.jsonl":
        "a3b08c90afb2e83a3d7c481eabd19eba456263dbf625ef89450beb62dcddcd23",
    "feats/gcc.doaf":
        "2621d6c184314206f0c91995a5222b4165ba8688464e2282584447d4b059e1c9",
    "feats/visual.doaf":
        "a21e1015ada9e6b96ef89fe264e6aca47ccff539dbe241781a48be1c6d17e0f1",
    "avaw.doam":
        "a512dc0da08a951860d5fadbcae29803a14d4f5f368845dbf202b7a921307d79",
    "eval/results.jsonl":
        "1ea04318419c2f5512f3fbfe4fdf56054a597526d653781ae84af2fe5a86e70c",
    "eval/summary.csv":
        "6c313a401935b437d17d17b8395fbdcd0329156048dfd583e67f39b187eb810e",
    "eval.stdout":
        "f417d0d13aadbc9233dd0a21e82c9e3c963442e67872e8a8a009d9cf1f1d6f3e",
    "grid/robustness_grid.csv":
        "155ba385b52b26bcdace42888c94e95dbc523de1ccd4bf620bd274b4d0d10cd0",
    "grid/mae_vs_snr.csv":
        "18992d2213e69e31bf3942c49cecff1e939cbe2be5bf08db27b278d09522ef1c",
    "grid.stdout":
        "bdf175c981f40079fdb88651edef18a8927f2bbd23ab04f31b0e9ac46a5e8d3d",
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

    def run(name, *argv):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main([str(a) for a in argv]) == 0
        (root / f"{name}.stdout").write_text(printed.getvalue())

    run("ds", "simulate", "--out", root / "ds", "--frames", 80, "--seed", 5,
        "--sources", "1:0.5,2:0.5", "--visibility", "0.5")
    run("feats", "features", "--dataset", root / "ds", "--out", root / "feats")
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
