"""Acceptance suite: one test per release criterion.

Each test prints a single "[acceptance] criterion N ...: PASS/FAIL" line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live) and
then asserts.  Tolerances and runtime budgets are pinned here, not
configurable.  The end-to-end criteria (5, 6, 7, 9) drive the real
pipeline on synthetic datasets and take a few minutes combined.
"""

import hashlib
import time

import numpy as np
import pytest

from avdoa import audio, dataset, evaluation, geom, nn, visual
from avdoa.cli import main as cli_main
from helpers import finite_difference, max_relative_error, time_domain_phat_oracle


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def run_cli(*argv):
    return cli_main([str(a) for a in argv])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_01_gcc_phat_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    matches = 0
    for _ in range(100):
        x = rng.standard_normal(8192)
        delay = int(rng.integers(-25, 26))
        y = np.roll(x, delay)
        gcc = audio.gcc_phat_pair(x, y, lags=(-25, 25), fft_len=8192)
        oracle = time_domain_phat_oracle(x, y, (-25, 25), 8192)
        if np.argmax(gcc) == np.argmax(oracle):
            matches += 1
    elapsed = time.perf_counter() - start
    report(1, "GCC-PHAT oracle equivalence",
           matches == 100 and elapsed < 10.0,
           f"{matches}/100 argmax matches in {elapsed:.1f}s (budget 10s)")


def test_criterion_02_gradient_suite():
    start = time.perf_counter()
    worst = {}
    rng = np.random.default_rng(2002)

    # dense layer, 8x8 random case
    layer = nn.Dense(rng.uniform(-np.sqrt(6 / 16), np.sqrt(6 / 16), size=(8, 8)), np.zeros(8))
    x = rng.standard_normal((8, 8))
    target = rng.random((8, 8))
    _, dy = nn.mse_loss(layer.forward(x), target)
    layer.backward(dy)
    numeric = finite_difference(
        lambda: nn.mse_loss(layer.forward(x), target)[0],
        [layer.weight, layer.bias])
    worst["dense"] = max_relative_error([layer.grad_weight, layer.grad_bias], numeric)

    # batch norm, 16x4 random input
    bn = nn.BatchNorm(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
    bn.gamma[...] = rng.uniform(0.5, 1.5, 4)
    bn.beta[...] = rng.uniform(-1, 1, 4)
    xb = rng.standard_normal((16, 4))
    tb = rng.random((16, 4))
    _, dy = nn.mse_loss(bn.forward(xb, train=True), tb)
    dx = bn.backward(dy)
    numeric = finite_difference(
        lambda: nn.mse_loss(bn.forward(xb, train=True), tb)[0],
        [bn.gamma, bn.beta, xb])
    worst["batchnorm"] = max_relative_error([bn.grad_gamma, bn.grad_beta, dx], numeric)

    # activations and loss (input gradients)
    xr = rng.standard_normal((4, 8)) + 0.05
    tr = rng.random((4, 8))
    _, dy = nn.mse_loss(nn.relu(xr), tr)
    numeric = finite_difference(lambda: nn.mse_loss(nn.relu(xr), tr)[0], [xr])
    worst["relu"] = max_relative_error([nn.relu_backward(dy, xr)], numeric)

    xs = rng.standard_normal((4, 8))
    ys = nn.sigmoid(xs)
    _, dy = nn.mse_loss(ys, tr)
    numeric = finite_difference(lambda: nn.mse_loss(nn.sigmoid(xs), tr)[0], [xs])
    worst["sigmoid"] = max_relative_error([nn.sigmoid_backward(dy, ys)], numeric)

    xm = rng.standard_normal((5, 3))
    tm = rng.random((5, 3))
    sm = nn.softmax(xm)
    _, dy = nn.mse_loss(sm, tm)
    numeric = finite_difference(lambda: nn.mse_loss(nn.softmax(xm), tm)[0], [xm])
    worst["softmax"] = max_relative_error([nn.softmax_backward(dy, sm)], numeric)

    xp = rng.standard_normal((4, 7))
    tp = rng.standard_normal((4, 7))
    _, grad = nn.mse_loss(xp, tp)
    numeric = finite_difference(lambda: nn.mse_loss(xp, tp)[0], [xp], h=1e-6)
    worst["mse"] = max_relative_error([grad], numeric)

    # both full networks, hidden width 16, batch 4
    for kind in ("avc", "avaw"):
        model = nn.build_model(kind, hidden=(16, 16, 16), weight_net_hidden=8,
                               seed=2002)
        gcc = rng.standard_normal((4, 306))
        vis = rng.standard_normal((4, 102))
        tgt = rng.random((4, 360))

        def loss_fn():
            return nn.mse_loss(model.forward(gcc, vis, train=True), tgt)[0]

        _, dy = nn.mse_loss(model.forward(gcc, vis, train=True), tgt)
        model.backward(dy)
        analytic = [g.copy() for g in model.gradients()]
        numeric = finite_difference(loss_fn, model.parameters(), sample=50,
                                    rng=np.random.default_rng(2003))
        worst[kind] = max_relative_error(analytic, numeric)

    elapsed = time.perf_counter() - start
    peak = max(worst.values())
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report(2, "gradient suite",
           peak < 1e-4 and elapsed < 30.0,
           f"max rel err {peak:.2e} in {elapsed:.1f}s (budget 30s); {detail}")


def test_criterion_03_geometry_round_trip():
    cal = dataset.default_calibration()
    face = geom.FaceSize()
    rng = np.random.default_rng(3003)
    start = time.perf_counter()
    checked = 0
    worst_center = 0.0
    worst_width = 0.0
    while checked < 1000:
        p = np.array([rng.uniform(0.8, 4.0), rng.uniform(-2.0, 2.0),
                      rng.uniform(-0.8, 0.8)])
        box = geom.synthesize_bbox(p, cal, face)
        if box is None:
            continue
        checked += 1
        p_cam = geom.world_to_camera(p, cal)
        direct = geom.project_point(p_cam, cal)
        worst_center = max(worst_center,
                           float(np.hypot(*(np.asarray(box.center) - direct))))
        expected_w = cal.f_u * face.width_m / p_cam[2]
        worst_width = max(worst_width, abs(box.w - expected_w) / expected_w)
    elapsed = time.perf_counter() - start
    report(3, "geometry round trip",
           worst_center < 0.5 and worst_width < 0.01 and elapsed < 5.0,
           f"1000 poses: center err {worst_center:.2e}px, width err "
           f"{worst_width:.2e} in {elapsed:.1f}s (budget 5s)")


def test_criterion_04_srp_phat_baseline():
    array = geom.MicArray.square()
    rng = np.random.default_rng(4004)
    start = time.perf_counter()
    hits = 0
    for k in range(100):
        azimuth = float(rng.uniform(-180.0, 180.0))
        sig = audio.synth_source("white", 0.17, 48000, seed=[4004, k])
        rendered = audio.render_array([(sig, azimuth)], array)
        rendered = audio.add_noise_at_snr(rendered, 20.0, seed=[4005, k])
        feature = audio.gcc_feature(rendered)
        decoded = audio.decode_srp(audio.srp_phat(feature, array), 1)
        if abs(geom.wrap_degrees(decoded[0] - azimuth)) <= 5.0:
            hits += 1
    elapsed = time.perf_counter() - start
    report(4, "SRP-PHAT baseline",
           hits >= 95 and elapsed < 60.0,
           f"{hits}/100 within 5 deg in {elapsed:.1f}s (budget 60s)")


def test_criterion_05_end_to_end_learning(tmp_path):
    start = time.perf_counter()
    root = tmp_path / "e2e"
    assert run_cli("simulate", "--out", root / "ds", "--frames", 4000,
                   "--seed", 0) == 0
    assert run_cli("features", "--dataset", root / "ds",
                   "--out", root / "feats") == 0
    assert run_cli("train", "--features", root / "feats", "--model", "gcc_only",
                   "--widths", "128,128,128", "--epochs", 10, "--seed", 0,
                   "--holdout", 0.2, "--out", root / "model.doam") == 0
    assert run_cli("eval", "--checkpoint", root / "model.doam",
                   "--features", root / "feats", "--holdout", 0.2,
                   "--subset", "holdout", "--out", root / "eval") == 0
    header, values = (root / "eval" / "summary.csv").read_text().strip().splitlines()
    cells = dict(zip(header.split(","), values.split(",")))
    mae = float(cells["mae_overall"])
    acc = float(cells["acc_overall"])
    elapsed = time.perf_counter() - start
    report(5, "end-to-end learning",
           mae < 10.0 and acc > 80.0 and elapsed < 600.0,
           f"holdout MAE {mae:.2f} deg (<10), ACC {acc:.1f}% (>80) "
           f"in {elapsed:.0f}s (budget 600s)")


@pytest.fixture(scope="module")
def fusion_data(tmp_path_factory):
    """SNR 0 dB features over a 100% in-FoV scene with 1-2 speakers."""
    out = tmp_path_factory.mktemp("fusion") / "ds"
    config = dataset.ScenarioConfig(frames=2000, visibility=1.0, seed=1,
                                    source_counts={1: 0.5, 2: 0.5})
    dataset.simulate(config, out)
    ds = dataset.FrameDataset.load(out)
    gcc, vis = dataset.extract_features(ds, snr_db=0.0, seed=0)
    gcc_mat, vis_mat = dataset.feature_matrices(gcc, vis)
    targets = dataset.build_targets(ds.frames)
    assert visual.detection_rate(ds.detections) == 100.0
    return ds, gcc_mat, vis_mat, targets


def _train_and_score(kind, seed, ds, gcc_mat, vis_mat, targets, holdout=0.2):
    train_idx, test_idx = dataset.split_indices(len(ds), holdout)
    config = nn.TrainConfig(epochs=10, batch_size=256,
                            hidden=(128, 128, 128), seed=seed)
    model = nn.build_model(kind, hidden=(128, 128, 128), seed=seed)
    vis_train = None if kind == "gcc_only" else vis_mat[train_idx]
    nn.train_model(model, gcc_mat[train_idx], vis_train, targets[train_idx], config)
    vis_test = None if kind == "gcc_only" else vis_mat[test_idx]
    posterior = model.forward(gcc_mat[test_idx], vis_test, train=False)
    preds = [evaluation.decode_doa(posterior[i], len(ds.frames[j].azimuths))
             for i, j in enumerate(test_idx)]
    gts = [ds.frames[j].azimuths for j in test_idx]
    return evaluation.mae_acc(preds, gts), model


def test_criterion_06_fusion_benefit_trend(fusion_data):
    ds, gcc_mat, vis_mat, targets = fusion_data
    rows = []
    wins = 0
    for seed in (0, 1, 2):
        audio_only, _ = _train_and_score("gcc_only", seed, ds, gcc_mat, vis_mat,
                                         targets)
        fused, _ = _train_and_score("avc", seed, ds, gcc_mat, vis_mat, targets)
        if fused.mae <= audio_only.mae:
            wins += 1
        rows.append(f"seed{seed}: avc {fused.mae:.2f} vs gcc {audio_only.mae:.2f}")
    report(6, "fusion benefit trend", wins == 3,
           f"{wins}/3 seeds with AVC MAE <= gcc_only MAE ({'; '.join(rows)})")


def test_criterion_07_degradation_monotonicity(tmp_path):
    out = tmp_path / "rob"
    config = dataset.ScenarioConfig(frames=3000, visibility=0.4, seed=2)
    dataset.simulate(config, out)
    ds = dataset.FrameDataset.load(out)
    gcc, vis = dataset.extract_features(ds)
    gcc_mat, vis_mat = dataset.feature_matrices(gcc, vis)
    targets = dataset.build_targets(ds.frames)
    train_idx, test_idx = dataset.split_indices(len(ds), 0.15)
    test_ds = ds.subset(test_idx)
    ok_seeds = 0
    rows = []
    for seed in (0, 1, 2):
        train_cfg = nn.TrainConfig(epochs=10, batch_size=256,
                                   hidden=(128, 128, 128), seed=seed)
        model = nn.build_model("avaw", hidden=(128, 128, 128), seed=seed)
        nn.train_model(model, gcc_mat[train_idx], vis_mat[train_idx],
                       targets[train_idx], train_cfg)
        grid = evaluation.robustness_grid(model, test_ds, seed=seed)
        assert len(grid.cells) == 25   # default 5 SNR x 5 FDSP grid, complete
        monotone = all(
            grid.cells[(-10.0, f)][0] > grid.cells[(20.0, f)][0]
            for f in grid.fdsp_levels
        )
        ok_seeds += monotone
        pair = (grid.cells[(-10.0, 0.0)][0], grid.cells[(20.0, 0.0)][0])
        rows.append(f"seed{seed}: -10dB {pair[0]:.1f} vs 20dB {pair[1]:.1f} "
                    f"({'monotone' if monotone else 'NOT monotone'})")
    report(7, "degradation monotonicity", ok_seeds == 3,
           f"{ok_seeds}/3 seeds with MAE(-10dB) > MAE(20dB) on every FDSP "
           f"column ({'; '.join(rows)})")


def test_criterion_08_avaw_contract():
    model = nn.build_model("avaw", hidden=(32, 32, 32), seed=8)
    rng = np.random.default_rng(8008)
    weights = model.adaptive_weights(rng.standard_normal((10_000, 306)),
                                     rng.standard_normal((10_000, 102)))
    sum_err = float(np.max(np.abs(weights.sum(axis=1) - 1.0)))

    model.wn2.weight[...] = 0.0
    model.wn2.bias[...] = 0.0
    avc = nn.build_model("avc", hidden=(32, 32, 32), seed=9)
    for dst, src in zip(avc.parameters(), model.parameters()[4:]):
        dst[...] = src
    gcc = rng.standard_normal((64, 306))
    vis = rng.standard_normal((64, 102))
    out_avaw = model.forward(gcc, vis, train=False)
    out_avc = avc.forward(gcc * (1.0 / 3.0), vis * (1.0 / 3.0), train=False)
    identity_err = float(np.max(np.abs(out_avaw - out_avc)))
    report(8, "adaptive weighting contract",
           sum_err < 1e-9 and identity_err < 1e-9,
           f"weight sum err {sum_err:.2e}, zeroed-net identity err "
           f"{identity_err:.2e}")


def test_criterion_09_pipeline_determinism(tmp_path):
    digests = []
    for name in ("first", "second"):
        root = tmp_path / name
        assert run_cli("simulate", "--out", root / "ds", "--frames", 80,
                       "--seed", 9, "--visibility", "0.6") == 0
        assert run_cli("features", "--dataset", root / "ds",
                       "--out", root / "feats") == 0
        assert run_cli("train", "--features", root / "feats", "--model", "avaw",
                       "--widths", "32,32,32", "--epochs", 3, "--seed", 9,
                       "--out", root / "model.doam") == 0
        assert run_cli("eval", "--checkpoint", root / "model.doam",
                       "--features", root / "feats", "--out", root / "eval") == 0
        digests.append({
            "wav": sha256(root / "ds" / "audio.wav"),
            "gcc": sha256(root / "feats" / "gcc.doaf"),
            "visual": sha256(root / "feats" / "visual.doaf"),
            "checkpoint": sha256(root / "model.doam"),
            "summary": (root / "eval" / "summary.csv").read_text(),
        })
    same = digests[0] == digests[1]
    report(9, "pipeline determinism", same,
           "bit-identical checkpoints and identical summaries across two runs"
           if same else f"differs: {[k for k in digests[0] if digests[0][k] != digests[1][k]]}")


def test_criterion_10_metric_unit_tests():
    ok = True
    notes = []
    if not np.isclose(evaluation.angular_error(-179.0, 179.0), 2.0):
        ok, _ = False, notes.append("wrap (-179,179)")
    if not np.isclose(evaluation.angular_error(90.0, -90.0), 180.0):
        ok, _ = False, notes.append("antipodal (90,-90)")
    boundary = evaluation.mae_acc([[5.0]], [[0.0]])
    if boundary.acc != 100.0:
        ok, _ = False, notes.append("ACC boundary at exactly 5 deg")
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        gt = list(rng.uniform(-180, 180, size=2))
        pred = list(rng.uniform(-180, 180, size=2))
        matched = evaluation.match_sources(pred, gt)
        direct = float(evaluation.angular_error(pred[0], gt[0])
                       + evaluation.angular_error(pred[1], gt[1]))
        crossed = float(evaluation.angular_error(pred[1], gt[0])
                        + evaluation.angular_error(pred[0], gt[1]))
        if not np.isclose(sum(matched), min(direct, crossed)):
            ok, _ = False, notes.append("N=2 assignment oracle")
            break
    report(10, "metric unit tests", ok,
           "wrap, inclusive 5 deg allowance, 1000-frame N=2 assignment oracle"
           if ok else f"failed: {notes}")
