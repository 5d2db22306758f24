import hashlib
import struct

import numpy as np
import pytest

from avdoa import nn
from avdoa.cli import main as cli_main
from avdoa.errors import (
    AvdoaError,
    BadMagic,
    BatchTooSmall,
    EmptyDataset,
    NaNLoss,
    ShapeMismatch,
    VersionMismatch,
)
from helpers import finite_difference, max_relative_error, tiny_model


class TestActivations:
    def test_relu_values(self):
        assert np.array_equal(nn.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_sigmoid_values(self):
        assert nn.sigmoid(np.array([0.0]))[0] == 0.5
        x = np.linspace(-30, 30, 1001)
        y = nn.sigmoid(x)
        assert np.all(y > 0) and np.all(y < 1)
        assert np.all(np.diff(y) > 0)

    def test_softmax_uniform(self):
        s = nn.softmax(np.zeros((1, 3)))
        assert np.allclose(s, 1 / 3)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        s = nn.softmax(rng.uniform(-50, 50, size=(100, 3)))
        assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-9

    def test_sigmoid_gradient_fd(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        target = rng.random((4, 6))

        def loss_fn():
            return nn.mse_loss(nn.sigmoid(x), target)[0]

        y = nn.sigmoid(x)
        _, dy = nn.mse_loss(y, target)
        analytic = nn.sigmoid_backward(dy, y)
        numeric = finite_difference(loss_fn, [x])[0]
        assert max_relative_error([analytic], [numeric]) < 1e-6

    def test_softmax_gradient_fd(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        target = rng.random((5, 3))

        def loss_fn():
            return nn.mse_loss(nn.softmax(x), target)[0]

        s = nn.softmax(x)
        _, ds = nn.mse_loss(s, target)
        analytic = nn.softmax_backward(ds, s)
        numeric = finite_difference(loss_fn, [x])[0]
        assert max_relative_error([analytic], [numeric]) < 1e-6

    def test_relu_gradient_fd(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 8)) + 0.05   # keep entries away from the kink
        target = rng.random((4, 8))

        def loss_fn():
            return nn.mse_loss(nn.relu(x), target)[0]

        _, dy = nn.mse_loss(nn.relu(x), target)
        analytic = nn.relu_backward(dy, x)
        numeric = finite_difference(loss_fn, [x])[0]
        assert max_relative_error([analytic], [numeric]) < 1e-6


class TestDense:
    def test_identity_weight(self):
        layer = nn.Dense(np.zeros((3, 3)), np.zeros(3))
        layer.weight[...] = np.eye(3)
        layer.bias[...] = 0.0
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(layer.forward(x), x)

    def test_zero_weight_bias_broadcast(self):
        layer = nn.Dense(np.zeros((2, 3)), np.zeros(2))
        layer.weight[...] = 0.0
        layer.bias[...] = [1.5, -2.0]
        out = layer.forward(np.ones((4, 3)))
        assert np.array_equal(out, np.tile([1.5, -2.0], (4, 1)))

    def test_gradient_fd(self):
        rng = np.random.default_rng(4)
        layer = nn.Dense(rng.uniform(-np.sqrt(6 / 16), np.sqrt(6 / 16), size=(8, 8)), np.zeros(8))
        x = rng.standard_normal((8, 8))
        target = rng.random((8, 8))

        def loss_fn():
            return nn.mse_loss(layer.forward(x), target)[0]

        _, dy = nn.mse_loss(layer.forward(x), target)
        dx = layer.backward(dy)
        numeric = finite_difference(loss_fn, [layer.weight, layer.bias])
        assert max_relative_error([layer.grad_weight, layer.grad_bias], numeric) < 1e-6

        def loss_fn_x():
            return nn.mse_loss(layer.forward(x), target)[0]

        numeric_x = finite_difference(loss_fn_x, [x])[0]
        assert max_relative_error([dx], [numeric_x]) < 1e-6

    def test_shape_mismatch(self):
        layer = nn.Dense(np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros((3, 5)))


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(5)
        bn = nn.BatchNorm(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
        x = rng.standard_normal((64, 4)) * 3.0 + 2.0
        y = bn.forward(x, train=True)
        assert np.max(np.abs(y.mean(axis=0))) < 1e-9
        assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-6

    def test_eval_matches_train_when_stats_equal(self):
        rng = np.random.default_rng(6)
        bn = nn.BatchNorm(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
        x = rng.standard_normal((32, 4)) * 2.0 - 1.0
        y_train = bn.forward(x, train=True)
        bn.running_mean[...] = x.mean(axis=0)
        bn.running_var[...] = x.var(axis=0)
        y_eval = bn.forward(x, train=False)
        assert np.max(np.abs(y_train - y_eval)) < 1e-6

    def test_batch_too_small(self):
        bn = nn.BatchNorm(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
        with pytest.raises(BatchTooSmall):
            bn.forward(np.zeros((1, 4)), train=True)

    def test_gradient_fd(self):
        rng = np.random.default_rng(7)
        bn = nn.BatchNorm(np.ones(4), np.zeros(4), np.zeros(4), np.ones(4))
        bn.gamma[...] = rng.uniform(0.5, 1.5, 4)
        bn.beta[...] = rng.uniform(-1, 1, 4)
        x = rng.standard_normal((16, 4))
        target = rng.random((16, 4))

        def loss_fn():
            return nn.mse_loss(bn.forward(x, train=True), target)[0]

        _, dy = nn.mse_loss(bn.forward(x, train=True), target)
        dx = bn.backward(dy)
        numeric = finite_difference(loss_fn, [bn.gamma, bn.beta, x])
        analytic = [bn.grad_gamma, bn.grad_beta, dx]
        assert max_relative_error(analytic, numeric) < 1e-5


class TestMseLoss:
    def test_zero_for_equal(self):
        x = np.ones((2, 5))
        loss, grad = nn.mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(x))

    def test_unit_difference(self):
        pred = np.ones((3, 4))
        loss, _ = nn.mse_loss(pred, np.zeros_like(pred))
        assert loss == 1.0

    def test_gradient_fd(self):
        rng = np.random.default_rng(8)
        pred = rng.standard_normal((4, 7))
        target = rng.standard_normal((4, 7))

        def loss_fn():
            return nn.mse_loss(pred, target)[0]

        _, grad = nn.mse_loss(pred, target)
        numeric = finite_difference(loss_fn, [pred], h=1e-6)[0]
        assert np.max(np.abs(grad - numeric)) < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            nn.mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestAdam:
    def test_default_learning_rate(self):
        assert nn.Adam([np.zeros(3)], [np.zeros(3)]).learning_rate == 0.001

    @pytest.mark.parametrize("dtype, rate", [(np.float32, 1e-46), (np.float32, 1e300),
                                             (np.float64, 0.0), (np.float64, np.inf),
                                             (np.float64, np.nan)])
    def test_refuses_a_rate_its_dtype_cannot_hold(self, dtype, rate):
        with pytest.raises(ValueError, match="learning rate"):
            nn.Adam([np.zeros(3, dtype)], [np.zeros(3, dtype)], rate)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_takes_the_ends_of_its_dtype_range(self, dtype):
        info = np.finfo(dtype)
        for rate in (float(info.smallest_subnormal), float(info.max)):
            nn.Adam([np.zeros(3, dtype)], [np.zeros(3, dtype)], rate)

    def test_zero_gradient_no_change(self):
        p = np.array([1.0, -2.0, 3.0])
        adam = nn.Adam([p], [np.zeros(3)])
        adam.step()
        assert np.array_equal(p, [1.0, -2.0, 3.0])

    def test_first_step_magnitude(self):
        # hand-computed first Adam step for g=1: -lr * 1 / (1 + eps)
        p = np.array([0.0])
        adam = nn.Adam([p], [np.array([1.0])])
        adam.step()
        expected = -0.001 / (1.0 + 1e-8)
        assert abs(p[0] - expected) < 1e-6

    def test_state_accumulates(self):
        p = np.array([0.0])
        adam = nn.Adam([p], [np.array([1.0])])
        for _ in range(5):
            adam.step()
        assert adam.step_count == 5
        assert p[0] < -0.004   # roughly lr per step under constant gradient

    def test_large_parameters_match_whole_array_update(self):
        # parameters far larger than one update chunk, and not a multiple
        # of it, match the whole-array Adam formulas bit for bit, in the
        # parameters' dtype
        shapes = [(300, 701), (701,), (3,)]
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(0)
            params = [rng.standard_normal(s).astype(dtype) for s in shapes]
            expected = [p.copy() for p in params]
            m = [np.zeros(s, dtype) for s in shapes]
            v = [np.zeros(s, dtype) for s in shapes]
            grads = [np.empty(s, dtype) for s in shapes]
            adam = nn.Adam(params, grads)
            b1, b2, lr, eps = adam.beta1, adam.beta2, adam.learning_rate, adam.eps
            for t in range(1, 4):
                for g, s in zip(grads, shapes):
                    g[...] = rng.standard_normal(s).astype(dtype)
                adam.step()
                bc1 = 1.0 - b1**t
                bc2 = 1.0 - b2**t
                for p, g, mi, vi in zip(expected, grads, m, v):
                    mi *= b1
                    mi += (1.0 - b1) * g
                    vi *= b2
                    vi += (1.0 - b2) * (g * g)
                    p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
            for got, want in zip(params, expected):
                assert got.dtype == dtype and np.array_equal(got, want)

    def test_mixed_dtypes_rejected(self):
        p32, p64 = np.zeros(3, np.float32), np.zeros(3)
        with pytest.raises(ShapeMismatch, match="one dtype"):
            nn.Adam([p32, p64], [np.ones(3, np.float32), np.ones(3)])
        with pytest.raises(ShapeMismatch, match="one dtype"):
            nn.Adam([p32], [np.ones(3)])

    def test_non_contiguous_or_misshapen_rejected(self):
        # the update writes through flat views, which need C order
        with pytest.raises(ShapeMismatch):
            nn.Adam([np.zeros((4, 6))[:, ::2]], [np.ones((4, 3))])
        with pytest.raises(ShapeMismatch):
            nn.Adam([np.zeros((4, 3))], [np.ones((4, 3)).T.copy().T])
        with pytest.raises(ShapeMismatch):
            nn.Adam([np.zeros((4, 3))], [np.ones((3, 4))])
        with pytest.raises(ShapeMismatch, match="2 parameters but 1 gradients"):
            nn.Adam([np.zeros(3), np.zeros(3)], [np.ones(3)])


class TestEncodeTarget:
    def test_exact_grid_value_is_one(self):
        target = nn.encode_target([40.0])
        assert target[220] == 1.0
        assert np.argmax(target) == 220

    def test_wrap_continuity(self):
        target = nn.encode_target([-180.0])
        assert target[359] == pytest.approx(target[1])   # 179 vs -179 degrees
        assert target[0] == 1.0

    def test_two_sources_max_composition(self):
        merged = nn.encode_target([-30.0, 60.0])
        assert np.array_equal(
            merged, np.maximum(nn.encode_target([-30.0]), nn.encode_target([60.0]))
        )

    def test_sigma_controls_width(self):
        narrow = nn.encode_target([0.0], sigma_deg=2.0)
        wide = nn.encode_target([0.0], sigma_deg=16.0)
        assert narrow.sum() < wide.sum()

    @pytest.mark.parametrize("sigma", [0.0, -8.0, np.nan, np.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError):
            nn.encode_target([10.0], sigma_deg=sigma)


def _whole_network_check(kind, seed):
    rng = np.random.default_rng(seed)
    model = nn.build_model(kind, hidden=(16, 16, 16), weight_net_hidden=8, seed=seed)
    gcc = rng.standard_normal((4, 306))
    vis = None if kind == "gcc_only" else rng.standard_normal((4, 102))
    target = rng.random((4, 360))

    def loss_fn():
        return nn.mse_loss(model.forward(gcc, vis, train=True), target)[0]

    _, dy = nn.mse_loss(model.forward(gcc, vis, train=True), target)
    model.backward(dy)
    analytic = [g.copy() for g in model.gradients()]
    numeric = finite_difference(loss_fn, model.parameters(), sample=40,
                                rng=np.random.default_rng(seed + 1))
    return max_relative_error(analytic, numeric)


class TestNetworks:
    @pytest.mark.parametrize("kind", ["gcc_only", "avc", "avaw"])
    def test_float32_model_is_the_float64_init_cast(self, kind):
        wide = nn.build_model(kind, hidden=(16, 16, 16), weight_net_hidden=8, seed=2)
        narrow = nn.build_model(kind, hidden=(16, 16, 16), weight_net_hidden=8, seed=2,
                                dtype=np.float32)
        assert narrow.dtype == np.float32 and wide.dtype == np.float64
        for a, b in zip([*wide.parameters(), *wide.bn_stats(), *wide.gradients()],
                        [*narrow.parameters(), *narrow.bn_stats(), *narrow.gradients()]):
            assert b.dtype == np.float32 and np.array_equal(a.astype(np.float32), b)
        rng = np.random.default_rng(2)
        gcc, vis = rng.standard_normal((5, 306)), rng.standard_normal((5, 102))
        assert narrow.forward(gcc, vis).dtype == np.float32   # inputs cast to float32
        # a float64 model casts float32 inputs up, as numpy's promotion did
        gcc32, vis32 = gcc.astype(np.float32), vis.astype(np.float32)
        assert np.array_equal(wide.forward(gcc32, vis32),
                              wide.forward(gcc32.astype(np.float64), vis32.astype(np.float64)))

    def test_other_dtypes_rejected(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            nn.build_model("avc", hidden=(4,), dtype=np.float16)

    def test_avc_input_dims(self):
        model = nn.build_model("avc", hidden=(16, 16, 16), seed=0)
        rng = np.random.default_rng(0)
        out = model.forward(rng.standard_normal((3, 306)),
                            rng.standard_normal((3, 102)), train=True)
        assert out.shape == (3, 360)
        assert np.all(out > 0) and np.all(out < 1)
        with pytest.raises(ShapeMismatch):
            model.forward(rng.standard_normal((3, 300)),
                          rng.standard_normal((3, 102)))

    @pytest.mark.parametrize("kind, hidden, wn_hidden", [
        ("avc", (), 8), ("gcc_only", (0, 8), 8), ("avc", (8, -1), 8), ("avaw", (8, 8), 0)])
    def test_degenerate_widths_rejected(self, kind, hidden, wn_hidden):
        with pytest.raises(ShapeMismatch):
            nn.build_model(kind, hidden=hidden, weight_net_hidden=wn_hidden)

    def test_avc_gradient_fd(self):
        assert _whole_network_check("avc", 10) < 1e-4

    def test_avaw_gradient_fd(self):
        assert _whole_network_check("avaw", 20) < 1e-4

    def test_gcc_only_gradient_fd(self):
        assert _whole_network_check("gcc_only", 30) < 1e-4

    def test_avaw_weights_sum_to_one(self):
        model = nn.build_model("avaw", hidden=(16, 16, 16), seed=1)
        rng = np.random.default_rng(2)
        weights = model.adaptive_weights(rng.standard_normal((200, 306)),
                                         rng.standard_normal((200, 102)))
        assert weights.shape == (200, 3)
        assert np.max(np.abs(weights.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(weights > 0) and np.all(weights < 1)

    def test_avaw_zeroed_weight_net_equals_scaled_avc(self):
        avaw = nn.build_model("avaw", hidden=(16, 16, 16), seed=3)
        avaw.wn2.weight[...] = 0.0
        avaw.wn2.bias[...] = 0.0
        avc = nn.build_model("avc", hidden=(16, 16, 16), seed=4)
        for dst, src in zip(avc.parameters(), avaw.parameters()[4:]):
            dst[...] = src
        rng = np.random.default_rng(5)
        gcc = rng.standard_normal((6, 306))
        vis = rng.standard_normal((6, 102))
        out_avaw = avaw.forward(gcc, vis, train=False)
        out_avc = avc.forward(gcc * (1.0 / 3.0), vis * (1.0 / 3.0), train=False)
        assert np.max(np.abs(avaw.last_weights - 1.0 / 3.0)) < 1e-12
        assert np.max(np.abs(out_avaw - out_avc)) < 1e-9


class TestTraining:
    def _toy_data(self, n=64, rng=None):
        rng = rng or np.random.default_rng(0)
        azimuths = rng.uniform(-180, 180, size=n)
        gcc = np.stack([
            np.tile(np.sin(np.radians(a) + np.linspace(0, 6, 306)), 1)
            for a in azimuths
        ])
        targets = np.stack([nn.encode_target([a]) for a in azimuths])
        return gcc, targets

    def test_determinism(self):
        gcc, targets = self._toy_data()
        config = nn.TrainConfig(epochs=3, batch_size=16, hidden=(16, 16, 16), seed=7)
        runs = []
        for _ in range(2):
            model = nn.build_model("gcc_only", hidden=(16, 16, 16), seed=7)
            nn.train_model(model, gcc, None, targets, config)
            runs.append([p.copy() for p in model.parameters()])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_overfit_small_dataset(self):
        # 200 epochs on a fixed 256-sample set: loss collapses well below start
        rng = np.random.default_rng(1)
        gcc, targets = self._toy_data(n=256, rng=rng)
        config = nn.TrainConfig(epochs=200, batch_size=256, hidden=(64, 64, 64), seed=0)
        model = nn.build_model("gcc_only", hidden=(64, 64, 64), seed=0)
        history = nn.train_model(model, gcc, None, targets, config)
        eps = 1e-12
        assert all(b <= a + eps for a, b in zip(history, history[1:]))
        assert history[-1] < 0.1 * history[0]

    def test_empty_dataset(self):
        config = nn.TrainConfig(epochs=1, batch_size=4, hidden=(8, 8, 8))
        model = nn.build_model("gcc_only", hidden=(8, 8, 8))
        with pytest.raises(EmptyDataset):
            nn.train_model(model, np.zeros((0, 306)), None, np.zeros((0, 360)), config)

    def test_nan_loss_detected(self):
        gcc, targets = self._toy_data(n=8)
        gcc[3, 5] = np.nan
        config = nn.TrainConfig(epochs=1, batch_size=8, hidden=(8, 8, 8))
        model = nn.build_model("gcc_only", hidden=(8, 8, 8))
        with pytest.raises(NaNLoss):
            nn.train_model(model, gcc, None, targets, config)

    def test_overflow_is_nan_loss_with_its_epoch_and_step(self):
        # float32 parameters moved by 1e20 per step overflow the next forward pass
        gcc, targets = self._toy_data(n=16)
        config = nn.TrainConfig(epochs=4, batch_size=8, learning_rate=1e20, hidden=(8, 8, 8))
        model = nn.build_model("gcc_only", hidden=(8, 8, 8), dtype=np.float32)
        with pytest.raises(NaNLoss, match=r"^overflow .* at epoch 0, step 1$"):
            nn.train_model(model, gcc, None, targets, config)


class TestCheckpoints:
    def _trained_model(self, kind, seed=0, dtype=np.float64):
        model = nn.build_model(kind, hidden=(16, 16, 16), weight_net_hidden=8,
                               seed=seed, dtype=dtype)
        rng = np.random.default_rng(seed)
        gcc = rng.standard_normal((32, 306))
        vis = None if kind == "gcc_only" else rng.standard_normal((32, 102))
        targets = rng.random((32, 360))
        config = nn.TrainConfig(epochs=2, batch_size=16,
                                hidden=(16, 16, 16), weight_net_hidden=8, seed=seed)
        nn.train_model(model, gcc, vis, targets, config)
        return model, gcc, vis

    @pytest.mark.parametrize("kind", ["gcc_only", "avc", "avaw"])
    def test_round_trip_bit_exact(self, tmp_path, kind):
        model, gcc, vis = self._trained_model(kind)
        before = model.forward(gcc, vis, train=False)
        path = tmp_path / "model.doam"
        nn.save_checkpoint(model, path)
        loaded = nn.load_checkpoint(path)
        after = loaded.forward(gcc, vis, train=False)
        assert np.array_equal(before, after)
        path2 = tmp_path / "model2.doam"
        nn.save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("kind", ["gcc_only", "avc", "avaw"])
    def test_float32_round_trip_bit_exact_with_half_the_block_bytes(self, tmp_path, kind):
        model, gcc, vis = self._trained_model(kind, dtype=np.float32)
        arrays = [*model.parameters(), *model.bn_stats()]
        assert all(a.dtype == np.float32 for a in arrays)
        before = model.forward(gcc, vis, train=False)
        path = tmp_path / "model.doam"
        nn.save_checkpoint(model, path)
        assert path.read_bytes()[4:7] == struct.pack("<HB", 2, 4)
        loaded = nn.load_checkpoint(path)
        assert loaded.dtype == np.float32
        assert np.array_equal(before, loaded.forward(gcc, vis, train=False))
        again = tmp_path / "again.doam"
        nn.save_checkpoint(loaded, again)
        assert path.read_bytes() == again.read_bytes()
        # the same architecture in float64: same header, blocks twice the bytes
        wide = tmp_path / "wide.doam"
        nn.save_checkpoint(self._trained_model(kind)[0], wide)
        values = sum(a.size for a in arrays)
        header = path.stat().st_size - 4 * values
        assert wide.stat().st_size == header + 8 * values

    def test_version_1_file_loads_as_float64(self, tmp_path):
        model, gcc, vis = self._trained_model("avaw")
        path = tmp_path / "model.doam"
        nn.save_checkpoint(model, path)
        path.write_bytes(_version_1(path.read_bytes()))
        loaded = nn.load_checkpoint(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded.forward(gcc, vis), model.forward(gcc, vis))
        again = tmp_path / "again.doam"
        nn.save_checkpoint(loaded, again)   # saved as version 2
        assert _version_1(again.read_bytes()) == path.read_bytes()

    # SHA-256 of the .doam bytes of build_model(kind, (16, 16, 16), 8, seed=3),
    # fresh and after two seeded epochs.  The trained digests also depend on
    # the BLAS build's summation order; a change that moves them must say why.
    # GOLDEN_V1 holds the same files as version 1 wrote them, without the
    # dtype code: float64 parameters keep their bytes.
    GOLDEN_V1 = {
        "gcc_only": ("79d26a567cb7c42c29bf5d9e261e353983f2992a15e9c697a91c5045a3302c2c",
                     "9825e1349f9e5970f6a20a5b53d401bbf4899ec19b92720d478fd5d0a8a5ff44"),
        "avc": ("59c44413fbcb3ee0de9bfacc8fe02f9686e05a74549dd462d5cf26dae2704a06",
                "a0cebd6c8cf2d62ce978c33f314bcd883b28375a6945fcaddcb26d065be3bb3e"),
        "avaw": ("f3fbca0f2631468db31b5e8ef984a9118a640aca45fbcf888e2da68eb05347e3",
                 "5ba09c642a2575ab0231f0e6ef244b4135234341454aaea93222dde549eb3131"),
    }
    GOLDEN = {
        "gcc_only": ("a76b988b65d36a6634031d0184c9df912aed82d6c551aa32d9afebe380ab9335",
                     "8a2c16a0c5a585dd2644ffc35f4c3fdd474bd172e94594faacc796d8c440d2f4"),
        "avc": ("a34b5f3ddb10f9482095ea4357754266880b88df5f2df43dda8d4c556aaa2115",
                "3b19b35cf93baae21d5d4855b082cff19af64d073a73755b3489ed646d1d7184"),
        "avaw": ("00990241dd9e80a53070bfa566af641097477fa0dec035ac924ab90403dad070",
                 "255f0ac2f21eabaa28a1830032964e4e90c6d23bf18f2e9add20b9654e1040e0"),
    }

    @pytest.mark.parametrize("kind", ["gcc_only", "avc", "avaw"])
    def test_golden_digests(self, tmp_path, kind):
        model = nn.build_model(kind, hidden=(16, 16, 16), weight_net_hidden=8, seed=3)
        path = tmp_path / "model.doam"
        nn.save_checkpoint(model, path)
        fresh = path.read_bytes()
        rng = np.random.default_rng(3)
        gcc = rng.standard_normal((32, 306))
        vis = None if kind == "gcc_only" else rng.standard_normal((32, 102))
        targets = rng.random((32, 360))
        config = nn.TrainConfig(epochs=2, batch_size=16, hidden=(16, 16, 16),
                                weight_net_hidden=8, seed=3)
        nn.train_model(model, gcc, vis, targets, config)
        nn.save_checkpoint(model, path)
        trained = path.read_bytes()

        def sha256(data):
            return hashlib.sha256(data).hexdigest()
        assert (sha256(fresh), sha256(trained)) == self.GOLDEN[kind]
        assert (sha256(_version_1(fresh)), sha256(_version_1(trained))) == self.GOLDEN_V1[kind]

    def test_audio_only_header_with_visual_input_rejected(self, tmp_path):
        path = tmp_path / "model.doam"
        nn.save_checkpoint(nn.build_model("avc", hidden=(3,), gcc_dim=4, vis_dim=2), path)
        data = bytearray(path.read_bytes())
        data[7] = 2   # the architecture tag of gcc_only, which has no visual input
        path.write_bytes(bytes(data))
        with pytest.raises(ShapeMismatch):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("kind, offset, width", [("gcc_only", 12, 5), ("avc", 26, 7)])
    def test_header_width_the_model_ignores_rejected(self, tmp_path, kind, offset, width):
        """A gcc_only visual width or an avc weight-net width would be saved back as 0."""
        path = tmp_path / "model.doam"
        nn.save_checkpoint(nn.build_model(kind, hidden=(3,), gcc_dim=4, vis_dim=2), path)
        data = bytearray(path.read_bytes())
        assert data[offset:offset + 4] == bytes(4)
        data[offset:offset + 4] = struct.pack("<I", width)
        path.write_bytes(bytes(data))
        with pytest.raises(ShapeMismatch, match=f"got width {width}"):
            nn.load_checkpoint(path)
        assert cli_main(["eval", "--checkpoint", str(path), "--features", str(tmp_path),
                         "--out", str(tmp_path / "eval")]) == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loading_draws_nothing(self, tmp_path, monkeypatch, dtype):
        path = tmp_path / "model.doam"
        nn.save_checkpoint(tiny_model(dtype), path)

        def no_init(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")
        monkeypatch.setattr(nn.np.random, "default_rng", no_init)
        model = nn.load_checkpoint(path)
        for arr in [*model.parameters(), *model.bn_stats()]:
            assert arr.dtype == dtype and arr.flags.writeable and arr.flags.owndata

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.doam"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            nn.load_checkpoint(path)

    def test_every_truncation_is_typed(self, tmp_path):
        for dtype in (np.float64, np.float32):
            model = tiny_model(dtype)
            path = tmp_path / "model.doam"
            nn.save_checkpoint(model, path)
            data = path.read_bytes()
            for size in range(len(data)):
                path.write_bytes(data[:size])
                with pytest.raises(AvdoaError):
                    nn.load_checkpoint(path)

    @pytest.mark.parametrize("code", [0, 2, 16])
    def test_unknown_dtype_code_rejected(self, tmp_path, code):
        path = tmp_path / "model.doam"
        nn.save_checkpoint(nn.build_model("avc", hidden=(3,), gcc_dim=4, vis_dim=2), path)
        data = bytearray(path.read_bytes())
        data[6] = code
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch, match="dtype code"):
            nn.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model, _, _ = self._trained_model("gcc_only")
        path = tmp_path / "model.doam"
        nn.save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            nn.load_checkpoint(path)


def _version_1(data):
    """A float64 version-2 checkpoint as version 1 wrote it, without the dtype code."""
    assert data[4:7] == struct.pack("<HB", 2, 8)
    return data[:4] + struct.pack("<H", 1) + data[7:]


def test_train_command_writes_a_float32_checkpoint_that_eval_scores(tmp_path):
    assert cli_main(["simulate", "--out", str(tmp_path / "ds"), "--frames", "20",
                     "--seed", "1", "--source-kind", "white"]) == 0
    assert cli_main(["features", "--dataset", str(tmp_path / "ds"),
                     "--out", str(tmp_path / "feats")]) == 0
    ckpt = tmp_path / "avaw.doam"
    assert cli_main(["train", "--features", str(tmp_path / "feats"), "--model", "avaw",
                     "--widths", "8,8,8", "--epochs", "2", "--batch", "8",
                     "--out", str(ckpt)]) == 0
    assert ckpt.read_bytes()[4:7] == struct.pack("<HB", 2, 4)   # version 2, f4 blocks
    assert nn.load_checkpoint(ckpt).dtype == np.float32
    assert cli_main(["eval", "--checkpoint", str(ckpt), "--features", str(tmp_path / "feats"),
                     "--out", str(tmp_path / "eval")]) == 0
    header, values = (tmp_path / "eval" / "summary.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), values.split(",")))
    assert 0.0 <= float(cells["mae_overall"]) <= 180.0
