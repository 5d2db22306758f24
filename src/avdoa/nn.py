"""Feedforward networks for azimuth classification, built from scratch.

Everything runs in float64 numpy with hand-written analytic gradients so
training is deterministic and every layer can be checked against finite
differences.  One model class, ``DoaModel``, serves all three networks.
They share the trunk (MLP3, three Dense -> BatchNorm -> ReLU blocks
followed by a sigmoid output layer over 360 one-degree azimuth classes)
and differ only in the input stage named by ``kind``:

  * "gcc_only": GCC features alone (audio-only)
  * "avc": audio and visual features concatenated directly
  * "avaw" (adaptive weighting): a small two-layer net predicts three
    softmax weights (audio, image-horizontal, image-vertical) per sample,
    scales the corresponding feature blocks, then feeds the trunk
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BatchTooSmall,
    EmptyDataset,
    NaNLoss,
    ShapeMismatch,
    VersionMismatch,
)
from .geom import wrap_degrees
from .store import Reader

N_CLASSES = 360
GCC_DIM = 306       # 6 pairs x 51 lags
VIS_DIM = 102       # 2 axes x 51 grid points


# The paper's training settings; Adam, encode_target and build_model default to them.
@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 0.001
    hidden: tuple = (1000, 1000, 1000)
    weight_net_hidden: int = 64
    target_sigma_deg: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 2 or self.learning_rate <= 0:
            raise ValueError("epochs >= 1, batch_size >= 2 and learning_rate > 0 required")


# ---------------------------------------------------------------------------
# activations and loss
# ---------------------------------------------------------------------------

def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(dout, x):
    return np.where(x > 0, dout, 0.0)


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(dout, y):
    """Gradient through sigmoid given its output y."""
    return dout * y * (1.0 - y)


def softmax(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(dout, s):
    """Gradient through row-wise softmax given its output s."""
    return s * (dout - (dout * s).sum(axis=1, keepdims=True))


def mse_loss(pred, target):
    """Mean over all elements of (pred - target)^2 and its gradient."""
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class Dense:
    """Affine layer y = x W^T + b with Glorot-uniform init."""

    PARAMS, STATS = ("weight", "bias"), ()   # each PARAMS name has a grad_<name>

    def __init__(self, in_dim, out_dim, rng):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.weight = rng.uniform(-limit, limit, size=(out_dim, in_dim))
        self.bias = np.zeros(out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ShapeMismatch(
                f"dense expects (batch, {self.weight.shape[1]}), got {x.shape}"
            )
        self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, dout):
        self.grad_weight = dout.T @ self._x
        self.grad_bias = dout.sum(axis=0)
        return dout @ self.weight


class BatchNorm:
    """Per-feature batch normalization with running statistics.

    ``momentum`` is the fraction of the old running estimate kept per
    update.  Variances are biased (ddof=0) both in training and in the
    running estimate, so an eval pass with running stats equal to a batch's
    stats reproduces the training-mode output.  eps is tiny because
    everything runs in float64; it only guards exactly-constant features.
    A loaded checkpoint sets both to the values stored in it.
    """

    momentum = 0.9
    eps = 1e-12
    PARAMS, STATS = ("gamma", "beta"), ("running_mean", "running_var")

    def __init__(self, dim):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.grad_gamma = np.zeros_like(self.gamma)
        self.grad_beta = np.zeros_like(self.beta)

    def forward(self, x, train):
        if x.ndim != 2 or x.shape[1] != self.gamma.size:
            raise ShapeMismatch(f"batchnorm expects (batch, {self.gamma.size}), got {x.shape}")
        if train:
            if x.shape[0] < 2:
                raise BatchTooSmall("training-mode batch norm needs at least 2 samples")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean *= self.momentum
            self.running_mean += (1.0 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1.0 - self.momentum) * var
            self._inv_std = 1.0 / np.sqrt(var + self.eps)
            self._xhat = (x - mean) * self._inv_std
            return self.gamma * self._xhat + self.beta
        xhat = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return self.gamma * xhat + self.beta

    def backward(self, dout):
        batch = dout.shape[0]
        self.grad_gamma = (dout * self._xhat).sum(axis=0)
        self.grad_beta = dout.sum(axis=0)
        dxhat = dout * self.gamma
        return (self._inv_std / batch) * (
            batch * dxhat
            - dxhat.sum(axis=0)
            - self._xhat * (dxhat * self._xhat).sum(axis=0)
        )


class Adam:
    """Adam with bias correction; state (m, v, t) lives on the optimizer."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    _CHUNK = 1 << 14   # elements per update chunk; the scratch buffers stay in cache

    def __init__(self, learning_rate=TrainConfig.learning_rate):
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = None
        self._v = None
        self._scratch = (np.empty(self._CHUNK), np.empty(self._CHUNK))

    def step(self, params, grads):
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        if len(params) != len(self._m):
            raise ShapeMismatch("parameter list changed between steps")
        for p, g in zip(params, grads):
            if p.shape != g.shape or not (p.flags.c_contiguous and g.flags.c_contiguous):
                raise ShapeMismatch("need C-contiguous parameters and gradients of equal shape")
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        # the whole-array formulas op by op, chunk by chunk: bit-identical results
        for p, g, m, v in zip(params, grads, self._m, self._v):
            flat = [x.reshape(-1) for x in (p, g, m, v)]   # views: all C-contiguous
            for s in range(0, p.size, self._CHUNK):
                pc, gc, mc, vc = (x[s:s + self._CHUNK] for x in flat)
                a, b = (x[:pc.size] for x in self._scratch)
                mc *= self.beta1
                np.multiply(gc, 1.0 - self.beta1, out=a)
                mc += a
                vc *= self.beta2
                np.multiply(gc, gc, out=a)
                a *= 1.0 - self.beta2
                vc += a
                np.divide(mc, bc1, out=a)
                a *= self.learning_rate
                np.sqrt(np.divide(vc, bc2, out=b), out=b)
                b += self.eps
                a /= b
                pc -= a


# ---------------------------------------------------------------------------
# target encoding
# ---------------------------------------------------------------------------

def encode_target(azimuths_deg, sigma_deg=TrainConfig.target_sigma_deg):
    """Soft 360-class label: Gaussian of circular distance, max over sources.

    Class i covers azimuth i - 180 degrees.  A source exactly on a grid
    value yields 1.0 there; distances wrap across +/-180.
    """
    if not 0.0 < sigma_deg < np.inf:
        raise ValueError(f"target sigma must be finite and positive, got {sigma_deg}")
    grid = np.arange(N_CLASSES, dtype=float) - 180.0
    target = np.zeros(N_CLASSES)
    for az in azimuths_deg:
        if not -180.0 <= az < 180.0:
            raise ValueError(f"azimuth {az} outside [-180, 180)")
        dist = np.abs(wrap_degrees(grid - az))
        np.maximum(target, np.exp(-(dist**2) / sigma_deg**2), out=target)
    return target


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

class _Layered:
    """A model's arrays: one walk over ``layers()``, in checkpoint order."""

    def parameters(self):
        return [getattr(layer, name) for layer in self.layers() for name in layer.PARAMS]

    def gradients(self):
        return [getattr(layer, "grad_" + name)
                for layer in self.layers() for name in layer.PARAMS]

    def bn_stats(self):
        return [getattr(layer, name) for layer in self.layers() for name in layer.STATS]


class Mlp3(_Layered):
    """Dense -> BatchNorm -> ReLU blocks, then Dense -> sigmoid."""

    def __init__(self, in_dim, hidden_dims, out_dim, rng):
        dims = [in_dim, *hidden_dims]
        self.blocks = [
            (Dense(dims[i], dims[i + 1], rng), BatchNorm(dims[i + 1]))
            for i in range(len(hidden_dims))
        ]
        self.out = Dense(dims[-1], out_dim, rng)

    def forward(self, x, train):
        self._relu_in = []
        for dense, bn in self.blocks:
            x = bn.forward(dense.forward(x), train)
            self._relu_in.append(x)
            x = relu(x)
        self._y = sigmoid(self.out.forward(x))
        return self._y

    def backward(self, dy):
        dx = self.out.backward(sigmoid_backward(dy, self._y))
        for (dense, bn), pre in zip(reversed(self.blocks), reversed(self._relu_in)):
            dx = dense.backward(bn.backward(relu_backward(dx, pre)))
        return dx

    def layers(self):
        return [layer for block in self.blocks for layer in block] + [self.out]


class DoaModel(_Layered):
    """MLP3 trunk behind the input stage named by ``kind`` (gcc_only, avc or avaw).

    The avaw weight net draws from ``rng`` before the trunk, so checkpoints
    and seeded runs keep their bytes; its latest softmax weights are kept
    on ``last_weights``.
    """

    def __init__(self, kind, hidden, weight_net_hidden, gcc_dim, vis_dim, out_dim, rng):
        if kind not in _ARCH_TAGS:
            raise ValueError(f"unknown model kind {kind!r}")
        if not hidden or min(hidden) < 1:
            raise ShapeMismatch("need at least one hidden layer, and hidden widths >= 1")
        if kind == "gcc_only":
            vis_dim = 0
        if kind != "avaw":
            weight_net_hidden = 0
        elif weight_net_hidden < 1 or vis_dim < 2 or vis_dim % 2:
            raise ShapeMismatch("avaw needs a weight-net width >= 1 and a visual "
                                "input of two equal, non-empty axis blocks")
        rng = np.random.default_rng(rng)
        self.kind = kind
        self.gcc_dim = gcc_dim
        self.vis_dim = vis_dim
        self.hidden = tuple(hidden)
        self.out_dim = out_dim
        self.weight_net_hidden = weight_net_hidden
        self.wn1 = self.wn2 = self.last_weights = None
        if kind == "avaw":
            self.wn1 = Dense(gcc_dim + vis_dim, weight_net_hidden, rng)
            self.wn2 = Dense(weight_net_hidden, 3, rng)
        self.core = Mlp3(gcc_dim + vis_dim, hidden, out_dim, rng)

    def _check(self, gcc, vis):
        if gcc.ndim != 2 or gcc.shape[1] != self.gcc_dim:
            raise ShapeMismatch(f"expected (batch, {self.gcc_dim}) GCC input, got {gcc.shape}")
        if not self.vis_dim:
            return      # audio only: any visual input is ignored
        if vis is None or vis.ndim != 2 or vis.shape[1] != self.vis_dim:
            shape = None if vis is None else vis.shape
            raise ShapeMismatch(f"expected (batch, {self.vis_dim}) visual input, got {shape}")
        if vis.shape[0] != gcc.shape[0]:
            raise ShapeMismatch("audio and visual batches differ in size")

    def adaptive_weights(self, gcc, vis):
        """Softmax-normalized (audio, horizontal, vertical) weights, (B, 3)."""
        self._check(gcc, vis)
        self._wn_pre = self.wn1.forward(np.concatenate([gcc, vis], axis=1))
        return softmax(self.wn2.forward(relu(self._wn_pre)))

    def _blocks(self, gcc, vis):
        """The audio, horizontal and vertical feature blocks."""
        half = self.vis_dim // 2
        return [gcc, vis[:, :half], vis[:, half:]]

    def forward(self, gcc, vis=None, train=False):
        self._check(gcc, vis)
        if not self.vis_dim:
            return self.core.forward(gcc, train)
        blocks = [gcc, vis]
        if self.kind == "avaw":
            weights = self.last_weights = self.adaptive_weights(gcc, vis)
            self._inputs = (gcc, vis)
            blocks = [block * weights[:, k:k + 1]
                      for k, block in enumerate(self._blocks(gcc, vis))]
        return self.core.forward(np.concatenate(blocks, axis=1), train)

    def backward(self, dy):
        dz = self.core.backward(dy)
        if self.kind == "avaw":
            d_blocks = self._blocks(dz[:, :self.gcc_dim], dz[:, self.gcc_dim:])
            dweights = np.stack(
                [(d * x).sum(axis=1) for d, x in zip(d_blocks, self._blocks(*self._inputs))],
                axis=1,
            )
            dlogits = softmax_backward(dweights, self.last_weights)
            self.wn1.backward(relu_backward(self.wn2.backward(dlogits), self._wn_pre))

    def layers(self):
        return ([self.wn1, self.wn2] if self.kind == "avaw" else []) + self.core.layers()


def build_model(kind, hidden=TrainConfig.hidden,
                weight_net_hidden=TrainConfig.weight_net_hidden, seed=0,
                gcc_dim=GCC_DIM, vis_dim=VIS_DIM):
    """Construct a model with seeded initialization (init rng = [seed, 0])."""
    return DoaModel(kind, hidden=hidden, weight_net_hidden=weight_net_hidden,
                    gcc_dim=gcc_dim, vis_dim=vis_dim, out_dim=N_CLASSES,
                    rng=np.random.default_rng([seed, 0]))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_model(model, gcc, vis, targets, config):
    """MSE training loop with seeded shuffling and Adam updates.

    Fully deterministic for a fixed config seed: shuffling uses rng
    [seed, 1] so it is independent of the model-init stream.  Raises
    NaNLoss the moment a loss or parameter stops being finite.  Returns
    the per-epoch mean batch loss.
    """
    n = len(gcc)
    if n < 2:
        raise EmptyDataset("training needs at least two samples")
    if len(targets) != n or (vis is not None and len(vis) != n):
        raise ShapeMismatch("feature and target row counts differ")
    adam = Adam(config.learning_rate)
    rng = np.random.default_rng([config.seed, 1])
    params = model.parameters()
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            if idx.size < 2:
                continue  # a stray final sample cannot form batch statistics
            batch_vis = None if vis is None else vis[idx]
            pred = model.forward(gcc[idx], batch_vis, train=True)
            loss, dy = mse_loss(pred, targets[idx])
            if not np.isfinite(loss):
                raise NaNLoss(f"non-finite loss at epoch {epoch}, step {len(losses)}")
            model.backward(dy)
            adam.step(params, model.gradients())
            for p in params:
                if not np.all(np.isfinite(p)):
                    raise NaNLoss(f"non-finite parameter after epoch {epoch} update")
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return history


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_MAGIC = b"DOAM"
_VERSION = 1
_ARCH_TAGS = {"avc": 0, "avaw": 1, "gcc_only": 2}
_TAG_ARCHS = {v: k for k, v in _ARCH_TAGS.items()}


def _pack_block_table(arrays):
    parts = [struct.pack("<H", len(arrays))]
    for arr in arrays:
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    return b"".join(parts)


def save_checkpoint(model, path):
    """Serialize architecture, parameters and batch-norm running stats.

    Layout: magic "DOAM", version u16, arch tag u8, dims header, shape
    tables, then little-endian f64 blocks (trainable parameters in
    declaration order, then running stats).  Byte-stable: save, load and
    save again produces an identical file.
    """
    params = model.parameters()
    stats = model.bn_stats()
    first_bn = model.core.blocks[0][1]
    header = [
        _MAGIC,
        struct.pack("<H", _VERSION),
        struct.pack("<B", _ARCH_TAGS[model.kind]),
        struct.pack("<III", model.gcc_dim, model.vis_dim, model.out_dim),
        struct.pack("<H", len(model.hidden)),
        struct.pack(f"<{len(model.hidden)}I", *model.hidden),
        struct.pack("<I", model.weight_net_hidden),
        struct.pack("<dd", first_bn.momentum, first_bn.eps),
        _pack_block_table(params),
        _pack_block_table(stats),
    ]
    blob = b"".join(header) + b"".join(
        np.ascontiguousarray(a).astype("<f8").tobytes() for a in [*params, *stats]
    )
    with open(path, "wb") as fh:
        fh.write(blob)


def _read_block_table(reader):
    shapes = []
    for _ in range(reader.take("<H")):
        ndim = reader.take("<B")
        shapes.append(tuple(np.atleast_1d(reader.take(f"<{ndim}I"))))
    return shapes


def _model_shapes(kind, gcc_dim, vis_dim, out_dim, hidden, wn_hidden):
    """Parameter and running-stat shapes of a DoaModel, in checkpoint order."""
    dims = [gcc_dim + (0 if kind == "gcc_only" else vis_dim), *hidden]   # as DoaModel sets it
    params = []
    if kind == "avaw":
        params += [(wn_hidden, dims[0]), (wn_hidden,), (3, wn_hidden), (3,)]
    for d_in, d_out in zip(dims, dims[1:]):
        params += [(d_out, d_in), (d_out,), (d_out,), (d_out,)]
    params += [(out_dim, dims[-1]), (out_dim,)]
    return [params, [(d,) for d in hidden for _ in ("mean", "var")]]


def load_checkpoint(path):
    """Rebuild a model from a checkpoint file's self-describing header.

    The shapes are checked against the header and the file's size before
    anything is allocated.
    """
    reader = Reader(path)
    reader.header(_MAGIC, _VERSION, "checkpoint file")
    arch = reader.take("<B")
    if arch not in _TAG_ARCHS:
        raise VersionMismatch(f"{path}: unknown architecture tag {arch}")
    kind = _TAG_ARCHS[arch]
    gcc_dim, vis_dim, out_dim = reader.take("<III")
    n_hidden = reader.take("<H")
    hidden = tuple(np.atleast_1d(reader.take(f"<{n_hidden}I")))
    weight_net_hidden = reader.take("<I")
    bn_momentum, bn_eps = reader.take("<dd")
    shapes = [_read_block_table(reader), _read_block_table(reader)]
    if _model_shapes(kind, gcc_dim, vis_dim, out_dim, hidden, weight_net_hidden) != shapes:
        raise ShapeMismatch(f"{path}: parameter shapes do not match the model")
    blocks = [reader.array("<f8", shape) for shape in shapes[0] + shapes[1]]   # views
    if not reader.at_end():
        raise ShapeMismatch(f"{path}: trailing bytes after parameter blocks")
    model = DoaModel(kind, hidden=hidden, weight_net_hidden=weight_net_hidden,
                     gcc_dim=gcc_dim, vis_dim=vis_dim, out_dim=out_dim, rng=0)
    for arr, block in zip([*model.parameters(), *model.bn_stats()], blocks):
        arr[...] = block
    for _, bn in model.core.blocks:
        bn.momentum, bn.eps = bn_momentum, bn_eps
    return model
