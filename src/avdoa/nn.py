"""Feedforward networks for azimuth classification, built from scratch.

Plain numpy with hand-written analytic gradients, so training is
deterministic.  A model computes in its ``dtype``: float64 by default, so
every layer can be checked against finite differences, or float32, which
halves the bytes each layer moves and is what the CLI trains, saves and
scores in.  One model class, ``DoaModel``, serves all three networks.
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
from .store import Reader, write_bytes

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
    """Affine layer y = x W^T + b on the weight and bias it is given."""

    PARAMS, STATS = ("weight", "bias"), ()   # each PARAMS name has a grad_<name>

    def __init__(self, weight, bias):
        self.weight, self.bias = weight, bias
        self.grad_weight = np.zeros_like(weight)
        self.grad_bias = np.zeros_like(bias)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.weight.shape[1]:
            raise ShapeMismatch(f"dense expects (batch, {self.weight.shape[1]}), got {x.shape}")
        self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, dout):
        np.matmul(dout.T, self._x, out=self.grad_weight)
        dout.sum(axis=0, out=self.grad_bias)
        return dout @ self.weight


class BatchNorm:
    """Per-feature batch normalization with running statistics.

    ``momentum`` is the fraction of the old running estimate kept per
    update.  Variances are biased (ddof=0) both in training and in the
    running estimate, so an eval pass with running stats equal to a batch's
    stats reproduces the training-mode output.  eps is tiny: it only guards
    exactly-constant features, and stays a normal number in float32 too.
    Both are constants: checkpoints store them, and loading refuses others.
    """

    momentum = 0.9
    eps = 1e-12
    PARAMS, STATS = ("gamma", "beta"), ("running_mean", "running_var")

    def __init__(self, gamma, beta, running_mean, running_var):
        self.gamma, self.beta = gamma, beta
        self.running_mean, self.running_var = running_mean, running_var
        self.grad_gamma = np.zeros_like(gamma)
        self.grad_beta = np.zeros_like(beta)

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
        (dout * self._xhat).sum(axis=0, out=self.grad_gamma)
        dout.sum(axis=0, out=self.grad_beta)
        dxhat = dout * self.gamma
        return (self._inv_std / batch) * (
            batch * dxhat
            - dxhat.sum(axis=0)
            - self._xhat * (dxhat * self._xhat).sum(axis=0)
        )


class Adam:
    """Adam with bias correction over the parameter and gradient arrays it is given.

    The arrays are bound at construction: every step reads the gradients
    and updates the parameters in place.  They must share one dtype, which
    the state (m, v) and scratch take, and be C-contiguous in equal shapes.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    _CHUNK_BYTES = 1 << 17   # per update chunk; the scratch buffers stay in cache

    def __init__(self, params, grads, learning_rate=TrainConfig.learning_rate):
        dtypes = {a.dtype for a in (*params, *grads)}
        if len(dtypes) != 1:
            raise ShapeMismatch(f"need parameters and gradients of one dtype, "
                                f"got {sorted(map(str, dtypes))}")
        if len(params) != len(grads):
            raise ShapeMismatch(f"{len(params)} parameters but {len(grads)} gradients")
        for p, g in zip(params, grads):
            if p.shape != g.shape or not (p.flags.c_contiguous and g.flags.c_contiguous):
                raise ShapeMismatch("need C-contiguous parameters and gradients of equal shape")
        info = np.finfo(*dtypes)    # a rate outside its range rounds to 0 or overflows
        if not float(info.smallest_subnormal) <= float(learning_rate) <= float(info.max):
            raise ValueError(f"learning rate {learning_rate} is outside the {info.dtype} range "
                             f"[{float(info.smallest_subnormal):g}, {float(info.max):g}]")
        self.learning_rate = learning_rate
        self.step_count = 0
        self._scratch = tuple(np.empty(self._CHUNK_BYTES, np.uint8).view(*dtypes)
                              for _ in range(2))
        # flat views (all C-contiguous) of each parameter, its gradient, m and v
        self._flat = [[x.reshape(-1) for x in (p, g, np.zeros_like(p), np.zeros_like(p))]
                      for p, g in zip(params, grads)]

    def step(self):
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        # the whole-array formulas op by op, chunk by chunk: bit-identical results
        chunk = self._scratch[0].size
        for flat in self._flat:
            for s in range(0, flat[0].size, chunk):
                pc, gc, mc, vc = (x[s:s + chunk] for x in flat)
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
    value yields 1.0 there; distances wrap across +/-180.  The sigma must be
    positive, with its square and 180**2 over its square finite floats.
    """
    square = float(sigma_deg) * float(sigma_deg)    # inf on overflow, where ** raises
    if not (sigma_deg > 0.0 and 0.0 < square < np.inf and 180.0**2 / square < np.inf):
        raise ValueError("target sigma must be positive, with sigma**2 and "
                         f"(180 / sigma)**2 finite positive floats, got {sigma_deg}")
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

def _layout(kind, gcc_dim, vis_dim, out_dim, hidden, wn_hidden):
    """A DoaModel's layers in checkpoint order: (class, PARAMS shapes, STATS shapes).

    Shapes only, so a checkpoint header is checked before anything is allocated.
    """
    if kind not in _ARCH_TAGS:
        raise ValueError(f"unknown model kind {kind!r}")
    if not hidden or min(hidden) < 1:
        raise ShapeMismatch("need at least one hidden layer, and hidden widths >= 1")
    if kind == "gcc_only" and vis_dim:
        raise ShapeMismatch(f"gcc_only has no visual input, got width {vis_dim}")
    if kind != "avaw" and wn_hidden:
        raise ShapeMismatch(f"{kind} has no weight net, got width {wn_hidden}")
    if kind == "avaw" and (wn_hidden < 1 or vis_dim < 2 or vis_dim % 2):
        raise ShapeMismatch("avaw needs a weight-net width >= 1 and a visual "
                            "input of two equal, non-empty axis blocks")

    def dense(d_in, d_out):
        return Dense, [(d_out, d_in), (d_out,)], []

    dims = [gcc_dim + vis_dim, *hidden]
    table = [dense(dims[0], wn_hidden), dense(wn_hidden, 3)] if kind == "avaw" else []
    for d_in, d_out in zip(dims, dims[1:]):
        table += [dense(d_in, d_out), (BatchNorm, [(d_out,)] * 2, [(d_out,)] * 2)]
    return table + [dense(dims[-1], out_dim)]


class DoaModel:
    """MLP3 trunk behind the input stage named by ``kind`` (gcc_only, avc or avaw).

    ``arrays`` are the parameters, then the running stats, in checkpoint
    order and laid out by ``_layout``.  The model computes on them in place,
    in their dtype (float32 or float64); inputs are cast to it.  The trunk is
    Dense -> BatchNorm -> ReLU blocks, then Dense -> sigmoid.  The avaw
    weight net's latest softmax weights are kept on ``last_weights``.
    """

    def __init__(self, kind, hidden, weight_net_hidden, gcc_dim, vis_dim, out_dim, arrays):
        table = _layout(kind, gcc_dim, vis_dim, out_dim, hidden, weight_net_hidden)
        params, stats = iter(arrays), iter(arrays[sum(len(p) for _, p, _ in table):])
        self._layers = [cls(*(next(params) for _ in p), *(next(stats) for _ in s))
                        for cls, p, s in table]
        self.kind, self.hidden, self.weight_net_hidden = kind, tuple(hidden), weight_net_hidden
        self.gcc_dim, self.vis_dim, self.out_dim = gcc_dim, vis_dim, out_dim
        self.dtype = arrays[0].dtype
        self.last_weights = None
        self.wn1, self.wn2, *trunk = (self._layers if kind == "avaw"
                                      else [None, None, *self._layers])
        self._trunk = list(zip(trunk[:-1:2], trunk[1:-1:2]))
        self._out = trunk[-1]

    def parameters(self):
        return [getattr(layer, name) for layer in self._layers for name in layer.PARAMS]

    def gradients(self):
        return [getattr(layer, "grad_" + name)
                for layer in self._layers for name in layer.PARAMS]

    def bn_stats(self):
        return [getattr(layer, name) for layer in self._layers for name in layer.STATS]

    def _checked(self, gcc, vis):
        """The inputs in the model's dtype (no visual input for audio only)."""
        gcc = np.asarray(gcc, dtype=self.dtype)
        if gcc.ndim != 2 or gcc.shape[1] != self.gcc_dim:
            raise ShapeMismatch(f"expected (batch, {self.gcc_dim}) GCC input, got {gcc.shape}")
        if not self.vis_dim:
            return gcc, None      # audio only: any visual input is ignored
        if vis is None or vis.ndim != 2 or vis.shape[1] != self.vis_dim:
            shape = None if vis is None else vis.shape
            raise ShapeMismatch(f"expected (batch, {self.vis_dim}) visual input, got {shape}")
        if vis.shape[0] != gcc.shape[0]:
            raise ShapeMismatch("audio and visual batches differ in size")
        return gcc, np.asarray(vis, dtype=self.dtype)

    def adaptive_weights(self, gcc, vis):
        """Softmax-normalized (audio, horizontal, vertical) weights, (B, 3)."""
        gcc, vis = self._checked(gcc, vis)
        self._wn_pre = self.wn1.forward(np.concatenate([gcc, vis], axis=1))
        return softmax(self.wn2.forward(relu(self._wn_pre)))

    def _blocks(self, gcc, vis):
        """The audio, horizontal and vertical feature blocks."""
        half = self.vis_dim // 2
        return [gcc, vis[:, :half], vis[:, half:]]

    def forward(self, gcc, vis=None, train=False):
        x, vis = self._checked(gcc, vis)
        if self.kind == "avaw":
            weights = self.last_weights = self.adaptive_weights(x, vis)
            self._inputs = (x, vis)
            x = np.concatenate([block * weights[:, k:k + 1]
                                for k, block in enumerate(self._blocks(x, vis))], axis=1)
        elif self.vis_dim:
            x = np.concatenate([x, vis], axis=1)
        self._relu_in = []
        for dense, bn in self._trunk:
            x = bn.forward(dense.forward(x), train)
            self._relu_in.append(x)
            x = relu(x)
        self._y = sigmoid(self._out.forward(x))
        return self._y

    def backward(self, dy):
        dz = self._out.backward(sigmoid_backward(dy, self._y))
        for (dense, bn), pre in zip(reversed(self._trunk), reversed(self._relu_in)):
            dz = dense.backward(bn.backward(relu_backward(dz, pre)))
        if self.kind == "avaw":
            d_blocks = self._blocks(dz[:, :self.gcc_dim], dz[:, self.gcc_dim:])
            dweights = np.stack(
                [(d * x).sum(axis=1) for d, x in zip(d_blocks, self._blocks(*self._inputs))],
                axis=1,
            )
            dlogits = softmax_backward(dweights, self.last_weights)
            self.wn1.backward(relu_backward(self.wn2.backward(dlogits), self._wn_pre))


def build_model(kind, hidden=TrainConfig.hidden,
                weight_net_hidden=TrainConfig.weight_net_hidden, seed=0,
                gcc_dim=GCC_DIM, vis_dim=VIS_DIM, dtype=np.float64):
    """Construct a model with seeded initialization (init rng = [seed, 0]).

    Each Dense weight is Glorot-uniform, drawn in float64 in layer order, then cast to ``dtype``.
    """
    if np.dtype(dtype) not in _BLOCK_DTYPES.values():
        raise ValueError(f"model dtype must be float32 or float64, got {dtype}")
    vis_dim = 0 if kind == "gcc_only" else vis_dim
    weight_net_hidden = weight_net_hidden if kind == "avaw" else 0
    table = _layout(kind, gcc_dim, vis_dim, N_CLASSES, hidden, weight_net_hidden)
    rng = np.random.default_rng([seed, 0])

    def init(name, shape):
        if name == "weight":
            limit = np.sqrt(6.0 / sum(shape))
            return rng.uniform(-limit, limit, size=shape).astype(dtype, copy=False)
        return (np.ones if name in ("gamma", "running_var") else np.zeros)(shape, dtype)

    arrays = [init(n, shape) for cls, shapes, _ in table for n, shape in zip(cls.PARAMS, shapes)]
    arrays += [init(n, shape) for cls, _, shapes in table for n, shape in zip(cls.STATS, shapes)]
    return DoaModel(kind, hidden, weight_net_hidden, gcc_dim, vis_dim, N_CLASSES, arrays)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_model(model, gcc, vis, targets, config):
    """MSE training loop with seeded shuffling and Adam updates.

    Fully deterministic for a fixed config seed: shuffling uses rng
    [seed, 1] so it is independent of the model-init stream.  Features and
    targets are cast to the model's dtype.  Raises NaNLoss the moment a
    step overflows or makes a NaN, or a loss or parameter stops being
    finite.  Returns the per-epoch mean batch loss.
    """
    n = len(gcc)
    if n < 2:
        raise EmptyDataset("training needs at least two samples")
    if len(targets) != n or (vis is not None and len(vis) != n):
        raise ShapeMismatch("feature and target row counts differ")
    gcc, targets = (np.asarray(a, dtype=model.dtype) for a in (gcc, targets))
    vis = None if vis is None else np.asarray(vis, dtype=model.dtype)
    params = model.parameters()
    adam = Adam(params, model.gradients(), config.learning_rate)
    rng = np.random.default_rng([config.seed, 1])
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            if idx.size < 2:
                continue  # a stray final sample cannot form batch statistics
            batch_vis = None if vis is None else vis[idx]
            try:
                with np.errstate(over="raise", invalid="raise"):
                    pred = model.forward(gcc[idx], batch_vis, train=True)
                    loss, dy = mse_loss(pred, targets[idx])
                    if not np.isfinite(loss):
                        raise NaNLoss(f"non-finite loss at epoch {epoch}, step {len(losses)}")
                    model.backward(dy)
                    adam.step()
            except FloatingPointError as exc:     # an overflow or NaN of this step
                raise NaNLoss(f"{exc} at epoch {epoch}, step {len(losses)}") from exc
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
_VERSION = 2
_BLOCK_DTYPES = {4: np.float32, 8: np.float64}     # dtype code (its itemsize) -> dtype
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

    Layout: magic "DOAM", version u16, dtype code u8 (4 = f4, 8 = f8),
    arch tag u8, dims header, shape tables, then little-endian blocks of
    the model's dtype (trainable parameters in declaration order, then
    running stats).  Byte-stable: save, load and save again produces an
    identical file.
    """
    params = model.parameters()
    stats = model.bn_stats()
    code = model.dtype.itemsize
    header = [
        _MAGIC,
        struct.pack("<HB", _VERSION, code),
        struct.pack("<B", _ARCH_TAGS[model.kind]),
        struct.pack("<III", model.gcc_dim, model.vis_dim, model.out_dim),
        struct.pack("<H", len(model.hidden)),
        struct.pack(f"<{len(model.hidden)}I", *model.hidden),
        struct.pack("<I", model.weight_net_hidden),
        struct.pack("<dd", BatchNorm.momentum, BatchNorm.eps),
        _pack_block_table(params),
        _pack_block_table(stats),
    ]
    write_bytes(path, [*header, *(np.ascontiguousarray(a, dtype=f"<f{code}")
                                  for a in [*params, *stats])])


def _read_block_table(reader):
    shapes = []
    for _ in range(reader.take("<H")):
        ndim = reader.take("<B")
        shapes.append(tuple(np.atleast_1d(reader.take(f"<{ndim}I"))))
    return shapes


def load_checkpoint(path):
    """Rebuild a model from a checkpoint file's self-describing header.

    The shapes are checked against the header and the file's size before
    anything is allocated.  The model takes the file's dtype.
    """
    reader = Reader(path)
    reader.header(_MAGIC, _VERSION, "checkpoint file")
    code = reader.take("<B")
    if code not in _BLOCK_DTYPES:
        raise VersionMismatch(f"{path}: unknown parameter dtype code {code}")
    arch = reader.take("<B")
    if arch not in _TAG_ARCHS:
        raise VersionMismatch(f"{path}: unknown architecture tag {arch}")
    kind = _TAG_ARCHS[arch]
    gcc_dim, vis_dim, out_dim = reader.take("<III")
    n_hidden = reader.take("<H")
    hidden = tuple(np.atleast_1d(reader.take(f"<{n_hidden}I")))
    weight_net_hidden = reader.take("<I")
    if reader.take("<dd") != (BatchNorm.momentum, BatchNorm.eps):
        raise VersionMismatch(f"{path}: batch-norm momentum/eps differ from the constants")
    shapes = [_read_block_table(reader), _read_block_table(reader)]
    table = _layout(kind, gcc_dim, vis_dim, out_dim, hidden, weight_net_hidden)
    if shapes != [[shape for layer in table for shape in layer[k]] for k in (1, 2)]:
        raise ShapeMismatch(f"{path}: parameter shapes do not match the model")
    blocks = [reader.array(f"<f{code}", shape) for shape in shapes[0] + shapes[1]]   # views
    if not reader.at_end():
        raise ShapeMismatch(f"{path}: trailing bytes after parameter blocks")
    arrays = [np.array(block, dtype=_BLOCK_DTYPES[code]) for block in blocks]   # owned copies
    return DoaModel(kind, hidden, weight_net_hidden, gcc_dim, vis_dim, out_dim, arrays)
