"""Dense residual denoiser: forward pass, loss, and exact gradients.

The network maps a real-stacked snapshot of width 2M back to its clean
version.  Stack of L dense layers:

    layer 1        FC (+ optional bias) followed by the activation;
    layers 2..L-1  residual pairs: the inner layer runs FC -> BN -> act,
                   the outer runs FC -> BN, adds the pair's input back,
                   then activates;
    layer L        plain linear, no activation, no batch norm.

Ablation switches turn off the skip connection (pairs become plain
FC -> BN -> act layers), turn off batch norm, swap the activation, or
drop the first-layer bias.  Everything is plain numpy; training runs in
float32 while the gradient-check tests instantiate float64 models.

Batch norm in train mode normalizes with biased batch statistics and
updates running statistics by exponential moving average
(new = 0.9*old + 0.1*batch); inference uses the running statistics only,
normalizing the FC output in place, and never mutates the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of the current batch in the running average

_FP16_MAX = float(np.finfo(np.float16).max)

# name -> (the activation of z, computed in place where numpy allows; dout
# times the derivative read off the output, scaling dout in place: relu(z) > 0
# exactly where z > 0).  A name's position here is its code in .qdnn
# checkpoints: reordering or inserting entries would misread every saved file.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(0.0, z, out=z), lambda dout, out: np.multiply(dout, out > 0, out=dout)),
    "tanh": (lambda z: np.tanh(z, out=z), lambda dout, out: np.multiply(dout, 1.0 - out * out, out=dout)),
    "sigmoid": (lambda z: 1.0 / (1.0 + np.exp(-z)),
                lambda dout, out: np.multiply(np.multiply(dout, out, out=dout), 1.0 - out, out=dout)),
}


@dataclass(slots=True)
class BatchNorm:
    """Per-feature scale/shift plus running statistics for inference."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass(slots=True)
class Dense:
    """One fully connected layer, out = x @ w + b, and the batch norm that follows it, if any."""

    w: np.ndarray  # (in_dim, out_dim)
    b: np.ndarray  # (out_dim,)
    bn: BatchNorm | None = None

    @property
    def in_dim(self) -> int:
        return int(self.w.shape[0])

    @property
    def out_dim(self) -> int:
        return int(self.w.shape[1])


@dataclass
class DenoiserModel:
    dense: list[Dense]
    activation: str = "relu"
    input_bias: bool = True
    use_residual: bool = True
    precision: str = "fp32"
    params: np.ndarray = field(init=False, repr=False, compare=False)
    stats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.dense) < 2:
            raise ValueError("model needs at least an input and an output layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.dense[0].bn is not None or self.dense[-1].bn is not None:
            raise ValueError("batch norm is allowed on hidden layers only")
        for i, layer in enumerate(self.dense):
            if layer.in_dim < 1 or layer.out_dim < 1:
                raise ValueError(f"layer {i} maps width {layer.in_dim} to {layer.out_dim}; widths must be positive")
        for i in range(1, self.depth):
            fed, takes = self.dense[i - 1].out_dim, self.dense[i].in_dim
            if fed != takes:
                raise ValueError(f"layer {i} takes width {takes}, but layer {i - 1} outputs {fed}")
        if self.use_residual and (self.depth - 2) % 2 != 0:
            raise ValueError("residual grouping requires an even hidden-layer count")
        for i in filter(self.closes_pair, range(self.depth)):
            skip, out = self.dense[i - 1].in_dim, self.dense[i].out_dim
            if skip != out:
                raise ValueError(f"skip connection into layer {i} needs width {out}, got {skip}")
        self._pack()

    def _pack(self) -> None:
        """Copy the arrays into fresh ``params``/``stats`` buffers and rebind the layers to views."""
        running = [a for layer in self.dense if layer.bn is not None
                   for a in (layer.bn.running_mean, layer.bn.running_var)]
        self.params = np.concatenate([a.ravel() for a in self.trainable_arrays()])
        self.stats = np.concatenate([np.empty(0, self.params.dtype)] + [a.ravel() for a in running])
        p, s = iter(self.views(self.params)), iter(_split(self.stats, running))
        self.dense = [
            Dense(next(p), next(p), None if layer.bn is None else BatchNorm(next(p), next(p), next(s), next(s)))
            for layer in self.dense
        ]

    @property
    def depth(self) -> int:
        return len(self.dense)

    @property
    def width_in(self) -> int:
        return self.dense[0].in_dim

    def closes_pair(self, i: int) -> bool:
        """Layer i is the outer layer of a residual pair and adds the skip."""
        return self.use_residual and 0 < i < self.depth - 1 and i % 2 == 0

    def trainable_arrays(self) -> list[np.ndarray]:
        """The views into ``params``; :func:`backward` returns gradients in this order."""
        arrays: list[np.ndarray] = []
        for layer in self.dense:
            arrays.extend([layer.w, layer.b])
            if layer.bn is not None:
                arrays.extend([layer.bn.gamma, layer.bn.beta])
        return arrays

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a vector laid out like ``params``, one per trainable array."""
        return _split(flat, self.trainable_arrays())

    def parameter_count(self) -> int:
        return int(self.params.size + self.stats.size)

    def copy(self) -> "DenoiserModel":
        return replace(self)  # packing copies into fresh buffers


def _split(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    views, pos = [], 0
    for a in like:
        views.append(flat[pos : pos + a.size].reshape(a.shape))
        pos += a.size
    return views


def batch_norm_train(t: np.ndarray, bn: BatchNorm) -> tuple[np.ndarray, tuple]:
    """Normalize by batch statistics and refresh the running ones.

    Variance is the biased (divide by batch size) estimate.  Requires a
    batch of at least two rows, otherwise the statistics are degenerate.
    """
    if t.ndim != 2 or t.shape[0] < 2:
        raise ValueError("batch norm training needs a 2-D batch with >= 2 rows")
    mean = t.mean(axis=0)
    xhat = t - mean
    out = xhat * xhat
    var = out.sum(axis=0) / t.shape[0]  # biased; equals t.var(axis=0) bit for bit
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    np.multiply(bn.gamma, xhat, out=out)
    out += bn.beta
    bn.running_mean[...] = (1.0 - BN_MOMENTUM) * bn.running_mean + BN_MOMENTUM * mean
    bn.running_var[...] = (1.0 - BN_MOMENTUM) * bn.running_var + BN_MOMENTUM * var
    return out, (xhat, inv_std, bn.gamma)


def batch_norm_infer(t: np.ndarray, bn: BatchNorm) -> np.ndarray:
    """``t`` normalized in place by the running statistics, rounded as ``gamma * (t - mean) * inv_std + beta``."""
    inv_std = 1.0 / np.sqrt(bn.running_var + BN_EPS)
    t -= bn.running_mean
    t *= bn.gamma
    t *= inv_std
    t += bn.beta
    return t


def batch_norm_backward(dout: np.ndarray, cache: tuple, dgamma: np.ndarray, dbeta: np.ndarray) -> np.ndarray:
    """Input gradient through batch statistics; writes the parameter gradients into ``dgamma``, ``dbeta``."""
    xhat, inv_std, gamma = cache
    n = dout.shape[0]
    dout.sum(axis=0, out=dbeta)
    dxhat = dout * xhat
    dxhat.sum(axis=0, out=dgamma)
    np.multiply(dout, gamma, out=dxhat)
    # (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)), in two buffers
    dx = n * dxhat
    dx -= dxhat.sum(axis=0)
    dxhat *= xhat
    dx -= np.multiply(xhat, dxhat.sum(axis=0), out=dxhat)
    dx *= inv_std / n
    return dx


@dataclass
class LayerCache:
    """What one layer of a forward pass keeps for backprop."""

    x: np.ndarray  # layer input
    bn: tuple | None  # batch-norm cache, when the layer has one
    out: np.ndarray  # layer output


def forward(model: DenoiserModel, x: np.ndarray, mode: str = "infer") -> tuple[np.ndarray, list[LayerCache]]:
    """Run the network on a (batch, 2M) tensor; returns the output and the per-layer cache.

    ``mode`` is "train" (batch statistics for BN, running stats updated,
    one cache record per layer for backprop) or "infer" (running
    statistics, nothing mutated, an empty cache).  Each layer runs FC ->
    optional BN -> skip add (when it closes a residual pair) ->
    activation (not the last).
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != model.width_in:
        raise ValueError(f"input width {x.shape[1]} != model width {model.width_in}")
    train = mode == "train"
    last = model.depth - 1
    activate = ACTIVATIONS[model.activation][0]
    cache: list[LayerCache] = []
    h = skip = x
    for i, layer in enumerate(model.dense):
        if model.closes_pair(i + 1):
            skip = h
        z = h @ layer.w
        if i > 0 or model.input_bias:
            z += layer.b
        bn_cache = None
        if layer.bn is not None:
            if train:
                z, bn_cache = batch_norm_train(z, layer.bn)
            else:
                z = batch_norm_infer(z, layer.bn)
        if model.closes_pair(i):
            z += skip
        out = z if i == last else activate(z)
        if train:
            cache.append(LayerCache(h, bn_cache, out))
        h = out
    return h, cache


def loss(output: np.ndarray, target: np.ndarray) -> float:
    """Per-sample squared error over 2M features, averaged over the batch."""
    return float(per_sample_loss(output, target).mean())


def per_sample_loss(output: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The same error, one value per batch row.

    Accumulates in float64 regardless of the working precision so the
    reported numbers are reproducible by an independent pass.
    """
    output = np.atleast_2d(np.asarray(output))
    target = np.atleast_2d(np.asarray(target))
    if output.shape != target.shape:
        raise ValueError(f"shape mismatch: output {output.shape} vs target {target.shape}")
    diff = output.astype(np.float64, copy=False) - target.astype(np.float64, copy=False)
    return np.sum(diff * diff, axis=1) / diff.shape[1]


def backward(model: DenoiserModel, cache: list[LayerCache], target: np.ndarray, out: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of the loss, in :meth:`DenoiserModel.trainable_arrays` order.

    Needs the cache of a train-mode forward on the same batch, and consumes
    it: each layer's record is popped as its gradients are formed, so its
    activations die then and ``cache`` is empty on return.  Gradients flow
    through the batch-norm statistics and through the skip fan-out.  They
    are written into ``out``, a vector laid out like ``model.params``, and
    returned as views of it.
    """
    if not cache:
        raise ValueError("backward requires the cache of a train-mode forward")
    output = cache[-1].out
    target = np.atleast_2d(np.asarray(target))
    if target.shape != output.shape:
        raise ValueError("target shape does not match the cached forward output")
    grads = model.views(out)
    slots = reversed(grads)  # per layer, last first: [beta, gamma,] b, w
    batch, width = output.shape
    last = model.depth - 1
    derivative = ACTIVATIONS[model.activation][1]
    # d loss / d output for the batch-averaged, width-normalized loss
    grad = (2.0 / (batch * width)) * (output - target)
    d_skip: np.ndarray | None = None  # set by the outer layer of each pair
    for i in reversed(range(model.depth)):
        c, layer = cache.pop(), model.dense[i]
        dz = grad if i == last else derivative(grad, c.out)
        if model.closes_pair(i):
            d_skip = dz
        if c.bn is not None:
            dbeta, dgamma = next(slots), next(slots)
            dz = batch_norm_backward(dz, c.bn, dgamma, dbeta)
        db, dw = next(slots), next(slots)
        np.matmul(c.x.T, dz, out=dw)
        db[...] = 0.0 if i == 0 and not model.input_bias else dz.sum(axis=0)
        if i > 0:  # layer 0's input gradient has no use
            grad = dz @ layer.w.T
            if model.closes_pair(i + 1):
                grad += d_skip
    return grads


def init_model(
    widths: list[int],
    rng: np.random.Generator,
    use_bn: bool = True,
    use_residual: bool = True,
    activation: str = "relu",
    input_bias: bool = True,
    dtype=np.float32,
) -> DenoiserModel:
    """Glorot-uniform weights, zero biases, identity batch-norm params.

    ``widths`` is the full dimension chain [in, N_1, ..., N_{L-1}, out]
    of the L dense layers.  Residual grouping requires equal widths at
    each pair's boundary.
    """
    widths = [int(w) for w in widths]
    depth = len(widths) - 1
    identity_bn = (np.ones, np.zeros, np.zeros, np.ones)  # gamma, beta, running mean, running variance
    # Built in the call, so the model's packed copy is the only one left when the weights are drawn.
    model = DenoiserModel(
        dense=[Dense(np.zeros((n_in, n_out), dtype=dtype), np.zeros(n_out, dtype=dtype),
                     BatchNorm(*(f(n_out, dtype) for f in identity_bn)) if use_bn and 0 < i < depth - 1 else None)
               for i, (n_in, n_out) in enumerate(zip(widths, widths[1:]))],
        activation=activation,
        input_bias=input_bias,
        use_residual=use_residual,
    )
    for layer in model.dense:  # drawn once the model has accepted the widths
        scale = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
        layer.w[...] = rng.uniform(-scale, scale, size=layer.w.shape)
    return model


def to_half_precision(model: DenoiserModel) -> DenoiserModel:
    """Round every stored array to the nearest binary16 value.

    The returned model keeps float32 working arrays (inference upcasts),
    but each value is exactly representable in 16 bits, so checkpoints
    written from it carry a half-size parameter payload.  Values beyond
    the fp16 range are saturated to the largest finite fp16 and reported.
    """
    if model.precision != "fp32":
        raise ValueError("model is already stored at half precision")
    clipped = model.copy()
    overflow = 0
    for arr in (clipped.params, clipped.stats):
        over = np.abs(arr) > _FP16_MAX
        overflow += int(np.count_nonzero(over))
        np.clip(arr, -_FP16_MAX, _FP16_MAX, out=arr)
        arr[...] = arr.astype(np.float16).astype(np.float32)
    if overflow:
        warnings.warn(
            f"{overflow} parameters exceeded the fp16 range and were saturated",
            RuntimeWarning,
            stacklevel=2,
        )
    clipped.precision = "fp16"
    return clipped
