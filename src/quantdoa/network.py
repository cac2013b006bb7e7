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
(new = 0.9*old + 0.1*batch); inference uses the running statistics only
and never mutates the model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

ACTIVATIONS = ("relu", "tanh", "sigmoid")

BN_EPS = 1e-5
BN_MOMENTUM = 0.1  # weight of the current batch in the running average

_FP16_MAX = float(np.finfo(np.float16).max)


def relu(t: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(0.0, t)


def _activation_forward(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "relu":
        return relu(pre)
    if name == "tanh":
        return np.tanh(pre)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    raise ValueError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


def _activation_backward(name: str, dout: np.ndarray, pre: np.ndarray, out: np.ndarray) -> np.ndarray:
    if name == "relu":
        return dout * (pre > 0)
    if name == "tanh":
        return dout * (1.0 - out * out)
    if name == "sigmoid":
        return dout * out * (1.0 - out)
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class Dense:
    """One fully connected layer: out = x @ w + b."""

    w: np.ndarray  # (in_dim, out_dim)
    b: np.ndarray  # (out_dim,)

    @property
    def in_dim(self) -> int:
        return int(self.w.shape[0])

    @property
    def out_dim(self) -> int:
        return int(self.w.shape[1])


@dataclass
class BatchNorm:
    """Per-feature scale/shift plus running statistics for inference."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class DenoiserModel:
    dense: list[Dense]
    norms: list[BatchNorm | None]
    activation: str = "relu"
    input_bias: bool = True
    use_residual: bool = True
    precision: str = "fp32"

    def __post_init__(self) -> None:
        if len(self.dense) != len(self.norms):
            raise ValueError("dense and norms lists must be parallel")
        if len(self.dense) < 2:
            raise ValueError("model needs at least an input and an output layer")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.norms[0] is not None or self.norms[-1] is not None:
            raise ValueError("batch norm is allowed on hidden layers only")
        if self.use_residual:
            if (self.depth - 2) % 2 != 0:
                raise ValueError("residual grouping requires an even hidden-layer count")
            for i in range(2, self.depth - 1, 2):
                skip, out = self.dense[i - 1].in_dim, self.dense[i].out_dim
                if skip != out:
                    raise ValueError(
                        f"skip connection into layer {i} needs width {out}, got {skip}"
                    )

    @property
    def depth(self) -> int:
        return len(self.dense)

    @property
    def width_in(self) -> int:
        return self.dense[0].in_dim

    @property
    def use_bn(self) -> bool:
        return any(bn is not None for bn in self.norms)

    def closes_pair(self, i: int) -> bool:
        """Layer i is the outer layer of a residual pair and adds the skip."""
        return self.use_residual and 0 < i < self.depth - 1 and i % 2 == 0

    def trainable_arrays(self) -> list[np.ndarray]:
        """Flat parameter list; :func:`backward` returns gradients in this order."""
        arrays: list[np.ndarray] = []
        for layer, bn in zip(self.dense, self.norms):
            arrays.extend([layer.w, layer.b])
            if bn is not None:
                arrays.extend([bn.gamma, bn.beta])
        return arrays

    def all_arrays(self) -> list[np.ndarray]:
        """Every stored array, running statistics included."""
        arrays: list[np.ndarray] = []
        for layer, bn in zip(self.dense, self.norms):
            arrays.extend([layer.w, layer.b])
            if bn is not None:
                arrays.extend([bn.gamma, bn.beta, bn.running_mean, bn.running_var])
        return arrays

    def parameter_count(self) -> int:
        return int(sum(a.size for a in self.all_arrays()))

    def copy(self) -> "DenoiserModel":
        dense = [Dense(l.w.copy(), l.b.copy()) for l in self.dense]
        norms = [
            None
            if bn is None
            else BatchNorm(
                bn.gamma.copy(), bn.beta.copy(), bn.running_mean.copy(), bn.running_var.copy()
            )
            for bn in self.norms
        ]
        return replace(self, dense=dense, norms=norms)


def batch_norm_train(t: np.ndarray, bn: BatchNorm) -> tuple[np.ndarray, tuple]:
    """Normalize by batch statistics and refresh the running ones.

    Variance is the biased (divide by batch size) estimate.  Requires a
    batch of at least two rows, otherwise the statistics are degenerate.
    """
    if t.ndim != 2 or t.shape[0] < 2:
        raise ValueError("batch norm training needs a 2-D batch with >= 2 rows")
    mean = t.mean(axis=0)
    var = t.var(axis=0)  # biased
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (t - mean) * inv_std
    out = bn.gamma * xhat + bn.beta
    bn.running_mean[...] = (1.0 - BN_MOMENTUM) * bn.running_mean + BN_MOMENTUM * mean
    bn.running_var[...] = (1.0 - BN_MOMENTUM) * bn.running_var + BN_MOMENTUM * var
    return out, (xhat, inv_std, bn.gamma)


def batch_norm_infer(t: np.ndarray, bn: BatchNorm) -> np.ndarray:
    """Deterministic normalization by the stored running statistics."""
    inv_std = 1.0 / np.sqrt(bn.running_var + BN_EPS)
    return bn.gamma * (t - bn.running_mean) * inv_std + bn.beta


def batch_norm_backward(dout: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient through batch statistics (mean and biased variance)."""
    xhat, inv_std, gamma = cache
    n = dout.shape[0]
    dbeta = dout.sum(axis=0)
    dgamma = (dout * xhat).sum(axis=0)
    dxhat = dout * gamma
    dx = (inv_std / n) * (
        n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
    )
    return dx, dgamma, dbeta


@dataclass
class LayerCache:
    """What one layer of a forward pass keeps for backprop."""

    x: np.ndarray  # layer input
    pre: np.ndarray  # activation input: after batch norm and the skip add
    bn: tuple | None  # batch-norm cache, when the layer has one
    out: np.ndarray  # layer output


@dataclass
class ForwardCache:
    """Intermediates a train-mode forward retains for exact gradients."""

    x: np.ndarray
    mode: str
    layers: list[LayerCache] = field(default_factory=list)
    output: np.ndarray | None = None


def forward(
    model: DenoiserModel,
    x: np.ndarray,
    mode: str = "infer",
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a (batch, 2M) tensor.

    ``mode`` is "train" (batch statistics for BN, cache filled for
    backprop, running stats updated) or "infer" (running statistics, no
    state mutation).  Each layer runs FC -> optional BN -> skip add (when
    it closes a residual pair) -> activation (all but the last layer).
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != model.width_in:
        raise ValueError(f"input width {x.shape[1]} != model width {model.width_in}")
    train = mode == "train"
    last = model.depth - 1
    cache = ForwardCache(x=x, mode=mode)
    h = x
    for i, (layer, bn) in enumerate(zip(model.dense, model.norms)):
        z = h @ layer.w
        if i > 0 or model.input_bias:
            z = z + layer.b
        bn_cache = None
        if bn is not None:
            if train:
                z, bn_cache = batch_norm_train(z, bn)
            else:
                z = batch_norm_infer(z, bn)
        if model.closes_pair(i):
            z = cache.layers[i - 1].x + z
        out = z if i == last else _activation_forward(model.activation, z)
        cache.layers.append(LayerCache(h, z, bn_cache, out))
        h = out
    cache.output = h
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


def backward(model: DenoiserModel, cache: ForwardCache, target: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of the loss, in :meth:`DenoiserModel.trainable_arrays` order.

    Needs the cache of a train-mode forward on the same batch; gradients
    flow through the batch-norm statistics and through the skip fan-out.
    """
    if cache.mode != "train" or cache.output is None:
        raise ValueError("backward requires the cache of a train-mode forward")
    target = np.atleast_2d(np.asarray(target))
    if target.shape != cache.output.shape:
        raise ValueError("target shape does not match the cached forward output")
    batch, width = cache.output.shape
    last = model.depth - 1
    per_layer: list[list[np.ndarray]] = []
    # d loss / d output for the batch-averaged, width-normalized loss
    grad = (2.0 / (batch * width)) * (cache.output - target)
    d_skip: np.ndarray | None = None  # set by the outer layer of each pair
    for i in reversed(range(model.depth)):
        c, layer = cache.layers[i], model.dense[i]
        dz = grad if i == last else _activation_backward(model.activation, grad, c.pre, c.out)
        if model.closes_pair(i):
            d_skip = dz
        d_norm: list[np.ndarray] = []
        if c.bn is not None:
            dz, dgamma, dbeta = batch_norm_backward(dz, c.bn)
            d_norm = [dgamma, dbeta]
        db = dz.sum(axis=0) if i > 0 or model.input_bias else np.zeros_like(layer.b)
        per_layer.append([c.x.T @ dz, db] + d_norm)
        grad = dz @ layer.w.T
        if model.closes_pair(i + 1):
            grad = grad + d_skip
    return [g for grads in reversed(per_layer) for g in grads]


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
    if any(w < 1 for w in widths):
        raise ValueError("all widths must be positive")
    depth = len(widths) - 1
    dense: list[Dense] = []
    norms: list[BatchNorm | None] = []
    for i in range(depth):
        fan_in, fan_out = widths[i], widths[i + 1]
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-scale, scale, size=(fan_in, fan_out)).astype(dtype)
        dense.append(Dense(w=w, b=np.zeros(fan_out, dtype=dtype)))
        if use_bn and 0 < i < depth - 1:
            norms.append(
                BatchNorm(
                    gamma=np.ones(fan_out, dtype=dtype),
                    beta=np.zeros(fan_out, dtype=dtype),
                    running_mean=np.zeros(fan_out, dtype=dtype),
                    running_var=np.ones(fan_out, dtype=dtype),
                )
            )
        else:
            norms.append(None)
    return DenoiserModel(
        dense=dense,
        norms=norms,
        activation=activation,
        input_bias=input_bias,
        use_residual=use_residual,
    )


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
    for arr in clipped.all_arrays():
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
