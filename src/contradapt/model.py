"""A small ReLU MLP with explicit forward/backward passes.

The network is one ordered list of affine layers: ReLU hidden layers, then a
linear bottleneck, then linear logits.  Init, forward, backward, the SGD
update and checkpoints all walk that one list, and a forward pass caches one
output per layer and nothing else.  ``cross_entropy(logits, labels)`` forms
the loss and its gradient at the logits from one softmax.  ``backward`` takes
loss gradients keyed by layer index, so a loss on any layer's output
(cross-entropy at the logits, a discrepancy at a tapped layer) enters there.
``sgd_step`` reads the learning rate, momentum and logits multiplier from the
run's ``trainer.TrainConfig``.  Everything is plain float64 numpy; no autodiff
framework is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import int_labels

_LOG_EPS = 1e-12
CHECKPOINT_HEADER = "contradapt-checkpoint v1"
EMBED_BLOCK_ROWS = 2048


class ModelParams:
    """The network's affine layers in order; also the container for gradients/velocity.

    ``weights[i]`` (fan-in x fan-out) and ``biases[i]`` are layer ``i``: the
    ReLU hidden layers, then the linear bottleneck (``weights[-2]``), then the
    linear logits (``weights[-1]``).  Every array is a view into one
    contiguous float64 vector ``flat``, laid out layer by layer as weight then
    bias, so accumulation and updates run on that vector.
    """

    def __init__(self, weights, biases) -> None:
        if len(weights) < 2 or len(weights) != len(biases):
            raise ValueError("need one bias per weight and at least two layers")
        order = [np.asarray(a, dtype=float) for pair in zip(weights, biases) for a in pair]
        self._bind(np.concatenate([a.ravel() for a in order]), [a.shape for a in order])

    @classmethod
    def on_buffer(cls, flat: np.ndarray, template: "ModelParams") -> "ModelParams":
        """A container shaped like ``template`` whose arrays are views of ``flat``."""
        if flat.shape != template.flat.shape:
            raise ValueError("vector length does not match parameter count")
        out = cls.__new__(cls)
        out._bind(flat, template._shapes)
        return out

    def _bind(self, flat: np.ndarray, shapes) -> None:
        self.flat, self._shapes = flat, shapes
        views, offset = [], 0
        for shape in shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams.on_buffer(self.flat.copy(), self)


@dataclass
class FeatureStack:
    """Cached activations of one forward pass.

    ``outputs[i]`` is layer ``i``'s output, after the ReLU for hidden layers,
    so ``outputs[-2]`` is the bottleneck and ``outputs[-1]`` the logits.
    """

    inputs: np.ndarray
    outputs: list[np.ndarray]


def init_params(
    rng: np.random.Generator,
    in_dim: int,
    hidden_sizes,
    bottleneck_dim: int,
    n_classes: int,
) -> ModelParams:
    """The layer list ``in_dim -> *hidden_sizes -> bottleneck_dim -> n_classes``, drawn
    input layer first: weights ~ U(+-1/sqrt(fan_in)) (symmetric fan-in init), zero biases."""
    if in_dim < 1 or bottleneck_dim < 1 or n_classes < 2:
        raise ValueError("need in_dim >= 1, bottleneck_dim >= 1, n_classes >= 2")
    sizes = [int(h) for h in hidden_sizes]
    if any(h < 1 for h in sizes):
        raise ValueError("hidden sizes must be >= 1")

    dims = [in_dim, *sizes, bottleneck_dim, n_classes]
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    return ModelParams(weights, [np.zeros(w.shape[1]) for w in weights])


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams.on_buffer(np.zeros_like(params.flat), params)


def _check_inputs(params: ModelParams, inputs) -> np.ndarray:
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2:
        raise ValueError("inputs must be a 2-d array (n, d)")
    if x.shape[1] != params.in_dim:
        raise ValueError(f"input width {x.shape[1]} != model width {params.in_dim}")
    return x


def _trunk(params: ModelParams, x: np.ndarray, outputs: list | None = None,
           out: np.ndarray | None = None) -> np.ndarray:
    """Bottleneck features of ``x``, written into ``out`` when given.

    Bias-add and ReLU run in place on each layer's fresh product, never on
    ``x``; each layer's output is appended to ``outputs`` when it is a list.
    """
    h, top = x, len(params.weights) - 2
    for i in range(top + 1):
        h = np.matmul(h, params.weights[i], out=out if i == top else None)
        h += params.biases[i]
        if i < top:
            np.maximum(h, 0.0, out=h)
        if outputs is not None:
            outputs.append(h)
    return h


def forward(params: ModelParams, inputs) -> FeatureStack:
    """Run the network, caching every activation needed for backward."""
    x = _check_inputs(params, inputs)
    outputs: list[np.ndarray] = []
    logits = _trunk(params, x, outputs) @ params.weights[-1]
    logits += params.biases[-1]
    outputs.append(logits)
    return FeatureStack(inputs=x, outputs=outputs)


def embed(params: ModelParams, inputs) -> np.ndarray:
    """Bottleneck features of ``inputs``, with no activations cached.

    Rows run in near-equal blocks of at most ``EMBED_BLOCK_ROWS``, so each
    layer's temporaries stay small.  Row ``i`` equals
    ``forward(params, inputs).outputs[-2][i]`` while BLAS computes a row the
    same way whatever the row count; no block is a single row, because NumPy
    sends one-row products to gemv, which rounds differently from gemm.
    """
    x = _check_inputs(params, inputs)
    n = x.shape[0]
    out = np.empty((n, params.weights[-2].shape[1]))
    n_blocks = max(-(-n // EMBED_BLOCK_ROWS), 1)
    edges = [n * i // n_blocks for i in range(n_blocks + 1)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        _trunk(params, x[lo:hi], out=out[lo:hi])
    return out


def cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of ``labels`` under the softmax of
    ``logits``, and its gradient w.r.t. the logits, ``(softmax - onehot) / n``.

    One softmax serves both; log arguments are clamped at 1e-12.
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ValueError("logits must be a nonempty (n, M) array")
    y = int_labels(labels)
    if y.shape != (z.shape[0],):
        raise ValueError("one label per row required")
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise ValueError("labels outside [0, n_classes)")
    p = z - z.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    loss = float(-np.mean(np.log(np.maximum(p[rows, y], _LOG_EPS))))
    p[rows, y] -= 1.0
    p /= z.shape[0]
    return loss, p


def _layer_names(n_layers: int) -> list[str]:
    return [f"hidden.{i}" for i in range(n_layers - 2)] + ["bottleneck", "logits"]


def backward(
    params: ModelParams,
    stack: FeatureStack,
    output_grads: dict[int, np.ndarray],
    out: ModelParams | None = None,
) -> ModelParams:
    """Reverse-mode gradients for one cached forward pass.

    ``output_grads`` maps a layer index (negative counts from the logits, as
    in ``stack.outputs``) to the loss gradient at that layer's output.  The
    parameter gradients are added into ``out`` (a fresh zero container when
    omitted), which is returned.
    """
    n = len(stack.outputs)
    at = {range(n)[key]: np.asarray(g, dtype=float) for key, g in output_grads.items()}
    if len(at) < len(output_grads):
        raise ValueError("two gradients for one layer")
    for i, g in at.items():
        if g.shape != stack.outputs[i].shape:
            raise ValueError(f"{_layer_names(n)[i]} gradient shape {g.shape} "
                             f"!= output shape {stack.outputs[i].shape}")
    grads = zeros_like_params(params) if out is None else out
    d = np.zeros_like(stack.outputs[-1])  # so a -0.0 gradient still enters as +0.0
    for i in range(n - 1, -1, -1):  # d: the loss gradient at layer i's output
        if i in at:
            d += at[i]
        if i < n - 2:
            d *= stack.outputs[i] > 0.0  # back through the hidden layer's ReLU
        grads.weights[i] += (stack.outputs[i - 1] if i else stack.inputs).T @ d
        grads.biases[i] += d.sum(axis=0)
        if i == 0:
            break  # the input gradient is never needed
        d = d @ params.weights[i].T
    return grads


def sgd_step(
    params: ModelParams,
    grads: ModelParams,
    velocity: ModelParams,
    config,
    step: int,
) -> None:
    """One momentum-SGD update in place: v <- mu v + g;  theta <- theta - eta_p v.

    ``config`` is the run's ``trainer.TrainConfig``: the rate is
    ``config.eta_at(step)``, scaled by ``config.logits_lr_mult`` for the logits
    layer, and ``mu`` is ``config.momentum``.  Raises on non-finite gradients
    or parameters ("divergence").
    """
    eta = config.eta_at(step)
    if not np.isfinite(grads.flat).all():
        raise ValueError(f"divergence: non-finite gradient at step {step}")
    velocity.flat *= config.momentum
    velocity.flat += grads.flat
    split = params.flat.size - params.weights[-1].size - params.biases[-1].size
    params.flat[:split] -= eta * velocity.flat[:split]
    params.flat[split:] -= (eta * config.logits_lr_mult) * velocity.flat[split:]
    if not np.isfinite(params.flat).all():
        raise ValueError(f"divergence: non-finite parameters at step {step}")


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a flat text checkpoint: name + shape header, then row-major values.

    Each layer is a ``<name>.weight`` block and a one-row ``<name>.bias``
    block.  Floats are rendered with 17 significant digits so reloads are exact.
    """
    lines = [CHECKPOINT_HEADER]
    for name, w, b in zip(_layer_names(len(params.weights)), params.weights, params.biases):
        for kind, mat in (("weight", w), ("bias", b.reshape(1, -1))):
            lines.append(f"{name}.{kind} {mat.shape[0]} {mat.shape[1]}")
            lines.extend(" ".join(f"{v:.17g}" for v in row) for row in mat)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> ModelParams:
    """Inverse of save_checkpoint; validates the layer inventory and shapes."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"{path}: not a recognized checkpoint file")
    entries: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        parts = lines[i].split()
        if len(parts) != 3 or not (parts[1].isdecimal() and parts[2].isdecimal()):
            raise ValueError(f"{path}: malformed header at line {i + 1}")
        name, rows, cols = parts[0], int(parts[1]), int(parts[2])
        block = lines[i + 1 : i + 1 + rows]
        if len(block) != rows:
            raise ValueError(f"{path}: truncated block for {name}")
        values = []
        for n, row in enumerate(block, start=i + 2):
            try:
                values.append([float(v) for v in row.split()])
            except ValueError:
                raise ValueError(f"{path}: bad value in {name} at line {n}") from None
        if not values or any(len(v) != cols for v in values):
            raise ValueError(f"{path}: shape mismatch for {name}")
        mat = np.array(values)
        if name in entries:
            raise ValueError(f"{path}: duplicate array {name}")
        if not np.isfinite(mat).all():
            raise ValueError(f"{path}: non-finite value in {name}")
        entries[name] = mat
        i += 1 + rows

    n_hidden = 0
    while f"hidden.{n_hidden}.weight" in entries:
        n_hidden += 1
    weights, biases = [], []
    for layer in _layer_names(n_hidden + 2):
        w_name, b_name = f"{layer}.weight", f"{layer}.bias"
        for name in (w_name, b_name):
            if name not in entries:
                raise ValueError(f"{path}: missing array {name}")
        w, b = entries.pop(w_name), entries.pop(b_name)
        if weights and w.shape[0] != weights[-1].shape[1]:
            raise ValueError(f"{path}: shape mismatch for {w_name}")
        if b.shape != (1, w.shape[1]):
            raise ValueError(f"{path}: shape mismatch for {b_name}")
        weights.append(w)
        biases.append(b[0])
    if entries:
        raise ValueError(f"{path}: unexpected arrays {sorted(entries)}")
    return ModelParams(weights, biases)
