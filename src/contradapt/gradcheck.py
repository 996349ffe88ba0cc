"""Finite-difference verification of every analytic gradient path.

Each check compares an analytic gradient against central differences of the
matching scalar loss.  Errors are normalized by the largest gradient
magnitude in the instance, which keeps the measure meaningful when
individual entries are near zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrepancy import LabeledBatch, cdd
from .kernels import KernelSpec, kernel_value_and_grad
from .model import ModelParams, forward, init_params, zeros_like_params
from .trainer import add_cdd_grads, add_ce_grads, tapped_batch

DEFAULT_STEP = 1e-5


@dataclass(frozen=True)
class ComponentReport:
    name: str
    n_instances: int
    max_rel_error: float
    rtol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.rtol


def central_difference(fn, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central finite differences of scalar ``fn`` at ``x``, entry by entry."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    base = x.copy()
    for i in range(x.size):
        idx = np.unravel_index(i, x.shape)
        orig = base[idx]
        base[idx] = orig + step
        hi = fn(base)
        base[idx] = orig - step
        lo = fn(base)
        base[idx] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - f| scaled by the largest magnitude present in either gradient."""
    a = np.asarray(analytic, dtype=float)
    f = np.asarray(numeric, dtype=float)
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(f), initial=0.0)), 1e-12)
    return float(np.max(np.abs(a - f), initial=0.0) / scale)


def _random_spec(rng: np.random.Generator) -> KernelSpec:
    k = int(rng.integers(1, 4))
    return KernelSpec(np.exp(rng.uniform(-1.0, 1.5, size=k)))


def check_kernel_gradients(
    n_instances: int = 12, seed: int = 0, rtol: float = 1e-4, step: float = DEFAULT_STEP
) -> ComponentReport:
    """FD-check kernel_value_and_grad on random inputs and upstream weights."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        spec = _random_spec(rng)
        n_a, n_b, d = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 4)
        a = rng.normal(size=(n_a, d))
        b = rng.normal(size=(n_b, d))
        up = rng.normal(size=(n_a, n_b))
        grad_a, grad_b = kernel_value_and_grad(spec, a, b, up)[1]
        fd_a = central_difference(lambda m: kernel_value_and_grad(spec, m, b, up)[0], a, step)
        fd_b = central_difference(lambda m: kernel_value_and_grad(spec, a, m, up)[0], b, step)
        worst = max(
            worst,
            relative_gradient_error(grad_a, fd_a),
            relative_gradient_error(grad_b, fd_b),
        )
    return ComponentReport("kernel_value_and_grad", n_instances, worst, rtol)


def _random_batch(rng: np.random.Generator, n_layers: int):
    n_classes = int(rng.integers(1, 4))
    dims = [int(rng.integers(1, 4)) for _ in range(n_layers)]
    src_labels = np.concatenate(
        [np.full(rng.integers(1, 4), c) for c in range(n_classes)]
    )
    tgt_labels = np.concatenate(
        [np.full(rng.integers(1, 4), c) for c in range(n_classes)]
    )
    src = [rng.normal(size=(src_labels.size, d)) for d in dims]
    tgt = [rng.normal(size=(tgt_labels.size, d)) for d in dims]
    batch = LabeledBatch(
        source_features=src,
        target_features=tgt,
        source_labels=src_labels,
        target_labels=tgt_labels,
        class_set=tuple(range(n_classes)),
    )
    specs = [_random_spec(rng) for _ in range(n_layers)]
    return specs, batch


def check_cdd_gradients(
    n_instances: int = 12, seed: int = 1, rtol: float = 1e-4, step: float = DEFAULT_STEP
) -> ComponentReport:
    """FD-check cdd's gradients across every layer's source and target features."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_instances):
        specs, batch = _random_batch(rng, n_layers=1 + i % 2)
        intra_only = bool(rng.integers(0, 2)) and i % 3 == 0
        grads = cdd(specs, batch, intra_only=intra_only).grads
        for layer, pair in enumerate(grads):
            for side, grad in enumerate(pair):  # the source, then the target features
                def loss(m, layer=layer, side=side):
                    feats = [list(batch.source_features), list(batch.target_features)]
                    feats[side][layer] = m
                    b = LabeledBatch(*feats, batch.source_labels, batch.target_labels,
                                     batch.class_set)
                    return cdd(specs, b, intra_only=intra_only).total

                at = (batch.source_features, batch.target_features)[side][layer]
                fd = central_difference(loss, at, step)
                worst = max(worst, relative_gradient_error(grad, fd))
    return ComponentReport("cdd_grad", n_instances, worst, rtol)


def composite_loss_and_grads(params, specs, beta, ce_inputs, ce_labels,
                             src_inputs, src_labels, tgt_inputs, tgt_labels, class_set):
    """Classification CE plus beta * discrepancy through the network.

    Returns the scalar loss and the summed analytic parameter gradients,
    built by the same helpers the trainer applies at each step.
    """
    grads = zeros_like_params(params)
    stack_s = forward(params, src_inputs)
    stack_t = forward(params, tgt_inputs)
    batch = tapped_batch(stack_s, stack_t, src_labels, tgt_labels, class_set)
    ce = add_ce_grads(grads, params, ce_inputs, ce_labels)
    value = add_cdd_grads(grads, params, specs, stack_s, stack_t, batch, beta)
    return ce + beta * value, grads


def check_composite_gradients(
    n_instances: int = 8, seed: int = 2, rtol: float = 1e-4, step: float = DEFAULT_STEP
) -> ComponentReport:
    """FD-check the full composite loss over every parameter of a tiny net."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        d = int(rng.integers(2, 4))
        n_classes = int(rng.integers(2, 4))
        params = init_params(rng, d, hidden_sizes=(4,), bottleneck_dim=3, n_classes=n_classes)
        specs = [KernelSpec((0.5, 2.0)), KernelSpec((1.0,))]
        beta = float(rng.uniform(0.1, 0.6))
        ce_inputs = rng.normal(size=(3, d))
        ce_labels = rng.integers(0, n_classes, size=3)
        src_labels = np.repeat(np.arange(n_classes), 2)
        tgt_labels = np.repeat(np.arange(n_classes), 2)
        src_inputs = rng.normal(size=(src_labels.size, d))
        tgt_inputs = rng.normal(size=(tgt_labels.size, d))
        class_set = tuple(range(n_classes))
        loss_args = (ce_inputs, ce_labels, src_inputs, src_labels,
                     tgt_inputs, tgt_labels, class_set)
        _, grads = composite_loss_and_grads(params, specs, beta, *loss_args)

        def loss_at(vec):
            p = ModelParams.on_buffer(vec, params)
            return composite_loss_and_grads(p, specs, beta, *loss_args)[0]

        fd = central_difference(loss_at, params.flat, step)
        worst = max(worst, relative_gradient_error(grads.flat, fd))
    return ComponentReport("composite_loss_grad", n_instances, worst, rtol)


def run_all(seed: int = 0, rtol: float = 1e-4, step: float = DEFAULT_STEP,
            instances: tuple[int, int, int] = (12, 12, 8)) -> list[ComponentReport]:
    """Run all three components (>= 30 instances total by default)."""
    n_kernel, n_cdd, n_composite = instances
    return [
        check_kernel_gradients(n_kernel, seed=seed, rtol=rtol, step=step),
        check_cdd_gradients(n_cdd, seed=seed + 1, rtol=rtol, step=step),
        check_composite_gradients(n_composite, seed=seed + 2, rtol=rtol, step=step),
    ]
