"""Gaussian RBF mixture kernels, bandwidth selection, and input gradients.

All kernels here are mixtures of Gaussians evaluated on squared Euclidean
distances between feature rows:

    k(a, b) = sum_m  w_m * exp(-||a - b||^2 / (2 * s2_m))

where the ``s2_m`` are bandwidths in squared feature units and the weights
``w_m`` sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WEIGHT_TOL = 1e-12
_DEGENERATE_MEDIAN = 1e-12  # relative to the largest squared row norm
DEFAULT_BANDWIDTH_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class KernelSpec:
    """A fixed mixture of Gaussian RBF kernels.

    Attributes:
        bandwidths: per-component variances ``s2_m`` (squared feature units).
        weights: mixture weights; must be positive and sum to 1 within 1e-12.
    """

    bandwidths: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        bw = tuple(float(v) for v in self.bandwidths)
        w = tuple(float(v) for v in self.weights)
        if not bw or len(bw) != len(w):
            raise ValueError("bandwidths and weights must have equal, nonzero length")
        if any(v <= 0.0 or not np.isfinite(v) for v in bw):
            raise ValueError("bandwidths must be positive and finite")
        if any(v <= 0.0 or not np.isfinite(v) for v in w):
            raise ValueError("weights must be positive and finite")
        if abs(sum(w) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "bandwidths", bw)
        object.__setattr__(self, "weights", w)


def uniform_spec(bandwidths) -> KernelSpec:
    """Build a KernelSpec with equal weights over the given bandwidths."""
    bw = tuple(float(v) for v in bandwidths)
    if not bw:
        raise ValueError("bandwidths must be nonempty")
    return KernelSpec(bandwidths=bw, weights=tuple(1.0 / len(bw) for _ in bw))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of ``a`` and ``b``."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    d2 = aa + bb - 2.0 * (a @ b.T)
    # Guard the tiny negatives produced by cancellation.
    return np.maximum(d2, 0.0)


def _as_rows(x, width: int | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, width if width is not None else 0)
    if arr.ndim != 2:
        raise ValueError("features must be a 2-d array of shape (n, d)")
    return arr


def median_heuristic(features_a, features_b) -> float:
    """Median of pairwise squared distances over the pooled rows.

    Self-pairs are excluded.  A degenerate median (points coincide up to
    rounding: at most 1e-12 of the largest squared row norm) falls back to
    1.0 so downstream kernels and their gradients stay finite.

    Raises:
        ValueError: if the pooled input holds fewer than two rows.
    """
    a = _as_rows(features_a)
    b = _as_rows(features_b, width=a.shape[1] if a.size else None)
    if a.size == 0 and b.size:
        a = a.reshape(0, b.shape[1])
    pooled = np.vstack([a, b]) if (a.size or b.size) else a
    n = pooled.shape[0]
    if n < 2:
        raise ValueError("no samples for bandwidth")
    d2 = squared_distances(pooled, pooled)
    med = float(np.median(d2[np.triu_indices(n, k=1)]))
    scale = float(np.max(np.sum(pooled * pooled, axis=1)))
    return med if med > _DEGENERATE_MEDIAN * scale else 1.0


def median_kernel_spec(
    features_a,
    features_b,
    multipliers: tuple[float, ...] = DEFAULT_BANDWIDTH_MULTIPLIERS,
) -> KernelSpec:
    """Equal-weight mixture spec with bandwidths spread around the median heuristic."""
    med = median_heuristic(features_a, features_b)
    return uniform_spec(tuple(m * med for m in multipliers))


def _check_pair(features_a, features_b) -> tuple[np.ndarray, np.ndarray]:
    a = _as_rows(features_a)
    b = _as_rows(features_b, width=a.shape[1] if a.size else None)
    if a.size == 0 or b.size == 0:
        if a.shape[1:] != b.shape[1:]:
            b = b.reshape(0, a.shape[1]) if b.size == 0 else b
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"feature width mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return a, b


def kernel_value_and_grad(spec: KernelSpec, features_a, features_b, upstream=None):
    """Mixture kernel matrix and, given ``upstream``, the gradients of
    ``sum(upstream * K)`` w.r.t. both inputs, from one evaluation.

    All M components are stacked as ``E[m] = exp(-d2 / (2 s2_m))`` of shape
    ``(M, n_a, n_b)``.  With ``S = upstream * (w / s2) * E``, component m
    contributes ``S_m @ b - rowsum(S_m) * a`` to ``grad_a``.  Components are
    reduced along the leading axis in order, so results equal a loop over
    components bit for bit.  (Exception: NumPy sums pairwise when a result
    has a single element and there are 8 or more components.)

    Returns:
        ``(K, grads)``: the ``(n_a, n_b)`` kernel matrix, and ``(grad_a, grad_b)``
        shaped like the inputs, or None without ``upstream``.
    """
    a, b = _check_pair(features_a, features_b)
    w = np.asarray(spec.weights)[:, None, None]
    s2 = np.asarray(spec.bandwidths)[:, None, None]
    e = np.exp(squared_distances(a, b) / (-2.0 * s2))
    k = (w * e).sum(axis=0)
    if upstream is None:
        return k, None
    up = np.asarray(upstream, dtype=float)
    if up.shape != k.shape:
        raise ValueError(f"upstream shape {up.shape} does not match {k.shape}")
    s = up * ((w / s2) * e)
    grad_a = (s @ b - s.sum(axis=2)[..., None] * a).sum(axis=0)
    grad_b = (s.transpose(0, 2, 1) @ a - s.sum(axis=1)[..., None] * b).sum(axis=0)
    return k, (grad_a, grad_b)


def kernel_matrix(spec: KernelSpec, features_a, features_b) -> np.ndarray:
    """Evaluate the mixture kernel between all row pairs.

    Returns an ``(n_a, n_b)`` matrix; entries lie in ``(0, 1]``.
    """
    return kernel_value_and_grad(spec, features_a, features_b)[0]
