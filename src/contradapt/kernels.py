"""Gaussian RBF mixture kernels, bandwidth selection, and input gradients.

All kernels here are equal-weight mixtures of M Gaussians evaluated on
squared Euclidean distances between feature rows:

    k(a, b) = sum_m  (1 / M) * exp(-||a - b||^2 / (2 * s2_m))

where the ``s2_m`` are bandwidths in squared feature units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DEGENERATE_MEDIAN = 1e-12  # relative to the largest squared row norm


@dataclass(frozen=True)
class KernelSpec:
    """An equal-weight mixture of Gaussian RBF kernels.

    Attributes:
        bandwidths: per-component variances ``s2_m`` (squared feature units).
    """

    bandwidths: tuple[float, ...]

    def __post_init__(self) -> None:
        bw = tuple(float(v) for v in self.bandwidths)
        if not bw:
            raise ValueError("bandwidths must be nonempty")
        if any(v <= 0.0 or not np.isfinite(v) for v in bw):
            raise ValueError("bandwidths must be positive and finite")
        object.__setattr__(self, "bandwidths", bw)

    @property
    def weights(self) -> tuple[float, ...]:
        """The mixture weights, ``1 / M`` each."""
        return tuple(1.0 / len(self.bandwidths) for _ in self.bandwidths)


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of ``a`` and ``b``.

    Computes ``(|a|^2 + |b|^2) - 2 a.b`` in place in the result buffer; a
    self block (``b is a``) computes its row norms once.
    """
    aa = np.sum(a * a, axis=1)
    bb = aa if b is a else np.sum(b * b, axis=1)
    d2 = np.add(aa[:, None], bb[None, :])
    ab = a @ b.T
    ab *= 2.0
    d2 -= ab
    # Guard the tiny negatives produced by cancellation.
    return np.maximum(d2, 0.0, out=d2)


def _as_rows(x, width: int = 0) -> np.ndarray:
    """``x`` as (n, d) rows; an empty ``x`` that is not 2-d (``[]``) gets ``width`` columns."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        if arr.size:
            raise ValueError("features must be a 2-d array of shape (n, d)")
        return arr.reshape(0, width)
    return arr


def median_heuristic(features_a, features_b) -> float:
    """Median of pairwise squared distances over the pooled rows.

    Self-pairs are excluded.  A degenerate median (points coincide up to
    rounding: at most 1e-12 of the largest squared row norm) falls back to
    1.0 so downstream kernels and their gradients stay finite.

    Raises:
        ValueError: if the pooled input holds fewer than two rows.
    """
    pooled = np.vstack(_check_pair(features_a, features_b))
    n = pooled.shape[0]
    if n < 2:
        raise ValueError("no samples for bandwidth")
    d2 = squared_distances(pooled, pooled)
    med = float(np.median(d2[np.triu_indices(n, k=1)]))
    scale = float(np.max(np.sum(pooled * pooled, axis=1)))
    return med if med > _DEGENERATE_MEDIAN * scale else 1.0


def median_kernel_spec(features_a, features_b, multipliers: tuple[float, ...]) -> KernelSpec:
    """Equal-weight mixture spec with bandwidths spread around the median heuristic."""
    med = median_heuristic(features_a, features_b)
    return KernelSpec(tuple(m * med for m in multipliers))


def _check_pair(features_a, features_b) -> tuple[np.ndarray, np.ndarray]:
    """Both inputs as rows of one width; a width-less ``[]`` takes the other's width."""
    b = _as_rows(features_b)
    a = _as_rows(features_a, width=b.shape[1])
    b = _as_rows(features_b, width=a.shape[1])
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature width mismatch: {a.shape[1]} vs {b.shape[1]}")
    return a, b


def kernel_value_and_grad(spec: KernelSpec, features_a, features_b, upstream):
    """``sum(upstream * K)`` for the mixture kernel matrix ``K`` and its
    gradients w.r.t. both inputs, from one evaluation.

    All M components are stacked as ``E[m] = exp(-d2 / (2 s2_m))`` of shape
    ``(M, n_a, n_b)``.  With ``S = upstream * (w / s2) * E`` and ``w = 1 / M``,
    component m contributes ``S_m @ b - rowsum(S_m) * a`` to ``grad_a``, and
    the value is ``sum_m s2_m * sum(rowsum(S_m))``, read off the same row
    sums.  Gradient components are reduced along the leading axis in order,
    so they equal a loop over components bit for bit.  (Exception: NumPy sums
    pairwise when a result has a single element and there are 8 or more
    components.)  ``S`` is formed in one buffer: the scaled distances, then
    ``exp``, ``* (w / s2)`` and ``* upstream`` in place, in that order.

    Returns:
        ``(value, (grad_a, grad_b))``: the float ``sum(upstream * K)`` and
        gradients shaped like the inputs.
    """
    a, b = _check_pair(features_a, features_b)
    up = np.asarray(upstream, dtype=float)
    if up.shape != (a.shape[0], b.shape[0]):
        raise ValueError(f"upstream shape {up.shape} does not match {(a.shape[0], b.shape[0])}")
    w = 1.0 / len(spec.bandwidths)  # every entry of spec.weights
    s2 = np.asarray(spec.bandwidths)[:, None, None]
    s = np.divide(squared_distances(a, b), -2.0 * s2)
    np.exp(s, out=s)
    s *= w / s2
    s *= up
    row_sums = s.sum(axis=2)
    value = float(s2[:, 0, 0] @ row_sums.sum(axis=1))
    grad_a = s @ b
    grad_a -= row_sums[..., None] * a
    grad_b = s.transpose(0, 2, 1) @ a
    grad_b -= s.sum(axis=1)[..., None] * b
    return value, (grad_a.sum(axis=0), grad_b.sum(axis=0))
