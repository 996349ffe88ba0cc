"""Kernel two-sample discrepancies: plain MMD and its class-conditional,
contrastive refinement.

The contrastive objective compares mask-weighted kernel means.  For an
ordered class pair ``(c1, c2)``,

    D(c1, c2) = e1 + e2 - 2 * e3

with ``e1`` the mean kernel value over source pairs labeled ``c1`` (self
pairs included), ``e2`` the same over target pairs labeled ``c2``, and
``e3`` the mean over cross-domain pairs ``(c1, c2)``.  Denominators are the
mask sums, i.e. class-count products.  Aggregating over the classes present
in a batch:

    total = mean_c D(c, c)  -  mean_{c != c'} D(c, c')

so same-class alignment is pulled down while cross-class separation is
pushed up.  Multi-layer inputs sum the per-layer totals.

Every term is a class-count-normalised mean of kernel values, so a layer's
total is linear in its three kernel blocks:

    total = <U_ss, K_ss> + <U_tt, K_tt> + <U_st, K_st>

where each upstream matrix ``U`` holds the weight every row pair carries in
the total.  The same ``U`` are the upstream gradients of the blocks, so
``cdd`` reads the value off the pass that forms the gradient.  Plain MMD is
the case of one class present on both sides.

With k classes all present on both sides and the cross-class term kept, a
within-domain mean has weight 1/k in the intra and in the inter average, so
``U_ss`` and ``U_tt`` cancel to zero and only ``K_st`` carries weight; ``cdd``
skips a block whose ``U`` is all zero, which adds exactly zero.  Intra-only,
one-class and one-sided-class batches keep all three blocks, and so do
layouts that leave ``U_ss`` and ``U_tt`` a rounding residue (k = 4, unlike
k = 2, 3 or 7).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import int_labels
from .kernels import KernelSpec, kernel_value_and_grad


@dataclass
class LabeledBatch:
    """Per-layer features plus labels for one source/target mini-batch.

    Attributes:
        source_features: one ``(n_s, d_l)`` array per tapped layer.
        target_features: one ``(n_t, d_l)`` array per tapped layer.
        source_labels: ``(n_s,)`` integer ground-truth labels.
        target_labels: ``(n_t,)`` integer pseudo-labels.
        class_set: sorted class ids the batch is evaluated over.
    """

    source_features: list[np.ndarray]
    target_features: list[np.ndarray]
    source_labels: np.ndarray
    target_labels: np.ndarray
    class_set: tuple[int, ...]

    def __post_init__(self) -> None:
        self.source_features = [np.asarray(f, dtype=float) for f in self.source_features]
        self.target_features = [np.asarray(f, dtype=float) for f in self.target_features]
        self.source_labels = int_labels(self.source_labels)
        self.target_labels = int_labels(self.target_labels)
        self.class_set = tuple(sorted(int(c) for c in self.class_set))
        if len(self.class_set) != len(set(self.class_set)):
            raise ValueError("class_set holds duplicate ids")
        if not self.source_features or len(self.source_features) != len(self.target_features):
            raise ValueError("source and target need the same nonzero layer count")
        n_s, n_t = self.source_labels.shape[0], self.target_labels.shape[0]
        for s, t in zip(self.source_features, self.target_features):
            if s.ndim != 2 or t.ndim != 2:
                raise ValueError("layer features must be 2-d arrays")
            if s.shape[0] != n_s or t.shape[0] != n_t:
                raise ValueError("layer row counts disagree with label counts")


@dataclass
class CddValue:
    """Contrastive discrepancy of a batch, summed over layers.

    ``total`` is read off the gradient pass as ``<U, K>`` summed over each
    layer's kernel blocks.  ``grads`` holds one ``(grad_source,
    grad_target)`` pair of ``total`` per layer, shaped like that layer's
    features.
    """

    total: float
    grads: list[tuple[np.ndarray, np.ndarray]]


def mmd_squared(spec: KernelSpec, source, target) -> float:
    """Biased empirical squared MMD between two row sets (diagonals included):
    the discrepancy of a batch with one class on both sides."""
    s = np.asarray(source, dtype=float)
    t = np.asarray(target, dtype=float)
    if s.size == 0 or t.size == 0:
        raise ValueError("empty domain in MMD")
    batch = LabeledBatch([s], [t], np.zeros(s.shape[0]), np.zeros(t.shape[0]), (0,))
    return cdd([spec], batch).total


# Two layouts: a run's training batches (one layout while the chosen classes
# stay the same) and its cdd_g probe.  Per moons training run that serves
# can (2049 of 2051 calls hit) and no-ao (2046), but not no-cas (0: uniform
# draws) or a 10-class blobs target picking 4 classes a step (1-2 of 200).
# Every entry kept raises the process's peak memory, so the memo holds no more.
@functools.lru_cache(maxsize=2)
def _upstreams(source_labels: bytes, target_labels: bytes, class_set: tuple[int, ...],
               skip_missing_pairs: bool, intra_only: bool):
    """The ss, tt and st kernel blocks whose upstream matrix ``U`` is not all
    zero, as ``(i, j, U)``: a layer's discrepancy is ``<U, K(x_i, x_j)>``
    summed over them, with ``x_0`` the source and ``x_1`` the target features.

    They depend on the labels alone (passed as the bytes of ``int`` arrays),
    so one build serves every step with the same label layout; the returned
    arrays are read-only.  Errors are raised, not cached.
    """
    ys = np.frombuffer(source_labels, dtype=int)
    yt = np.frombuffer(target_labels, dtype=int)
    classes = np.asarray(class_set, dtype=int)
    ms = (ys[:, None] == classes[None, :]).astype(float)
    mt = (yt[:, None] == classes[None, :]).astype(float)
    outside = np.concatenate([ys[~ms.any(axis=1)], yt[~mt.any(axis=1)]])
    if outside.size:
        raise ValueError(f"labels {np.unique(outside).tolist()} outside class_set")
    ns = ms.sum(axis=0)
    nt = mt.sum(axis=0)
    if not (skip_missing_pairs or (ns.all() and nt.all())):
        raise ValueError("empty class pair")
    estimable = (ns > 0)[:, None] & (nt > 0)[None, :]
    eye = np.eye(len(classes), dtype=bool)
    intra_mask = estimable & eye
    inter_mask = estimable & ~eye
    n_intra, n_inter = int(intra_mask.sum()), 0 if intra_only else int(inter_mask.sum())
    ns_safe = np.where(ns > 0, ns, 1.0)
    nt_safe = np.where(nt > 0, nt, 1.0)
    # Weight of each estimable ordered class pair inside the total.
    w = np.zeros(intra_mask.shape)
    if n_intra:
        w[intra_mask] = 1.0 / n_intra
    if n_inter:
        w[inter_mask] = -1.0 / n_inter
    # e1 of class c1 enters every pair in its row, e2 of c2 every pair in its
    # column; collapsing those sums gives block-constant upstream matrices.
    u_ss = (ms * (w.sum(axis=1) / ns_safe**2)[None, :]) @ ms.T
    u_tt = (mt * (w.sum(axis=0) / nt_safe**2)[None, :]) @ mt.T
    u_st = -2.0 * (ms @ (w / np.outer(ns_safe, nt_safe)) @ mt.T)
    blocks = tuple(b for b in ((0, 0, u_ss), (1, 1, u_tt), (0, 1, u_st)) if b[2].any())
    for _, _, u in blocks:
        u.flags.writeable = False
    return blocks


def cdd(
    specs,
    batch: LabeledBatch,
    intra_only: bool = False,
    skip_missing_pairs: bool = False,
) -> CddValue:
    """Contrastive discrepancy of a batch, summed over layers, and its exact
    gradients w.r.t. every layer's features.

    Each kernel block that carries weight is evaluated once per layer, by
    ``kernel_value_and_grad`` against its upstream matrix, and serves both
    the value and the gradient; a block whose upstream matrix is all zero
    adds exactly zero to both and is skipped.  The upstream matrices are
    built once per label layout and reused by later calls with the same
    labels and flags.

    Args:
        specs: a sequence of one KernelSpec per layer.
        batch: features and labels; with ``skip_missing_pairs`` the batch may
            cover a class on one side only and the affected pairs drop out of
            renormalized averages, otherwise one-sided classes raise.
        intra_only: drop the cross-class term.
    """
    if isinstance(specs, KernelSpec) or len(specs) != len(batch.source_features):
        raise ValueError("one KernelSpec required per layer")
    blocks = _upstreams(batch.source_labels.tobytes(), batch.target_labels.tobytes(),
                        batch.class_set, skip_missing_pairs, intra_only)
    total, grads = 0.0, []
    for spec, *x in zip(specs, batch.source_features, batch.target_features):
        value, grad = 0.0, [np.zeros_like(f) for f in x]
        for i, j, u in blocks:
            v, (g_i, g_j) = kernel_value_and_grad(spec, x[i], x[j], u)
            value += v
            grad[i] += g_i
            grad[j] += g_j
        total += value
        grads.append(tuple(grad))
    return CddValue(total=total, grads=grads)


def cdd_grad(
    specs,
    batch: LabeledBatch,
    intra_only: bool = False,
    skip_missing_pairs: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``cdd(...).grads``: one ``(grad_source, grad_target)`` pair per layer."""
    return cdd(specs, batch, intra_only, skip_missing_pairs).grads
