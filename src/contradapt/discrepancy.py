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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        self.source_labels = np.asarray(self.source_labels, dtype=int)
        self.target_labels = np.asarray(self.target_labels, dtype=int)
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

    def validate(self, require_both_domains: bool = True) -> None:
        """Check label/class consistency; optionally demand two-sided coverage."""
        classes = set(self.class_set)
        present = set(self.source_labels.tolist()) | set(self.target_labels.tolist())
        if not present <= classes:
            raise ValueError(f"labels {sorted(present - classes)} outside class_set")
        if require_both_domains:
            for c in self.class_set:
                if not (self.source_labels == c).any() or not (self.target_labels == c).any():
                    raise ValueError("empty class pair")


@dataclass
class CddValue:
    """Contrastive discrepancy of a batch, summed over layers.

    ``total`` is read off the gradient pass as ``<U, K>`` summed over each
    layer's three kernel blocks.  ``grads`` holds one ``(grad_source,
    grad_target)`` pair of ``total`` per layer, shaped like that layer's
    features, or None when gradients were not requested.
    """

    total: float
    grads: list[tuple[np.ndarray, np.ndarray]] | None = None


def mmd_squared(spec: KernelSpec, source, target) -> float:
    """Biased empirical squared MMD between two row sets (diagonals included):
    the discrepancy of a batch with one class on both sides."""
    s = np.asarray(source, dtype=float)
    t = np.asarray(target, dtype=float)
    if s.size == 0 or t.size == 0:
        raise ValueError("empty domain in MMD")
    batch = LabeledBatch([s], [t], np.zeros(s.shape[0]), np.zeros(t.shape[0]), (0,))
    return cdd([spec], batch).total


def _upstreams(batch: LabeledBatch, skip_missing_pairs: bool, intra_only: bool):
    """Upstream matrices ``U`` of the ss, tt and st kernel blocks: a layer's
    discrepancy is ``<U_ss, K_ss> + <U_tt, K_tt> + <U_st, K_st>``."""
    batch.validate(require_both_domains=not skip_missing_pairs)
    classes = np.asarray(batch.class_set, dtype=int)
    ms = (batch.source_labels[:, None] == classes[None, :]).astype(float)
    mt = (batch.target_labels[:, None] == classes[None, :]).astype(float)
    ns = ms.sum(axis=0)
    nt = mt.sum(axis=0)
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
    return u_ss, u_tt, u_st


def cdd(
    specs,
    batch: LabeledBatch,
    intra_only: bool = False,
    skip_missing_pairs: bool = False,
    with_grad: bool = False,
) -> CddValue:
    """Contrastive discrepancy of a batch, summed over layers, and with
    ``with_grad`` its exact gradients w.r.t. every layer's features.

    Each kernel block of each layer is evaluated once, by
    ``kernel_value_and_grad`` against its upstream matrix, and serves both
    the value and the gradient.

    Args:
        specs: a sequence of one KernelSpec per layer.
        batch: features and labels; with ``skip_missing_pairs`` the batch may
            cover a class on one side only and the affected pairs drop out of
            renormalized averages, otherwise one-sided classes raise.
        intra_only: drop the cross-class term.
    """
    if isinstance(specs, KernelSpec) or len(specs) != len(batch.source_features):
        raise ValueError("one KernelSpec required per layer")
    u_ss, u_tt, u_st = _upstreams(batch, skip_missing_pairs, intra_only)
    total, grads = 0.0, []
    for spec, s, t in zip(specs, batch.source_features, batch.target_features):
        v_ss, g_ss = kernel_value_and_grad(spec, s, s, u_ss, with_grad)
        v_tt, g_tt = kernel_value_and_grad(spec, t, t, u_tt, with_grad)
        v_st, g_st = kernel_value_and_grad(spec, s, t, u_st, with_grad)
        total += v_ss + v_tt + v_st
        if with_grad:
            grads.append((g_ss[0] + g_ss[1] + g_st[0], g_tt[0] + g_tt[1] + g_st[1]))
    return CddValue(total=total, grads=grads if with_grad else None)


def cdd_grad(
    specs,
    batch: LabeledBatch,
    intra_only: bool = False,
    skip_missing_pairs: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``cdd(..., with_grad=True).grads``: one ``(grad_source, grad_target)``
    pair per layer."""
    return cdd(specs, batch, intra_only, skip_missing_pairs, with_grad=True).grads
