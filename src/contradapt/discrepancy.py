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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, kernel_matrix, kernel_value_and_grad


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

    ``total == intra - inter``.  ``grads`` holds one ``(grad_source,
    grad_target)`` pair of ``total`` per layer, shaped like that layer's
    features, or None when gradients were not requested.
    """

    total: float
    intra: float
    inter: float
    grads: list[tuple[np.ndarray, np.ndarray]] | None = None


def mmd_squared(spec: KernelSpec, source, target) -> float:
    """Biased empirical squared MMD between two row sets (diagonals included)."""
    s = np.asarray(source, dtype=float)
    t = np.asarray(target, dtype=float)
    if s.size == 0 or t.size == 0:
        raise ValueError("empty domain in MMD")
    k_ss = kernel_matrix(spec, s, s)
    k_tt = kernel_matrix(spec, t, t)
    k_st = kernel_matrix(spec, s, t)
    return float(k_ss.mean() + k_tt.mean() - 2.0 * k_st.mean())


def _pair_setup(batch: LabeledBatch, skip_missing_pairs: bool, intra_only: bool):
    """Class masks, safe class counts, and the intra/inter pair masks."""
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
    if intra_only:
        inter_mask = np.zeros_like(inter_mask)
    ns_safe = np.where(ns > 0, ns, 1.0)
    nt_safe = np.where(nt > 0, nt, 1.0)
    return ms, mt, ns_safe, nt_safe, intra_mask, inter_mask


def _upstreams(ms, mt, ns_safe, nt_safe, intra_mask, inter_mask):
    """Upstream matrices of the ss, tt and st kernel blocks in the total."""
    n_intra = int(intra_mask.sum())
    n_inter = int(inter_mask.sum())
    # Weight of each ordered pair inside the total.
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

    Each kernel block of each layer is evaluated once and serves both the
    value and the gradient.

    Args:
        specs: a sequence of one KernelSpec per layer.
        batch: features and labels; with ``skip_missing_pairs`` the batch may
            cover a class on one side only and the affected pairs drop out of
            renormalized averages, otherwise one-sided classes raise.
        intra_only: drop the cross-class term (``inter`` reported as 0).
    """
    if isinstance(specs, KernelSpec) or len(specs) != len(batch.source_features):
        raise ValueError("one KernelSpec required per layer")
    setup = _pair_setup(batch, skip_missing_pairs, intra_only)
    ms, mt, ns_safe, nt_safe, intra_mask, inter_mask = setup
    n_intra = int(intra_mask.sum())
    n_inter = int(inter_mask.sum())
    u_ss, u_tt, u_st = _upstreams(*setup) if with_grad else (None, None, None)
    intras, inters, grads = [], [], []
    for spec, s, t in zip(specs, batch.source_features, batch.target_features):
        k_ss, g_ss = kernel_value_and_grad(spec, s, s, u_ss)
        k_tt, g_tt = kernel_value_and_grad(spec, t, t, u_tt)
        k_st, g_st = kernel_value_and_grad(spec, s, t, u_st)
        # Per-class kernel means: e1, e2 vectors and the e3 matrix, zero where undefined.
        e1 = np.einsum("ic,ij,jc->c", ms, k_ss, ms) / ns_safe**2
        e2 = np.einsum("ic,ij,jc->c", mt, k_tt, mt) / nt_safe**2
        e3 = (ms.T @ k_st @ mt) / np.outer(ns_safe, nt_safe)
        d = e1[:, None] + e2[None, :] - 2.0 * e3
        intras.append(float(d[intra_mask].sum() / n_intra) if n_intra else 0.0)
        inters.append(float(d[inter_mask].sum() / n_inter) if n_inter else 0.0)
        if with_grad:
            grads.append((g_ss[0] + g_ss[1] + g_st[0], g_tt[0] + g_tt[1] + g_st[1]))
    intra, inter = sum(intras), sum(inters)
    return CddValue(total=intra - inter, intra=intra, inter=inter,
                    grads=grads if with_grad else None)


def cdd_grad(
    specs,
    batch: LabeledBatch,
    intra_only: bool = False,
    skip_missing_pairs: bool = False,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``cdd(..., with_grad=True).grads``: one ``(grad_source, grad_target)``
    pair per layer."""
    return cdd(specs, batch, intra_only, skip_missing_pairs, with_grad=True).grads
