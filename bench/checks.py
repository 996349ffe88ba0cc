"""Output checks written from the definitions, independent of the code they check.

Nothing here compares against stored outputs of an earlier run: every check
recomputes a property of the outputs (a discrepancy value, a gradient, an
accuracy, a clustering invariant) from scratch.
"""

from __future__ import annotations

import math

import numpy as np

CHECKPOINT_HEADER = "contradapt-checkpoint v1"
CDD_VALUE_ATOL = 1e-12
FD_RTOL = 1e-4
FD_STEP = 1e-5
# k-means sums tens of thousands of dissimilarities, so a flat objective can
# move by rounding alone; anything beyond this share of it is an increase.
OBJECTIVE_RTOL = 1e-12
TIE_ATOL = 1e-12


def parse_checkpoint(text: str) -> dict[str, np.ndarray]:
    """Arrays of a checkpoint file: a header line, then per array a
    ``name rows cols`` line followed by ``rows`` lines of values."""
    lines = text.splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError("not a checkpoint")
    arrays: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        name, rows, cols = lines[i].split()
        rows, cols = int(rows), int(cols)
        block = [[float(v) for v in line.split()] for line in lines[i + 1 : i + 1 + rows]]
        arrays[name] = np.array(block, dtype=float).reshape(rows, cols)
        i += 1 + rows
    return arrays


def plain_forward(arrays: dict[str, np.ndarray], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bottleneck and logits of the ReLU MLP stored in ``arrays``."""
    h = np.asarray(x, dtype=float)
    j = 0
    while f"hidden.{j}.weight" in arrays:
        h = np.maximum(h @ arrays[f"hidden.{j}.weight"] + arrays[f"hidden.{j}.bias"][0], 0.0)
        j += 1
    bottleneck = h @ arrays["bottleneck.weight"] + arrays["bottleneck.bias"][0]
    logits = bottleneck @ arrays["logits.weight"] + arrays["logits.bias"][0]
    return bottleneck, logits


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose largest logit (lowest index on ties) is the label."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def records_finite(records: list[dict]) -> bool:
    """Every numeric field of every metrics record is finite; CE and LR are set."""
    for rec in records:
        if rec.get("ce_loss") is None or rec.get("learning_rate") is None:
            return False
        for value in rec.values():
            if value is not None and not math.isfinite(value):
                return False
    return True


# --- contrastive discrepancy, from its definition ---------------------------

def _scalar_kernel(pairs, a, b) -> float:
    d2 = 0.0
    for x, y in zip(a, b):
        d2 += (x - y) * (x - y)
    return sum(w * math.exp(-d2 / (2.0 * s2)) for w, s2 in pairs)


def scalar_cdd(specs, src_layers, tgt_layers, ys, yt, class_set, skip_missing=False) -> float:
    """Sum over layers of mean intra-class minus mean inter-class pair
    discrepancy, each pair ``e1 + e2 - 2 e3`` of kernel means, in scalar loops."""
    ys, yt = [int(v) for v in ys], [int(v) for v in yt]
    total = 0.0
    for spec, src, tgt in zip(specs, src_layers, tgt_layers):
        pairs = list(zip(spec.weights, spec.bandwidths))
        s_rows, t_rows = src.tolist(), tgt.tolist()
        s_of = {c: [i for i, y in enumerate(ys) if y == c] for c in class_set}
        t_of = {c: [i for i, y in enumerate(yt) if y == c] for c in class_set}

        def mean_k(rows_a, ia, rows_b, ib):
            acc = 0.0
            for i in ia:
                for j in ib:
                    acc += _scalar_kernel(pairs, rows_a[i], rows_b[j])
            return acc / (len(ia) * len(ib))

        e1 = {c: mean_k(s_rows, s_of[c], s_rows, s_of[c]) for c in class_set if s_of[c]}
        e2 = {c: mean_k(t_rows, t_of[c], t_rows, t_of[c]) for c in class_set if t_of[c]}
        intra, inter = [], []
        for c1 in class_set:
            for c2 in class_set:
                if not s_of[c1] or not t_of[c2]:
                    if skip_missing:
                        continue
                    raise ValueError("empty class pair")
                d = e1[c1] + e2[c2] - 2.0 * mean_k(s_rows, s_of[c1], t_rows, t_of[c2])
                (intra if c1 == c2 else inter).append(d)
        total += sum(intra) / len(intra) if intra else 0.0
        total -= sum(inter) / len(inter) if inter else 0.0
    return total


def _dense_kernel(spec, a, b) -> np.ndarray:
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return sum(w * np.exp(-d2 / (2.0 * s2)) for w, s2 in zip(spec.weights, spec.bandwidths))


class DenseLayerCdd:
    """One layer's discrepancy from dense kernel matrices and one-hot class
    masks; fast enough to difference every feature entry."""

    def __init__(self, ys, yt, class_set, skip_missing=False):
        classes = np.asarray(class_set)
        self.ms = (np.asarray(ys)[:, None] == classes[None, :]).astype(float)
        self.mt = (np.asarray(yt)[:, None] == classes[None, :]).astype(float)
        n_s, n_t = self.ms.sum(axis=0), self.mt.sum(axis=0)
        present = (n_s > 0)[:, None] & (n_t > 0)[None, :]
        if not skip_missing and not present.all():
            raise ValueError("empty class pair")
        eye = np.eye(classes.size, dtype=bool)
        self.intra = present & eye
        self.inter = present & ~eye
        self.n_s, self.n_t = np.maximum(n_s, 1.0), np.maximum(n_t, 1.0)

    def value(self, k_ss, k_tt, k_st) -> float:
        e1 = np.einsum("ic,ij,jc->c", self.ms, k_ss, self.ms) / self.n_s**2
        e2 = np.einsum("ic,ij,jc->c", self.mt, k_tt, self.mt) / self.n_t**2
        e3 = (self.ms.T @ k_st @ self.mt) / np.outer(self.n_s, self.n_t)
        d = e1[:, None] + e2[None, :] - 2.0 * e3
        out = d[self.intra].mean() if self.intra.any() else 0.0
        if self.inter.any():
            out -= d[self.inter].mean()
        return float(out)

    def __call__(self, spec, src, tgt) -> float:
        return self.value(_dense_kernel(spec, src, src), _dense_kernel(spec, tgt, tgt),
                          _dense_kernel(spec, src, tgt))


def fd_gradient_error(specs, src_layers, tgt_layers, layer_cdd: DenseLayerCdd, grads) -> float:
    """Largest central-difference error of ``grads`` over every feature entry,
    normalized per layer by that layer's largest gradient magnitude."""
    worst = 0.0
    for spec, src, tgt, (g_src, g_tgt) in zip(specs, src_layers, tgt_layers, grads):
        src, tgt = src.copy(), tgt.copy()
        k_ss, k_tt = _dense_kernel(spec, src, src), _dense_kernel(spec, tgt, tgt)
        scale = max(float(np.max(np.abs(g_src))), float(np.max(np.abs(g_tgt))), 1e-300)

        def at_src():  # moving a source entry leaves the target-target kernel as is
            return layer_cdd.value(_dense_kernel(spec, src, src), k_tt,
                                   _dense_kernel(spec, src, tgt))

        def at_tgt():
            return layer_cdd.value(k_ss, _dense_kernel(spec, tgt, tgt),
                                   _dense_kernel(spec, src, tgt))

        for x, g, fn in ((src, g_src, at_src), (tgt, g_tgt, at_tgt)):
            for idx in np.ndindex(x.shape):
                orig = x[idx]
                x[idx] = orig + FD_STEP
                hi = fn()
                x[idx] = orig - FD_STEP
                lo = fn()
                x[idx] = orig
                worst = max(worst, abs((hi - lo) / (2.0 * FD_STEP) - g[idx]) / scale)
    return worst


# --- spherical k-means and the filter -----------------------------------------

def unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return np.where(norms > 1e-12, x / np.where(norms > 1e-12, norms, 1.0), 0.0)


def class_centers(features: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Unit mean direction of each class's unit feature rows."""
    unit = unit_rows(features)
    return unit_rows(np.stack([unit[labels == c].sum(axis=0) for c in range(n_classes)]))


def kmeans_state_problems(state, features: np.ndarray) -> list[str]:
    """Ways the returned clustering state breaks its definition (empty if none)."""
    problems = []
    diss = np.clip(0.5 * (1.0 - unit_rows(features) @ unit_rows(state.centers).T), 0.0, 1.0)
    rows = np.arange(features.shape[0])
    chosen = diss[rows, state.assignments]
    best = diss.min(axis=1)
    # A returned assignment must be the argmin; where two centers tie within
    # rounding, either is one.
    wrong = (state.assignments != diss.argmin(axis=1)) & (chosen > best + TIE_ATOL)
    if wrong.any():
        problems.append(f"{int(wrong.sum())} assignments are not the nearest center")
    if np.max(np.abs(state.dissimilarities - chosen)) > TIE_ATOL:
        problems.append("stored dissimilarities differ from (1 - cos)/2")
    trace = state.objective_trace
    for before, after in zip(trace, trace[1:]):
        if after > before + OBJECTIVE_RTOL * abs(before):
            problems.append(f"objective rose from {before!r} to {after!r}")
            break
    return problems


def filter_problems(state, result, d0: float, n0: int) -> list[str]:
    """Ways the filter output breaks: keep exactly the samples with ``d < d0``
    in classes that have more than ``n0`` such samples."""
    problems = []
    n_classes = state.centers.shape[0]
    close = [i for i, d in enumerate(state.dissimilarities.tolist()) if d < d0]
    per_class = {c: [i for i in close if state.assignments[i] == c] for c in range(n_classes)}
    want_classes = tuple(c for c in range(n_classes) if len(per_class[c]) > n0)
    want_kept = sorted(i for c in want_classes for i in per_class[c])
    if tuple(result.kept_classes) != want_classes:
        problems.append(f"kept classes {result.kept_classes} != {want_classes}")
    if result.kept_indices.tolist() != want_kept:
        problems.append("kept samples are not those with d < d0 in kept classes")
    return problems
