"""Independent brute-force references the tests compare the library against.

Everything here is written as a literal transcription of the definitions --
scalar loops, no vectorization -- so agreement with the library is evidence,
not tautology.  The ``loop_kernel_*`` references are the exception: they
loop over mixture components on whole matrices, the arithmetic the batched
library kernels must reproduce bit for bit.  So are
``expression_squared_distances`` and ``expression_kernel_value_and_grad``,
the kernel written as whole-array expressions with a fresh array per stage,
which the in-place library kernel must equal bit for bit, and
``layerwise_backward``, the backward pass written out one layer at a time,
which the library's single loop must match bit for bit, and
``reference_spherical_kmeans``, k-means with its three exits and a final
verification pass, which the library's one-exit loop must match bit for
bit.  The CSV writer and
reader are the ``csv``-module implementations the faster library I/O must
match byte for byte and value for value, error messages included.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from contradapt.clustering import ClusterState, _group_sums, _pairwise_dissimilarity, _unit_rows
from contradapt.data import Dataset
from contradapt.kernels import squared_distances
from contradapt.model import zeros_like_params


def naive_kernel(spec, a, b) -> float:
    d2 = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))
    return sum(
        w * math.exp(-d2 / (2.0 * s2)) for w, s2 in zip(spec.weights, spec.bandwidths)
    )


def loop_kernel_matrix(spec, a, b) -> np.ndarray:
    """Mixture kernel summed one component at a time, in component order.

    Distances come from the library's ``squared_distances`` so the comparison
    isolates how components are combined; the library must match bit for bit.
    """
    d2 = squared_distances(a, b)
    out = np.zeros_like(d2)
    for w, s2 in zip(spec.weights, spec.bandwidths):
        out += w * np.exp(d2 / (-2.0 * s2))
    return out


def loop_kernel_matrix_grad(spec, a, b, upstream):
    """Input gradients of ``sum(upstream * K)`` accumulated one component at a time."""
    d2 = squared_distances(a, b)
    grad_a = np.zeros_like(a)
    grad_b = np.zeros_like(b)
    for w, s2 in zip(spec.weights, spec.bandwidths):
        s = upstream * ((w / s2) * np.exp(d2 / (-2.0 * s2)))
        grad_a += s @ b - s.sum(axis=1)[:, None] * a
        grad_b += s.T @ a - s.sum(axis=0)[:, None] * b
    return grad_a, grad_b


def expression_squared_distances(a, b) -> np.ndarray:
    """``squared_distances`` as one expression, both row norms computed."""
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    d2 = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def expression_kernel_value_and_grad(spec, a, b, upstream):
    """``kernel_value_and_grad`` on 2-d float inputs, each stage a new array."""
    w = 1.0 / len(spec.bandwidths)
    s2 = np.asarray(spec.bandwidths)[:, None, None]
    s = upstream * ((w / s2) * np.exp(expression_squared_distances(a, b) / (-2.0 * s2)))
    row_sums = s.sum(axis=2)
    value = float(s2[:, 0, 0] @ row_sums.sum(axis=1))
    grad_a = (s @ b - row_sums[..., None] * a).sum(axis=0)
    grad_b = (s.transpose(0, 2, 1) @ a - s.sum(axis=1)[..., None] * b).sum(axis=0)
    return value, (grad_a, grad_b)


def naive_mmd(spec, source, target) -> float:
    ns, nt = len(source), len(target)
    ss = sum(naive_kernel(spec, source[i], source[j]) for i in range(ns) for j in range(ns))
    tt = sum(naive_kernel(spec, target[i], target[j]) for i in range(nt) for j in range(nt))
    st = sum(naive_kernel(spec, source[i], target[j]) for i in range(ns) for j in range(nt))
    return ss / ns**2 + tt / nt**2 - 2.0 * st / (ns * nt)


def naive_pair(spec, src, tgt, ys, yt, c1, c2) -> float:
    """e1 + e2 - 2*e3 with mask-sum denominators, self-pairs included."""
    num1 = den1 = 0.0
    for i in range(len(src)):
        for j in range(len(src)):
            m = 1 if (ys[i] == c1 and ys[j] == c1) else 0
            num1 += m * naive_kernel(spec, src[i], src[j])
            den1 += m
    num2 = den2 = 0.0
    for i in range(len(tgt)):
        for j in range(len(tgt)):
            m = 1 if (yt[i] == c2 and yt[j] == c2) else 0
            num2 += m * naive_kernel(spec, tgt[i], tgt[j])
            den2 += m
    num3 = den3 = 0.0
    for i in range(len(src)):
        for j in range(len(tgt)):
            m = 1 if (ys[i] == c1 and yt[j] == c2) else 0
            num3 += m * naive_kernel(spec, src[i], tgt[j])
            den3 += m
    return num1 / den1 + num2 / den2 - 2.0 * num3 / den3


def naive_cdd(specs, src_layers, tgt_layers, ys, yt, class_set,
              intra_only=False, skip_missing=False) -> float:
    """Sum over layers of mean intra-pair minus mean inter-pair discrepancy."""
    total = 0.0
    for spec, src, tgt in zip(specs, src_layers, tgt_layers):
        intra_vals, inter_vals = [], []
        for c1 in class_set:
            for c2 in class_set:
                has_src = any(y == c1 for y in ys)
                has_tgt = any(y == c2 for y in yt)
                if not (has_src and has_tgt):
                    if skip_missing:
                        continue
                    raise ValueError("empty class pair")
                v = naive_pair(spec, src, tgt, ys, yt, c1, c2)
                (intra_vals if c1 == c2 else inter_vals).append(v)
        intra = sum(intra_vals) / len(intra_vals) if intra_vals else 0.0
        inter = sum(inter_vals) / len(inter_vals) if (inter_vals and not intra_only) else 0.0
        total += intra - inter
    return total


def cosine_dissim(a, b) -> float:
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na <= 1e-12 or nb <= 1e-12:
        return 0.5
    cos = sum(x * y for x, y in zip(a, b)) / (na * nb)
    return 0.5 * (1.0 - cos)


def kmeans_best_objective(points, init_centers) -> float:
    """Global optimum over every assignment of points to clusters.

    Centers follow the update rule: normalized sum of unit vectors of the
    assigned points; empty clusters keep their (normalized) init center.
    """
    points = np.asarray(points, dtype=float)
    m = len(init_centers)
    best = math.inf
    for assign in itertools.product(range(m), repeat=points.shape[0]):
        centers = []
        for c in range(m):
            members = [points[i] for i in range(points.shape[0]) if assign[i] == c]
            if members:
                acc = np.zeros(points.shape[1])
                for p in members:
                    n = np.linalg.norm(p)
                    if n > 1e-12:
                        acc += p / n
                norm = np.linalg.norm(acc)
                centers.append(acc / norm if norm > 1e-12 else acc)
            else:
                init = np.asarray(init_centers[c], dtype=float)
                n = np.linalg.norm(init)
                centers.append(init / n if n > 1e-12 else init)
        obj = sum(cosine_dissim(points[i], centers[assign[i]]) for i in range(points.shape[0]))
        best = min(best, obj)
    return best


def reference_spherical_kmeans(target_features, init_centers, max_iters=100, tol=1e-6):
    """``spherical_kmeans`` with an exit per stopping rule: a repeat, the pass
    budget, or a tolerance stop followed by a final verification pass."""
    x = np.asarray(target_features, dtype=float)
    centers = _unit_rows(np.array(init_centers, dtype=float))
    unit_x = _unit_rows(x)
    n, m = x.shape[0], centers.shape[0]
    trace: list[float] = []
    prev = None
    assignments = np.zeros(n, dtype=int)
    assigned_diss = np.zeros(n)
    converged = False
    iterations = max_iters

    def _assign(cs):
        diss = _pairwise_dissimilarity(unit_x, cs)
        a = np.argmin(diss, axis=1)
        d = diss[np.arange(n), a]
        trace.append(float(d.sum()))
        return a, d

    for it in range(1, max_iters + 1):
        assignments, assigned_diss = _assign(centers)
        if prev is not None and np.array_equal(assignments, prev):
            iterations, converged = it, True
            break
        if it == max_iters:
            iterations, converged = it, False
            break
        prev = assignments
        occupied = np.bincount(assignments, minlength=m) > 0
        new_centers = _unit_rows(_group_sums(unit_x, assignments, m))
        new_centers[~occupied] = centers[~occupied]
        movement = float(
            np.max(np.clip(0.5 * (1.0 - np.sum(centers * new_centers, axis=1)), 0.0, 1.0))
        )
        centers = new_centers
        if movement < tol:
            assignments, assigned_diss = _assign(centers)
            iterations, converged = it, True
            break

    return ClusterState(centers, assignments, assigned_diss, iterations, converged, tuple(trace))


def add_params_(dst, src):
    """In-place elementwise accumulation of one gradient container into another."""
    dst.flat += src.flat
    return dst


def layerwise_backward(params, stack, logits_grad=None, tap_grads=None, beta=1.0, out=None):
    """Backward pass written out layer by layer, with name-keyed tap gradients.

    ``tap_grads`` maps "bottleneck" and "logits" to feature gradients that
    enter scaled by ``beta``.  This is the arithmetic ``model.backward`` must
    reproduce bit for bit when it is handed ``beta`` times each tap gradient.
    """
    taps = tap_grads or {}
    *hidden, bottleneck, logits = stack.outputs
    d_logits = np.zeros_like(logits)
    if logits_grad is not None:
        d_logits += np.asarray(logits_grad, dtype=float)
    if "logits" in taps:
        d_logits += beta * np.asarray(taps["logits"], dtype=float)
    grads = zeros_like_params(params) if out is None else out
    grads.weights[-1] += bottleneck.T @ d_logits
    grads.biases[-1] += d_logits.sum(axis=0)
    d_bottleneck = d_logits @ params.weights[-1].T
    if "bottleneck" in taps:
        d_bottleneck = d_bottleneck + beta * np.asarray(taps["bottleneck"], dtype=float)
    last_hidden = hidden[-1] if hidden else stack.inputs
    grads.weights[-2] += last_hidden.T @ d_bottleneck
    grads.biases[-2] += d_bottleneck.sum(axis=0)
    d_h = d_bottleneck @ params.weights[-2].T
    for i in range(len(hidden) - 1, -1, -1):
        d_pre = d_h * (hidden[i] > 0.0)
        below = hidden[i - 1] if i > 0 else stack.inputs
        grads.weights[i] += below.T @ d_pre
        grads.biases[i] += d_pre.sum(axis=0)
        d_h = d_pre @ params.weights[i].T
    return grads


def _csv_header(dim: int) -> list[str]:
    return [f"feature_{i}" for i in range(dim)] + ["label", "domain"]


def csv_writer_save(dataset, path) -> None:
    """Dataset CSV written one ``csv.writer`` row at a time."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_csv_header(dataset.dim))
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [str(int(label)), dataset.domain])


def csv_reader_load(path) -> Dataset:
    """Dataset CSV parsed one ``csv.reader`` row at a time, raising
    ``ValueError`` with the first bad line's number."""
    domains = ("source", "target")
    with open(path, "r", newline="", encoding="ascii") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        dim = len(header) - 2
        if dim < 1 or header != _csv_header(dim):
            raise ValueError(f"{path}: line 1: unrecognized header")
        feats, labels, domain = [], [], None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 2:
                raise ValueError(f"{path}: line {line_no}: expected {dim + 2} columns, got {len(row)}")
            try:
                feats.append([float(v) for v in row[:dim]])
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: bad feature value") from None
            if not all(math.isfinite(v) for v in feats[-1]):
                raise ValueError(f"{path}: line {line_no}: non-finite feature value")
            try:
                label = int(row[dim])
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: bad label") from None
            if not -(2**63) <= label < 2**63:  # outside int64
                raise ValueError(f"{path}: line {line_no}: bad label")
            if label < -1:
                raise ValueError(f"{path}: line {line_no}: label below -1")
            labels.append(label)
            if row[dim + 1] not in domains:
                raise ValueError(f"{path}: line {line_no}: bad domain {row[dim + 1]!r}")
            if domain is None:
                domain = row[dim + 1]
            elif row[dim + 1] != domain:
                raise ValueError(f"{path}: line {line_no}: mixed domains in one file")
        if domain is None:
            raise ValueError(f"{path}: no samples")
    return Dataset(np.asarray(feats), np.asarray(labels, dtype=int), domain)
