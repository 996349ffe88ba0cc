"""Spherical k-means over target features plus the ambiguity filter.

Distances are cosine dissimilarities, dist(a, b) = (1 - cos(a, b)) / 2, so
they live in [0, 1].  Cluster ids double as class ids because the centers
are initialized from labeled source class means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import int_labels

_NORM_EPS = 1e-12


@dataclass
class ClusterState:
    """Result of one spherical k-means run.

    ``assignments[i]`` is the arg-min center for sample ``i`` under the final
    centers (ties broken toward the lowest class id), and ``dissimilarities``
    holds the matching distances.  ``objective_trace`` records the summed
    assigned dissimilarity after every assignment pass.  ``iterations_run`` counts
    the passes, less a last pass that only re-assigned after an update that moved
    no center by ``tol``; ``converged`` is False when ``max_iters`` ran out first.
    """

    centers: np.ndarray
    assignments: np.ndarray
    dissimilarities: np.ndarray
    iterations_run: int
    converged: bool
    objective_trace: tuple[float, ...] = ()


@dataclass
class FilterResult:
    """Confidently clustered target samples and sufficiently covered classes."""

    kept_indices: np.ndarray
    kept_classes: tuple[int, ...]
    per_class_counts: dict[int, int]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; rows below the norm guard collapse to zero."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    out = x / np.where(norms > _NORM_EPS, norms, 1.0)
    out[norms[:, 0] <= _NORM_EPS] = 0.0
    return out


def _group_sums(x: np.ndarray, groups: np.ndarray, m: int) -> np.ndarray:
    """(m, d) sums of the rows of ``x`` per group id, as ``np.add.at`` gives them:
    each group's rows are added in index order, starting from +0.0."""
    d = x.shape[1]
    cells = (groups[:, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, weights=x.ravel(), minlength=m * d).reshape(m, d)


def _pairwise_dissimilarity(unit_x: np.ndarray, unit_c: np.ndarray) -> np.ndarray:
    return np.clip(0.5 * (1.0 - unit_x @ unit_c.T), 0.0, 1.0)


def source_class_centers(features, labels, n_classes: int) -> np.ndarray:
    """Per-class sums of unit feature vectors, re-normalized to unit length.

    Raises:
        ValueError: if some class id in ``range(n_classes)`` has no sample.
    """
    x = np.asarray(features, dtype=float)
    y = int_labels(labels)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValueError("features must be (n, d) with one label per row")
    counts = np.bincount(y, minlength=n_classes)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError("labels outside [0, n_classes)")
    if (counts == 0).any():
        missing = [c for c in range(n_classes) if counts[c] == 0]
        raise ValueError(f"uncovered class ids {missing}")
    return _unit_rows(_group_sums(_unit_rows(x), y, n_classes))


def _assign(unit_x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest center (argmin takes the lowest id on ties) and its dissimilarity."""
    diss = _pairwise_dissimilarity(unit_x, centers)
    nearest = np.argmin(diss, axis=1)
    return nearest, diss[np.arange(unit_x.shape[0]), nearest]


def spherical_kmeans(
    target_features,
    init_centers,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> ClusterState:
    """Alternate argmin assignment and mean-direction updates until stable.

    Passes stop when the assignments repeat, when the previous update moved
    no center by ``tol`` in cosine dissimilarity, or after ``max_iters``
    passes; empty clusters retain their previous center.  The returned
    assignments are always consistent with the returned centers.
    """
    x = np.asarray(target_features, dtype=float)
    centers = _unit_rows(np.array(init_centers, dtype=float))
    if x.ndim != 2 or centers.ndim != 2 or x.shape[1] != centers.shape[1]:
        raise ValueError("features and centers must be 2-d with equal width")
    if x.shape[0] == 0 or centers.shape[0] == 0:
        raise ValueError("need at least one sample and one center")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    unit_x = _unit_rows(x)
    m = centers.shape[0]
    trace: list[float] = []  # one entry per pass
    previous, settled = None, False
    while True:
        assignments, dissimilarities = _assign(unit_x, centers)
        trace.append(float(dissimilarities.sum()))
        converged = settled or (previous is not None and np.array_equal(assignments, previous))
        if converged or len(trace) >= max_iters:
            break
        previous = assignments
        occupied = np.bincount(assignments, minlength=m) > 0
        new_centers = _unit_rows(_group_sums(unit_x, assignments, m))
        new_centers[~occupied] = centers[~occupied]
        moved = np.clip(0.5 * (1.0 - np.sum(centers * new_centers, axis=1)), 0.0, 1.0)
        settled = float(np.max(moved)) < tol
        centers = new_centers

    # A settled stop's last pass only re-assigns; the count ends at the update.
    return ClusterState(centers, assignments, dissimilarities, iterations_run=len(trace) - settled,
                        converged=converged, objective_trace=tuple(trace))


def filter_targets(state: ClusterState, d0: float = 0.05, n0: int = 3) -> FilterResult:
    """Keep samples with dissimilarity strictly below ``d0``, then classes with
    strictly more than ``n0`` of them; kept samples are restricted to kept classes."""
    if not 0.0 <= d0 <= 1.0:
        raise ValueError("d0 must lie in [0, 1]")
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    m = state.centers.shape[0]
    close = state.dissimilarities < d0
    counts = np.bincount(state.assignments[close], minlength=m)
    kept_classes = tuple(int(c) for c in range(m) if counts[c] > n0)
    mask = close & np.isin(state.assignments, kept_classes)
    return FilterResult(
        kept_indices=np.nonzero(mask)[0],
        kept_classes=kept_classes,
        per_class_counts={c: int(counts[c]) for c in range(m)},
    )
