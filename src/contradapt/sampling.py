"""Mini-batch index sampling: class-aware discrepancy batches and a separate
uniform lane for classification batches.

The two lanes draw from independent seeded generators so enabling or
disabling the discrepancy path never perturbs the classification batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import int_labels


@dataclass
class BatchPlan:
    """Batch shape plus the two independent RNG lanes that fill it."""

    cas_rng: np.random.Generator
    ce_rng: np.random.Generator
    classes_per_batch: int = 3
    per_class_source: int = 8
    per_class_target: int = 8
    ce_batch_size: int = 32

    def __post_init__(self) -> None:
        for name in ("classes_per_batch", "per_class_source", "per_class_target", "ce_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @classmethod
    def seeded(cls, seed: int, **kwargs) -> "BatchPlan":
        cas_seq, ce_seq = np.random.SeedSequence(seed).spawn(2)
        return cls(
            cas_rng=np.random.default_rng(cas_seq),
            ce_rng=np.random.default_rng(ce_seq),
            **kwargs,
        )


@dataclass
class CasBatch:
    """Index skeleton of one class-aware batch, grouped by ascending class."""

    classes: tuple[int, ...]
    source_indices: np.ndarray
    target_indices: np.ndarray
    source_labels: np.ndarray
    target_labels: np.ndarray


def draw(rng: np.random.Generator, pool, count: int) -> np.ndarray:
    """Uniform draw of ``count`` entries of ``pool``, an array or an int n for
    ``range(n)`` (not built); without replacement when the pool suffices."""
    size = int(pool) if isinstance(pool, (int, np.integer)) else np.asarray(pool).size
    if size == 0:
        raise ValueError("cannot draw from an empty pool")
    return rng.choice(pool, size=count, replace=size < count)


def class_aware_batch(
    plan: BatchPlan,
    source_labels: np.ndarray,
    target_indices: np.ndarray,
    target_labels: np.ndarray,
    eligible_classes,
) -> CasBatch:
    """Pick up to ``plan.classes_per_batch`` eligible classes, then per-class samples.

    ``target_indices`` / ``target_labels`` describe the (pseudo-labeled)
    target pool; ``source_labels`` indexes the full source set.  Eligible ids
    must be distinct, and every selected class populated on both sides.
    """
    eligible = np.asarray(sorted(int(c) for c in eligible_classes), dtype=int)
    if eligible.size == 0:
        raise ValueError("no eligible classes to sample from")
    if (eligible[1:] == eligible[:-1]).any():
        raise ValueError("eligible_classes holds duplicate ids")
    source_labels = int_labels(source_labels)
    target_indices = np.asarray(target_indices, dtype=int)
    target_labels = int_labels(target_labels)
    if target_indices.shape != target_labels.shape:
        raise ValueError("target_indices and target_labels must align")
    if eligible.size > plan.classes_per_batch:
        chosen = np.sort(plan.cas_rng.choice(eligible, size=plan.classes_per_batch, replace=False))
    else:
        chosen = eligible
    src_parts, tgt_parts = [], []
    for c in chosen:
        src_pool = np.nonzero(source_labels == c)[0]
        tgt_pool = target_indices[target_labels == c]
        if src_pool.size == 0 or tgt_pool.size == 0:
            raise ValueError(f"class {int(c)} lacks samples in one domain")
        src_parts.append(draw(plan.cas_rng, src_pool, plan.per_class_source))
        tgt_parts.append(draw(plan.cas_rng, tgt_pool, plan.per_class_target))
    classes = tuple(int(c) for c in chosen)
    return CasBatch(
        classes=classes,
        source_indices=np.concatenate(src_parts),
        target_indices=np.concatenate(tgt_parts),
        source_labels=np.repeat(chosen, plan.per_class_source),
        target_labels=np.repeat(chosen, plan.per_class_target),
    )


def uniform_source_batch(plan: BatchPlan, n_source: int) -> np.ndarray:
    """Class-agnostic uniform batch of source indices from the CE lane."""
    if n_source < 1:
        raise ValueError("empty source")
    return draw(plan.ce_rng, n_source, plan.ce_batch_size)
