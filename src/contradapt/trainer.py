"""Alternating training loop: cluster target features, filter ambiguous
samples, then interleave class-aware discrepancy steps with classification
steps.

Each outer loop freezes the target pseudo-labels produced by spherical
k-means (initialized from labeled source class centers) and runs K
parameter updates.  The clustering embeds the source and the target at once,
on two threads and bit for bit (NumPy releases the GIL in the products), which
gains time only with two free cores.  Per step the composite gradient is

    grad = grad(source CE) + beta * grad(contrastive discrepancy)

with the discrepancy gradients injected at the tapped layers.  This module
alone picks those layers (``TAPPED_LAYERS``, indices into a forward pass's
layer outputs): the discrepancy is measured on those outputs and
``backward`` takes its gradients at the same indices.
The seven methods are ablations of this one pipeline.  Each is one
``_Method`` record in ``_TABLE`` (label source, CDD on/off, ``intra_only``,
class-agnostic sampling, target cross-entropy), and the record is the only
place that knows what a method does.
"""

from __future__ import annotations

import dataclasses
import logging
import numbers
import threading
import time
from dataclasses import dataclass

import numpy as np

from .clustering import (ClusterState, FilterResult, filter_targets, source_class_centers,
                          spherical_kmeans)
from .data import Dataset
from .discrepancy import LabeledBatch, cdd
from .kernels import median_kernel_spec
from .model import (
    ModelParams,
    backward,
    cross_entropy,
    embed,
    forward,
    init_params,
    sgd_step,
    zeros_like_params,
)
from .sampling import BatchPlan, CasBatch, class_aware_batch, draw, uniform_source_batch

log = logging.getLogger(__name__)

# The layer outputs the discrepancy is measured on, in the order of a
# LabeledBatch's layers: indices into ``FeatureStack.outputs`` (the bottleneck
# and the logits), which ``backward`` also takes its gradients by.
TAPPED_LAYERS = (-2, -1)


@dataclass(frozen=True)
class _Method:
    """The ingredients a training method switches on.  ``labels`` is where target
    pseudo-labels come from: "cluster" (k-means and the filter, every loop),
    "cluster-once" (loop 0 only), "argmax" (network predictions, every step) or None."""

    labels: str | None
    cdd: bool = False
    intra_only: bool = False      # drop the cross-class discrepancy term
    class_agnostic: bool = False  # uniform discrepancy batches; missing pairs renormalized away
    target_ce: bool = False       # cross-entropy on pseudo-labeled target batches


_TABLE = {
    "source-only": _Method(None),                           # classification on source only
    "can": _Method("cluster", cdd=True),                    # full method
    "intra-only": _Method("cluster", cdd=True, intra_only=True),
    "no-ao": _Method("argmax", cdd=True),                   # no alternating optimization
    "no-cas": _Method("cluster", cdd=True, class_agnostic=True),
    "pseudo0": _Method("cluster-once", target_ce=True),     # frozen loop-0 pseudo-labels
    "pseudo1": _Method("cluster", target_ce=True),          # re-clustered pseudo-labels, no CDD
}
METHODS = tuple(_TABLE)

_AT_LEAST_ONE = ("probe_per_class", "classes_per_batch", "per_class_source", "per_class_target",
                 "ce_batch_size", "bottleneck_dim", "kmeans_max_iters")
_NUMBER = {"int": numbers.Integral, "float": numbers.Real}


def _fits(annotation: str, value) -> bool:
    """Whether ``value`` fits a ``TrainConfig`` field annotation; bools are not numbers."""
    if annotation.startswith("tuple["):
        item = annotation.removeprefix("tuple[").removesuffix(", ...]")
        return isinstance(value, (list, tuple)) and all(_fits(item, v) for v in value)
    kind = _NUMBER.get(annotation)
    return kind is None or (isinstance(value, kind) and not isinstance(value, bool))


def _finite(value: numbers.Real) -> bool:
    """Whether ``value`` is a finite float; an int too large for a float is not."""
    try:
        return -np.inf < float(value) < np.inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one run; everything needed for exact reproduction."""

    method: str = "can"
    seed: int = 0
    loops: int = 20
    steps_per_loop: int = 50
    beta: float = 0.3
    d0: float = 0.05
    n0: int = 3
    classes_per_batch: int = 3
    per_class_source: int = 8
    per_class_target: int = 8
    ce_batch_size: int = 32
    eta0: float = 1e-3
    lr_a: float = 10.0
    lr_b: float = 0.75
    momentum: float = 0.9
    logits_lr_mult: float = 10.0
    hidden_sizes: tuple[int, ...] = (64, 64)
    bottleneck_dim: int = 16
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-6
    bandwidth_multipliers: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    probe_per_class: int = 8

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for f in dataclasses.fields(self):  # f.type is a string: annotations are postponed
            value = getattr(self, f.name)
            if not _fits(f.type, value):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not _finite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.loops < 0 or self.steps_per_loop < 1:
            raise ValueError("need loops >= 0 and steps_per_loop >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0.0 <= self.d0 <= 1.0 or self.n0 < 0:
            raise ValueError("need d0 in [0, 1] and n0 >= 0")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(
            self, "bandwidth_multipliers", tuple(float(m) for m in self.bandwidth_multipliers)
        )
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must all be >= 1")
        for name in ("eta0", "lr_a", "lr_b", "logits_lr_mult"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        try:  # the last step's denominator is the largest any step reaches
            eta_last = self.eta0 / (1.0 + self.lr_a) ** self.lr_b
        except OverflowError:
            eta_last = 0.0
        if not 0.0 < eta_last < np.inf:
            raise ValueError(f"lr_a={self.lr_a!r} and lr_b={self.lr_b!r} decay eta0={self.eta0!r} "
                             "to a rate that is not positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.kmeans_tol >= 0.0:
            raise ValueError("kmeans_tol must be >= 0")
        m = self.bandwidth_multipliers
        if not m or not all(0.0 < v < np.inf for v in m):
            raise ValueError("bandwidth_multipliers must be nonempty, positive and finite")

    @property
    def total_steps(self) -> int:
        return self.loops * self.steps_per_loop

    def eta_at(self, step: int) -> float:
        """The base rate of ``step``: eta0 / (1 + lr_a * p) ** lr_b with p = step / total_steps."""
        if not 0 <= step < self.total_steps:
            raise ValueError(f"step {step} outside schedule of {self.total_steps} steps")
        return self.eta0 / (1.0 + self.lr_a * (step / self.total_steps)) ** self.lr_b

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)  # JSON writes the tuple fields as lists

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        return cls(**obj)


@dataclass
class LoopMetrics:
    """Per-loop record; ``record()`` is the serialized form.  It holds no
    wall time, so repeated runs emit byte-identical streams."""

    loop: int
    ce_loss: float
    cdd_estimate: float | None
    cdd_g: float | None
    target_accuracy: float | None
    clustering_accuracy: float | None
    n_kept: int
    n_kept_classes: int
    learning_rate: float

    def record(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class EvalResult:
    accuracy: float
    per_class: dict[int, float]
    mean_class_accuracy: float


@dataclass
class TrainState:
    """Everything run_loop needs; mutated in place as training advances."""

    params: ModelParams
    velocity: ModelParams
    plan: BatchPlan
    source: Dataset
    target: Dataset
    n_classes: int
    probe: CasBatch | None  # fixed, ground-truth labeled; feeds only ``cdd_g``
    step: int = 0
    loop: int = 0
    clusters: ClusterState | None = None  # the latest clustering, if the method clusters
    filtered: FilterResult | None = None  # and its ambiguity filter


@dataclass
class TrainResult:
    params: ModelParams
    metrics: list[LoopMetrics]
    summary: dict


def evaluate(params: ModelParams, dataset: Dataset) -> EvalResult:
    """Accuracy of argmax-logit predictions (ties resolve to the lowest id)."""
    if not dataset.labeled:
        raise ValueError("dataset has no ground-truth labels")
    if dataset.labels.max() >= params.n_classes:
        raise ValueError(f"dataset labels outside the model's {params.n_classes} classes")
    preds = predict(params, dataset.features)
    correct = preds == dataset.labels
    per_class: dict[int, float] = {}
    for c in range(int(dataset.labels.max()) + 1):
        mask = dataset.labels == c
        if mask.any():
            per_class[c] = float(correct[mask].mean())
    return EvalResult(
        accuracy=float(correct.mean()),
        per_class=per_class,
        mean_class_accuracy=float(np.mean(list(per_class.values()))),
    )


def predict(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Argmax-logit class ids, from the cache-free ``embed`` pass (no softmax)."""
    logits = embed(params, features) @ params.weights[-1]
    logits += params.biases[-1]
    return np.argmax(logits, axis=1)


def _build_probe(rng: np.random.Generator, source: Dataset, target: Dataset,
                 n_classes: int, per_class: int) -> CasBatch | None:
    """Every class's class-aware draw, or None unless the target labels cover every class."""
    if not target.labeled or np.bincount(target.labels, minlength=n_classes).min() == 0:
        return None
    plan = BatchPlan(cas_rng=rng, ce_rng=rng, classes_per_batch=n_classes,  # ce lane unused
                     per_class_source=per_class, per_class_target=per_class)
    return class_aware_batch(plan, source.labels, np.arange(target.n), target.labels,
                             range(n_classes))


def tapped_batch(stack_s, stack_t, source_labels, target_labels, class_set) -> LabeledBatch:
    """The discrepancy batch of two forward passes, one layer per tap."""
    return LabeledBatch(
        source_features=[stack_s.outputs[i] for i in TAPPED_LAYERS],
        target_features=[stack_t.outputs[i] for i in TAPPED_LAYERS],
        source_labels=source_labels,
        target_labels=target_labels,
        class_set=class_set,
    )


def add_cdd_grads(grads: ModelParams, params: ModelParams, specs, stack_s, stack_t,
                  batch: LabeledBatch, beta: float, intra_only: bool = False,
                  skip_missing_pairs: bool = False) -> float:
    """Add ``beta`` times the discrepancy's parameter gradient into ``grads``
    (skipped at ``beta == 0``); returns the discrepancy value."""
    value = cdd(specs, batch, intra_only, skip_missing_pairs)
    if beta > 0.0:
        for side, stack in enumerate((stack_s, stack_t)):
            taps = {i: beta * g[side] for i, g in zip(TAPPED_LAYERS, value.grads)}
            backward(params, stack, taps, out=grads)
    return value.total


def add_ce_grads(grads: ModelParams, params: ModelParams, inputs, labels) -> float:
    """Add the gradient of mean cross-entropy into ``grads``; returns the loss."""
    stack = forward(params, inputs)
    loss, logits_grad = cross_entropy(stack.outputs[-1], labels)
    backward(params, stack, {-1: logits_grad}, out=grads)
    return loss


def _forward_pair(state: TrainState, batch: CasBatch):
    """Forward passes of a batch's source and target rows, and their taps."""
    stack_s = forward(state.params, state.source.features[batch.source_indices])
    stack_t = forward(state.params, state.target.features[batch.target_indices])
    return stack_s, stack_t, tapped_batch(stack_s, stack_t, batch.source_labels,
                                          batch.target_labels, batch.classes)


def _layer_specs(config: TrainConfig, batch: LabeledBatch):
    return [
        median_kernel_spec(s, t, multipliers=config.bandwidth_multipliers)
        for s, t in zip(batch.source_features, batch.target_features)
    ]


def _cdd_g(state: TrainState, config: TrainConfig) -> float | None:
    """Diagnostic discrepancy on the fixed probe batch with true target labels.

    Read-only with respect to training: nothing computed here feeds back
    into parameters or random streams.
    """
    if state.probe is None:
        return None
    _, _, batch = _forward_pair(state, state.probe)
    specs = _layer_specs(config, batch)
    return cdd(specs, batch).total


def _cluster_target(state: TrainState, config: TrainConfig) -> None:
    """Cluster the target features from the source class centers, then filter.

    A worker thread embeds the target while this thread embeds the source.  It
    writes into an array allocated here: a worker-allocated one left its blocks
    in a second malloc arena and raised peak memory."""
    params, target = state.params, state.target
    phi_target = np.empty((target.n, params.weights[-2].shape[1]))
    failure: list[BaseException] = []
    errstate = dict(np.geterr(), call=np.geterrcall())  # a new thread starts from the defaults

    def embed_target() -> None:
        try:
            with np.errstate(**errstate):
                embed(params, target.features, out=phi_target)
        except BaseException as exc:  # re-raised on the calling thread
            failure.append(exc)

    worker = threading.Thread(target=embed_target, name="embed-target")
    worker.start()
    try:
        phi_source = embed(params, state.source.features)
        centers = source_class_centers(phi_source, state.source.labels, state.n_classes)
    finally:
        worker.join()
    if failure:
        raise failure[0]
    state.clusters = spherical_kmeans(
        phi_target, centers, max_iters=config.kmeans_max_iters, tol=config.kmeans_tol
    )
    state.filtered = filter_targets(state.clusters, d0=config.d0, n0=config.n0)


def _cdd_batch(state: TrainState, method: _Method) -> CasBatch | None:
    """Draw one step's discrepancy batch, or None when no class is usable."""
    src, tgt, plan = state.source, state.target, state.plan
    if method.labels == "argmax":
        pool, pool_labels = np.arange(tgt.n), predict(state.params, tgt.features)
        return class_aware_batch(plan, src.labels, pool, pool_labels, np.unique(pool_labels))
    assignments, kept = state.clusters.assignments, state.filtered
    if not kept.kept_classes:
        return None
    if not method.class_agnostic:
        pool = kept.kept_indices
        return class_aware_batch(plan, src.labels, pool, assignments[pool], kept.kept_classes)
    src_idx = draw(plan.cas_rng, src.n, plan.classes_per_batch * plan.per_class_source)
    tgt_idx = draw(plan.cas_rng, kept.kept_indices,
                   plan.classes_per_batch * plan.per_class_target)
    src_labels, tgt_labels = src.labels[src_idx], assignments[tgt_idx]
    classes = tuple(sorted(set(src_labels.tolist()) | set(tgt_labels.tolist())))
    return CasBatch(classes, src_idx, tgt_idx, src_labels, tgt_labels)


def run_loop(state: TrainState, config: TrainConfig) -> LoopMetrics:
    """One outer loop: refresh pseudo-labels, then K composite updates."""
    method = _TABLE[config.method]
    src, tgt = state.source, state.target

    if method.labels == "cluster" or (method.labels == "cluster-once" and state.clusters is None):
        _cluster_target(state, config)
    clusters, kept = state.clusters, state.filtered

    clustering_accuracy: float | None = None
    n_kept = n_kept_classes = 0
    if clusters is not None:
        n_kept = int(kept.kept_indices.size)
        n_kept_classes = len(kept.kept_classes)
        if tgt.labeled:
            clustering_accuracy = float(np.mean(clusters.assignments == tgt.labels))
        if n_kept_classes == 0 and method.cdd:
            log.warning(
                "loop %d: no classes pass the filter; running classification-only steps",
                state.loop,
            )
    elif method.labels == "argmax" and tgt.labeled:
        clustering_accuracy = float(np.mean(predict(state.params, tgt.features) == tgt.labels))

    cdd_g = _cdd_g(state, config)
    lr_start = config.eta_at(state.step)

    specs = None  # kernel specs, frozen at this loop's first discrepancy batch
    ce_values: list[float] = []
    cdd_values: list[float] = []
    grads = zeros_like_params(state.params)
    for _ in range(config.steps_per_loop):
        grads.flat.fill(0.0)
        batch = _cdd_batch(state, method) if method.cdd else None
        if batch is not None:
            stack_s, stack_t, taps = _forward_pair(state, batch)
            if specs is None:
                specs = _layer_specs(config, taps)
            cdd_values.append(float(add_cdd_grads(
                grads, state.params, specs, stack_s, stack_t, taps, config.beta,
                method.intra_only, method.class_agnostic)))
        elif method.target_ce and n_kept > 0:
            t_idx = draw(state.plan.cas_rng, kept.kept_indices, config.ce_batch_size)
            add_ce_grads(grads, state.params, tgt.features[t_idx], clusters.assignments[t_idx])
        ce_idx = uniform_source_batch(state.plan, src.n)
        ce_values.append(
            add_ce_grads(grads, state.params, src.features[ce_idx], src.labels[ce_idx])
        )
        sgd_step(state.params, grads, state.velocity, config, state.step)
        state.step += 1

    target_accuracy = evaluate(state.params, tgt).accuracy if tgt.labeled else None
    metrics = LoopMetrics(
        loop=state.loop,
        ce_loss=float(np.mean(ce_values)),
        cdd_estimate=float(np.mean(cdd_values)) if cdd_values else None,
        cdd_g=cdd_g,
        target_accuracy=target_accuracy,
        clustering_accuracy=clustering_accuracy,
        n_kept=n_kept,
        n_kept_classes=n_kept_classes,
        learning_rate=lr_start,
    )
    state.loop += 1
    return metrics


def _check_datasets(source: Dataset, target: Dataset) -> int:
    if source.domain != "source" or target.domain != "target":
        raise ValueError("pass datasets with domain tags 'source' and 'target'")
    if not source.labeled:
        raise ValueError("source dataset must be fully labeled")
    if source.dim != target.dim:
        raise ValueError("source and target feature widths differ")
    n_classes = source.n_classes()
    counts = np.bincount(source.labels, minlength=n_classes)
    if (counts == 0).any():
        raise ValueError("every class needs at least one source sample")
    if target.labeled and target.labels.max() >= n_classes:
        raise ValueError("target labels outside the source class range")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    return n_classes


def train(
    config: TrainConfig,
    source: Dataset,
    target: Dataset,
    init: ModelParams | None = None,
    metrics_writer=None,
) -> TrainResult:
    """Run ``config.loops`` outer loops and summarize the final model.

    Args:
        init: optional warm-start parameters (copied, never mutated).
        metrics_writer: optional callable invoked with each LoopMetrics as
            soon as its loop finishes.
    """
    n_classes = _check_datasets(source, target)
    seq_init, seq_cas, seq_ce, seq_probe = np.random.SeedSequence(config.seed).spawn(4)
    if init is not None:
        dims = [source.dim, *config.hidden_sizes, config.bottleneck_dim, n_classes]
        if [w.shape for w in init.weights] != list(zip(dims, dims[1:])):
            raise ValueError("warm-start parameters do not match the data and config")
        params = init.copy()
    else:
        params = init_params(
            np.random.default_rng(seq_init),
            in_dim=source.dim,
            hidden_sizes=config.hidden_sizes,
            bottleneck_dim=config.bottleneck_dim,
            n_classes=n_classes,
        )
    plan = BatchPlan(
        cas_rng=np.random.default_rng(seq_cas),
        ce_rng=np.random.default_rng(seq_ce),
        classes_per_batch=config.classes_per_batch,
        per_class_source=config.per_class_source,
        per_class_target=config.per_class_target,
        ce_batch_size=config.ce_batch_size,
    )
    state = TrainState(
        params=params,
        velocity=zeros_like_params(params),
        plan=plan,
        source=source,
        target=target,
        n_classes=n_classes,
        probe=_build_probe(np.random.default_rng(seq_probe), source, target, n_classes,
                           config.probe_per_class),
    )
    t0 = time.perf_counter()
    metrics: list[LoopMetrics] = []
    for _ in range(config.loops):
        m = run_loop(state, config)
        metrics.append(m)
        if metrics_writer is not None:
            metrics_writer(m)
    final_eval = evaluate(state.params, target) if target.labeled else None
    summary = {
        "method": config.method,
        "seed": config.seed,
        "loops_run": len(metrics),
        "steps_run": state.step,
        "final_target_accuracy": final_eval.accuracy if final_eval else None,
        "per_class_accuracy": (
            {str(c): v for c, v in sorted(final_eval.per_class.items())} if final_eval else None
        ),
        "mean_class_accuracy": final_eval.mean_class_accuracy if final_eval else None,
        "final_cdd_g": _cdd_g(state, config),
        "final_ce_loss": metrics[-1].ce_loss if metrics else None,
        "wall_time_s": time.perf_counter() - t0,
    }
    return TrainResult(params=state.params, metrics=metrics, summary=summary)
