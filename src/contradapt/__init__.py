"""contradapt: class-aware unsupervised domain adaptation at desk scale.

The package trains a small MLP on a labeled source domain while aligning an
unlabeled target domain through a class-conditional, contrastive kernel
discrepancy.  Target pseudo-labels come from spherical k-means seeded with
source class centers, ambiguous samples are filtered out, and mini-batches
are drawn class-aware so the discrepancy stays estimable.
"""

from .clustering import (
    ClusterState,
    FilterResult,
    filter_targets,
    source_class_centers,
    spherical_kmeans,
)
from .data import (
    BlobShift,
    Dataset,
    gen_blobs,
    gen_moons,
    load_csv,
    save_csv,
)
from .discrepancy import (
    CddValue,
    LabeledBatch,
    cdd,
    cdd_grad,
    mmd_squared,
)
from .kernels import (
    KernelSpec,
    kernel_matrix,
    median_heuristic,
    median_kernel_spec,
    squared_distances,
    uniform_spec,
)
from .model import (
    FeatureStack,
    LrSchedule,
    ModelParams,
    backward,
    cross_entropy,
    cross_entropy_grad,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    zeros_like_params,
)
from .sampling import BatchPlan, CasBatch, class_aware_batch, uniform_source_batch
from .trainer import (
    METHODS,
    EvalResult,
    LoopMetrics,
    TrainConfig,
    TrainResult,
    evaluate,
    run_loop,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BatchPlan",
    "BlobShift",
    "CasBatch",
    "CddValue",
    "ClusterState",
    "Dataset",
    "EvalResult",
    "FeatureStack",
    "FilterResult",
    "KernelSpec",
    "LabeledBatch",
    "LoopMetrics",
    "LrSchedule",
    "METHODS",
    "ModelParams",
    "TrainConfig",
    "TrainResult",
    "backward",
    "cdd",
    "cdd_grad",
    "class_aware_batch",
    "cross_entropy",
    "cross_entropy_grad",
    "evaluate",
    "filter_targets",
    "forward",
    "gen_blobs",
    "gen_moons",
    "init_params",
    "kernel_matrix",
    "load_checkpoint",
    "load_csv",
    "median_heuristic",
    "median_kernel_spec",
    "mmd_squared",
    "run_loop",
    "save_checkpoint",
    "save_csv",
    "sgd_step",
    "source_class_centers",
    "spherical_kmeans",
    "squared_distances",
    "train",
    "uniform_source_batch",
    "uniform_spec",
    "zeros_like_params",
    "__version__",
]
