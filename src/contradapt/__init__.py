"""contradapt: class-aware unsupervised domain adaptation at desk scale.

The package trains a small MLP on a labeled source domain while aligning an
unlabeled target domain through a class-conditional, contrastive kernel
discrepancy.  Target pseudo-labels come from spherical k-means seeded with
source class centers, ambiguous samples are filtered out, and mini-batches
are drawn class-aware so the discrepancy stays estimable.

The top level holds only ``__version__``; import each name from the module
that defines it: ``kernels`` (Gaussian-mixture kernels and bandwidths),
``discrepancy`` (MMD and the contrastive domain discrepancy), ``model`` (the
MLP, backprop, SGD and checkpoints), ``clustering`` (spherical k-means and the
ambiguity filter), ``sampling`` (class-aware batches), ``trainer``
(``TrainConfig``, ``train``, ``evaluate``), ``data`` (synthetic domains and
CSV I/O), ``gradcheck`` (finite-difference checks) and ``cli``.
"""

__version__ = "0.1.0"
