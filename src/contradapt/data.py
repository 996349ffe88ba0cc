"""Synthetic domain-shift datasets and their CSV serialization.

Two generators: Gaussian blobs whose class means sit on a circle in the
first two feature dimensions (the target applies a rotation/translation/
scaling to the means and resamples), and the classic interleaved two-moons
pair where the target cloud is a rotated resample.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

DOMAINS = ("source", "target")
UNLABELED = -1
# rows converted to Python floats per ``save_csv`` chunk: bounds its memory, not its output
_WRITE_CHUNK_ROWS = 4096


def int_labels(labels) -> np.ndarray:
    """``labels`` as an int array, refusing values that are not whole numbers
    or do not fit int64 (``np.asarray(labels, dtype=int)`` would truncate
    them or overflow)."""
    y = np.asarray(labels)
    if y.dtype.kind in "bi":
        return y.astype(int, copy=False)
    f = y.astype(float)
    whole = (np.floor(f) == f) & (f >= -(2.0**63)) & (f < 2.0**63)
    if not whole.all():
        raise ValueError(f"labels {y[~whole][:5].tolist()} are not whole numbers within int64")
    return f.astype(int)


@dataclass
class Dataset:
    """Feature matrix plus integer labels for a single domain.

    ``labels`` may contain -1 for unlabeled target rows.  ``meta`` carries
    generator provenance when the dataset came from a generator; it is not
    serialized to CSV.
    """

    features: np.ndarray
    labels: np.ndarray
    domain: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.labels = int_labels(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (n, d) array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("one label per row required")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.min() < UNLABELED:
            raise ValueError("labels must be >= -1")
        if self.domain not in DOMAINS:
            raise ValueError(f"domain must be one of {DOMAINS}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def labeled(self) -> bool:
        return bool((self.labels >= 0).all())

    def n_classes(self) -> int:
        if not self.labeled:
            raise ValueError("dataset has unlabeled rows")
        return int(self.labels.max()) + 1

    def without_labels(self) -> "Dataset":
        return Dataset(
            features=self.features.copy(),
            labels=np.full(self.n, UNLABELED, dtype=int),
            domain=self.domain,
            meta=dict(self.meta),
        )


@dataclass(frozen=True)
class BlobShift:
    """Rigid transform applied to the blob means, plus the shared noise scale."""

    rotation_deg: float = 0.0
    translation: float = 0.0
    scale: float = 1.0
    noise_sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.noise_sigma < 0 or self.scale <= 0:
            raise ValueError("noise_sigma must be >= 0 and scale > 0")


def _rotate_first_two(x: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate rows in the plane of the first two coordinates."""
    theta = math.radians(angle_deg)
    out = x.copy()
    c, s = math.cos(theta), math.sin(theta)
    out[:, 0] = c * x[:, 0] - s * x[:, 1]
    out[:, 1] = s * x[:, 0] + c * x[:, 1]
    return out


def gen_blobs(
    seed: int,
    n_classes: int,
    per_class: int,
    dim: int,
    shift: BlobShift = BlobShift(),
    separation: float = 4.0,
) -> tuple[Dataset, Dataset]:
    """Balanced Gaussian blobs with a rigid mean shift between domains.

    Class means are spread evenly on a circle of radius ``separation`` in the
    first two dimensions, at a seeded random angular offset, so classes stay
    distinguishable for any class count.  The target resamples fresh noise
    around the transformed means.
    """
    if n_classes < 2 or dim < 2 or per_class < 1:
        raise ValueError("need n_classes >= 2, dim >= 2, per_class >= 1")
    rng = np.random.default_rng(seed)
    offset = rng.uniform(0.0, 2.0 * math.pi)
    angles = offset + 2.0 * math.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, dim))
    means[:, 0] = separation * np.cos(angles)
    means[:, 1] = separation * np.sin(angles)
    direction = rng.normal(size=dim)
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 0 else np.eye(dim)[0]
    target_means = shift.scale * _rotate_first_two(means, shift.rotation_deg)
    target_means = target_means + shift.translation * direction

    def _sample(centers, noise_rng):
        feats = np.vstack(
            [centers[c] + shift.noise_sigma * noise_rng.normal(size=(per_class, dim))
             for c in range(n_classes)]
        )
        labels = np.repeat(np.arange(n_classes), per_class)
        return feats, labels

    src_feats, src_labels = _sample(means, rng)
    tgt_feats, tgt_labels = _sample(target_means, rng)
    meta = {
        "generator": "blobs",
        "seed": int(seed),
        "n_classes": int(n_classes),
        "per_class": int(per_class),
        "dim": int(dim),
        "rotation_deg": float(shift.rotation_deg),
        "translation": float(shift.translation),
        "scale": float(shift.scale),
        "noise_sigma": float(shift.noise_sigma),
        "separation": float(separation),
    }
    return (
        Dataset(src_feats, src_labels, "source", dict(meta)),
        Dataset(tgt_feats, tgt_labels, "target", dict(meta)),
    )


MOONS_CENTER = (0.5, 0.25)


def gen_moons(
    seed: int,
    per_class: int,
    rotation_deg: float = 30.0,
    noise_sigma: float = 0.05,
) -> tuple[Dataset, Dataset]:
    """Two interleaved half-circles; the target is a rotated fresh sample.

    The rotation is applied about the nominal figure center (0.5, 0.25) so
    the clouds keep overlapping while the decision boundary moves.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)

    def _clean(n_rng):
        t0 = n_rng.uniform(0.0, math.pi, size=per_class)
        t1 = n_rng.uniform(0.0, math.pi, size=per_class)
        upper = np.column_stack([np.cos(t0), np.sin(t0)])
        lower = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
        pts = np.vstack([upper, lower])
        labels = np.repeat(np.arange(2), per_class)
        return pts, labels

    src_pts, src_labels = _clean(rng)
    src_feats = src_pts + noise_sigma * rng.normal(size=src_pts.shape)
    tgt_pts, tgt_labels = _clean(rng)
    center = np.asarray(MOONS_CENTER)
    tgt_pts = _rotate_first_two(tgt_pts - center, rotation_deg) + center
    tgt_feats = tgt_pts + noise_sigma * rng.normal(size=tgt_pts.shape)
    meta = {
        "generator": "moons",
        "seed": int(seed),
        "per_class": int(per_class),
        "rotation_deg": float(rotation_deg),
        "noise_sigma": float(noise_sigma),
    }
    return (
        Dataset(src_feats, src_labels, "source", dict(meta)),
        Dataset(tgt_feats, tgt_labels, "target", dict(meta)),
    )


def _header(dim: int) -> list[str]:
    return [f"feature_{i}" for i in range(dim)] + ["label", "domain"]


def save_csv(dataset: Dataset, path, unlabeled_path=None) -> None:
    """Write ``feature_0..feature_{d-1},label,domain`` rows; floats keep 17
    significant digits (``%.17g``) so a round trip is exact.

    With ``unlabeled_path``, the same rows with label -1 also go to that file:
    its bytes are those ``save_csv(dataset.without_labels(), unlabeled_path)``
    writes, but each row's feature text is formatted once for both files.

    Features become Python floats ``_WRITE_CHUNK_ROWS`` rows at a time and
    each row is written as soon as it is formatted, so neither file's text is
    ever held in memory.
    """
    features = ",".join(["%.17g"] * dataset.dim)
    row = "%s,%d," + dataset.domain + "\n"
    unlabeled_end = f",{UNLABELED},{dataset.domain}\n"
    header = ",".join(_header(dataset.dim)) + "\n"
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(path, "w", newline="", encoding="ascii"))
        twin = None if unlabeled_path is None else stack.enter_context(
            open(unlabeled_path, "w", newline="", encoding="ascii"))
        fh.write(header)
        if twin is not None:
            twin.write(header)
        for lo in range(0, dataset.n, _WRITE_CHUNK_ROWS):
            hi = lo + _WRITE_CHUNK_ROWS
            texts = map(features.__mod__, map(tuple, dataset.features[lo:hi].tolist()))
            for text, label in zip(texts, dataset.labels[lo:hi].tolist()):
                fh.write(row % (text, label))
                if twin is not None:
                    twin.write(text + unlabeled_end)


def load_csv(path) -> Dataset:
    """Parse a dataset CSV, reporting the offending line number on bad input.

    A file in the form ``save_csv`` writes is parsed in one ``np.loadtxt``
    call; any other file goes through the line-by-line parser, which accepts
    what ``csv`` accepts and names the first bad line.
    """
    with open(path, "r", newline="", encoding="ascii") as fh:
        parsed = _parse_plain(fh)
        if parsed is None:
            fh.seek(0)
            parsed = _parse_rows(fh, path)
    features, labels, domain = parsed
    return Dataset(features, labels, domain)


def _counted_plain_lines(fh, count: list):
    """Yield the lines of ``fh``, counting them in ``count[0]``.

    Raise on a CR (plain files are LF-only), a NUL (the ``U7`` domain field
    drops trailing NULs) and the separators ``\\x1c``-``\\x1f`` (``np.loadtxt``
    strips them around numbers; ``float`` and ``int`` refuse them).
    """
    for count[0], line in enumerate(fh, start=1):
        if ("\r" in line or "\0" in line or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line):
            raise ValueError("not a plain line")
        yield line


def _parse_plain(fh):
    """``(features, labels, domain)`` of a file with the exact header, one row
    per line, LF line ends, unquoted fields and one domain; ``None`` for
    anything else, including input the line-by-line parser would reject."""
    count = [0]
    try:
        first = fh.readline()
        dim = first.count(",") - 1
        if dim < 1 or first != ",".join(_header(dim)) + "\n":
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = np.loadtxt(
                _counted_plain_lines(fh, count), delimiter=",", comments=None, ndmin=1,
                # wider than any domain name, so a longer field cannot be cut to one
                dtype=[("x", float, (dim,)), ("y", int), ("d", "U7")],
            )
    except (ValueError, Warning):  # a parse error, or numpy warning of odd input
        return None
    domains = body["d"]
    if (len(body) != count[0] or len(body) == 0 or domains[0] not in DOMAINS
            or (domains != domains[0]).any() or (body["y"] < UNLABELED).any()
            or not np.isfinite(body["x"]).all()):
        return None
    return np.ascontiguousarray(body["x"]), np.ascontiguousarray(body["y"]), str(domains[0])


def _parse_rows(fh, path):
    """``(features, labels, domain)`` read one ``csv`` row at a time, with the
    line number of the first bad row in every error."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    dim = len(header) - 2
    if dim < 1 or header != _header(dim):
        raise ValueError(f"{path}: line 1: unrecognized header")
    feats: list[list[float]] = []
    labels: list[int] = []
    domain: str | None = None
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != dim + 2:
            raise ValueError(f"{path}: line {line_no}: expected {dim + 2} columns, got {len(row)}")
        try:
            feats.append([float(v) for v in row[:dim]])
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: bad feature value") from None
        if not all(map(math.isfinite, feats[-1])):
            raise ValueError(f"{path}: line {line_no}: non-finite feature value")
        try:
            label = int(row[dim])
            np.int64(label)  # OverflowError outside int64
        except (ValueError, OverflowError):
            raise ValueError(f"{path}: line {line_no}: bad label") from None
        if label < UNLABELED:
            raise ValueError(f"{path}: line {line_no}: label below -1")
        labels.append(label)
        if row[dim + 1] not in DOMAINS:
            raise ValueError(f"{path}: line {line_no}: bad domain {row[dim + 1]!r}")
        if domain is None:
            domain = row[dim + 1]
        elif row[dim + 1] != domain:
            raise ValueError(f"{path}: line {line_no}: mixed domains in one file")
    if domain is None:
        raise ValueError(f"{path}: no samples")
    return np.asarray(feats), np.asarray(labels, dtype=int), domain
