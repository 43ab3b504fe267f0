"""Input data: synthetic Gaussian mixtures and IDX-format digit files."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import FeatureSet, check_domain, ge

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049


def gen_gaussian_mixture(
    num_classes: int,
    dim: int,
    per_class: int,
    mean_scale: float = 1.0,
    noise_scale: float = 1.0,
    seed=0,
) -> FeatureSet:
    """Balanced isotropic Gaussian mixture with class means on a sphere.

    Class means are drawn uniformly on the unit sphere and scaled by
    ``mean_scale``; each sample is its class mean plus
    ``noise_scale`` * N(0, I) noise.  Columns are class-contiguous, so the
    labels are the set's ``labels()``.
    """
    check_domain("mean_scale", mean_scale, ge(0))
    check_domain("noise_scale", noise_scale, ge(0))
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((dim, num_classes))
    means /= np.linalg.norm(means, axis=0, keepdims=True)
    means *= mean_scale
    features = np.repeat(means, per_class, axis=1)
    features += noise_scale * rng.standard_normal(features.shape)
    return FeatureSet(features, num_classes, per_class)


def _read_idx(path: Path, expected_magic: int, rank: int) -> np.ndarray:
    """The uint8 body of an IDX file, mapped read-only rather than read, so
    that a caller pays in memory only for the items it copies out."""
    header = 4 * (1 + rank)
    with path.open("rb") as fh:
        head = fh.read(header)
    if len(head) < header:
        raise ValueError(f"{path}: truncated IDX header")
    fields = struct.unpack(f">{1 + rank}i", head)
    if fields[0] != expected_magic:
        raise ValueError(
            f"{path}: bad IDX magic {fields[0]}, expected {expected_magic}"
        )
    shape = fields[1:]
    count = int(np.prod(shape))
    size = path.stat().st_size
    if size != header + count:
        raise ValueError(
            f"{path}: expected {header + count} bytes for shape {shape}, got {size}"
        )
    return np.memmap(path, dtype=np.uint8, mode="r", offset=header, shape=shape)


def load_mnist_idx(images_path, labels_path, per_class: int) -> FeatureSet:
    """Balanced subset of an IDX image/label file pair.

    Takes the first ``per_class`` samples of every class in label order,
    flattens images to columns, and scales pixels to [0, 1].  The label
    values must cover 0..K-1 for some K >= 2; class k's samples are the
    set's class k, so its labels are the set's ``labels()``.

    Raises:
        ValueError: on bad magic numbers, truncated files, mismatched image
            and label counts, or classes with fewer than ``per_class``
            samples.
    """
    check_domain("per_class", per_class, ge(1))
    images = _read_idx(Path(images_path), IDX_IMAGE_MAGIC, rank=3)
    labels = _read_idx(Path(labels_path), IDX_LABEL_MAGIC, rank=1)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}"
        )
    classes = np.unique(labels)
    num_classes = len(classes)
    if num_classes < 2 or not np.array_equal(classes, np.arange(num_classes)):
        raise ValueError(f"labels must cover 0..K-1 for K >= 2, got {classes}")

    picks = []
    for k in range(num_classes):
        idx = np.flatnonzero(labels == k)
        if len(idx) < per_class:
            raise ValueError(
                f"class {k} has {len(idx)} samples, need {per_class}"
            )
        picks.append(idx[:per_class])
    # scale only the picked images, straight into the matrix the set adopts
    picked = images.reshape(images.shape[0], -1)[np.concatenate(picks)]
    features = picked.T.astype(np.float64, order="C")
    features /= 255.0
    features.setflags(write=False)
    return FeatureSet(features, num_classes, per_class)
