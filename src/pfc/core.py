"""Feature containers and first/second-moment statistics for balanced datasets.

Everything downstream (collapse metrics, interpolation, surrogate solvers,
the toy ResNet) works on ``FeatureSet``: a dense d x (K*n) matrix whose
columns are feature vectors, stored class-contiguously so that columns
[k*n, (k+1)*n) belong to class k.  Only traces of the within/between-class
covariances are ever computed; the full d x d matrices are never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateInputError(ValueError):
    """A statistic is undefined for this input (zero denominator, zero path length)."""


class DivergenceError(RuntimeError):
    """An iterative solve produced non-finite values."""


def _as_matrix(features) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise ValueError(f"features must be a 2-d matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class FeatureSet:
    """One layer's features for a balanced K-class dataset.

    Attributes:
        features: float64 matrix of shape (dim, num_classes * per_class);
            column k * per_class + i is sample i of class k.
        num_classes: number of classes K (>= 2).
        per_class: samples per class n (>= 1).
    """

    features: np.ndarray
    num_classes: int
    per_class: int

    def __post_init__(self):
        arr = _as_matrix(self.features).copy()
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.per_class < 1:
            raise ValueError(f"per_class must be >= 1, got {self.per_class}")
        expected = self.num_classes * self.per_class
        if arr.shape[1] != expected:
            raise ValueError(
                f"expected {expected} columns (K={self.num_classes} x n={self.per_class}), "
                f"got {arr.shape[1]}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("features contain NaN or Inf")
        arr.setflags(write=False)
        object.__setattr__(self, "features", arr)

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def num_samples(self) -> int:
        return self.features.shape[1]

    def class_block(self, k: int) -> np.ndarray:
        """Columns of class k."""
        if not 0 <= k < self.num_classes:
            raise IndexError(f"class index {k} out of range [0, {self.num_classes})")
        n = self.per_class
        return self.features[:, k * n : (k + 1) * n]

    def labels(self) -> np.ndarray:
        """Class index of each column."""
        return np.repeat(np.arange(self.num_classes), self.per_class)


@dataclass(frozen=True)
class ClassStats:
    """Per-class means plus covariance traces of one feature set.

    ``tr_within`` is the trace of the within-class covariance
    (mean squared distance of samples to their class mean); ``tr_between``
    is the trace of the between-class covariance (mean squared distance
    of class means to the global mean).
    """

    class_means: np.ndarray
    global_mean: np.ndarray
    tr_within: float
    tr_between: float


@dataclass(frozen=True)
class LayerStack:
    """Ordered per-layer feature sets of one network at one training epoch.

    Index 0 holds the input features of the first residual block ("layer 0");
    the last index holds the last-layer features.  All layers must share
    K, n and d.
    """

    layers: tuple[FeatureSet, ...]
    epoch: int | None = None

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("LayerStack needs at least one layer")
        k, n, d = layers[0].num_classes, layers[0].per_class, layers[0].dim
        for i, fs in enumerate(layers):
            if (fs.num_classes, fs.per_class, fs.dim) != (k, n, d):
                raise ValueError(
                    f"layer {i} has shape (K={fs.num_classes}, n={fs.per_class}, d={fs.dim}), "
                    f"expected (K={k}, n={n}, d={d})"
                )
        object.__setattr__(self, "layers", layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> FeatureSet:
        return self.layers[i]


def class_stats(fs: FeatureSet) -> ClassStats:
    """Class means, global mean and covariance traces of a feature set.

    tr_within = mean over all samples of ||h_{k,i} - h_k||^2,
    tr_between = mean over classes of ||h_k - h_G||^2.
    """
    k, n = fs.num_classes, fs.per_class
    blocks = fs.features.reshape(fs.dim, k, n)
    class_means, global_mean = _class_means(fs)
    tr_within = float(np.sum((blocks - class_means[:, :, None]) ** 2) / (k * n))
    tr_between = float(np.sum((class_means - global_mean[:, None]) ** 2) / k)
    return ClassStats(
        class_means=class_means,
        global_mean=global_mean,
        tr_within=tr_within,
        tr_between=tr_between,
    )


def _class_means(fs: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """The d x K class means and the d-vector global mean."""
    class_means = fs.features.reshape(fs.dim, fs.num_classes, fs.per_class).mean(axis=2)
    return class_means, class_means.mean(axis=1)


def centered_class_mean_matrix(fs: FeatureSet) -> np.ndarray:
    """d x K matrix whose column k is h_k - h_G (no variance traces are
    computed, so features whose squares overflow still give their means)."""
    class_means, global_mean = _class_means(fs)
    return class_means - global_mean[:, None]


def save_featureset(path, fs: FeatureSet) -> None:
    """Write a feature set as text: header line ``K n d``, then d rows of K*n values.

    Values are printed with 17 significant digits so the round trip is
    bit-exact for float64.
    """
    row_format = " ".join(["%.17g"] * fs.num_samples) + "\n"
    with open(path, "w") as f:
        f.write(f"{fs.num_classes} {fs.per_class} {fs.dim}\n")
        # one row of Python floats at a time: a whole-matrix tolist() would
        # hold every value as a boxed float at once
        for row in fs.features:
            f.write(row_format % tuple(row.tolist()))


def load_featureset(path) -> FeatureSet:
    """Read a feature set written by :func:`save_featureset`."""
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: expected header 'K n d', got {header!r}")
        k, n, d = (int(x) for x in header)
        data = np.loadtxt(f, dtype=np.float64, ndmin=2)
    if data.shape != (d, k * n):
        raise ValueError(
            f"{path}: expected {d} x {k * n} values, got {data.shape[0]} x {data.shape[1]}"
        )
    return FeatureSet(features=data, num_classes=k, per_class=n)
