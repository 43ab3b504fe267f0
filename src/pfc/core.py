"""Feature containers and first/second-moment statistics for balanced datasets.

Everything downstream (collapse metrics, interpolation, surrogate solvers,
the toy ResNet) works on ``FeatureSet``: a dense d x (K*n) matrix whose
columns are feature vectors, stored class-contiguously so that columns
[k*n, (k+1)*n) belong to class k.  Only traces of the within/between-class
covariances are ever computed; the full d x d matrices are never formed.
:func:`check_domain` checks a parameter against its bounds, for the
library and the CLI alike.

Scale rule.  The collapse metrics are ratios and argmins of sums of
squares, so scaling features by a power of two leaves them unchanged, and
in the normal float64 range that scaling is exact: it moves exponents and
keeps every significand bit.  :func:`_to_window` passes arrays whose
largest magnitude lies in the safe window [2^-200, 2^200] uncopied and
shifts others by one power of two into [0.5, 1); in the window no square,
Gram-norm fourth power or sum of them overflows or goes subnormal.  What
gets squared is windowed: feature sets, paths (one exponent for both ends)
and pairs of consecutive layers are shifted first, then what is formed
from them by differences: a set's or a path's class offsets and centered
means (one exponent for all), the centered means a Gram is formed from,
and each displacement between consecutive layers.  So structure far below
a common offset (a constant coordinate, say) squares as it would
rescaled.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np


def _window_exponent(*arrays: np.ndarray) -> int:
    """The power of two that shifts the arrays into the safe window of the
    scale rule (module docstring): 0 inside it, or if all are zero."""
    # max and -min instead of abs, which would copy the arrays
    top = max(max(a.max(initial=0.0), -a.min(initial=0.0)) for a in arrays)
    if top == 0.0 or 2.0**-200 <= top <= 2.0**200:
        return 0
    return int(np.frexp(top)[1])


def _to_window(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays shifted by one power of two into the safe window of the
    scale rule (module docstring); inside it, or all zero, as they are."""
    exponent = _window_exponent(*arrays)
    return tuple(np.ldexp(a, -exponent) for a in arrays) if exponent else arrays


class Domain(NamedTuple):
    """Where a parameter's values lie: a number, or each item of a list or
    tuple, is ``>= low``, or ``> low`` when ``open``; ``low=None`` bounds no
    value.  A list or tuple holds at least ``min_len`` items."""

    low: float | None
    open: bool = False
    min_len: int = 1


UNBOUNDED = Domain(None, min_len=0)
ge = Domain  # values >= low
gt = partial(Domain, open=True)  # values > low


def check_domain(name: str, value, domain: Domain) -> None:
    """Raise ValueError naming the parameter and its value if ``value``
    lies outside ``domain``; NaN lies outside every bound."""
    items = value if isinstance(value, (list, tuple)) else [value]
    if len(items) < domain.min_len:
        raise ValueError(f"{name} must not be empty" if domain.min_len == 1 else
                         f"{name} must hold at least {domain.min_len} items, got {value}")
    low = domain.low
    if low is not None and not all(v > low if domain.open else v >= low for v in items):
        raise ValueError(f"{name} must be {'>' if domain.open else '>='} {low}, got {value}")


def param(default, domain: Domain = UNBOUNDED):
    """A dataclass field with its default and, as ``metadata["domain"]``, its domain."""
    return field(default=default, metadata={"domain": domain})


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


def _adoptable(arr: np.ndarray) -> bool:
    """Whether a feature set may hold ``arr`` uncopied: no array can write
    its memory (it is read-only, and so is the array it views, if any), and
    it is laid out in C order, as a copy would be."""
    base = arr.base
    return arr.flags.c_contiguous and not arr.flags.writeable and (
        base is None or isinstance(base, np.ndarray) and not base.flags.writeable
    )


@dataclass(frozen=True)
class FeatureSet:
    """One layer's features for a balanced K-class dataset.

    A set's features never change under it, and are stored in C order.  A
    C-ordered float64 input that is read-only and owns its memory, or views
    a read-only array that does, is adopted as it is; any other input is
    copied, and the copy made read-only.  So a caller that freezes a buffer
    it will not write again (``arr.setflags(write=False)``) hands it over
    without a copy, and must not make it writable again.

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
        arr = _as_matrix(self.features)
        if not _adoptable(arr):
            arr = arr.copy()
        check_domain("num_classes", self.num_classes, ge(2))
        check_domain("per_class", self.per_class, ge(1))
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


def check_layer_shapes(shapes: list[tuple[int, int, int]]) -> None:
    """Raise ValueError naming the first layer whose (K, n, d) differs from layer 0's."""
    for i, (k, n, d) in enumerate(shapes):
        if (k, n, d) != shapes[0]:
            k0, n0, d0 = shapes[0]
            raise ValueError(
                f"layer {i} has shape (K={k}, n={n}, d={d}), expected (K={k0}, n={n0}, d={d0})"
            )


def class_stats(fs: FeatureSet) -> ClassStats:
    """Class means, global mean and covariance traces of a feature set.

    tr_within = mean over all samples of ||h_{k,i} - h_k||^2,
    tr_between = mean over classes of ||h_k - h_G||^2.
    """
    k, n = fs.num_classes, fs.per_class
    blocks = fs.features.reshape(fs.dim, k, n)
    class_means = blocks.mean(axis=2)
    global_mean = class_means.mean(axis=1)
    tr_within = float(np.sum((blocks - class_means[:, :, None]) ** 2) / (k * n))
    tr_between = float(np.sum((class_means - global_mean[:, None]) ** 2) / k)
    return ClassStats(
        class_means=class_means,
        global_mean=global_mean,
        tr_within=tr_within,
        tr_between=tr_between,
    )


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


# each header field: its letter, the name it has elsewhere, and its least value
_HEADER_FIELDS = (("K", "num_classes", 2), ("n", "per_class", 1), ("d", "dim", 1))


def read_header(f) -> tuple[int, int, int]:
    """K, n and d from the header line of a layer file open at its start,
    each checked against its least value (K >= 2, n >= 1, d >= 1); the file
    is left at its first body row."""
    header = f.readline().split()
    try:
        k, n, d = values = tuple(int(x) for x in header)
    except ValueError:
        raise ValueError(f"{f.name}: expected an integer header 'K n d', got {header!r}") from None
    for (letter, name, low), value in zip(_HEADER_FIELDS, values):
        if value < low:
            raise ValueError(
                f"{f.name}: header field {letter}: {name} must be >= {low}, got {value}"
            )
    return k, n, d


def load_featureset(path) -> FeatureSet:
    """Read a feature set written by :func:`save_featureset`; a ValueError names the file."""
    with open(path) as f:
        k, n, d = read_header(f)
        try:
            with warnings.catch_warnings():
                # a body with no rows fails the shape check below instead
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(f, dtype=np.float64, ndmin=2)
            # nothing else holds the parsed array, so the set adopts it uncopied
            data.setflags(write=False)
            if data.shape != (d, k * n):
                got = f"{data.shape[0]} x {data.shape[1]}" if data.size else "none"
                raise ValueError(f"expected {d} x {k * n} values, got {got}")
            return FeatureSet(features=data, num_classes=k, per_class=n)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
