"""Feature containers and first/second-moment statistics for balanced datasets.

Everything downstream (collapse metrics, interpolation, surrogate solvers,
the toy ResNet) works on ``FeatureSet``: a dense d x (K*n) matrix whose
columns are feature vectors, stored class-contiguously so that columns
[k*n, (k+1)*n) belong to class k.  Only traces of the within/between-class
covariances are ever computed; the full d x d matrices are never formed.
:func:`param` declares each knob of a run, its default and its domain
(bounds, or a fixed set), and :func:`typed_param` types a value for it and
checks it (:func:`check_domain`), for the library and the CLI alike.
``COUNTS`` declares the counts K >= 2, n >= 1 and d >= 1; a frame's d is
also >= K (:func:`check_frame`), so a frame dimension takes K's domain.

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

import io
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import Field, dataclass, field, fields
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


def _aligned(*shape: int) -> np.ndarray:
    """An uninitialised C-ordered float64 array of ``shape`` whose first
    element sits on a 64-byte boundary: a slice of one 8 doubles longer."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size].reshape(shape)


def _aligned_like(a: np.ndarray) -> np.ndarray:
    """An uninitialised float64 array of ``a``'s shape and memory order (its
    axes from the largest stride to the smallest, as ``np.empty_like`` lays
    them out), whose first element sits on a 64-byte boundary."""
    axes = sorted(range(a.ndim), key=lambda i: -abs(a.strides[i]))
    inverse = [axes.index(i) for i in range(a.ndim)]
    return _aligned(*(a.shape[i] for i in axes)).transpose(inverse)


class Domain(NamedTuple):
    """Where a parameter's values lie: a number, or each item of a list or
    tuple, is ``>= low``, or ``> low`` when ``open``; ``low=None`` bounds no
    value.  A list or tuple holds at least ``min_len`` items.  A non-empty
    ``choices`` admits only its own values (a str knob's, say)."""

    low: float | None
    open: bool = False
    min_len: int = 1
    choices: tuple = ()


UNBOUNDED = Domain(None, min_len=0)
ge = Domain  # values >= low
gt = partial(Domain, open=True)  # values > low


def check_domain(name: str, value, domain: Domain) -> None:
    """Raise ValueError naming the parameter and its value if ``value``
    lies outside ``domain``; NaN and +-inf lie outside every bound."""
    if domain.choices and value not in domain.choices:
        raise ValueError(f"{name} must be one of {domain.choices}, got {value!r}")
    items = value if isinstance(value, (list, tuple)) else [value]
    if len(items) < domain.min_len:
        raise ValueError(f"{name} must not be empty" if domain.min_len == 1 else
                         f"{name} must hold at least {domain.min_len} items, got {value}")
    low = domain.low
    if low is not None and not all((v > low if domain.open else v >= low) and v < np.inf
                                   for v in items):
        raise ValueError(f"{name} must be {'>' if domain.open else '>='} {low}, got {value}")


def param(default, domain: Domain | Field = UNBOUNDED):
    """A knob: a dataclass field with its default, whose type is the knob's
    type, and, as ``metadata["domain"]``, its domain, or the knob ``domain``'s."""
    if isinstance(domain, Field):
        domain = domain.metadata["domain"]
    return field(default=default, metadata={"domain": domain})


# the counts K, n and d, wherever they are read, in the order of FeatureSet.shape
COUNTS = {"num_classes": param(2, ge(2)), "per_class": param(1, ge(1)), "dim": param(1, ge(1))}
NUM_CLASSES, PER_CLASS, DIM = COUNTS.values()
# a network's or a chain's depth L: resnet's num_blocks, and surrogate's for
# collapse_multilayer and minimize_transport_chain
DEPTH = param(1, ge(1))


def typed_param(name: str, value, spec):
    """``value`` as the type of the :func:`param` ``spec``'s default, inside
    its domain.

    An int takes an int or an integral float, a float takes an int or a
    finite float, a bool only a bool and a str only a str.  A list or tuple
    takes a list or a tuple, returned as the default's container, its items
    typed from the default's first item (str when the default is empty).

    Raises:
        ValueError: naming the parameter, for any other value; naming the
            parameter and its value, for a value outside the domain.
    """
    typed = _typed(name, value, spec.default)
    check_domain(name, typed, spec.metadata["domain"])
    return typed


def _typed(name: str, value, default):
    number = isinstance(value, (int, np.integer, float)) and not isinstance(value, bool)
    if isinstance(default, (list, tuple)):
        if isinstance(value, (list, tuple)):
            item = default[0] if default else ""
            return type(default)(_typed(name, v, item) for v in value)
    elif isinstance(default, (bool, str)):
        if isinstance(value, type(default)):
            return value
    elif isinstance(default, int):
        if number and (not isinstance(value, float) or value.is_integer()):
            return int(value)
    elif number:
        if not np.isfinite(value):
            raise ValueError(f"parameter {name!r} must be finite, got {value!r}")
        return float(value)
    raise ValueError(
        f"parameter {name!r} must be of type {type(default).__name__}, got {value!r}"
    )


def typed_counts(num_classes, per_class, dim) -> tuple[int, int, int]:
    """K, n and d, each typed and bounded as its ``COUNTS`` spec."""
    return tuple(typed_param(name, value, spec)
                 for (name, spec), value in zip(COUNTS.items(), (num_classes, per_class, dim)))


def check_frame(name: str, dim: int, num_classes: int, classes: str = "num_classes") -> None:
    """Raise ValueError naming the knob ``name`` if its ``dim`` is below the
    class count of the knob ``classes``: a K-class frame needs d >= K."""
    if dim < num_classes:
        raise ValueError(f"{name} must be >= {classes}, got {name}={dim} < K={num_classes}")


def check_fields(obj) -> None:
    """Type each :func:`param` field of the dataclass ``obj`` and check it
    against its domain (:func:`typed_param`), keeping the typed value."""
    for f in fields(obj):
        if "domain" in f.metadata:
            object.__setattr__(obj, f.name, typed_param(f.name, getattr(obj, f.name), f))


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
        features: float64 matrix of shape (dim, num_classes * per_class),
            dim >= 1 (``DIM``); column k * per_class + i is sample i of class k.
        num_classes: number of classes K, an int >= 2 (``NUM_CLASSES``).
        per_class: samples per class n, an int >= 1 (``PER_CLASS``).
    """

    features: np.ndarray
    num_classes: int
    per_class: int

    def __post_init__(self):
        arr = _as_matrix(self.features)
        if not _adoptable(arr):
            arr = arr.copy()
        k, n, _ = typed_counts(self.num_classes, self.per_class, arr.shape[0])
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "per_class", n)
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
    def shape(self) -> tuple[int, int, int]:
        """The counts (K, n, d), in the order of ``COUNTS``."""
        return self.num_classes, self.per_class, self.dim

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
    """Write a feature set in numpy's ``.npy`` format: a C-ordered ``<f8``
    array of shape (d, K, n), whose shape carries the counts and whose
    values keep their bits."""
    with open(path, "wb") as f:
        # an open file, since np.save(path) appends ".npy" to a path without it
        np.lib.format.write_array(f, fs.features.reshape(fs.dim, fs.num_classes, fs.per_class),
                                  allow_pickle=False)


def _checked_counts(values: tuple[int, ...]) -> tuple[int, int, int]:
    """A layer file's header counts (K, n, d), each checked against its
    ``COUNTS`` spec; a ValueError names the header field."""
    for letter, (name, spec), value in zip("Knd", COUNTS.items(), values):
        try:
            typed_param(name, value, spec)
        except ValueError as exc:
            raise ValueError(f"header field {letter}: {exc}") from None
    return values


def _read_text_header(f) -> tuple[int, int, int]:
    """K, n and d from the header line ``K n d`` of a text layer file open
    at its start, each checked against its ``COUNTS`` spec; the file is left
    at its first body row, the first of d rows of K*n values."""
    try:
        header = f.readline().split()
    except UnicodeDecodeError as exc:  # binary, a pickle say, but not .npy
        raise ValueError(f"expected a .npy file or text, got {exc}") from None
    try:
        k, n, d = tuple(int(x) for x in header)
    except ValueError:
        raise ValueError(f"expected an integer header 'K n d', got {header!r}") from None
    return _checked_counts((k, n, d))


_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _read_npy_header(f) -> tuple[int, int, int]:
    """K, n and d from the header of a ``.npy`` layer file open at its
    start, which holds a C-ordered ``<f8`` array of shape (d, K, n), each
    checked against its ``COUNTS`` spec; the file is left at its body."""
    version = np.lib.format.read_magic(f)
    if version not in _NPY_HEADERS:
        raise ValueError(f"expected .npy format version 1.0 or 2.0, got {version[0]}.{version[1]}")
    shape, fortran_order, dtype = _NPY_HEADERS[version](f)
    # an object array's body is a pickle, which is never read
    if dtype.str != "<f8":
        raise ValueError(f"expected dtype <f8, got {dtype.str}")
    if fortran_order:
        raise ValueError("expected C order, got Fortran order")
    if len(shape) != 3:
        raise ValueError(f"expected an array of shape (d, K, n), got shape {shape}")
    d, k, n = shape
    return _checked_counts((k, n, d))


@contextmanager
def _layer_file(path):
    """A layer file, opened once, as ``(f, npy, (K, n, d))``: ``npy`` tells
    whether it is in numpy's ``.npy`` format, recognised by its magic bytes
    (``f`` is then binary, else text), and the header counts are checked
    against their ``COUNTS`` specs, ``f`` left at the body.  A ValueError
    raised in the header or in the caller's block names the file once."""
    magic = np.lib.format.MAGIC_PREFIX
    try:
        with open(path, "rb") as f:
            if f.peek(len(magic))[: len(magic)] == magic:
                yield f, True, _read_npy_header(f)
            else:
                with io.TextIOWrapper(f) as text:
                    yield text, False, _read_text_header(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_stack_shape(paths) -> tuple[int, int, int]:
    """The counts (K, n, d) of a stack of layer files in either format of
    :func:`load_featureset`, from their headers alone, all read and checked
    before any two are compared; a ValueError names an empty stack, the
    file of a bad header, or the first layer whose counts differ from
    layer 0's."""
    shapes = []
    for path in paths:
        with _layer_file(path) as (_, _, shape):
            shapes.append(shape)
    if not shapes:
        raise ValueError("empty stack: no layer files")
    for i, (k, n, d) in enumerate(shapes):
        if (k, n, d) != shapes[0]:
            k0, n0, d0 = shapes[0]
            raise ValueError(
                f"layer {i} has shape (K={k}, n={n}, d={d}), expected (K={k0}, n={n0}, d={d0})"
            )
    return shapes[0]


def load_featureset(path) -> FeatureSet:
    """Read a feature set from a layer file: numpy's ``.npy`` format, as
    :func:`save_featureset` writes it, or the text format, a header line
    ``K n d`` and then d rows of K*n values.  The format is recognised by
    the file's first bytes, not its name; a ValueError names the file once."""
    with _layer_file(path) as (f, npy, (k, n, d)):
        if npy:
            size = 8 * d * k * n
            left = os.fstat(f.fileno()).st_size - f.tell()
            if left != size:
                raise ValueError(f"expected {size} bytes of values, got {left}")
            data = np.empty((d, k, n))
            f.readinto(data)
        else:
            with warnings.catch_warnings():
                # a body with no rows fails the shape check below instead
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                data = np.loadtxt(f, dtype=np.float64, ndmin=2)
            if data.shape != (d, k * n):
                got = f"{data.shape[0]} x {data.shape[1]}" if data.size else "none"
                raise ValueError(f"expected {d} x {k * n} values, got {got}")
        # nothing else holds the array read, so the set adopts it, or its
        # (d, K*n) view, uncopied
        data.setflags(write=False)
        return FeatureSet(features=data.reshape(d, k * n), num_classes=k, per_class=n)
