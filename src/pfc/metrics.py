"""Layer-wise collapse metrics.

Three per-layer statistics quantify how collapsed a feature set is:

* ``pfc1`` -- within-class over between-class variance traces; 0 when every
  sample sits exactly on its class mean.
* ``pfc2`` -- Frobenius distance between the normalized Gram matrix of the
  centered class means and the simplex-ETF target Gram E =
  ``gram_target(K)``; 0 when the centered means form a simplex ETF.  E
  depends only on K, so no frame is needed.
* ``pfc3`` -- nearest-class-center accuracy; 1 when every sample is closest
  to its own class mean.

``alignment`` compares two matrices after Frobenius normalization, and
``effective_depth`` finds the first layer of a stack whose NCC error rate
falls below a threshold (``first_within_error`` applies the same rule to
pfc3 values already measured).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClassStats,
    DegenerateInputError,
    FeatureSet,
    LayerStack,
    centered_class_mean_matrix,
    class_stats,
)
from .etf import gram_target


@dataclass(frozen=True)
class PfcReport:
    """The three collapse metrics of one feature set."""

    pfc1: float
    pfc2: float
    pfc3: float


def pfc1(fs: FeatureSet, stats: ClassStats | None = None) -> float:
    """Ratio of within-class to between-class variance traces.

    Raises:
        DegenerateInputError: if the between-class variance is zero
            (all class means coincide), where the ratio is undefined.
    """
    stats = stats if stats is not None else class_stats(fs)
    if stats.tr_between == 0.0:
        raise DegenerateInputError("all class means coincide; variance ratio undefined")
    return stats.tr_within / stats.tr_between


# From this Gram norm up, each product or square that underflows is off by
# at most 2^-1075 against a squared norm of at least 2^-1000, far below the
# rounding of the result.
_TINY_NORM = 2.0**-500


def pfc2(fs: FeatureSet) -> float:
    """Frobenius distance of the normalized centered-mean Gram from ``gram_target(K)``.

    The normalized Gram does not change when the means are scaled, so a
    Gram whose norm overflows, or is so small that its squared entries
    lose bits to underflow, is recomputed from the means scaled by a power
    of two; any other Gram is used as it is.

    Raises:
        DegenerateInputError: if the centered class-mean Gram matrix is zero.
    """
    centered = centered_class_mean_matrix(fs)
    with np.errstate(over="ignore"):
        gram = centered.T @ centered
        norm = np.linalg.norm(gram)
    if not np.isfinite(norm) or norm < _TINY_NORM:
        # exact rescaling: the largest centered entry lands in [0.5, 1)
        _, exponent = np.frexp(np.max(np.abs(centered)))
        centered = np.ldexp(centered, -exponent)
        gram = centered.T @ centered
        norm = np.linalg.norm(gram)
    if norm == 0.0:
        raise DegenerateInputError("centered class means are all zero; Gram cannot be normalized")
    return float(np.linalg.norm(gram / norm - gram_target(fs.num_classes)))


def nearest_class_means(fs: FeatureSet, stats: ClassStats | None = None) -> np.ndarray:
    """Index of the closest class mean for every sample.

    Ties resolve to the smallest class index.
    """
    stats = stats if stats is not None else class_stats(fs)
    dist2 = np.empty((fs.num_classes, fs.num_samples))
    for k in range(fs.num_classes):
        diff = fs.features - stats.class_means[:, k][:, None]
        dist2[k] = np.sum(diff * diff, axis=0)
    return np.argmin(dist2, axis=0)


def pfc3(fs: FeatureSet, stats: ClassStats | None = None) -> float:
    """Nearest-class-center accuracy in [0, 1]."""
    assigned = nearest_class_means(fs, stats)
    return float(np.mean(assigned == fs.labels()))


def measure(fs: FeatureSet) -> PfcReport:
    """All three collapse metrics of one feature set."""
    stats = class_stats(fs)
    return PfcReport(
        pfc1=pfc1(fs, stats),
        pfc2=pfc2(fs),
        pfc3=pfc3(fs, stats),
    )


def alignment(h: np.ndarray, x: np.ndarray) -> float:
    """Frobenius distance between two matrices after Frobenius normalization.

    Zero iff one matrix is a positive multiple of the other; 2 for
    antipodal matrices.

    Raises:
        DegenerateInputError: if either matrix is zero.
    """
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if h.shape != x.shape:
        raise ValueError(f"shape mismatch: {h.shape} vs {x.shape}")
    hn = np.linalg.norm(h)
    xn = np.linalg.norm(x)
    if hn == 0.0 or xn == 0.0:
        raise DegenerateInputError("alignment undefined for a zero matrix")
    return float(np.linalg.norm(h / hn - x / xn))


def first_within_error(ncc_accuracies, epsilon: float = 0.0) -> int | None:
    """Index of the first pfc3 value whose NCC error rate ``1 - pfc3`` is at
    most ``epsilon``, or None.  Values are read lazily, up to the first hit.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    for idx, accuracy in enumerate(ncc_accuracies):
        if 1.0 - accuracy <= epsilon:
            return idx
    return None


def effective_depth(stack: LayerStack, epsilon: float = 0.0) -> int | None:
    """Smallest layer index whose NCC error rate is at most ``epsilon``.

    Layer 0 is the input-feature layer.  Returns None when no layer
    qualifies.
    """
    return first_within_error((pfc3(fs) for fs in stack.layers), epsilon)
