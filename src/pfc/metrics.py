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

Each metric has one finisher over a stack of points, called with a stack
of one here and with a grid's moments by ``geodesic``.  Scale rule (``core``):
a feature set, then its centered means, is shifted into the safe window by
one exact power of two before squares are formed, which keeps every bit.

``alignment`` compares two matrices after Frobenius normalization, and
``first_within_error`` finds, among the pfc3 values of a stack's layers,
the first whose NCC error rate falls below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DegenerateInputError, FeatureSet, _to_window, class_stats
from .etf import gram_target


@dataclass(frozen=True)
class PfcReport:
    """The three collapse metrics of one feature set."""

    pfc1: float
    pfc2: float
    pfc3: float


# A between-class sum at or below this share of the size of its terms is
# rounding noise: the class means coincide there.
_ZERO_SHARE = 1e-12


def _require_spread(spread, size, ts, kind, why) -> None:
    """Raise DegenerateInputError (naming the first such t of ``ts``) at a noise spread."""
    bad = np.flatnonzero(spread <= _ZERO_SHARE * size)
    if bad.size:
        where = "" if ts is None else f"{kind} degenerate at t={float(ts[bad[0]])}: "
        raise DegenerateInputError(where + why)


def _variance_ratio(tr_within, tr_between, size=0.0, ts=None) -> np.ndarray:
    """pfc1 from within/between traces; ``size`` bounds each between trace's
    terms (0: sums of squares), and a within trace below 0 is noise, read as 0."""
    _require_spread(tr_between, size, ts, "pfc1",
                    "all class means coincide; variance ratio undefined")
    return np.maximum(tr_within, 0.0) / tr_between


def _etf_distance(gram, size=0.0, ts=None) -> np.ndarray:
    """pfc2 from (m, K, K) centered class-mean Grams; ``size`` as above, for their traces."""
    _require_spread(np.trace(gram, axis1=1, axis2=2), size, ts, "pfc2",
                    "centered class means are all zero; Gram cannot be normalized")
    gram = gram / np.linalg.norm(gram, axis=(1, 2), keepdims=True)
    return np.linalg.norm(gram - gram_target(gram.shape[-1]), axis=(1, 2))


def _ncc_accuracy(nearest, labels) -> np.ndarray:
    """pfc3 from the (..., N) nearest class of each sample, as ``np.argmin``
    over classes gives it: ties go to the smallest class."""
    return np.mean(nearest == labels, axis=-1)


def _sample_gaps(features, means) -> np.ndarray:
    """<x_i - m_ik, x_j - m_jk> over samples and classes k for the pairs
    i <= j of one or two (d x N features, d x K means): shape (1 or 3, K, N)."""
    gaps = np.empty((len(features), *features[0].shape))
    product = np.empty(features[0].shape)
    pairs = [(i, j) for i in range(len(gaps)) for j in range(i, len(gaps))]
    out = np.empty((len(pairs), means[0].shape[1], features[0].shape[1]))
    for k in range(out.shape[1]):
        for x, m, gap in zip(features, means, gaps):
            np.subtract(x, m[:, k][:, None], out=gap)
        for p, (i, j) in enumerate(pairs):
            np.sum(np.multiply(gaps[i], gaps[j], out=product), axis=0, out=out[p, k])
    return out


def _scaled(*sets: FeatureSet) -> tuple[FeatureSet, ...]:
    """The sets shifted together into the safe window; themselves when inside."""
    arrays = _to_window(*(fs.features for fs in sets))
    if arrays[0] is sets[0].features:
        return sets
    return tuple(FeatureSet(x, fs.num_classes, fs.per_class) for x, fs in zip(arrays, sets))


def pfc1(fs: FeatureSet) -> float:
    """Ratio of within-class to between-class variance traces.

    Raises:
        DegenerateInputError: if the between-class variance is zero
            (all class means coincide), where the ratio is undefined.
    """
    stats = class_stats(*_scaled(fs))
    return float(_variance_ratio(stats.tr_within, stats.tr_between))


def pfc2(fs: FeatureSet) -> float:
    """Frobenius distance of the normalized centered-mean Gram from ``gram_target(K)``.

    Raises:
        DegenerateInputError: if the centered class-mean Gram matrix is zero.
    """
    stats = class_stats(*_scaled(fs))
    (centered,) = _to_window(stats.class_means - stats.global_mean[:, None])
    return float(_etf_distance((centered.T @ centered)[None])[0])


def nearest_class_means(fs: FeatureSet) -> np.ndarray:
    """Index of the closest class mean for every sample.

    Ties resolve to the smallest class index.
    """
    (fs,) = _scaled(fs)
    gaps = _sample_gaps([fs.features], [class_stats(fs).class_means])
    return np.argmin(gaps[0], axis=0)


def pfc3(fs: FeatureSet) -> float:
    """Nearest-class-center accuracy in [0, 1]."""
    return float(_ncc_accuracy(nearest_class_means(fs), fs.labels()))


def measure(fs: FeatureSet) -> PfcReport:
    """All three collapse metrics of one feature set."""
    return PfcReport(pfc1=pfc1(fs), pfc2=pfc2(fs), pfc3=pfc3(fs))


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

