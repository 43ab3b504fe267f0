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

All three are read from one private moments object, ``_Moments``, built
from one feature set or from the two endpoints of a straight path.  It
holds one entry per pair i <= j of its sets ((0, 0) for one set; (0, 0),
(0, 1), (1, 1) for a path): the within- and between-class inner products,
the centered class-mean Gram and the sample-to-class-mean gap table.  Its
one evaluator, ``values(kind, weights)``, finishes a metric at each row of
weights over the pairs: ``[[1.0]]`` here, and the quadratic weights of a
t-grid in ``geodesic``.  So ``measure`` forms class statistics once per
feature set, and a curve reads at t = 0 and t = 1 the bits of its
endpoints' metrics.  Scale rule (``core``): the sets, then their centered
means, are shifted into the safe window by one exact power of two before
squares are formed, which keeps every bit.

``alignment`` compares two matrices after Frobenius normalization, and
``first_within_error`` finds, among the pfc3 values of a stack's layers,
the first whose NCC error rate falls below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

# pfc3 takes points in blocks of about this many K x N table entries, so a
# dense grid's distance tables never sit in memory at once.
_TABLE_BLOCK = 2**16

# Weights that read the moments of a single set: one point, one pair.
_ONE = np.ones((1, 1))


def _require_spread(spread, size, ts, kind, why) -> None:
    """Raise DegenerateInputError (naming the first such t of ``ts``) at a noise spread."""
    bad = np.flatnonzero(spread <= _ZERO_SHARE * size)
    if bad.size:
        where = "" if ts is None else f"{kind} degenerate at t={float(ts[bad[0]])}: "
        raise DegenerateInputError(where + why)


class _Moments:
    """The sums the collapse metrics read, of one feature set or of the two
    endpoints of a straight path, shifted into the safe window together.

    Each moment stacks along axis 0 one entry per pair (i, j), i <= j, of
    ``pairs`` and is computed on first use.  A row of weights over the pairs
    is one point: ``[[1.0]]`` the set itself, the rows (1 - t)^2, 2t(1 - t),
    t^2 the point h(t) = (1 - t) h0 + t h1 of a path, whose class means are
    affine in t, so that every sum below is that quadratic in its entries.
    """

    def __init__(self, *sets: FeatureSet):
        arrays = _to_window(*(fs.features for fs in sets))
        if arrays[0] is not sets[0].features:
            sets = [FeatureSet(x, fs.num_classes, fs.per_class) for x, fs in zip(arrays, sets)]
        self.sets = sets
        self.stats = [class_stats(fs) for fs in self.sets]
        self.pairs = [(i, j) for i in range(len(sets)) for j in range(i, len(sets))]

    @cached_property
    def within(self) -> np.ndarray:
        """K n times the within-class trace: <D_i, D_j>, where D is every
        sample minus its class mean (summed as class_stats sums it)."""
        k, n, d = self.sets[0].num_classes, self.sets[0].per_class, self.sets[0].dim
        offsets = [fs.features.reshape(d, k, n) - s.class_means[:, :, None]
                   for fs, s in zip(self.sets, self.stats)]
        cross = {(i, j): np.sum(offsets[i] * offsets[j]) for i, j in self.pairs if i != j}
        # squared in place, after the cross terms: no second array of that size
        squares = [np.sum(np.square(offset, out=offset)) for offset in offsets]
        return np.array([squares[i] if i == j else cross[i, j] for i, j in self.pairs])

    @cached_property
    def centered(self) -> list[np.ndarray]:
        """Centered class-mean matrices C (d x K)."""
        return [s.class_means - s.global_mean[:, None] for s in self.stats]

    @cached_property
    def between(self) -> np.ndarray:
        """K times the between-class trace: <C_i, C_j>."""
        c = self.centered
        return np.array([np.sum(c[i] * c[j]) for i, j in self.pairs])

    @cached_property
    def gram(self) -> np.ndarray:
        """Centered class-mean Gram, (pairs, K, K), of the C shifted into the
        safe window together: C_i^T C_i, and (C_i^T C_j + C_j^T C_i) / 2."""
        c = _to_window(*self.centered)
        grams = [c[i].T @ c[j] for i, j in self.pairs]
        return np.stack([g if i == j else 0.5 * (g + g.T)
                         for g, (i, j) in zip(grams, self.pairs)])

    @cached_property
    def gaps(self) -> np.ndarray:
        """<x_i - m_ik, x_j - m_jk> over classes k and samples x: (pairs, K, N)."""
        gaps = np.empty((len(self.sets), *self.sets[0].features.shape))
        product = np.empty(self.sets[0].features.shape)
        out = np.empty((len(self.pairs), self.sets[0].num_classes, self.sets[0].num_samples))
        for k in range(out.shape[1]):
            for fs, s, gap in zip(self.sets, self.stats, gaps):
                np.subtract(fs.features, s.class_means[:, k][:, None], out=gap)
            for p, (i, j) in enumerate(self.pairs):
                np.sum(np.multiply(gaps[i], gaps[j], out=product), axis=0, out=out[p, k])
        return out

    def values(self, kind: str, weights: np.ndarray, ts=None) -> np.ndarray:
        """One metric at each row of ``weights`` (points x pairs).

        A spread at or below ``_ZERO_SHARE`` of the size of its terms raises
        DegenerateInputError, naming the point's t from ``ts`` if given.
        """
        k, n = self.sets[0].num_classes, self.sets[0].per_class
        if kind == "pfc1":
            tr_between = weights @ self.between / k
            _require_spread(tr_between, weights @ np.abs(self.between) / k, ts, kind,
                            "all class means coincide; variance ratio undefined")
            # a within trace below 0 is rounding noise
            return np.maximum(weights @ self.within / (k * n), 0.0) / tr_between
        if kind == "pfc2":
            gram = np.tensordot(weights, self.gram, axes=1)
            size = weights @ np.abs(np.trace(self.gram, axis1=1, axis2=2))
            _require_spread(np.trace(gram, axis1=1, axis2=2), size, ts, kind,
                            "centered class means are all zero; Gram cannot be normalized")
            gram = gram / np.linalg.norm(gram, axis=(1, 2), keepdims=True)
            return np.linalg.norm(gram - gram_target(k), axis=(1, 2))
        # pfc3: accuracy of the argmin assignment, ties to the smallest class
        labels = self.sets[0].labels()
        out = np.empty(len(weights))
        step = max(1, _TABLE_BLOCK // self.gaps[0].size)
        for lo in range(0, len(weights), step):
            tables = np.tensordot(weights[lo : lo + step], self.gaps, axes=1)
            out[lo : lo + step] = np.mean(np.argmin(tables, axis=1) == labels, axis=-1)
        return out


def pfc1(fs: FeatureSet) -> float:
    """Ratio of within-class to between-class variance traces.

    Raises:
        DegenerateInputError: if the between-class variance is zero
            (all class means coincide), where the ratio is undefined.
    """
    return float(_Moments(fs).values("pfc1", _ONE)[0])


def pfc2(fs: FeatureSet) -> float:
    """Frobenius distance of the normalized centered-mean Gram from ``gram_target(K)``.

    Raises:
        DegenerateInputError: if the centered class-mean Gram matrix is zero.
    """
    return float(_Moments(fs).values("pfc2", _ONE)[0])


def nearest_class_means(fs: FeatureSet) -> np.ndarray:
    """Index of the closest class mean for every sample.

    Ties resolve to the smallest class index.
    """
    return np.argmin(_Moments(fs).gaps[0], axis=0)


def pfc3(fs: FeatureSet) -> float:
    """Nearest-class-center accuracy in [0, 1]."""
    return float(_Moments(fs).values("pfc3", _ONE)[0])


def measure(fs: FeatureSet) -> PfcReport:
    """All three collapse metrics of one feature set, from one set of moments."""
    moments = _Moments(fs)
    return PfcReport(*(float(moments.values(kind, _ONE)[0]) for kind in ("pfc1", "pfc2", "pfc3")))


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
    # each matrix in the safe window, so that its norm neither overflows nor
    # underflows; the normalized matrix keeps its bits
    (h,), (x,) = _to_window(h), _to_window(x)
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

