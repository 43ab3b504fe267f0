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
t-grid in ``geodesic``.  So ``measure`` makes one pass over each feature
set, and a curve reads at t = 0 and t = 1 the bits of its endpoints'
metrics.  Scale rule (``core``): the sets are shifted into the safe window,
then what the metrics square -- the class offsets and the centered means
-- by one more exact power of two, which keeps every bit.

``alignment`` compares two matrices after Frobenius normalization, and
``first_within_error`` finds, among the pfc3 values of a stack's layers,
the first whose NCC error rate falls below a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DegenerateInputError, FeatureSet, _to_window, ge, param, typed_param
from .etf import gram_target


@dataclass(frozen=True)
class PfcReport:
    """The three collapse metrics of one feature set."""

    pfc1: float
    pfc2: float
    pfc3: float


METRIC_KINDS = ("pfc1", "pfc2", "pfc3")  # PfcReport's fields, in order
EPSILON = param(0.0, ge(0))  # first_within_error's epsilon, its default and domain

# A between-class sum at or below this share of the size of its terms is
# rounding noise: the class means coincide there.
_ZERO_SHARE = 1e-12

# pfc3 takes points in blocks of about this many K x N table entries, so a
# dense grid's distance tables never sit in memory at once.
_TABLE_BLOCK = 2**16

# Weights that read the moments of a single set: one point, one pair.
_ONE = np.ones((1, 1))


def _require_spread(spread, size, ts, kind, why) -> None:
    """Raise DegenerateInputError (naming the first such t of ``ts``) at a noise
    spread, or at a subnormal one, whose lost low bits no shift restores."""
    for bad, reason in ((spread <= _ZERO_SHARE * size, why), (spread < np.finfo(float).tiny,
                         "centered class means underflow; their sum is subnormal")):
        bad = np.flatnonzero(bad)
        if bad.size:
            where = "" if ts is None else f"{kind} degenerate at t={float(ts[bad[0]])}: "
            raise DegenerateInputError(where + reason)


class _Moments:
    """The sums the collapse metrics read, of one feature set or of the two
    endpoints of a straight path.

    Each moment stacks along axis 0 one entry per pair (i, j), i <= j, of
    ``pairs``.  A row of weights over the pairs is one point: ``[[1.0]]``
    the set itself, the rows (1 - t)^2, 2t(1 - t), t^2 the point
    h(t) = (1 - t) h0 + t h1 of a path, whose class means are affine in t,
    so that every sum below is that quadratic in its entries.

    Every moment is formed from what it squares: the class offsets
    D = X - M[:, y] (each sample minus its class mean) and the centered
    class means C, built in one pass over the sets shifted into the safe
    window, then shifted by one more exponent, so that means far below a
    common offset square to normal numbers.  ``gaps`` releases D.
    """

    def __init__(self, *sets: FeatureSet):
        k, n = sets[0].num_classes, sets[0].per_class
        self.num_classes, self.per_class, self.labels = k, n, sets[0].labels()
        self.pairs = [(i, j) for i in range(len(sets)) for j in range(i, len(sets))]
        offsets, centered = [], []
        for x in _to_window(*(fs.features for fs in sets)):
            blocks = x.reshape(x.shape[0], k, n)
            means = blocks.mean(axis=2)
            offsets.append((blocks - means[:, :, None]).reshape(x.shape))
            # K equal means center to exactly zero, not to their mean's rounding
            same = np.all(means == means[:, :1])
            centered.append(means - (means[:, :1] if same else means.mean(axis=1)[:, None]))
        windowed = _to_window(*offsets, *centered)
        offsets, centered = windowed[: len(sets)], windowed[len(sets) :]
        # K n times the within-class trace <D_i, D_j>, and K times the
        # between-class trace <C_i, C_j>
        self.within = np.array([np.sum(offsets[i] * offsets[j]) for i, j in self.pairs])
        self.between = np.array([np.sum(centered[i] * centered[j]) for i, j in self.pairs])
        self.centered, self._offsets = centered, offsets  # D until gaps is formed

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
        """<x_i - m_ik, x_j - m_jk> over classes k and samples x: (pairs, K, N),
        expanded around each sample's own class mean, x - m_k = D + e_k with
        e_k = c_y - c_k: <D_i, D_j> + <e_ik, D_j> + <D_i, e_jk> + <e_ik, e_jk>,
        which is exactly <D_i, D_j> at k = y."""
        offsets, self._offsets = self._offsets, None  # no longer needed
        c, labels = self.centered, self.labels
        # C_i^T D_j of every ordered pair of sets, and c_y - c_k as (d, k, y)
        projections = [[ci.T @ offset for offset in offsets] for ci in c]
        spreads = [ci[:, None, :] - ci[:, :, None] for ci in c]
        samples = np.arange(len(labels))
        out = np.empty((len(self.pairs), self.num_classes, len(labels)))
        for gap, (i, j) in zip(out, self.pairs):
            cross = projections[i][j] + projections[j][i]
            np.subtract(cross[labels, samples], cross, out=gap)
            gap += np.einsum("dn,dn->n", offsets[i], offsets[j])
            gap += np.sum(spreads[i] * spreads[j], axis=0)[:, labels]
        return out

    def values(self, kind: str, weights: np.ndarray, ts=None) -> np.ndarray:
        """One metric at each row of ``weights`` (points x pairs).

        A spread at or below ``_ZERO_SHARE`` of the size of its terms, or a
        subnormal one, raises DegenerateInputError, naming the point's t
        from ``ts`` if given.
        """
        k, n = self.num_classes, self.per_class
        if kind == "pfc1":
            tr_between = weights @ self.between / k
            _require_spread(tr_between, weights @ np.abs(self.between) / k, ts, kind,
                            "all class means coincide; variance ratio undefined")
            # a within trace below 0 is rounding noise
            return np.maximum(weights @ self.within / (k * n), 0.0) / tr_between
        if kind == "pfc2":
            gram = np.tensordot(weights, self.gram, axes=1)
            size = weights @ np.abs(np.trace(self.gram, axis1=1, axis2=2))
            trace = np.trace(gram, axis1=1, axis2=2)
            _require_spread(trace, size, ts, kind,
                            "centered class means are all zero; Gram cannot be normalized")
            # each point's Gram (its trace normal) shifted to a trace in [0.5, 1),
            # which bounds its entries (a Gram is PSD): its norm is normal
            gram = np.ldexp(gram, -np.frexp(trace)[1][:, None, None])
            gram /= np.linalg.norm(gram, axis=(1, 2), keepdims=True)
            return np.linalg.norm(gram - gram_target(k), axis=(1, 2))
        # pfc3: accuracy of the argmin assignment, ties to the smallest class
        out = np.empty(len(weights))
        step = max(1, _TABLE_BLOCK // self.gaps[0].size)
        for lo in range(0, len(weights), step):
            tables = np.tensordot(weights[lo : lo + step], self.gaps, axes=1)
            out[lo : lo + step] = np.mean(np.argmin(tables, axis=1) == self.labels, axis=-1)
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
    return PfcReport(*(float(moments.values(kind, _ONE)[0]) for kind in METRIC_KINDS))


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


def first_within_error(ncc_accuracies, epsilon: float = EPSILON.default) -> int | None:
    """Index of the first pfc3 value whose NCC error rate ``1 - pfc3`` is at
    most ``epsilon``, or None.  Values are read lazily, up to the first hit.

    Raises:
        ValueError: for an ``epsilon`` not of its ``EPSILON`` type or outside
            its domain.
    """
    epsilon = typed_param("epsilon", epsilon, EPSILON)
    for idx, accuracy in enumerate(ncc_accuracies):
        if 1.0 - accuracy <= epsilon:
            return idx
    return None

