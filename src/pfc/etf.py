"""Simplex equiangular tight frames and the target Gram matrix.

A simplex ETF over K classes in dimension d >= K is the d x K matrix

    M = sqrt(K / (K - 1)) * U * (I_K - (1/K) * 1 1^T)

for a partial orthogonal U (U^T U = I_K).  Its columns are unit vectors
with pairwise inner products -1/(K-1), so its Gram matrix M^T M is
proportional to the normalized target

    E = (1 / sqrt(K - 1)) * (I_K - (1/K) * 1 1^T),

which is symmetric, has zero row sums and unit Frobenius norm.  E depends
only on K: the collapse-distance metric compares centered-mean Gram
matrices against ``gram_target(K)`` and needs no frame.
"""

from __future__ import annotations

import numpy as np

from .core import DIM, NUM_CLASSES, check_frame, typed_param


def gram_target(num_classes: int) -> np.ndarray:
    """The K x K target Gram matrix E (unit Frobenius norm, zero row sums)."""
    k = typed_param("num_classes", num_classes, NUM_CLASSES)
    return (np.eye(k) - np.full((k, k), 1.0 / k)) / np.sqrt(k - 1)


def build_etf(num_classes: int, dim: int, seed=0) -> np.ndarray:
    """The read-only d x K simplex ETF over ``num_classes`` classes in
    dimension ``dim``.

    The partial orthogonal d x K matrix is obtained by QR-orthonormalizing
    a seeded Gaussian matrix, so results are deterministic under a fixed
    seed.

    Raises:
        ValueError: for a count not of its ``core.COUNTS`` type or outside
            its domain, or if dim < num_classes.
    """
    k, d = typed_param("num_classes", num_classes, NUM_CLASSES), typed_param("dim", dim, DIM)
    check_frame("dim", d, k)

    basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, k)))
    centering = np.eye(k) - np.full((k, k), 1.0 / k)
    frame = np.sqrt(k / (k - 1.0)) * basis @ centering
    frame.setflags(write=False)
    return frame
