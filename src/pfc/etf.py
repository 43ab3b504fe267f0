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

ORTHONORMALITY_TOL = 1e-10


def gram_target(num_classes: int) -> np.ndarray:
    """The K x K target Gram matrix E (unit Frobenius norm, zero row sums)."""
    k = num_classes
    if k < 2:
        raise ValueError(f"num_classes must be >= 2, got {k}")
    return (np.eye(k) - np.full((k, k), 1.0 / k)) / np.sqrt(k - 1)


def build_etf(
    num_classes: int,
    dim: int,
    orthonormal_basis: np.ndarray | None = None,
    seed=0,
) -> np.ndarray:
    """The read-only d x K simplex ETF over ``num_classes`` classes in
    dimension ``dim``.

    When no basis is supplied, a partial orthogonal d x K matrix is obtained
    by QR-orthonormalizing a seeded Gaussian matrix, so results are
    deterministic under a fixed seed.

    Raises:
        ValueError: if dim < num_classes, or the supplied basis is not
            orthonormal to within ``ORTHONORMALITY_TOL``.
    """
    k, d = num_classes, dim
    if k < 2:
        raise ValueError(f"num_classes must be >= 2, got {k}")
    if d < k:
        raise ValueError(f"dim must be >= num_classes, got dim={d} < K={k}")

    if orthonormal_basis is None:
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
    else:
        basis = np.asarray(orthonormal_basis, dtype=np.float64)
        if basis.shape != (d, k):
            raise ValueError(f"basis must be {d} x {k}, got {basis.shape}")
        defect = np.max(np.abs(basis.T @ basis - np.eye(k)))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis columns are not orthonormal (max |U^T U - I| = {defect:.3e})"
            )

    centering = np.eye(k) - np.full((k, k), 1.0 / k)
    frame = np.sqrt(k / (k - 1.0)) * basis @ centering
    frame.setflags(write=False)
    return frame
