import numpy as np
import pytest

from pfc.etf import build_etf, gram_target


class TestGramTarget:
    def test_two_classes(self):
        np.testing.assert_allclose(
            gram_target(2), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    @pytest.mark.parametrize("k", range(2, 11))
    def test_unit_frobenius_norm(self, k):
        assert abs(np.linalg.norm(gram_target(k)) - 1.0) < 1e-12

    @pytest.mark.parametrize("k", range(2, 11))
    def test_symmetric_zero_row_sums(self, k):
        target = gram_target(k)
        np.testing.assert_allclose(target, target.T, atol=1e-15)
        np.testing.assert_allclose(target.sum(axis=1), 0.0, atol=1e-14)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            gram_target(1)


class TestBuildEtf:
    def test_identity_basis_three_classes(self):
        frame = build_etf(3, 3, orthonormal_basis=np.eye(3))
        np.testing.assert_allclose(
            frame[:, 0], [0.81649658, -0.40824829, -0.40824829], atol=1e-8
        )
        gram = frame.T @ frame
        off = gram[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5, atol=1e-12)

    @pytest.mark.parametrize("k", range(2, 11))
    @pytest.mark.parametrize("extra", [0, 3])
    def test_unit_norms_and_equal_angles(self, k, extra):
        m = build_etf(k, k + extra, seed=k + extra)
        np.testing.assert_allclose(np.linalg.norm(m, axis=0), 1.0, atol=1e-12)
        gram = m.T @ m
        off = gram[~np.eye(k, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / (k - 1), atol=1e-12)

    @pytest.mark.parametrize("k", [2, 4, 7, 10])
    def test_rank_is_k_minus_one(self, k):
        frame = build_etf(k, k + 3, seed=0)
        singular = np.linalg.svd(frame, compute_uv=False)
        assert singular[k - 2] > 1e-8
        assert singular[k - 1] < 1e-10

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_gram_is_scaled_centering_matrix(self, k):
        # M^T M = (K/(K-1)) (I - 11^T/K), proportional to the target Gram
        # with factor K/sqrt(K-1).
        frame = build_etf(k, k + 1, seed=1)
        gram = frame.T @ frame
        expected = (k / (k - 1.0)) * (np.eye(k) - np.full((k, k), 1.0 / k))
        np.testing.assert_allclose(gram, expected, atol=1e-12)
        np.testing.assert_allclose(
            gram, (k / np.sqrt(k - 1.0)) * gram_target(k), atol=1e-12
        )

    def test_dim_below_classes_rejected(self):
        with pytest.raises(ValueError):
            build_etf(4, 3)

    def test_non_orthonormal_basis_rejected(self):
        basis = np.eye(4)[:, :3]
        basis[0, 1] = 0.5
        with pytest.raises(ValueError):
            build_etf(3, 4, orthonormal_basis=basis)

    def test_wrong_basis_shape_rejected(self):
        with pytest.raises(ValueError):
            build_etf(3, 4, orthonormal_basis=np.eye(3))

    def test_seed_determinism(self):
        a = build_etf(4, 9, seed=5)
        b = build_etf(4, 9, seed=5)
        c = build_etf(4, 9, seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_frame_fields(self):
        frame = build_etf(3, 5, seed=2)
        assert frame.shape == (5, 3)
        assert frame.dtype == np.float64
        assert not frame.flags.writeable
