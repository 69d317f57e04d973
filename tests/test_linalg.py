"""Tests for the linear algebra kernels.

The triangular factorization is checked against an independent modified
Gram-Schmidt construction (unique given the positive-diagonal
convention), and the dominant singular vector against numpy's full SVD.
"""

import numpy as np
import pytest

from rsthp.exceptions import DimensionMismatchError, RankDeficientError, ZeroMatrixError
from rsthp.linalg import dominant_right_singular_vector, lq_decompose, pseudo_inverse


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gram_schmidt_lq(a):
    """Row-wise modified Gram-Schmidt: independent oracle for A = L Q."""
    a = np.asarray(a, dtype=complex)
    k, n = a.shape
    q = np.zeros((k, n), dtype=complex)
    l_mat = np.zeros((k, k), dtype=complex)
    for i in range(k):
        v = a[i].copy()
        for j in range(i):
            l_mat[i, j] = np.vdot(q[j], a[i])
            v = v - l_mat[i, j] * q[j]
        l_mat[i, i] = np.linalg.norm(v)
        q[i] = v / l_mat[i, i]
    return l_mat, q


class TestLqDecompose:
    def test_identity(self):
        lq = lq_decompose(np.eye(2))
        np.testing.assert_allclose(lq.l_matrix, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(lq.q_matrix, np.eye(2), atol=1e-14)

    def test_already_lower_triangular(self):
        # A lower triangular matrix with positive diagonal is its own L.
        a = np.array([[2.0, 0.0], [1.0, 1.0]], dtype=complex)
        lq = lq_decompose(a)
        np.testing.assert_allclose(lq.l_matrix, a, atol=1e-12)
        np.testing.assert_allclose(lq.q_matrix, np.eye(2), atol=1e-12)

    def test_matches_gram_schmidt_oracle(self):
        for seed in range(25):
            a = random_complex((4, 4), seed)
            lq = lq_decompose(a)
            l_ref, q_ref = gram_schmidt_lq(a)
            np.testing.assert_allclose(lq.l_matrix, l_ref, atol=1e-9)
            np.testing.assert_allclose(lq.q_matrix, q_ref, atol=1e-9)

    def test_reconstruction_bulk(self):
        worst = 0.0
        for seed in range(1000):
            shape = (4, 4) if seed % 2 == 0 else (3, 5)
            a = random_complex(shape, seed)
            lq = lq_decompose(a)
            worst = max(worst, np.max(np.abs(lq.l_matrix @ lq.q_matrix - a)))
            assert np.max(np.abs(np.triu(lq.l_matrix, k=1))) < 1e-12
            d = np.diagonal(lq.l_matrix)
            assert np.all(d.real > 0.0)
            assert np.max(np.abs(d.imag)) < 1e-12
            gram = lq.q_matrix @ lq.q_matrix.conj().T
            assert np.max(np.abs(gram - np.eye(shape[0]))) < 1e-12
        assert worst < 1e-10

    def test_deterministic(self):
        a = random_complex((4, 4), 123)
        first = lq_decompose(a)
        second = lq_decompose(a)
        assert first.l_matrix.tobytes() == second.l_matrix.tobytes()
        assert first.q_matrix.tobytes() == second.q_matrix.tobytes()

    def test_diagonal_property(self):
        a = random_complex((4, 6), 7)
        lq = lq_decompose(a)
        np.testing.assert_array_equal(
            lq.diagonal, np.real(np.diagonal(lq.l_matrix))
        )

    def test_rank_deficient(self):
        a = random_complex((3, 4), 0)
        a[2] = a[0] + a[1]
        with pytest.raises(RankDeficientError):
            lq_decompose(a)

    def test_tall_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError):
            lq_decompose(random_complex((5, 3), 0))

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionMismatchError):
            lq_decompose(np.ones(4, dtype=complex))

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            lq_decompose(np.zeros((2, 3), dtype=complex))


class TestPseudoInverse:
    def test_diagonal_example(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(
            pseudo_inverse(a), np.array([[0.5, 0.0], [0.0, 0.25]]), atol=1e-14
        )

    def test_right_inverse_property(self):
        for seed in range(50):
            a = random_complex((4, 6), seed)
            pinv = pseudo_inverse(a)
            np.testing.assert_allclose(a @ pinv, np.eye(4), atol=1e-10)

    def test_matches_numpy(self):
        a = random_complex((4, 4), 11)
        np.testing.assert_allclose(
            pseudo_inverse(a), np.linalg.pinv(a), atol=1e-10
        )

    def test_ill_conditioned_right_inverse(self):
        # Singular values 1 down to 1e-9 pass the 1e-10 rank check; a
        # solve on the Gram matrix A A^H (condition 1e18) would lose the
        # right inverse entirely.
        u, _ = np.linalg.qr(random_complex((4, 4), 1))
        v, _ = np.linalg.qr(random_complex((4, 4), 2))
        a = u @ np.diag([1.0, 0.5, 0.3, 1e-9]) @ v.conj().T
        residual = a @ pseudo_inverse(a) - np.eye(4)
        assert np.linalg.norm(residual) <= 1e-6

    def test_rank_deficient(self):
        a = np.ones((2, 3), dtype=complex)
        with pytest.raises(RankDeficientError):
            pseudo_inverse(a)


class TestDominantRightSingularVector:
    def test_diagonal_dominant_first(self):
        v = dominant_right_singular_vector(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-10)

    def test_diagonal_dominant_second(self):
        v = dominant_right_singular_vector(np.diag([1.0, 5.0]))
        np.testing.assert_allclose(v, [0.0, 1.0], atol=1e-10)

    def test_matches_svd_oracle(self):
        inputs = [random_complex((4, 4), seed + 100) for seed in range(30)]
        # The all-ones vector is an eigenvector of this Gram matrix, but
        # for the smallest singular value (1, against 5).
        inputs.append(np.array([[3.0, -2.0], [-2.0, 3.0]]))
        # The top two singular values differ by one part in a million.
        unitary, _ = np.linalg.qr(random_complex((4, 4), 7))
        inputs.append(np.diag([1.0 + 1e-6, 1.0, 0.5, 0.1]) @ unitary)
        for a in inputs:
            v = dominant_right_singular_vector(a)
            _, s, vh = np.linalg.svd(a)
            ref = vh[0].conj()
            overlap = np.abs(np.vdot(ref, v))
            assert overlap > 1.0 - 1e-9
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert abs(np.linalg.norm(a @ v) - s[0]) <= 1e-12 * s[0]

    def test_phase_convention(self):
        v = dominant_right_singular_vector(random_complex((4, 4), 3))
        anchors = np.flatnonzero(np.abs(v) > 1e-6)
        first = v[anchors[0]]
        assert first.real > 0.0
        assert abs(first.imag) < 1e-9

    def test_deterministic(self):
        a = random_complex((4, 4), 9)
        assert (
            dominant_right_singular_vector(a).tobytes()
            == dominant_right_singular_vector(a).tobytes()
        )

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            dominant_right_singular_vector(np.zeros((2, 2)))
