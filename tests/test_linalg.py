"""Tests for the linear algebra kernels.

The triangular factorization is checked against an independent modified
Gram-Schmidt construction (unique given the positive-diagonal
convention), and the dominant singular vector against numpy's full SVD.
"""

import warnings

import numpy as np
import pytest

from rsthp.exceptions import (
    DimensionMismatchError,
    NonFiniteMatrixError,
    RankDeficientError,
    SimulatorError,
    ZeroMatrixError,
)
from rsthp import linalg
from rsthp.linalg import dominant_right_singular_vector, lq_decompose, pseudo_inverse

from helpers import count_factorizations, factored_outcomes, random_channel


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
            a = random_channel(seed)
            lq = lq_decompose(a)
            l_ref, q_ref = gram_schmidt_lq(a)
            np.testing.assert_allclose(lq.l_matrix, l_ref, atol=1e-9)
            np.testing.assert_allclose(lq.q_matrix, q_ref, atol=1e-9)

    def test_reconstruction_bulk(self):
        worst = 0.0
        for seed in range(1000):
            shape = (4, 4) if seed % 2 == 0 else (3, 5)
            a = random_channel(seed, shape)
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
        a = random_channel(123)
        first = lq_decompose(a)
        second = lq_decompose(a)
        assert first.l_matrix.tobytes() == second.l_matrix.tobytes()
        assert first.q_matrix.tobytes() == second.q_matrix.tobytes()

    def test_diagonal_property(self):
        a = random_channel(7, (4, 6))
        lq = lq_decompose(a)
        np.testing.assert_array_equal(
            lq.diagonal, np.real(np.diagonal(lq.l_matrix))
        )

    def test_rank_deficient(self):
        a = random_channel(0, (3, 4))
        a[2] = a[0] + a[1]
        with pytest.raises(RankDeficientError):
            lq_decompose(a)

    def test_tall_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError):
            lq_decompose(random_channel(0, (5, 3)))

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
            a = random_channel(seed, (4, 6))
            pinv = pseudo_inverse(a)
            np.testing.assert_allclose(a @ pinv, np.eye(4), atol=1e-10)

    def test_matches_numpy(self):
        a = random_channel(11)
        np.testing.assert_allclose(
            pseudo_inverse(a), np.linalg.pinv(a), atol=1e-10
        )

    def test_ill_conditioned_right_inverse(self):
        # Singular values 1 down to 1e-9 pass the 1e-10 rank check; a
        # solve on the Gram matrix A A^H (condition 1e18) would lose the
        # right inverse entirely.
        u, _ = np.linalg.qr(random_channel(1))
        v, _ = np.linalg.qr(random_channel(2))
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
        inputs = [random_channel(seed + 100) for seed in range(30)]
        # The all-ones vector is an eigenvector of this Gram matrix, but
        # for the smallest singular value (1, against 5).
        inputs.append(np.array([[3.0, -2.0], [-2.0, 3.0]]))
        # The top two singular values differ by one part in a million.
        unitary, _ = np.linalg.qr(random_channel(7))
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
        v = dominant_right_singular_vector(random_channel(3))
        anchors = np.flatnonzero(np.abs(v) > 1e-6)
        first = v[anchors[0]]
        assert first.real > 0.0
        assert abs(first.imag) < 1e-9

    def test_deterministic(self):
        a = random_channel(9)
        assert (
            dominant_right_singular_vector(a).tobytes()
            == dominant_right_singular_vector(a).tobytes()
        )

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            dominant_right_singular_vector(np.zeros((2, 2)))


class TestDirectionCache:
    """The anchored dominant direction, the pseudo-inverse and the LQ of
    a matrix come from one factorization, kept in linalg's store; the
    store must neither change a bit nor hide bad input."""

    @pytest.fixture(autouse=True)
    def stacks(self, monkeypatch):
        return count_factorizations(monkeypatch)

    @staticmethod
    def uncached(a):
        # The formulas without a store, each on its own SVD.
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        pinv = (vh.conj().T / s) @ u.conj().T
        v = vh[0].conj()
        anchor = np.flatnonzero(np.abs(v) > 1e-6)[0]
        return pinv, v * (np.conj(v[anchor]) / np.abs(v[anchor]))

    def test_bit_identical_to_uncached_svd(self, stacks):
        # The store holds one matrix's factors, so each warm call
        # follows its cold call on the same matrix: one factorization
        # per matrix serves all three functions, cold and warm.
        for seed, shape in ((1, (4, 4)), (2, (2, 3)), (3, (3, 6))):
            a = random_channel(seed, shape)
            pinv, direction = self.uncached(a)
            for _ in range(2):  # cold, then warm
                assert (pseudo_inverse(a) == pinv).all()
                assert (dominant_right_singular_vector(a) == direction).all()
                lq = lq_decompose(a)
                np.testing.assert_allclose(lq.l_matrix @ lq.q_matrix, a, atol=1e-12)
        assert len(stacks) == 3

    def test_bad_input_raises_on_every_call(self, stacks):
        # The store keeps a bad matrix's failure, not factors to serve:
        # each call raises, and a repeated bad matrix is not refactored.
        rank_one = np.outer([1.0, 2.0], [1.0, 1j, 0.5])
        for _ in range(2):
            with pytest.raises(RankDeficientError):
                lq_decompose(rank_one)
            with pytest.raises(RankDeficientError):
                pseudo_inverse(rank_one)
        for _ in range(2):
            with pytest.raises(ZeroMatrixError):
                lq_decompose(np.zeros((2, 3)))
            with pytest.raises(ZeroMatrixError):
                pseudo_inverse(np.zeros((2, 3)))
            with pytest.raises(ZeroMatrixError):
                dominant_right_singular_vector(np.zeros((2, 3)))
            with pytest.raises(DimensionMismatchError):
                dominant_right_singular_vector(np.ones(3))
        assert len(stacks) == 2

    def test_cached_vector_is_read_only_and_results_fresh(self):
        a = random_channel(4)
        direction = dominant_right_singular_vector(a)
        stack, c = linalg.factored(a, "dominant_right_singular_vector", full_rank=False)
        assert not stack.direction[c].flags.writeable
        assert direction.flags.writeable
        direction[...] = 0.0
        assert (dominant_right_singular_vector(a) == self.uncached(a)[1]).all()

    def test_mutated_input_is_a_new_key(self, stacks):
        a = random_channel(5)
        before = dominant_right_singular_vector(a)
        a[0, 0] += 1.0
        pinv, direction = self.uncached(a)
        assert (dominant_right_singular_vector(a) == direction).all()
        assert (pseudo_inverse(a) == pinv).all()
        assert not (direction == before).all()
        assert len(stacks) == 2


def non_finite_matrices():
    """A NaN, an infinity and an infinite imaginary part in an otherwise
    full-rank (2, 3) matrix: numpy's SVD raises LinAlgError on the
    first and returns NaN factors for the others."""
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        a = random_channel(6, (2, 3))
        a[1, 2] = bad
        yield a


class TestNonFiniteMatrix:
    """Each entry point that takes an SVD refuses a NaN or an infinity
    with a SimulatorError, on every call, and without a RuntimeWarning."""

    @pytest.fixture(autouse=True)
    def strict(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_lq_decompose(self):
        assert issubclass(NonFiniteMatrixError, SimulatorError)
        for a in non_finite_matrices():
            with pytest.raises(NonFiniteMatrixError, match="lq_decompose"):
                lq_decompose(a)

    def test_pseudo_inverse(self):
        for a in non_finite_matrices():
            with pytest.raises(NonFiniteMatrixError, match="pseudo_inverse"):
                pseudo_inverse(a)

    def test_dominant_right_singular_vector(self, monkeypatch):
        # The store keeps each matrix's failure: the second call raises
        # too, without a second factorization.
        stacks = count_factorizations(monkeypatch)
        for a in non_finite_matrices():
            for _ in range(2):
                with pytest.raises(NonFiniteMatrixError, match="dominant"):
                    dominant_right_singular_vector(a)
        assert len(stacks) == 3


class TestEmptyMatrix:
    @pytest.mark.parametrize("shape", [(0, 4), (0, 0)])
    def test_no_rows_rejected(self, shape):
        for op in (lq_decompose, pseudo_inverse):
            with pytest.raises(DimensionMismatchError, match="0 < K <= N"):
                op(np.zeros(shape, dtype=complex))


class TestFactorStack:
    """factor_stack factors a stack of matrices in one pass, and each
    slice is the matrix factored alone; a bad slice fails on its own."""

    def test_bad_slices_fail_on_their_own_calls(self, monkeypatch):
        # A zero, a non-finite and a rank-deficient slice in the middle
        # of a stack: each raises the single call's error and message,
        # the slices before and after them are factored, the pass warns
        # of nothing, and no call on a slice factors again.
        good = [random_channel(seed, (3, 4)) for seed in (20, 21, 22)]
        non_finite = random_channel(23, (3, 4))
        non_finite[1, 1] = np.nan
        rank_deficient = np.outer([1.0, 2.0, 3j], [1.0, 1j, 0.5, 2.0])
        stack = [good[0], good[1], np.zeros((3, 4)), non_finite, rank_deficient, good[2]]
        stacks = count_factorizations(monkeypatch)
        alone = []
        for a in stack:
            linalg.factor_stack(np.empty((0, 3, 4)))
            alone.append(factored_outcomes(a))
        del stacks[:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            linalg.factor_stack(np.stack(stack))
        assert [factored_outcomes(a) for a in stack] == alone
        assert len(stacks) == 1
        kinds = [[o[0] if isinstance(o, tuple) else None for o in got] for got in alone]
        # pseudo_inverse, lq_decompose, the direction and the records.
        assert kinds == [
            [None] * 4, [None] * 4,
            [ZeroMatrixError] * 4,
            [NonFiniteMatrixError] * 4,
            [RankDeficientError, RankDeficientError, None, RankDeficientError],
            [None] * 4,
        ]
