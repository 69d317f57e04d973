"""Dense complex linear algebra kernels used by the precoder builders.

Everything here operates on small matrices (a handful of users and
antennas), so clarity and reproducibility win over raw speed. All
routines are deterministic: same input bits, same output bits.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    RankDeficientError,
    ZeroMatrixError,
)

# Relative threshold on singular values below which a matrix is treated
# as row-rank deficient.
_RANK_RTOL = 1e-10

# Components below this magnitude are skipped when picking the entry
# that anchors the phase convention.
_PHASE_ANCHOR_MIN = 1e-6


@dataclass(frozen=True)
class LqFactors:
    """Result of a row-wise triangular factorization A = L Q.

    Attributes:
        l_matrix: (K, K) lower triangular with real, strictly positive
            diagonal.
        q_matrix: (K, N) with orthonormal rows, Q Q^H = I.
    """

    l_matrix: np.ndarray
    q_matrix: np.ndarray

    @property
    def diagonal(self) -> np.ndarray:
        """Real positive diagonal of L as a 1-D array."""
        return np.real(np.diagonal(self.l_matrix))


def _as_complex_matrix(a, op_name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(
            f"{op_name} expects a 2-D array, got ndim={a.ndim}"
        )
    return a


def _check_full_row_rank(singular_values: np.ndarray, op_name: str) -> None:
    """Raise unless the smallest singular value (they come largest first)
    exceeds _RANK_RTOL times the largest."""
    if singular_values[0] == 0.0:
        raise ZeroMatrixError(f"{op_name}: matrix is identically zero")
    if singular_values[-1] <= _RANK_RTOL * singular_values[0]:
        raise RankDeficientError(
            f"{op_name}: matrix is row-rank deficient "
            f"(smallest/largest singular value = "
            f"{singular_values[-1] / singular_values[0]:.3e})"
        )


def lq_decompose(a) -> LqFactors:
    """Factor a wide full-row-rank matrix as A = L Q.

    Computed as the conjugate transpose of a reduced QR factorization of
    A^H. LAPACK does not fix the sign of the R diagonal, so a diagonal
    phase is moved between the factors to make diag(L) real positive,
    which makes the factorization unique and reproducible.

    Args:
        a: (K, N) complex array with K <= N and full row rank.

    Returns:
        LqFactors with the normalized factors.

    Raises:
        DimensionMismatchError: if a is not 2-D or K > N.
        ZeroMatrixError: if a is identically zero.
        RankDeficientError: if a does not have full row rank.
    """
    a = _as_complex_matrix(a, "lq_decompose")
    n_rows, n_cols = a.shape
    if n_rows > n_cols:
        raise DimensionMismatchError(
            f"lq_decompose expects K <= N, got shape {a.shape}"
        )
    _check_full_row_rank(np.linalg.svd(a, compute_uv=False), "lq_decompose")

    q_tall, r = np.linalg.qr(a.conj().T)
    l_raw = r.conj().T
    q_rows = q_tall.conj().T

    d = np.diagonal(l_raw)
    phase = d / np.abs(d)
    # L <- L diag(phase)^{-1}, Q <- diag(phase) Q keeps the product A.
    l_matrix = l_raw * phase.conj()[np.newaxis, :]
    q_matrix = phase[:, np.newaxis] * q_rows
    return LqFactors(l_matrix=l_matrix, q_matrix=q_matrix)


def pseudo_inverse(a) -> np.ndarray:
    """Right pseudo-inverse A^H (A A^H)^{-1} of a wide full-row-rank matrix.

    Computed as V S^{-1} U^H from one reduced SVD A = U S V^H, whose
    singular values also serve the rank check. Forming the Gram matrix
    A A^H instead would square the condition number and lose the right
    inverse on ill-conditioned channels that pass that check.

    Raises the same errors as lq_decompose for bad input.
    """
    a = _as_complex_matrix(a, "pseudo_inverse")
    n_rows, n_cols = a.shape
    if n_rows > n_cols:
        raise DimensionMismatchError(
            f"pseudo_inverse expects K <= N, got shape {a.shape}"
        )
    u, singular_values, vh = np.linalg.svd(a, full_matrices=False)
    _check_full_row_rank(singular_values, "pseudo_inverse")
    return (vh.conj().T / singular_values) @ u.conj().T


def dominant_right_singular_vector(a) -> np.ndarray:
    """Unit-norm right singular vector for the largest singular value.

    Taken from LAPACK's SVD as the conjugate of the first row of V^H.
    The phase is anchored by making the first component of
    non-negligible magnitude real positive; a unit vector in C^N has a
    component of magnitude at least 1/sqrt(N), so an anchor always
    exists.

    Args:
        a: (K, N) complex array, not identically zero.

    Returns:
        (N,) complex unit vector.

    Raises:
        DimensionMismatchError: if a is not 2-D.
        ZeroMatrixError: if a is identically zero.
    """
    a = _as_complex_matrix(a, "dominant_right_singular_vector")
    if not np.any(a):
        raise ZeroMatrixError(
            "dominant_right_singular_vector: matrix is identically zero"
        )
    v = np.linalg.svd(a, full_matrices=False)[2][0].conj()
    anchor = np.flatnonzero(np.abs(v) > _PHASE_ANCHOR_MIN)[0]
    return v * (np.conj(v[anchor]) / np.abs(v[anchor]))
