"""Dense complex linear algebra kernels used by the precoder builders.

Everything here operates on small matrices (a handful of users and
antennas). All routines are deterministic: same input bits, same output
bits. The pseudo-inverse and the LQ factorization each take their own
SVD for the rank check; the precoder geometry cache calls them once per
channel. The split search asks for one channel's dominant direction at
every split, so the anchored direction of the last matrix asked for is
kept, keyed by the matrix's bytes.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    NonFiniteMatrixError,
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


def _check_finite(a: np.ndarray, op_name: str) -> None:
    """NonFiniteMatrixError if a holds a NaN or an infinity: LAPACK's
    SVD raises numpy's LinAlgError on a NaN and returns NaN factors for
    an infinity."""
    if not np.isfinite(a).all():
        raise NonFiniteMatrixError(f"{op_name}: matrix holds a NaN or an infinity")


def _full_row_rank_svd(a, op_name: str) -> tuple[np.ndarray, ...]:
    """a as a complex array and its reduced SVD, or the error that
    lq_decompose documents. The matrix is row-rank deficient unless its
    smallest singular value exceeds _RANK_RTOL times its largest."""
    a = _as_complex_matrix(a, op_name)
    if not 0 < a.shape[0] <= a.shape[1]:
        raise DimensionMismatchError(
            f"{op_name} expects 0 < K <= N, got shape {a.shape}"
        )
    _check_finite(a, op_name)
    u, singular_values, vh = np.linalg.svd(a, full_matrices=False)
    largest, smallest = singular_values[0], singular_values[-1]
    if largest == 0.0:
        raise ZeroMatrixError(f"{op_name}: matrix is identically zero")
    if smallest <= _RANK_RTOL * largest:
        raise RankDeficientError(
            f"{op_name}: matrix is row-rank deficient "
            f"(smallest/largest singular value = {smallest / largest:.3e})"
        )
    return a, u, singular_values, vh


def lq_decompose(a) -> LqFactors:
    """Factor a wide full-row-rank matrix as A = L Q.

    Computed as the conjugate transpose of a reduced QR factorization of
    A^H. LAPACK does not fix the sign of the R diagonal, so a diagonal
    phase is moved between the factors to make diag(L) real positive,
    which makes the factorization unique and reproducible.

    Args:
        a: (K, N) complex array with 1 <= K <= N and full row rank.

    Returns:
        LqFactors with the normalized factors.

    Raises:
        DimensionMismatchError: if a is not 2-D, has no rows or K > N.
        NonFiniteMatrixError: if a holds a NaN or an infinity.
        ZeroMatrixError: if a is identically zero.
        RankDeficientError: if a does not have full row rank.
    """
    a = _full_row_rank_svd(a, "lq_decompose")[0]

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

    Computed as V S^{-1} U^H from the reduced SVD A = U S V^H, whose
    singular values also serve the rank check. Forming the Gram matrix
    A A^H instead would square the condition number and lose the right
    inverse on ill-conditioned channels that pass that check.

    Raises the same errors as lq_decompose for bad input.
    """
    _, u, singular_values, vh = _full_row_rank_svd(a, "pseudo_inverse")
    return (vh.conj().T / singular_values) @ u.conj().T


@lru_cache(maxsize=1)
def _anchored_direction(a_bytes: bytes, shape: tuple[int, int]) -> np.ndarray:
    # Checked on a miss only: lru_cache keeps no exception, so a bad
    # matrix always raises.
    a = np.frombuffer(a_bytes, dtype=complex).reshape(shape)
    _check_finite(a, "dominant_right_singular_vector")
    if not np.any(a):
        raise ZeroMatrixError(
            "dominant_right_singular_vector: matrix is identically zero"
        )
    v = np.linalg.svd(a, full_matrices=False)[2][0].conj()
    anchor = np.flatnonzero(np.abs(v) > _PHASE_ANCHOR_MIN)[0]
    v = v * (np.conj(v[anchor]) / np.abs(v[anchor]))
    v.flags.writeable = False
    return v


def dominant_right_singular_vector(a) -> np.ndarray:
    """Unit-norm right singular vector for the largest singular value.

    Taken from the reduced SVD as the conjugate of the first row of V^H.
    The phase is anchored by making the first component of
    non-negligible magnitude real positive; a unit vector in C^N has a
    component of magnitude at least 1/sqrt(N), so an anchor always
    exists. The anchored vector of the last matrix asked for is kept, so
    repeated calls on one matrix take one SVD; each call returns a fresh
    copy.

    Args:
        a: (K, N) complex array, not identically zero.

    Returns:
        (N,) complex unit vector.

    Raises:
        DimensionMismatchError: if a is not 2-D.
        NonFiniteMatrixError: if a holds a NaN or an infinity.
        ZeroMatrixError: if a is identically zero.
    """
    a = _as_complex_matrix(a, "dominant_right_singular_vector")
    return _anchored_direction(a.tobytes(), a.shape).copy()
