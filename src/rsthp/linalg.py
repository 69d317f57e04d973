"""Dense complex linear algebra kernels used by the precoder builders.

Everything here operates on small matrices (a handful of users and
antennas). All routines are deterministic: same input bits, same output
bits. Every factorization runs on a stack of matrices: factor_stack
takes one SVD of a (C, K, N) stack, which serves the rank check, the
pseudo-inverse and the dominant direction of every slice, and one QR,
which gives the LQ factors; each slice has the bits of its matrix
factored alone. The last stack factored is kept (the store), with the
records that precoding derives from it. The single-matrix functions
read their matrix's slice from the store, found by the matrix's bytes,
and factor the matrix as a stack of one when the store does not hold it.
"""

from dataclasses import dataclass

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


@dataclass(eq=False)
class FactoredStack:
    """The factors of a (C, K, N) stack of matrices from one factor_stack
    pass, each a read-only (C, ...) array whose slice c belongs to matrix
    c. matrices is the stack itself (the pass's own copy), shape that of
    one matrix, (K, N), and index maps a matrix's bytes to its slice (the
    first, if two are equal). finite, nonzero (finite and not identically
    zero) and full_rank (finite, 0 < K <= N and of full row rank) are
    each slice's checks, as lists. singular_values is (C, min(K, N)); pinv
    (C, N, K) holds the right pseudo-inverses, and l_matrix (C, K, K) and
    q_matrix (C, K, N) the LQ factors, these three None unless
    0 < K <= N; direction (C, N) holds the anchored dominant right
    singular vectors. A slice that fails a check (see check) holds
    finite values that mean nothing. records is what precoding derives
    from the stack, kept with it: None until its first build."""

    matrices: np.ndarray
    shape: tuple[int, int]
    index: dict[bytes, int]
    finite: list[bool]
    nonzero: list[bool]
    full_rank: list[bool]
    singular_values: np.ndarray | None
    pinv: np.ndarray | None
    l_matrix: np.ndarray | None
    q_matrix: np.ndarray | None
    direction: np.ndarray | None
    records: list | None = None

    def check(self, c: int, op_name: str, full_rank: bool = True) -> None:
        """The error, named after op_name, of slice c for an operation that
        needs a finite matrix that is not identically zero and, with
        full_rank, has full row rank: NonFiniteMatrixError (LAPACK's SVD
        raises numpy's LinAlgError on a NaN and returns NaN factors for
        an infinity), ZeroMatrixError or RankDeficientError, in that
        order. The matrix is row-rank deficient unless its smallest
        singular value exceeds _RANK_RTOL times its largest."""
        if (self.full_rank if full_rank else self.nonzero)[c]:
            return
        if not self.finite[c]:
            raise NonFiniteMatrixError(f"{op_name}: matrix holds a NaN or an infinity")
        if not full_rank:
            raise ZeroMatrixError(f"{op_name}: matrix is identically zero")
        largest, smallest = self.singular_values[c, 0], self.singular_values[c, -1]
        if largest == 0.0:
            raise ZeroMatrixError(f"{op_name}: matrix is identically zero")
        raise RankDeficientError(
            f"{op_name}: matrix is row-rank deficient "
            f"(smallest/largest singular value = {smallest / largest:.3e})"
        )


# The last stack that factor_stack factored.
_store: FactoredStack | None = None


def factor_stack(a) -> FactoredStack:
    """Factor a (C, K, N) stack of complex matrices in one pass, and keep
    the result as the store that the single-matrix functions read.

    One SVD of the stack gives each slice's singular values (for the
    rank check), its pseudo-inverse V S^{-1} U^H and its dominant right
    singular vector; one QR of the conjugate-transposed stack gives its
    LQ factors (see lq_decompose). A slice that is not finite (or, for
    the pseudo-inverse and the LQ, not of full row rank) is factored as
    an identity in its place, so no slice can make another fail or warn;
    FactoredStack.check raises its error when it is asked for.
    """
    global _store
    # The store this stack replaces is let go before the stack is copied, so
    # that a caller that keeps none of its records never holds the old factors
    # beside the new stack. A call that raises leaves no store.
    _store = None
    a = np.array(a, dtype=complex)
    if a.ndim != 3:
        raise DimensionMismatchError(f"factor_stack expects a 3-D array, got ndim={a.ndim}")
    a.flags.writeable = False
    n_users, n_tx = a.shape[1:]
    finite = np.isfinite(a).all(axis=(1, 2))
    nonzero = finite & a.any(axis=(1, 2))
    singular_values = pinv = l_matrix = q_matrix = direction = None
    full_rank = np.zeros(len(a), dtype=bool)
    if a.size:
        u, singular_values, vh = np.linalg.svd(_in_place_of(a, finite), full_matrices=False)
        v = vh[:, 0].conj()
        at = np.arange(len(a)), np.argmax(np.abs(v) > _PHASE_ANCHOR_MIN, axis=1)
        anchor = np.where(nonzero, v[at], 1.0)
        direction = v * (np.conj(anchor) / np.abs(anchor))[:, np.newaxis]
        if n_users <= n_tx:
            largest, smallest = singular_values[:, 0], singular_values[:, -1]
            full_rank = finite & (largest != 0.0) & (smallest > _RANK_RTOL * largest)
            s = np.where(full_rank[:, np.newaxis], singular_values, 1.0)
            pinv = (np.swapaxes(vh.conj(), -1, -2) / s[:, np.newaxis, :]) @ np.swapaxes(
                u.conj(), -1, -2
            )
            l_matrix, q_matrix = _lq(_in_place_of(a, full_rank))
    arrays = (singular_values, pinv, l_matrix, q_matrix, direction)
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    index = {}
    for c, matrix in enumerate(a):
        index.setdefault(matrix.tobytes(), c)
    _store = FactoredStack(
        a, a.shape[1:], index, finite.tolist(), nonzero.tolist(), full_rank.tolist(), *arrays
    )
    return _store


def _in_place_of(a: np.ndarray, good: np.ndarray) -> np.ndarray:
    """a, with each slice where good is False replaced by an identity."""
    if good.all():
        return a
    return np.where(good[:, np.newaxis, np.newaxis], a, np.eye(*a.shape[1:]))


def _lq(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (L, Q) factors of each slice of a stack of full-row-rank
    matrices, from a reduced QR of each slice's conjugate transpose.
    LAPACK does not fix the sign of the R diagonal, so a diagonal phase
    is moved between the factors to make diag(L) real positive, which
    makes the factorization unique and reproducible."""
    q_tall, r = np.linalg.qr(np.swapaxes(a.conj(), -1, -2))
    l_raw = np.swapaxes(r.conj(), -1, -2)
    q_rows = np.swapaxes(q_tall.conj(), -1, -2)
    d = np.diagonal(l_raw, axis1=-2, axis2=-1)
    phase = d / np.abs(d)
    # L <- L diag(phase)^{-1}, Q <- diag(phase) Q keeps the product A.
    return l_raw * phase.conj()[:, np.newaxis, :], phase[:, :, np.newaxis] * q_rows


def factored(a, op_name: str, full_rank: bool = True) -> tuple[FactoredStack, int]:
    """(the stack that holds matrix a, a's index in it): the store when it
    holds a's bytes, else a factored as a stack of one. Raises, named
    after op_name, a's error for an operation that needs a 2-D (and,
    with full_rank, a wide full-row-rank) matrix: DimensionMismatchError,
    then FactoredStack.check's."""
    a = np.asarray(a, dtype=complex)
    stack, c = _store, None
    if stack is not None and a.shape == stack.shape:
        c = stack.index.get(a.tobytes())
    # The sweep's path, once per build: a slice of the store that passes.
    if c is not None and (stack.full_rank if full_rank else stack.nonzero)[c]:
        return stack, c
    if a.ndim != 2:
        raise DimensionMismatchError(f"{op_name} expects a 2-D array, got ndim={a.ndim}")
    if full_rank and not 0 < a.shape[0] <= a.shape[1]:
        raise DimensionMismatchError(f"{op_name} expects 0 < K <= N, got shape {a.shape}")
    if c is None:
        stack, c = factor_stack(a[np.newaxis]), 0
    stack.check(c, op_name, full_rank)
    return stack, c


def lq_decompose(a) -> LqFactors:
    """Factor a wide full-row-rank matrix as A = L Q.

    Computed as the conjugate transpose of a reduced QR factorization of
    A^H, with diag(L) made real positive (see factor_stack).

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
    stack, c = factored(a, "lq_decompose")
    return LqFactors(l_matrix=stack.l_matrix[c].copy(), q_matrix=stack.q_matrix[c].copy())


def pseudo_inverse(a) -> np.ndarray:
    """Right pseudo-inverse A^H (A A^H)^{-1} of a wide full-row-rank matrix.

    Computed as V S^{-1} U^H from the reduced SVD A = U S V^H, whose
    singular values also serve the rank check. Forming the Gram matrix
    A A^H instead would square the condition number and lose the right
    inverse on ill-conditioned channels that pass that check.

    Raises the same errors as lq_decompose for bad input.
    """
    stack, c = factored(a, "pseudo_inverse")
    return stack.pinv[c].copy()


def dominant_right_singular_vector(a) -> np.ndarray:
    """Unit-norm right singular vector for the largest singular value.

    Taken from the reduced SVD as the conjugate of the first row of V^H.
    The phase is anchored by making the first component of
    non-negligible magnitude real positive; a unit vector in C^N has a
    component of magnitude at least 1/sqrt(N), so an anchor always
    exists. It is read from the SVD of the stack that holds a (see
    factored), so the directions of a factored chunk of channels cost
    no SVD of their own; each call returns a fresh copy.

    Args:
        a: (K, N) complex array, not identically zero.

    Returns:
        (N,) complex unit vector.

    Raises:
        DimensionMismatchError: if a is not 2-D.
        NonFiniteMatrixError: if a holds a NaN or an infinity.
        ZeroMatrixError: if a is identically zero.
    """
    stack, c = factored(a, "dominant_right_singular_vector", full_rank=False)
    return stack.direction[c].copy()
