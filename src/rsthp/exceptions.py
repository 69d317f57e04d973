"""Exception types raised across the simulator."""


class SimulatorError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(SimulatorError):
    """Array shapes are inconsistent with each other or with the operation."""


class RankDeficientError(SimulatorError):
    """Matrix does not have full row rank, so the factorization is undefined."""


class ZeroMatrixError(SimulatorError):
    """Operation requires a nonzero matrix."""


class NonFiniteMatrixError(SimulatorError):
    """Matrix holds a NaN or an infinity, so its SVD is undefined."""


class NonUnitDiagonalError(SimulatorError):
    """Feedback matrix must be lower triangular with unit diagonal."""


class InvalidVarianceError(SimulatorError):
    """Variance parameter must be nonnegative."""


class SchemeMismatchError(SimulatorError):
    """Requested operation does not apply to this precoding scheme."""


class EmptyGridError(SimulatorError):
    """Search grid must contain at least one point."""


class SaturatedSinrError(SimulatorError):
    """An SINR reached the numerical cap or was not finite.

    saturated, when not None, is the (rows, sets) mask of the saturated
    precoder sets of the table that raised it.
    """

    def __init__(self, message: str, saturated=None):
        super().__init__(message)
        self.saturated = saturated
