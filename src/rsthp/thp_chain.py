"""Tomlinson-Harashima signal chain: modulo arithmetic, successive
encoding, and an end-to-end transmit/receive pass.

The modulo operation wraps both quadratures onto [-tau/2, tau/2). For a
square QAM constellation scaled to unit average energy the wrap size is
tau = spacing * sqrt(order), which places every constellation point
strictly inside one cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonUnitDiagonalError, SchemeMismatchError
from .precoding import PrecoderSet

_QAM_ORDERS = (4, 16, 64)

_TRIANGULAR_TOL = 1e-12


@dataclass(frozen=True)
class ModuloLattice:
    """Square complex lattice tau * (Z + jZ) used by the modulo reducer."""

    tau: float


@dataclass(frozen=True)
class QamConstellation:
    """Square QAM alphabet with unit average symbol energy."""

    order: int
    points: np.ndarray
    spacing: float

    def lattice(self) -> ModuloLattice:
        return ModuloLattice(tau=self.spacing * math.sqrt(self.order))


def qam_constellation(order: int) -> QamConstellation:
    """Square QAM constellation of the given order, unit average energy."""
    if order not in _QAM_ORDERS:
        raise ValueError(f"order must be one of {_QAM_ORDERS}, got {order}")
    side = int(math.isqrt(order))
    spacing = math.sqrt(6.0 / (order - 1))
    levels = spacing * (np.arange(side) - (side - 1) / 2.0)
    points = (levels[:, np.newaxis] + 1j * levels[np.newaxis, :]).ravel()
    return QamConstellation(order=order, points=points, spacing=spacing)


def modulo_reduce(values: np.ndarray, lattice: ModuloLattice) -> np.ndarray:
    """Wrap real and imaginary parts onto [-tau/2, tau/2) componentwise."""
    tau = lattice.tau
    values = np.asarray(values, dtype=complex)
    shift_re = np.floor((values.real + tau / 2.0) / tau)
    shift_im = np.floor((values.imag + tau / 2.0) / tau)
    return values - tau * (shift_re + 1j * shift_im)


def _check_feedback_matrix(b_matrix: np.ndarray) -> np.ndarray:
    b_matrix = np.asarray(b_matrix, dtype=complex)
    if b_matrix.ndim != 2 or b_matrix.shape[0] != b_matrix.shape[1]:
        raise NonUnitDiagonalError(
            f"feedback matrix must be square, got shape {b_matrix.shape}"
        )
    if np.max(np.abs(np.diagonal(b_matrix) - 1.0)) > _TRIANGULAR_TOL:
        raise NonUnitDiagonalError("feedback matrix diagonal must be 1")
    if np.max(np.abs(np.triu(b_matrix, k=1))) > _TRIANGULAR_TOL:
        raise NonUnitDiagonalError("feedback matrix must be lower triangular")
    return b_matrix


def thp_encode(
    symbols: np.ndarray, b_matrix: np.ndarray, lattice: ModuloLattice
) -> tuple[np.ndarray, np.ndarray]:
    """Successive modulo encoding against a unit-diagonal feedback matrix.

    Solves B w = s + d stream by stream, wrapping each intermediate onto
    the modulo cell; d collects the lattice offsets the wraps introduced.
    The first stream has no predecessors and is never wrapped as long as
    the constellation fits the cell.

    Args:
        symbols: (..., K) data symbols, stream index last.
        b_matrix: (K, K) lower triangular, unit diagonal.
        lattice: modulo cell.

    Returns:
        (w, d) with the same shape as symbols: feedback outputs and the
        lattice offsets satisfying B w = s + d.
    """
    b_matrix = _check_feedback_matrix(b_matrix)
    symbols = np.asarray(symbols, dtype=complex)
    n_streams = b_matrix.shape[0]
    if symbols.shape[-1] != n_streams:
        raise NonUnitDiagonalError(
            f"symbols last axis {symbols.shape[-1]} != matrix size {n_streams}"
        )
    w = np.zeros_like(symbols)
    d = np.zeros_like(symbols)
    for k in range(n_streams):
        z = symbols[..., k] - w[..., :k] @ b_matrix[k, :k]
        w[..., k] = modulo_reduce(z, lattice)
        d[..., k] = w[..., k] - z
    return w, d


@dataclass(frozen=True)
class ChainTrace:
    """All intermediate signals of one transmit/receive pass.

    s are the data symbols, v = s + d the effective (offset) symbols, w
    the feedback outputs, x the antenna signal, and received the
    per-user signal after receiver scaling (and before the receiver's
    own modulo).
    """

    s: np.ndarray
    v: np.ndarray
    d: np.ndarray
    w: np.ndarray
    x: np.ndarray
    received: np.ndarray


def run_perfect_csit_chain(
    precoders: PrecoderSet,
    symbols: np.ndarray,
    noise: np.ndarray,
    lattice: ModuloLattice,
) -> ChainTrace:
    """Run the full THP chain over the channel the precoders were built on.

    With matched transmit and receive processing the received signal is
    exactly v plus scaled noise; anything else is an implementation bug,
    which is what the chain validator checks.

    Args:
        precoders: THP precoder set (cthp or dthp family).
        symbols: (K,) data symbols.
        noise: (K,) receiver noise realization.
        lattice: modulo cell matching the symbol constellation.

    Returns:
        ChainTrace of every intermediate signal.

    Raises:
        SchemeMismatchError: scheme without a feedback chain.
    """
    if not precoders.scheme.uses_power_loss:
        raise SchemeMismatchError(
            f"scheme {precoders.scheme.tag} has no modulo signal chain"
        )
    symbols = np.asarray(symbols, dtype=complex)
    noise = np.asarray(noise, dtype=complex)

    w, d = thp_encode(symbols, precoders.b_matrix, lattice)
    v = symbols + d
    x = precoders.tx_basis @ w
    y = precoders.h_est @ x + noise
    received = precoders.rx_gain * y / precoders.beta
    return ChainTrace(s=symbols, v=v, d=d, w=w, x=x, received=received)


def random_feedback_matrix(
    n_streams: int, subdiagonal_scale: float, seed: int
) -> np.ndarray:
    """Random unit-diagonal lower triangular matrix for stress tests.

    Subdiagonal entries are complex Gaussian scaled by
    subdiagonal_scale; larger scales push more encoder inputs out of the
    modulo cell, which is what power-loss measurements need.
    """
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal((n_streams, n_streams)) + 1j * rng.standard_normal(
        (n_streams, n_streams)
    )
    return np.eye(n_streams, dtype=complex) + subdiagonal_scale * np.tril(draw, k=-1)


def measure_power_loss(
    constellation: QamConstellation,
    b_matrix: np.ndarray,
    lattice: ModuloLattice,
    n_symbols: int,
    seed: int,
) -> float:
    """Estimate the modulo power loss factor E|s|^2 / E|w|^2.

    Feeds uniform random constellation symbols through the feedback
    encoder and compares input and output power. The first stream is
    excluded from both averages: it is never wrapped, so it carries no
    information about the loss and only drags the estimate toward 1.

    Args:
        constellation: symbol alphabet.
        b_matrix: (K, K) unit-diagonal lower triangular feedback matrix
            with K >= 2.
        lattice: modulo cell.
        n_symbols: total symbols to push through (across all streams).
        seed: RNG seed for the symbol draw.

    Returns:
        Power loss estimate, 1.0 for an identity feedback matrix.
    """
    b_matrix = _check_feedback_matrix(b_matrix)
    n_streams = b_matrix.shape[0]
    if n_streams < 2:
        raise NonUnitDiagonalError(
            "power loss needs at least 2 streams, first stream never wraps"
        )
    n_blocks = max(1, math.ceil(n_symbols / n_streams))
    rng = np.random.default_rng(seed)
    symbols = rng.choice(constellation.points, size=(n_blocks, n_streams))
    w, _ = thp_encode(symbols, b_matrix, lattice)
    power_in = float(np.mean(np.abs(symbols[:, 1:]) ** 2))
    power_out = float(np.mean(np.abs(w[:, 1:]) ** 2))
    return power_in / power_out
