"""SINR and achievable-rate evaluation for every scheme.

Closed forms and a Monte-Carlo estimator live side by side. The closed
forms of all eight schemes are evaluated through one kernel for perfect
and imperfect CSIT (perfect is the zero-error special case), so the
reduction between the two is exact by construction. The estimator
simulates the received signal model directly and is the independent
check on the algebra. Neither asks where a scheme puts its THP gains:
PrecoderSet.tx_basis and rx_gain carry that.

Conventions used throughout:
  * Channel rows are conjugated-transposed user channels, so a received
    sample is row @ x + noise.
  * THP coupling matrix A = h_e @ (P / beta), the estimation error hit
    by the feedforward/feedback cascade without the transmit gain; the
    gain cancels between transmitter and receiver scaling.
  * Feedback outputs are modeled as white with per-symbol power
    1 / lambda_eff when a transmit covariance is needed.
  * SINRs are capped at SINR_CAP; a report whose raw values exceeded the
    cap (or were non-finite) is flagged saturated, and the sweep path
    refuses such values instead of averaging them.
"""

from dataclasses import dataclass

import numpy as np

from .channel import complex_gaussian
from .exceptions import DimensionMismatchError, SaturatedSinrError
from .precoding import PrecoderSet

SINR_CAP = 1e12

# Relative disagreement between closed form and estimator above which a
# cross-check records an annotation.
CROSS_CHECK_TOL = 0.05


@dataclass(frozen=True)
class SinrReport:
    """Per-user SINRs for one channel/error realization.

    common is None for schemes without a common stream (or zero power
    split). csit is "perfect" or "imperfect".
    """

    scheme_tag: str
    csit: str
    private: np.ndarray
    common: np.ndarray | None
    saturated: bool


@dataclass(frozen=True)
class RateReport:
    """Achievable rates derived from one SinrReport."""

    scheme_tag: str
    private_rates: np.ndarray
    common_rate: float | None
    sum_rate: float


def _cap(values: np.ndarray) -> tuple[np.ndarray, bool]:
    finite = np.isfinite(values)
    saturated = bool(np.any(~finite) or np.any(values[finite] > SINR_CAP))
    values = np.where(finite, values, SINR_CAP)
    return np.minimum(values, SINR_CAP), saturated


def _batch_sinr(
    precoders: PrecoderSet, errors: np.ndarray, sigma_n2: float
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Closed-form SINRs for every scheme, batched over error draws.

    errors has shape (M, K, N); all-zero rows give the perfect-CSIT
    values. THP private streams see only the error coupling, because
    h_est @ p_private = beta diag(1 / rx_gain) and the receiver modulo
    strips the rest; linear private streams see the true channel rows.
    The common stream treats the whole private signal as interference.
    Returns capped (private (M, K), common (M, K) or None, saturated).
    """
    if errors.ndim != 3 or errors.shape[1:] != precoders.h_est.shape:
        raise DimensionMismatchError(
            f"errors shape {errors.shape} does not match channel "
            f"{precoders.h_est.shape}"
        )
    rows = precoders.h_est[np.newaxis, :, :] + errors
    with np.errstate(divide="ignore", invalid="ignore"):
        if precoders.scheme.is_thp:
            beta = precoders.beta
            gain2 = precoders.rx_gain**2
            coupling = errors @ (precoders.p_private / beta)
            diag_term = np.diagonal(coupling, axis1=1, axis2=2)
            cross_power = (
                np.sum(np.abs(coupling) ** 2, axis=2) - np.abs(diag_term) ** 2
            )
            # For dthp the chain and the estimator give 1 + g_k A_kk, not
            # 1 + g_k^2 A_kk; this form stays until a third witness decides.
            private = np.abs(1.0 + gain2 * diag_term) ** 2 / (
                gain2 * (cross_power + sigma_n2 / beta**2)
            )
            private_power = beta**2 * (
                np.abs(1.0 / precoders.rx_gain + diag_term) ** 2 + cross_power
            )
        else:
            gains = rows @ precoders.p_private
            own_power = np.abs(np.diagonal(gains, axis1=1, axis2=2)) ** 2
            private_power = np.sum(np.abs(gains) ** 2, axis=2)
            private = own_power / (private_power - own_power + sigma_n2)
        common = None
        if precoders.p_common is not None:
            common = np.abs(rows @ precoders.p_common) ** 2 / (
                private_power + sigma_n2
            )

    private, saturated = _cap(private)
    if common is not None:
        common, sat_c = _cap(common)
        saturated = saturated or sat_c
    return private, common, saturated


def sinr_imperfect_csit(
    precoders: PrecoderSet, error_realization: np.ndarray, sigma_n2: float
) -> SinrReport:
    """Closed-form SINRs for one CSIT error realization.

    error_realization is the (K, N) estimation error; zero rows recover
    the perfect-CSIT values exactly (same code path).
    """
    errors = np.asarray(error_realization, dtype=complex)[np.newaxis, :, :]
    private, common, saturated = _batch_sinr(precoders, errors, sigma_n2)
    return SinrReport(
        scheme_tag=precoders.scheme.tag,
        csit="perfect" if not np.any(error_realization) else "imperfect",
        private=private[0],
        common=None if common is None else common[0],
        saturated=saturated,
    )


def sinr_perfect_csit(precoders: PrecoderSet, sigma_n2: float) -> SinrReport:
    """Perfect-CSIT SINRs for any scheme (the zero-error special case)."""
    zero = np.zeros_like(precoders.h_est)
    return sinr_imperfect_csit(precoders, zero, sigma_n2)


def rates_from_sinr(report: SinrReport) -> RateReport:
    """Achievable rates: log2(1 + SINR), common stream at the worst user.

    The common rate is the minimum over users because every user must
    decode the common stream. The sum rate is that minimum plus all
    private rates.
    """
    private_rates = np.log2(1.0 + report.private)
    common_rate = None
    if report.common is not None:
        common_rate = float(np.min(np.log2(1.0 + report.common)))
    total = float(np.sum(private_rates))
    if common_rate is not None:
        total += common_rate
    return RateReport(
        scheme_tag=report.scheme_tag,
        private_rates=private_rates,
        common_rate=common_rate,
        sum_rate=total,
    )


def sum_rate_samples(
    precoders: PrecoderSet, errors: np.ndarray, sigma_n2: float
) -> np.ndarray:
    """Per-realization sum rates for a batch of error draws.

    errors has shape (M, K, N). Each realization is rated independently
    (common stream at its per-realization worst user) and the (M,) array
    of sum rates is returned. This is the workhorse the averaging layer
    calls; it matches rates_from_sinr(sinr_imperfect_csit(...)) per row.

    Raises:
        SaturatedSinrError: an SINR reached SINR_CAP or was not finite,
            so the capped rate would be averaged in as if it were real.
    """
    errors = np.asarray(errors, dtype=complex)
    private, common, saturated = _batch_sinr(precoders, errors, sigma_n2)
    if saturated:
        raise SaturatedSinrError(
            f"{precoders.scheme.tag}: an SINR reached the cap {SINR_CAP:g} "
            "or was not finite; lower the SNR"
        )
    totals = np.sum(np.log2(1.0 + private), axis=1)
    if common is not None:
        totals = totals + np.min(np.log2(1.0 + common), axis=1)
    return totals


def estimate_sinr_monte_carlo(
    precoders: PrecoderSet,
    error_realization: np.ndarray,
    sigma_n2: float,
    n_samples: int,
    seed: int,
) -> SinrReport:
    """Estimate per-user SINRs by simulating the received-signal model.

    For THP schemes the effective symbols are data plus a modulo dither,
    modeled as independent Gaussians with total power 1 / lambda_eff;
    the receiver is credited with removing its own dither but not the
    error-rotated copies of it. For linear schemes the symbols are unit
    power and the model is exact. The common stream, when present,
    treats the entire private signal as interference: white feedback
    outputs of power 1 / lambda_eff (unit-power symbols for linear
    schemes) through tx_basis.

    This estimator is deliberately independent of the closed forms: it
    accumulates sample powers of simulated signals and divides.
    """
    h_e = np.asarray(error_realization, dtype=complex)
    rng = np.random.default_rng(seed)
    scheme = precoders.scheme
    n_users = precoders.n_users
    perfect = not np.any(h_e)

    symbols = complex_gaussian(rng, (n_samples, n_users))
    noise = complex_gaussian(rng, (n_samples, n_users), variance=sigma_n2)

    if scheme.is_thp:
        dither_var = 1.0 / precoders.lambda_eff - 1.0
        dither = complex_gaussian(rng, (n_samples, n_users), variance=dither_var)
        v = symbols + dither
        coupling = h_e @ (precoders.p_private / precoders.beta)
        gain = precoders.rx_gain
        # Received after receiver gain with the direct-path dither removed.
        # The error-coupled dither copies stay: the receiver modulo only
        # strips d_k from its own direct term.
        received = (
            v
            + (v @ coupling.T) * gain[np.newaxis, :]
            + noise * (gain / precoders.beta)[np.newaxis, :]
            - dither
        )
        desired_coeff = 1.0 + gain * np.diagonal(coupling)
        desired = desired_coeff[np.newaxis, :] * symbols
        residual = received - desired
        interference_power = np.mean(np.abs(residual) ** 2, axis=0)
        signal_power = np.mean(np.abs(desired) ** 2, axis=0)
    else:
        rows = precoders.h_est + h_e
        gains = rows @ precoders.p_private
        received = symbols @ gains.T + noise
        desired = np.diagonal(gains)[np.newaxis, :] * symbols
        residual = received - desired
        interference_power = np.mean(np.abs(residual) ** 2, axis=0)
        signal_power = np.mean(np.abs(desired) ** 2, axis=0)

    private, sat_p = _cap(signal_power / interference_power)

    common = None
    sat_c = False
    if precoders.p_common is not None:
        rows = precoders.h_est + h_e
        common_symbol = complex_gaussian(rng, (n_samples,))
        common_noise = complex_gaussian(rng, (n_samples, n_users), variance=sigma_n2)
        white = complex_gaussian(
            rng, (n_samples, n_users), variance=1.0 / precoders.lambda_eff
        )
        x_private = white @ precoders.tx_basis.T
        common_gain = rows @ precoders.p_common
        desired_c = common_symbol[:, np.newaxis] * common_gain[np.newaxis, :]
        clutter = x_private @ rows.T + common_noise
        common_raw = np.mean(np.abs(desired_c) ** 2, axis=0) / np.mean(
            np.abs(clutter) ** 2, axis=0
        )
        common, sat_c = _cap(common_raw)

    return SinrReport(
        scheme_tag=scheme.tag,
        csit="perfect" if perfect else "imperfect",
        private=private,
        common=common,
        saturated=sat_p or sat_c,
    )


@dataclass(frozen=True)
class SinrCrossCheck:
    """Closed form vs simulation, with annotations for systematic gaps."""

    closed: SinrReport
    estimated: SinrReport
    max_rel_gap_private: float
    max_rel_gap_common: float | None
    annotations: tuple[str, ...]


def cross_check_sinr(
    precoders: PrecoderSet,
    error_realization: np.ndarray,
    sigma_n2: float,
    n_samples: int,
    seed: int,
) -> SinrCrossCheck:
    """Compare closed-form SINRs against the signal-model estimator.

    Gaps beyond CROSS_CHECK_TOL are recorded as annotations rather than
    hidden. Under imperfect CSIT the closed forms keep the published
    structure (no dither self-noise, unit effective-symbol power), so a
    systematic gap there is expected and documented, not an error.
    """
    closed = sinr_imperfect_csit(precoders, error_realization, sigma_n2)
    estimated = estimate_sinr_monte_carlo(
        precoders, error_realization, sigma_n2, n_samples, seed
    )
    gap_p = float(
        np.max(np.abs(estimated.private - closed.private) / closed.private)
    )
    annotations = []
    if gap_p > CROSS_CHECK_TOL:
        annotations.append(
            f"private SINR gap {gap_p:.1%} (csit={closed.csit}): closed form "
            "ignores dither self-noise and effective-symbol power"
        )
    gap_c = None
    if closed.common is not None:
        gap_c = float(
            np.max(np.abs(estimated.common - closed.common) / closed.common)
        )
        if gap_c > CROSS_CHECK_TOL:
            annotations.append(
                f"common SINR gap {gap_c:.1%} (csit={closed.csit}): closed "
                "form keeps only the same-index private interference term"
            )
    return SinrCrossCheck(
        closed=closed,
        estimated=estimated,
        max_rel_gap_private=gap_p,
        max_rel_gap_common=gap_c,
        annotations=tuple(annotations),
    )
