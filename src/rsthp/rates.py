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
  * Effective channel G = (h_est + E) @ p_private, the private streams
    as the users really receive them; every closed form reads G, the
    common-stream gains and the PrecoderSet's beta and rx_gain, never
    the scheme. For THP, h_est @ p_private = beta diag(1 / rx_gain), so
    the error coupling of the papers is A = G / beta - diag(1 / rx_gain).
  * The closed forms take the effective symbols v = s + d at unit
    power; the estimator sends 4-QAM v with the real lattice offsets d.
  * SINRs are capped at SINR_CAP; a report whose raw values exceeded the
    cap (or were non-finite) is flagged saturated, and the sweep path
    refuses such values instead of averaging them.
"""

from dataclasses import dataclass

import numpy as np

from .channel import complex_gaussian
from .exceptions import DimensionMismatchError, SaturatedSinrError
from .precoding import PrecoderSet
from .thp_chain import qam_constellation, thp_encode

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
    values. One formula serves all eight schemes: with the effective
    channel G = (h_est + E) @ p_private and g = rx_gain, the private
    SINR is |g^2 G_kk + beta (1 - g)|^2 / (g^2 (sum_j |G_kj|^2 -
    |G_kk|^2 + sigma^2)). For g = 1 (zf, cthp) that is the linear SINR;
    for dthp and zf-dpc it is the published |1 + g^2 A_kk|^2 /
    (g^2 (cross + sigma^2 / beta^2)) with A = G / beta - diag(1 / g).
    The common stream treats the whole private signal, sum_j |G_kj|^2,
    as interference. Returns capped (private (M, K), common (M, K) or
    None, saturated).
    """
    if errors.ndim != 3 or errors.shape[1:] != precoders.h_est.shape:
        raise DimensionMismatchError(
            f"errors shape {errors.shape} does not match channel "
            f"{precoders.h_est.shape}"
        )
    rows = precoders.h_est[np.newaxis, :, :] + errors
    with np.errstate(divide="ignore", invalid="ignore"):
        gain2 = precoders.rx_gain**2
        gains = rows @ precoders.p_private
        own = np.diagonal(gains, axis1=1, axis2=2)
        private_power = np.sum(np.abs(gains) ** 2, axis=2)
        # The simulated signal (estimate_sinr_monte_carlo) gives
        # 1 + g_k A_kk, not 1 + g_k^2 A_kk; the published form keeps g^2.
        signal = gain2 * own + precoders.beta * (1.0 - precoders.rx_gain)
        private = np.abs(signal) ** 2 / (
            gain2 * (private_power - np.abs(own) ** 2 + sigma_n2)
        )
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
    """Estimate per-user SINRs by simulating the signal actually sent.

    Private symbols s are 4-QAM. Schemes with a modulo (cthp, dthp) run
    them through thp_encode, whose lattice offsets d make v = s + d the
    effective symbols; zf and zf-dpc send v = s. User k receives
    y = G v + n with G = (h_est + E) @ p_private, which is tx_basis
    applied to the feedback outputs. Receiver k strips its own offset at
    the estimate's nominal gain (h_est @ p_private)_kk, so the
    error-rotated copy of d_k stays in the residual with the other
    streams and the noise. The common stream, decoded first, sees all
    of y as interference.

    This estimator is deliberately independent of the closed forms: it
    divides the signal power (4-QAM symbols have unit modulus) by the
    sample power of the simulated interference.
    """
    h_e = np.asarray(error_realization, dtype=complex)
    rng = np.random.default_rng(seed)
    qam = qam_constellation(4)
    symbols = rng.choice(qam.points, size=(n_samples, precoders.n_users))
    noise = complex_gaussian(rng, symbols.shape, variance=sigma_n2)
    offsets = np.zeros_like(symbols)
    if precoders.scheme.uses_power_loss:
        offsets = thp_encode(symbols, precoders.b_matrix, qam.lattice())[1]

    rows = precoders.h_est + h_e
    gains = rows @ precoders.p_private
    own = np.diagonal(gains)
    nominal = np.diagonal(precoders.h_est @ precoders.p_private)
    received = (symbols + offsets) @ gains.T + noise
    residual = received - nominal * offsets - own * symbols
    with np.errstate(divide="ignore", invalid="ignore"):
        private = np.abs(own) ** 2 / np.mean(np.abs(residual) ** 2, axis=0)
        common = None
        if precoders.p_common is not None:
            common = np.abs(rows @ precoders.p_common) ** 2 / np.mean(
                np.abs(received) ** 2, axis=0
            )
    private, saturated = _cap(private)
    if common is not None:
        common, sat_c = _cap(common)
        saturated = saturated or sat_c
    return SinrReport(
        scheme_tag=precoders.scheme.tag,
        csit="perfect" if not np.any(h_e) else "imperfect",
        private=private,
        common=common,
        saturated=saturated,
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
    hidden. The THP closed forms keep the published structure (unit-power
    effective symbols, numerator |1 + g_k^2 A_kk|^2), so a systematic gap
    there is expected and documented, not an error.
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
            "leaves out any lattice offsets' power; numerator |1 + g_k^2 A_kk|^2"
        )
    gap_c = None
    if closed.common is not None:
        gap_c = float(
            np.max(np.abs(estimated.common - closed.common) / closed.common)
        )
        if gap_c > CROSS_CHECK_TOL:
            annotations.append(
                f"common SINR gap {gap_c:.1%} (csit={closed.csit}): closed "
                "form takes the private effective symbols at unit power, "
                "without the lattice offsets' power"
            )
    return SinrCrossCheck(
        closed=closed,
        estimated=estimated,
        max_rel_gap_private=gap_p,
        max_rel_gap_common=gap_c,
        annotations=tuple(annotations),
    )
