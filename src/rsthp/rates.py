"""SINR and achievable-rate evaluation for every scheme.

Closed forms and a Monte-Carlo estimator live side by side. The closed
forms of all eight schemes are evaluated through one kernel for perfect
and imperfect CSIT (perfect is the zero-error special case), so the
reduction between the two is exact by construction. A split moves only
scalars, the private scale beta and the common stream's power P along
the channel's one direction d, which its geometry record holds, so one
kernel call (stacked_sum_rate_table) takes one geometry record and
per-set arrays of beta and P, at any error variances: it forms each
error ensemble's split-invariant gains once and scales them per set. One
build over one ensemble (sum_rate_samples, sinr_imperfect_csit) is its
view, with the same bits. The estimator simulates the received signal
model directly and is the independent check on the algebra. Neither asks
where a scheme puts its THP gains: the unit_map and rx_gain of a
geometry record carry that.

Conventions used throughout:
  * Channel rows are conjugated-transposed user channels, so a received
    sample is row @ x + noise.
  * Effective channel G = (h_est + E) @ p_private with p_private = beta
    unit_private: the private streams as the users really receive them.
    Every closed form reads G, the common-stream gains P |(h_est + E) @
    d|^2, beta and the record's rx_gain, never the scheme. For
    THP, h_est @ unit_private = diag(1 / rx_gain), so the error coupling
    of the papers is A = G / beta - diag(1 / rx_gain).
  * The closed forms take the effective symbols v = s + d at unit
    power; the estimator sends 4-QAM v with the real lattice offsets d.
  * SINRs are capped at SINR_CAP; a report whose raw values exceeded the
    cap (or were non-finite) is flagged saturated, and the sweep path
    refuses such values instead of averaging them.
"""

from dataclasses import dataclass

import numpy as np

from .channel import complex_gaussian
from .exceptions import (
    DimensionMismatchError,
    EmptyGridError,
    SaturatedSinrError,
)
from .precoding import Geometry, PrecoderSet
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


def _cap(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values capped at SINR_CAP, for each index of the first axis
    whether any of its values exceeded the cap or was not finite). A
    batch that is finite and within the cap, the usual case, comes back
    as it is: a NaN or an infinity fails the test below."""
    if values.max(initial=0.0) <= SINR_CAP and values.min(initial=0.0) > -np.inf:
        return values, np.zeros(len(values), dtype=bool)
    finite = np.isfinite(values)
    values = np.where(finite, values, SINR_CAP)
    saturated = ~finite | (values > SINR_CAP)
    return (
        np.minimum(values, SINR_CAP),
        saturated.reshape(len(values), -1).any(axis=1),
    )


def _saturation(what: str, set_index: int | None = None) -> SaturatedSinrError:
    """The error for SINRs at SINR_CAP or not finite, without a grid point."""
    return SaturatedSinrError(f"{what} reached the cap {SINR_CAP:g} or was not finite", set_index)


def _kernel_args(precoders: PrecoderSet) -> tuple:
    """The (geometry, beta, power) kernel arguments of one build."""
    return precoders.geometry, np.array([precoders.beta]), np.array([precoders.common_power])


def _stacked_rows(precoders: PrecoderSet, errors: np.ndarray) -> np.ndarray:
    """h_est + E of one (M >= 1, K, N) ensemble as the (1, M K, N) stack."""
    h_est = precoders.h_est
    errors = np.asarray(errors, dtype=complex)
    if errors.ndim != 3 or errors.shape[1:] != h_est.shape or not len(errors):
        raise DimensionMismatchError(
            f"errors shape {errors.shape} is not (M, K, N) = (M >= 1, "
            f"{h_est.shape[0]}, {h_est.shape[1]})"
        )
    return (h_est + errors).reshape(1, -1, h_est.shape[1])


def _batch_sinr(
    geometry: Geometry, beta: np.ndarray, power: np.ndarray,
    rows: np.ndarray, ensembles, sigma_n2: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Closed-form SINRs of S builds on one channel's private geometry
    record, set s with private scale beta[s] and common power power[s]
    along the record's direction d over the (M >= 1) error
    realizations rows[ensembles[s]] of the (V, M K, N) stack of h_est +
    E_v; all-zero errors give the perfect-CSIT values.

    One formula serves all eight schemes. With G = beta (h_est + E) @
    unit_private and g = rx_gain, the private SINR is |g^2 G_kk +
    beta (1 - g)|^2 / (g^2 (sum_j |G_kj|^2 - |G_kk|^2 + sigma^2)): the
    linear SINR for g = 1 (zf, cthp), and for dthp and zf-dpc the
    published |1 + g^2 A_kk|^2 / (g^2 (cross + sigma^2 / beta^2)) with
    A = G / beta - diag(1 / g). The common stream, sent along d at power
    P, treats the whole private signal, sum_j |G_kj|^2, as interference;
    a set at P = 0 (split 0) has no common term at all, not a zero
    one. Only the scalars beta and P differ between the sets, so each
    ensemble's split-invariant arrays are formed once: its gains G0 =
    (h_est + E_v) @ unit_private, all V from one batched matmul, give S0
    = |g^2 G0_kk + 1 - g|^2, X0 (the cross power) and P0 (the received
    private power), and c0 = |(h_est + E_v) @ d|^2 comes from one
    product with d. Set s's private SINR is beta^2 S0 / (g^2 (beta^2 X0
    + sigma^2)) and its common SINR P c0 / (beta^2 P0 + sigma^2). One
    ensemble broadcasts against the sets; several are gathered per set.
    A stacked matmul makes the BLAS calls of single products, so each
    set gets the bits of rating it alone.
    Returns capped (private (S, M, K), the indices of the sets with a
    common stream, their common SINRs (len(indices), M, K) or None,
    whether each set's SINRs saturated (S,)).
    """
    n_users = len(geometry.rx_gain)
    # np.float_power calls the C library's pow, as Python's beta**2 does;
    # np.square (beta * beta) differs in the last bit for about 1 beta in 1,000.
    beta2 = np.float_power(beta, 2)[:, np.newaxis, np.newaxis]
    common_at = np.flatnonzero(power > 0)
    n_draws = rows.shape[1] // n_users
    ensembles = np.asarray(ensembles)
    at = slice(None) if len(rows) == 1 else ensembles
    # A zero denominator or an overflow (an error variance near the
    # float range) ends in a non-finite SINR, which _cap reports.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain2 = geometry.rx_gain**2
        gains0 = np.matmul(rows, geometry.unit_private).reshape(-1, n_draws, n_users, n_users)
        own0 = np.diagonal(gains0, axis1=2, axis2=3)
        # Summed in user order, like the table's totals: np.sum's order
        # for K <= 7 (from 8 users on it sums pairwise).
        power0 = np.abs(gains0[..., 0]) ** 2
        for k in range(1, n_users):
            power0 += np.abs(gains0[..., k]) ** 2
        cross0 = power0 - np.abs(own0) ** 2
        # The simulated signal (estimate_sinr_monte_carlo) gives
        # 1 + g_k A_kk, not 1 + g_k^2 A_kk; the published form keeps g^2.
        signal0 = np.abs(gain2 * own0 + (1.0 - geometry.rx_gain)) ** 2
        del gains0, own0
        # In the per-split formula's order, which keeps its bits; S0 /
        # (g^2 (X0 + sigma^2 / beta^2)) rounds, and overflows, otherwise.
        private = beta2 * cross0[at]
        private += sigma_n2
        # As an (M, K) tile, not a (K,) row: numpy's inner loop then runs
        # over M K values instead of K.
        tile = np.empty((n_draws, n_users))
        tile[:] = gain2
        private *= tile
        np.divide(beta2 * signal0[at], private, out=private)
        common = None
        if len(common_at):
            gains = np.matmul(rows, geometry.direction).reshape(-1, n_draws, n_users)
            c0 = np.abs(gains) ** 2
            power = power[common_at, np.newaxis, np.newaxis]
            common_ensembles = at if len(rows) == 1 else ensembles[common_at]
            common = beta2[common_at] * power0[common_ensembles]
            common += sigma_n2
            np.divide(power * c0[common_ensembles], common, out=common)

    private, saturated = _cap(private)
    if common is not None:
        common, sat_c = _cap(common)
        saturated[common_at] |= sat_c
    return private, common_at, common, saturated


def sinr_imperfect_csit(
    precoders: PrecoderSet, error_realization: np.ndarray, sigma_n2: float
) -> SinrReport:
    """Closed-form SINRs for one CSIT error realization.

    error_realization is the (K, N) estimation error; zero rows recover
    the perfect-CSIT values exactly (same code path).
    """
    rows = _stacked_rows(precoders, np.asarray(error_realization)[np.newaxis])
    private, _, common, saturated = _batch_sinr(*_kernel_args(precoders), rows, [0], sigma_n2)
    return SinrReport(
        scheme_tag=precoders.scheme.tag,
        csit="perfect" if not np.any(error_realization) else "imperfect",
        private=private[0, 0],
        common=None if common is None else common[0, 0],
        saturated=bool(saturated[0]),
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


def stacked_sum_rate_table(
    geometry: Geometry, beta, power, rows: np.ndarray, ensembles, sigma_n2: float,
) -> np.ndarray:
    """(S, M) per-realization sum rates of S builds on one channel's
    geometry record (zf, cthp, or dthp with zf-dpc), from one kernel
    call. Set s is the scalars beta[s] and P = power[s]; it has a common
    term, along the record's direction d, only if its build has one
    (P > 0), so a rate-splitting build at split 0 gets its base scheme's
    bits, with no zero-weighted common rate. rows (V, M K, N) stacks V
    ensembles' realizations h_est + E_v, not the errors E_v, which no
    shape check can tell apart. Set s is rated over ensemble
    ensembles[s], each realization on its own (common stream at its
    worst user); row s is bit-identical to sum_rate_samples of its build
    over E_v.

    Raises:
        EmptyGridError: no sets.
        DimensionMismatchError: beta, power and ensembles do not give
            each set one scalar each and one index in [0, V).
        SaturatedSinrError: an SINR of any set reached SINR_CAP or was
            not finite, so the capped rate would be averaged in as if it
            were real. Its set_index is the first such set's.
    """
    beta, power = np.asarray(beta, dtype=float), np.asarray(power, dtype=float)
    if not beta.size:
        raise EmptyGridError("no precoder sets to rate")
    ensembles = np.asarray(ensembles)
    one_each = ensembles.dtype.kind in "iu" and ensembles.shape == beta.shape == power.shape
    if not (one_each and beta.ndim == 1 and 0 <= ensembles.min() and ensembles.max() < len(rows)):
        raise DimensionMismatchError(
            f"beta {beta.shape}, power {power.shape} and ensembles {ensembles.tolist()} must "
            f"give each of the {beta.size} sets one scalar each and one index in [0, {len(rows)})"
        )
    private, common_at, common, saturated = _batch_sinr(
        geometry, beta, power, rows, ensembles, sigma_n2
    )
    if saturated.any():
        first = int(np.argmax(saturated))
        raise _saturation("an SINR", first)
    # The per-user reductions run over the K user slices: numpy's
    # per-row reduction overhead over a short last axis costs more than
    # the SINRs. The sum adds in user order, which is np.sum's order for
    # K <= 7 (from 8 users on it sums pairwise, a rounding apart).
    private += 1.0
    rates = np.log2(private, out=private)
    totals = rates[:, :, 0].copy()
    for k in range(1, rates.shape[2]):
        totals += rates[:, :, k]
    if common is not None:
        totals[common_at] += _worst_user_rate(common)
    return totals


def _worst_user_rate(common: np.ndarray) -> np.ndarray:
    """(S, M) common rates log2(1 + min_k c_k) of (S, M, K) common SINRs.
    1 + x and log2 are monotone, so this has the bits of the least user
    rate min_k log2(1 + c_k), for one logarithm per realization instead
    of K. The minimum runs over the user slices, like the sums above."""
    worst = common[:, :, 0].copy()
    for k in range(1, common.shape[2]):
        np.minimum(worst, common[:, :, k], out=worst)
    worst += 1.0
    return np.log2(worst, out=worst)


def sum_rate_samples(
    precoders: PrecoderSet, errors: np.ndarray, sigma_n2: float
) -> np.ndarray:
    """Per-realization sum rates for a batch of error draws.

    errors has shape (M >= 1, K, N); the (M,) array of sum rates is
    stacked_sum_rate_table's one-build, one-ensemble view. It matches
    rates_from_sinr(sinr_imperfect_csit(...)) per row.

    Raises:
        DimensionMismatchError: errors is not an (M >= 1, K, N) array.
        SaturatedSinrError: an SINR reached SINR_CAP or was not finite,
            so the capped rate would be averaged in as if it were real.
    """
    rows = _stacked_rows(precoders, errors)
    try:
        return stacked_sum_rate_table(*_kernel_args(precoders), rows, [0], sigma_n2)[0]
    except SaturatedSinrError as exc:
        raise SaturatedSinrError(f"{precoders.scheme.tag}: {exc}") from None


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
    # Near the float range the powers overflow; _cap flags what follows.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        private = np.abs(own) ** 2 / np.mean(np.abs(residual) ** 2, axis=0)
        common = None
        if precoders.p_common is not None:
            common = np.abs(rows @ precoders.p_common) ** 2 / np.mean(
                np.abs(received) ** 2, axis=0
            )
    private, saturated = _cap(private)
    saturated = bool(saturated.any())
    if common is not None:
        common, sat_c = _cap(common)
        saturated = saturated or bool(sat_c.any())
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
    there is expected and documented, not an error. Each annotation
    names only what the closed form leaves out for this scheme: the
    lattice offsets' power for a modulo scheme (cthp, dthp), the
    numerator where rx_gain is not all ones (dthp, zf-dpc); else the
    estimator's n_samples, whose sampling noise is then the cause.

    Raises:
        SaturatedSinrError: a closed-form or simulated SINR reached
            SINR_CAP or was not finite; two capped SINRs agree at 0%.
    """
    closed = sinr_imperfect_csit(precoders, error_realization, sigma_n2)
    estimated = estimate_sinr_monte_carlo(
        precoders, error_realization, sigma_n2, n_samples, seed
    )
    for what, report in (("a closed-form SINR", closed), ("a simulated SINR", estimated)):
        if report.saturated:
            raise _saturation(f"{precoders.scheme.tag}: {what}")
    gap_p = float(
        np.max(np.abs(estimated.private - closed.private) / closed.private)
    )
    # What the closed forms leave out for this scheme; where they leave
    # out nothing, a gap is the estimator's own sampling noise.
    lattice = []
    if precoders.scheme.uses_power_loss:
        lattice.append(
            "closed form takes the effective symbols at unit power, "
            "without the lattice offsets' power"
        )
    private_causes = list(lattice)
    if np.any(precoders.rx_gain != 1.0):
        private_causes.append("numerator |1 + g_k^2 A_kk|^2")
    sampling = [f"sampling noise of the estimator (n_samples={n_samples}, --samples)"]
    annotations = []
    if gap_p > CROSS_CHECK_TOL:
        annotations.append(
            f"private SINR gap {gap_p:.1%} (csit={closed.csit}): "
            + "; ".join(private_causes or sampling)
        )
    gap_c = None
    if closed.common is not None:
        gap_c = float(
            np.max(np.abs(estimated.common - closed.common) / closed.common)
        )
        if gap_c > CROSS_CHECK_TOL:
            annotations.append(
                f"common SINR gap {gap_c:.1%} (csit={closed.csit}): "
                + "; ".join(lattice or sampling)
            )
    return SinrCrossCheck(
        closed=closed,
        estimated=estimated,
        max_rel_gap_private=gap_p,
        max_rel_gap_common=gap_c,
        annotations=tuple(annotations),
    )
