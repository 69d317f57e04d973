"""SINR and achievable-rate evaluation for every scheme.

Closed forms and a Monte-Carlo estimator live side by side. The closed
forms of all eight schemes are evaluated through one kernel for perfect
and imperfect CSIT (perfect is the zero-error special case), so the
reduction between the two is exact by construction. One kernel call
rates every build that shares a private geometry on one channel, at
any splits and powers (sum_rate_table): the sweep stacks a channel's
cells of one geometry and error variance into it. A single build
(sum_rate_samples, sinr_imperfect_csit) is its one-row view, with the
same bits. The estimator
simulates the received signal model directly and is the independent
check on the algebra. Neither asks where a scheme puts its THP gains:
PrecoderSet.unit_map and rx_gain carry that.

Conventions used throughout:
  * Channel rows are conjugated-transposed user channels, so a received
    sample is row @ x + noise.
  * Effective channel G = (h_est + E) @ p_private with p_private = beta
    unit_private: the private streams as the users really receive them.
    Every closed form reads G, the common-stream gains and the
    PrecoderSet's beta and rx_gain, never the scheme. For THP, h_est @
    unit_private = diag(1 / rx_gain), so the error coupling of the
    papers is A = G / beta - diag(1 / rx_gain).
  * The closed forms take the effective symbols v = s + d at unit
    power; the estimator sends 4-QAM v with the real lattice offsets d.
  * SINRs are capped at SINR_CAP; a report whose raw values exceeded the
    cap (or were non-finite) is flagged saturated, and the sweep path
    refuses such values instead of averaging them.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import complex_gaussian
from .exceptions import (
    DimensionMismatchError,
    EmptyGridError,
    SaturatedSinrError,
    SchemeMismatchError,
)
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


def _cap(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values capped at SINR_CAP, for each index of the first axis
    whether any of its values exceeded the cap or was not finite). A
    batch that is finite and within the cap, the usual case, comes back
    as it is: a NaN or an infinity fails the test below."""
    if np.abs(values).max(initial=0.0) <= SINR_CAP:
        return values, np.zeros(len(values), dtype=bool)
    finite = np.isfinite(values)
    values = np.where(finite, values, SINR_CAP)
    saturated = ~finite | (values > SINR_CAP)
    return (
        np.minimum(values, SINR_CAP),
        saturated.reshape(len(values), -1).any(axis=1),
    )


def _saturation(
    scheme_tag: str, what: str, set_index: int | None = None
) -> SaturatedSinrError:
    """The error for SINRs at SINR_CAP or not finite, without a grid point."""
    return SaturatedSinrError(
        f"{scheme_tag}: {what} reached the cap {SINR_CAP:g} or was not finite",
        set_index,
    )


def _same_geometry(ps: PrecoderSet, first: PrecoderSet) -> bool:
    """Whether ps has first's private geometry on first's channel. A
    shared unit_private settles it without comparing values: one
    precoding._geometry entry, for one channel estimate, hands it out."""
    if ps.unit_private is first.unit_private:
        return True
    return all(
        np.array_equal(a, b)
        for a, b in (
            (ps.unit_private, first.unit_private),
            (ps.rx_gain, first.rx_gain),
            (ps.h_est, first.h_est),
        )
    )


def _batch_sinr(
    precoder_sets: Sequence[PrecoderSet], errors: np.ndarray, sigma_n2: float
) -> tuple[np.ndarray, list[int], np.ndarray | None, np.ndarray]:
    """Closed-form SINRs of S builds that share one private geometry on
    one channel (h_est, unit_private and rx_gain: any splits and powers
    of one base, and dthp with zf-dpc) over (M >= 1, K, N) errors;
    all-zero errors give the perfect-CSIT values.

    One formula serves all eight schemes. With G = beta (h_est + E) @
    unit_private and g = rx_gain, the private SINR is |g^2 G_kk +
    beta (1 - g)|^2 / (g^2 (sum_j |G_kj|^2 - |G_kk|^2 + sigma^2)): the
    linear SINR for g = 1 (zf, cthp), and for dthp and zf-dpc the
    published |1 + g^2 A_kk|^2 / (g^2 (cross + sigma^2 / beta^2)) with
    A = G / beta - diag(1 / g). The common stream treats the whole
    private signal, sum_j |G_kj|^2, as interference; a set without one
    (split 0) has no common term at all, not a zero one. Only beta and
    the common stream differ between the sets, so G0 = (h_est + E) @
    unit_private is formed once and every set scales its powers by
    beta^2 elementwise, and each common gain is that set's own
    (h_est + E) @ p_common: each set gets the bits rating it alone gives.
    Returns capped (private (S, M, K), the indices of the sets with a
    common stream, their common SINRs (len(indices), M, K) or None,
    whether each set's SINRs saturated (S,)).
    """
    first = precoder_sets[0]
    h_est = first.h_est
    if errors.ndim != 3 or errors.shape[1:] != h_est.shape or not len(errors):
        raise DimensionMismatchError(
            f"errors shape {errors.shape} is not (M, K, N) = (M >= 1, "
            f"{h_est.shape[0]}, {h_est.shape[1]})"
        )
    for t, ps in enumerate(precoder_sets):
        if not _same_geometry(ps, first):
            raise SchemeMismatchError(
                "a table rates one private geometry on one channel; precoder "
                f"set {t} ({ps.scheme.tag}) differs from set 0 ({first.scheme.tag})"
            )
    n_draws, n_users, n_tx = errors.shape
    rows = (h_est + errors).reshape(n_draws * n_users, n_tx)
    beta2 = np.array([ps.beta**2 for ps in precoder_sets])[:, np.newaxis, np.newaxis]
    common_at = [t for t, ps in enumerate(precoder_sets) if ps.p_common is not None]
    # A zero denominator or an overflow (an error variance near the
    # float range) ends in a non-finite SINR, which _cap reports.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain2 = first.rx_gain**2
        gains0 = (rows @ first.unit_private).reshape(n_draws, n_users, n_users)
        own0 = np.diagonal(gains0, axis1=1, axis2=2)
        # Summed in user order, like sum_rate_table's totals: np.sum's
        # order for K <= 7 (from 8 users on it sums pairwise).
        magnitudes0 = np.abs(gains0) ** 2
        power0 = magnitudes0[:, :, 0].copy()
        for k in range(1, n_users):
            power0 += magnitudes0[:, :, k]
        cross0 = power0 - np.abs(own0) ** 2
        # The simulated signal (estimate_sinr_monte_carlo) gives
        # 1 + g_k A_kk, not 1 + g_k^2 A_kk; the published form keeps g^2.
        signal0 = np.abs(gain2 * own0 + (1.0 - first.rx_gain)) ** 2
        private = beta2 * signal0 / (gain2 * (beta2 * cross0 + sigma_n2))
        common = None
        if common_at:
            # One gemv per set: a single stacked product rounds differently.
            common_gains = np.stack(
                [rows @ precoder_sets[t].p_common for t in common_at]
            ).reshape(-1, n_draws, n_users)
            common = np.abs(common_gains) ** 2 / (beta2[common_at] * power0 + sigma_n2)

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
    errors = np.asarray(error_realization, dtype=complex)[np.newaxis, :, :]
    private, _, common, saturated = _batch_sinr([precoders], errors, sigma_n2)
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


def sum_rate_table(
    precoder_sets: Sequence[PrecoderSet], errors: np.ndarray, sigma_n2: float
) -> np.ndarray:
    """Per-realization sum rates of S builds that share one private
    geometry on one channel, from one kernel call.

    precoder_sets are builds on one channel estimate whose bases share
    their geometry (zf, cthp, or dthp with zf-dpc), at any power splits
    and transmit powers; errors has shape (M, K, N). Each realization
    is rated independently (common stream at its per-realization worst
    user) and the (S, M) table of sum rates is returned. Row s is
    bit-identical to sum_rate_samples(precoder_sets[s], errors,
    sigma_n2).

    Raises:
        EmptyGridError: no precoder sets.
        SchemeMismatchError: the sets differ in private geometry or
            channel.
        SaturatedSinrError: an SINR of any set reached SINR_CAP or was
            not finite, so the capped rate would be averaged in as if it
            were real. It names the scheme of the first such set, whose
            index is its set_index.
    """
    if not precoder_sets:
        raise EmptyGridError("no precoder sets to rate")
    errors = np.asarray(errors, dtype=complex)
    private, common_at, common, saturated = _batch_sinr(
        precoder_sets, errors, sigma_n2
    )
    if saturated.any():
        first = int(np.argmax(saturated))
        raise _saturation(precoder_sets[first].scheme.tag, "an SINR", first)
    # The per-user reductions run over the K user slices: numpy's
    # per-row reduction overhead over a short last axis costs more than
    # the SINRs. The sum adds in user order, which is np.sum's order for
    # K <= 7 (from 8 users on it sums pairwise, a rounding apart).
    rates = np.log2(1.0 + private)
    totals = rates[:, :, 0].copy()
    for k in range(1, rates.shape[2]):
        totals += rates[:, :, k]
    if common is not None:
        common_rates = np.log2(1.0 + common)
        worst = common_rates[:, :, 0].copy()
        for k in range(1, common_rates.shape[2]):
            np.minimum(worst, common_rates[:, :, k], out=worst)
        totals[common_at] += worst
    return totals


def sum_rate_samples(
    precoders: PrecoderSet, errors: np.ndarray, sigma_n2: float
) -> np.ndarray:
    """Per-realization sum rates for a batch of error draws.

    errors has shape (M, K, N); the (M,) array of sum rates is
    sum_rate_table's one-split view. It matches
    rates_from_sinr(sinr_imperfect_csit(...)) per row.

    Raises:
        SaturatedSinrError: an SINR reached SINR_CAP or was not finite,
            so the capped rate would be averaged in as if it were real.
    """
    return sum_rate_table([precoders], errors, sigma_n2)[0]


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
            raise _saturation(precoders.scheme.tag, what)
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
