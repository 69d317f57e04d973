"""SINR and achievable-rate evaluation for every scheme.

Closed forms and a Monte-Carlo estimator live side by side. The closed
forms of all eight schemes are evaluated through one kernel for perfect
and imperfect CSIT (perfect is the zero-error special case), so the
reduction between the two is exact by construction. A split moves only
scalars, the private scale beta and the common stream's power P along
the channel's one direction d, which its geometry record holds, so one
kernel call (stacked_sum_rate_table) takes R stacked rows h_est + E, one
geometry record per row (of one channel or of many), and (R, T) arrays
of beta and P, the T sets of each row: it forms each row's
split-invariant gains once and broadcasts its sets against them, in
runs of sets. One build over one ensemble (sum_rate_samples,
sinr_imperfect_csit) is its (1, 1) view, with the same bits. The sweep's
split search (stacked_split_search) rates the same sets on the same
invariants, coarse to fine: private SINRs fall and common SINRs rise
along a split grid, so a bound skips, exactly, the splits that cannot
be a grid's best. The estimator simulates the received signal model
directly and is the independent check on the algebra. Neither asks
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

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

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


def _cap(values: np.ndarray, n_axes: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(values capped at SINR_CAP, for each index of the first n_axes
    axes whether any of its values exceeded the cap or was not finite). A
    batch that is finite and within the cap, the usual case, comes back
    as it is: a NaN or an infinity fails the test below."""
    if values.max(initial=0.0) <= SINR_CAP and values.min(initial=0.0) > -np.inf:
        return values, np.zeros(values.shape[:n_axes], dtype=bool)
    finite = np.isfinite(values)
    values = np.where(finite, values, SINR_CAP)
    saturated = ~finite | (values > SINR_CAP)
    return (
        np.minimum(values, SINR_CAP),
        saturated.reshape(*values.shape[:n_axes], -1).any(axis=-1),
    )


def _saturation(what: str, saturated: np.ndarray | None = None) -> SaturatedSinrError:
    """The error for SINRs at SINR_CAP or not finite, without a grid point."""
    return SaturatedSinrError(f"{what} reached the cap {SINR_CAP:g} or was not finite", saturated)


def _kernel_args(precoders: PrecoderSet, errors: np.ndarray) -> tuple:
    """The (geometries, beta, power, rows) kernel arguments of one build
    over one (M >= 1, K, N) ensemble: one set on the one row h_est + E,
    stacked as (1, M K, N)."""
    h_est = precoders.h_est
    errors = np.asarray(errors, dtype=complex)
    if errors.ndim != 3 or errors.shape[1:] != h_est.shape or not len(errors):
        raise DimensionMismatchError(
            f"errors shape {errors.shape} is not (M, K, N) = (M >= 1, "
            f"{h_est.shape[0]}, {h_est.shape[1]})"
        )
    return (
        (precoders.geometry,),
        np.array([[precoders.beta]]),
        np.array([[precoders.common_power]]),
        (h_est + errors).reshape(1, -1, h_est.shape[1]),
    )


def _layout(n_rows: int, n_draws: int, n_users: int, max_sets: int, common_sets: int,
            make=np.empty) -> dict:
    """Every work array of a kernel call, make(shape, dtype) by name: the
    invariants of n_rows rows of n_draws realizations of n_users users,
    and the SINRs of a run of at most max_sets sets, common_sets with a
    common stream, which then hold its sums. np.empty allocates them,
    the one place that does; the memory estimate makes their bytes."""
    per_row, per_set = (n_rows, n_draws, n_users), (max_sets, n_draws, n_users)
    shapes = dict(gain2=per_row, power=per_row, cross=per_row, signal=per_row, gains_kk=per_row,
                  gains=(n_rows, n_draws * n_users, n_users), private=per_set, numerator=per_set)
    if common_sets:
        shapes.update(common_gain=per_row, common=(common_sets, n_draws, n_users))
    return {name: make(shape, complex if name.startswith("gains") else float)
            for name, shape in shapes.items()}


def _buffer(workspace: dict, name: str, shape: tuple) -> np.ndarray:
    """A view of shape of the work array workspace[name] (_layout)."""
    return workspace[name].reshape(-1)[:math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class _RowInvariants:
    """The split-invariant arrays of R stacked rows, each (R, M, K): the
    signal S0, cross power X0, private power P0, common-stream gains c0
    (None when no set has a common stream) and g^2, tiled over the M
    realizations: numpy's inner loop then runs over M K values instead
    of K."""

    signal: np.ndarray
    cross: np.ndarray
    private_power: np.ndarray
    common_gain: np.ndarray | None
    gain2: np.ndarray


def _row_invariants(
    geometries: Sequence[Geometry], rows: np.ndarray, with_common: bool, workspace: dict
) -> _RowInvariants:
    """_RowInvariants of the (R, M K, N) rows h_est + E, row r on the
    geometry record geometries[r]. With G0 = (h_est + E) @ unit_private
    and g = rx_gain: S0 = |g^2 G0_kk + 1 - g|^2, X0 = P0 - |G0_kk|^2 and
    P0 = sum_j |G0_kj|^2; c0 = |(h_est + E) @ d|^2 along the record's
    direction d, read only with_common. Each row's records are stacked,
    and a stacked matmul makes the BLAS calls of one product per row, so
    a row gets the bits of a call on its record alone. The arrays are
    views of the work arrays of workspace (_layout)."""
    n_users = len(geometries[0].rx_gain)
    per_row = (len(rows), rows.shape[1] // n_users, n_users)
    unit_private = np.stack([g.unit_private for g in geometries])
    rx_gain = np.stack([g.rx_gain for g in geometries])[:, np.newaxis, :]
    # A zero denominator or an overflow (an error variance near the
    # float range) ends in a non-finite SINR, which _cap reports. The
    # squares and sums run in place: x * x is x**2 bit for bit.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain2 = np.square(rx_gain, out=_buffer(workspace, "gain2", per_row))
        gains0 = np.matmul(
            rows, unit_private, out=_buffer(workspace, "gains", (*rows.shape[:2], n_users))
        ).reshape(*per_row, n_users)
        own0 = np.diagonal(gains0, axis1=2, axis2=3)
        # Summed in user order, like the table's totals: np.sum's order
        # for K <= 7 (from 8 users on it sums pairwise).
        power0 = np.abs(gains0[..., 0], out=_buffer(workspace, "power", per_row))
        power0 *= power0
        cross0 = _buffer(workspace, "cross", per_row)
        for k in range(1, n_users):
            np.abs(gains0[..., k], out=cross0)
            cross0 *= cross0
            power0 += cross0
        np.abs(own0, out=cross0)
        cross0 *= cross0
        np.subtract(power0, cross0, out=cross0)
        # The simulated signal (estimate_sinr_monte_carlo) gives
        # 1 + g_k A_kk, not 1 + g_k^2 A_kk; the published form keeps g^2.
        signal = np.multiply(gain2, own0, out=_buffer(workspace, "gains_kk", per_row))
        signal += 1.0 - rx_gain
        signal0 = np.abs(signal, out=_buffer(workspace, "signal", per_row))
        signal0 *= signal0
        common0 = None
        if with_common:
            direction = np.stack([g.direction for g in geometries])[:, :, np.newaxis]
            gains = np.matmul(
                rows, direction, out=_buffer(workspace, "gains", (*rows.shape[:2], 1))
            ).reshape(per_row)
            common0 = np.abs(gains, out=_buffer(workspace, "common_gain", per_row))
            common0 *= common0
    return _RowInvariants(signal0, cross0, power0, common0, gain2)


def _set_sinrs(
    rows: _RowInvariants, at: slice, beta: np.ndarray, power: np.ndarray, sigma_n2: float,
    workspace: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Capped closed-form SINRs of the (R, T) sets beta, power over the
    R rows at of the invariants rows, set (r, t) over row at[r].

    One formula serves all eight schemes. With G = beta (h_est + E) @
    unit_private and g = rx_gain, the private SINR is |g^2 G_kk +
    beta (1 - g)|^2 / (g^2 (sum_j |G_kj|^2 - |G_kk|^2 + sigma^2)): the
    linear SINR for g = 1 (zf, cthp), and for dthp and zf-dpc the
    published |1 + g^2 A_kk|^2 / (g^2 (cross + sigma^2 / beta^2)) with
    A = G / beta - diag(1 / g). The common stream, sent along d at power
    P, treats the whole private signal, sum_j |G_kj|^2, as interference.
    Only the scalars beta and P differ between the sets of a row, so
    each row's split-invariant arrays (_row_invariants) are formed once:
    set (r, t)'s private SINR is beta^2 S0 / (g^2 (beta^2 X0 + sigma^2))
    and its common SINR P c0 / (beta^2 P0 + sigma^2). The sets broadcast
    against their rows, and each gets the bits of rating it alone.

    Returns (private (R, T, M, K), the columns with P > 0 on some row,
    their common SINRs (R, len(columns), M, K) or None, whether each
    set's SINRs saturated (R, T)). A set at P = 0 in such a column has
    the common SINR 0 exactly. The SINRs are views of workspace's arrays.
    """
    # np.float_power calls the C library's pow, as Python's beta**2 does;
    # np.square (beta * beta) differs in the last bit for about 1 beta in 1,000.
    beta2 = np.float_power(beta, 2)[:, :, np.newaxis, np.newaxis]
    common_at = np.flatnonzero((power > 0).any(axis=0))
    per_set = (*beta.shape, *rows.cross.shape[1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # In the per-split formula's order, which keeps its bits; S0 /
        # (g^2 (X0 + sigma^2 / beta^2)) rounds, and overflows, otherwise.
        private = np.multiply(
            beta2, rows.cross[at, np.newaxis], out=_buffer(workspace, "private", per_set)
        )
        private += sigma_n2
        private *= rows.gain2[at, np.newaxis]
        numerator = np.multiply(
            beta2, rows.signal[at, np.newaxis], out=_buffer(workspace, "numerator", per_set)
        )
        np.divide(numerator, private, out=private)
        common = None
        if len(common_at):
            per_common = (len(beta), len(common_at), *per_set[2:])
            common = np.multiply(
                beta2[:, common_at], rows.private_power[at, np.newaxis],
                out=_buffer(workspace, "common", per_common),
            )
            common += sigma_n2
            numerator = np.multiply(
                power[:, common_at, np.newaxis, np.newaxis], rows.common_gain[at, np.newaxis],
                out=_buffer(workspace, "numerator", per_common),
            )
            np.divide(numerator, common, out=common)

    private, saturated = _cap(private, 2)
    if common is not None:
        common, sat_c = _cap(common, 2)
        saturated[:, common_at] |= sat_c
    return private, common_at, common, saturated


def sinr_imperfect_csit(
    precoders: PrecoderSet, error_realization: np.ndarray, sigma_n2: float
) -> SinrReport:
    """Closed-form SINRs for one CSIT error realization.

    error_realization is the (K, N) estimation error; zero rows recover
    the perfect-CSIT values exactly (same code path).
    """
    beta, power, workspace, invariants = _prepared(
        *_kernel_args(precoders, np.asarray(error_realization)[np.newaxis])
    )
    private, _, common, saturated = _set_sinrs(
        invariants, slice(None), beta, power, sigma_n2, workspace
    )
    return SinrReport(
        scheme_tag=precoders.scheme.tag,
        csit="perfect" if not np.any(error_realization) else "imperfect",
        private=private[0, 0, 0],
        common=None if common is None else common[0, 0, 0],
        saturated=bool(saturated[0, 0]),
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


def _prepared(geometries: Sequence[Geometry], beta, power, rows: np.ndarray,
              max_sets: int | None = None, workspace: dict | None = None) -> tuple:
    """beta and power as float arrays, once they are both (R, T) with R =
    len(rows), T >= 1, and geometries gives each row one record;
    workspace, or if None the _layout of a call that rates them in runs
    of at most max_sets sets; and the rows' invariants in it."""
    beta, power = np.asarray(beta, dtype=float), np.asarray(power, dtype=float)
    if not beta.size:
        raise EmptyGridError("no precoder sets to rate")
    if not (beta.ndim == 2 and beta.shape == power.shape and len(beta) == len(rows)):
        raise DimensionMismatchError(
            f"beta {beta.shape} and power {power.shape} must both be (R, T) with "
            f"R = {len(rows)}: T sets on each row"
        )
    if len(geometries) != len(rows):
        raise DimensionMismatchError(
            f"{len(geometries)} geometry records for {len(rows)} rows; each row needs one"
        )
    n_users, run = len(geometries[0].rx_gain), min(max_sets or beta.size, beta.size)
    common = len(rows) * np.count_nonzero((power > 0).any(axis=0))
    if workspace is None:
        workspace = _layout(len(rows), rows.shape[1] // n_users, n_users, run, min(run, common))
    return beta, power, workspace, _row_invariants(geometries, rows, common > 0, workspace)


def _runs(
    rows: _RowInvariants, beta: np.ndarray, power: np.ndarray, sigma_n2: float,
    max_sets: int | None, workspace: dict, parts: bool = False,
):
    """Rate the (R, T) sets beta, power, set (r, t) over row r of rows,
    in runs of at most max_sets sets (all at once if None): whole rows,
    or equal parts of one row that holds more. Yields each run's (slice
    of the (R, T) sets, its (R', T', M) sum rates, the columns with P >
    0 on some row, their (R', C, M) worst-user common rates or None, and
    with parts its (R', T') private rates summed over M), the arrays in
    workspace. Raises SaturatedSinrError, with the (R, T) mask of the
    saturated sets, once every run is rated."""
    n_rows, n_sets = beta.shape
    max_sets = max_sets or beta.size
    # Runs of equal size: no more runs, and no larger arrays, than needed.
    row_step = _equal_step(n_rows, max(1, max_sets // n_sets))
    set_step = _equal_step(n_sets, max_sets)
    saturated = np.empty(beta.shape, dtype=bool)
    for r in range(0, n_rows, row_step):
        for t in range(0, n_sets, set_step):
            part = np.s_[r:r + row_step, t:t + set_step]
            private, common_at, common, saturated[part] = _set_sinrs(
                rows, part[0], beta[part], power[part], sigma_n2, workspace
            )
            # The per-user reductions run over the K user slices, cheaper
            # than numpy's over a short last axis, and sum in user order:
            # np.sum's for K <= 7 (pairwise from 8 users on, a rounding apart).
            private += 1.0
            rates = np.log2(private, out=private)
            # Each sum is written over an array already read: the totals over
            # the numerators, the worst-user rates over the rates, and
            # totals[:, common_at] + common over the common SINRs (np.take's
            # mode "raise" would buffer it).
            totals = _buffer(workspace, "numerator", rates.shape[:-1])
            totals[...] = rates[..., 0]
            for k in range(1, rates.shape[-1]):
                totals += rates[..., k]
            private_sums = totals.sum(axis=-1) if parts else None
            if common is not None:
                common = _worst_user_rate(common, _buffer(workspace, "private", common.shape[:-1]))
                total = _buffer(workspace, "common", common.shape)
                np.take(totals, common_at, axis=1, out=total, mode="clip")
                total += common
                totals[:, common_at] = total
            yield part, totals, common_at, common, private_sums
    if saturated.any():
        raise _saturation("an SINR", saturated)


def stacked_sum_rate_table(
    geometries: Sequence[Geometry], beta, power, rows: np.ndarray, sigma_n2: float
) -> np.ndarray:
    """(R, T, M) per-realization sum rates of R T builds from one kernel
    call. rows (R, M K, N) stacks R realizations h_est + E, not the
    errors E, which no shape check can tell apart; row r lies on the
    geometry record geometries[r] (zf, cthp, or dthp with zf-dpc) of its
    channel, so one call may rate many channels. Set (r, t) is the
    scalars beta[r, t] and P = power[r, t], rated over row r, each
    realization on its own (common stream at its worst user); it has a
    common term, along its record's direction d, only if its build has
    one (P > 0), so a rate-splitting build at split 0 gets its base
    scheme's bits, with no zero-weighted common rate (a set at P = 0
    beside sets at P > 0 adds the rate log2(1 + 0) = +0.0). Each row's
    split-invariant arrays are formed once, and every set is broadcast
    against them. Set (r, t) is bit-identical to sum_rate_samples of its
    build over its ensemble, however the sets are stacked, and to its
    rates in a run of stacked_split_search.

    Raises:
        EmptyGridError: no sets.
        DimensionMismatchError: geometries does not give each row one
            record, or beta and power are not both (R, T).
        SaturatedSinrError: an SINR of any set reached SINR_CAP or was
            not finite, so the capped rate would be averaged in as if it
            were real. Raised once every run is rated; its saturated is
            the (R, T) mask of the saturated sets.
    """
    beta, power, workspace, invariants = _prepared(geometries, beta, power, rows)
    table = np.empty((*beta.shape, invariants.cross.shape[1]))
    for part, totals, *_ in _runs(invariants, beta, power, sigma_n2, None, workspace):
        table[part] = totals
    return table


# The first pass of a split search rates every _COARSE_STEP-th split of
# each grid and its last; the second rates the inside of each gap between
# them whose bound reaches the grid's best so far, less _BOUND_SLACK of it.
_COARSE_STEP = 4
_BOUND_SLACK = 1e-12


def stacked_split_search(
    geometries: Sequence[Geometry], beta, power, rows: np.ndarray, sigma_n2: float,
    lengths: Sequence[int], max_sets: int | None = None, workspace: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best set in each of its runs of lengths sets, as (its
    position in the row, its average sum rate over the row's M
    realizations): two (R, len(lengths)) arrays. The rows, records and
    (R, T) sets are stacked_sum_rate_table's, and a row's sets are runs
    of lengths sets back to back, each one split search: the builds of
    one ascending split grid, along which beta falls and P rises. The
    first of equal averages wins (the smaller split), as in
    optimize_power_split, and each average has the bits of np.mean of
    that set's sum_rate_samples.

    The search is exact and coarse to fine, on one set of row invariants.
    Along a grid every private SINR falls (beta^2 falls) and every
    common SINR rises (P rises, beta^2 falls), on every realization. So
    no split strictly between grid points a < b averages more than
    priv(a) + com(b), a's mean private rate and b's mean common rate.
    The first pass rates every 4th split of each grid and its last, with
    their mean private and common rates; the second rates the inside of
    a gap (a, b) only where, on some row, that bound reaches the best
    average of the first pass less 1e-12 of its size (the rounding of
    the means), so every split it skips averages strictly less than its
    grid's best. A call whose grids have no gap (at most 2 splits each,
    as a base scheme's one), or whose sets one run holds (beta.size <=
    max_sets, or max_sets None), takes one pass with no extra arrays: a
    coarse pass would pay a run's fixed cost twice. The sets are rated
    in runs of at most max_sets (all at once if None) in workspace, a
    _layout at least the call's (made for the call if None), which a
    caller may keep from call to call.

    Raises:
        EmptyGridError, DimensionMismatchError: as stacked_sum_rate_table.
        SaturatedSinrError: an SINR of a rated set reached SINR_CAP or
            was not finite; its saturated is the (R, T) mask of the
            saturated sets, of the pass that met them. A skipped split
            saturates only if its gap's end on the same side does (a
            private SINR at a, a common one at b), and both ends are
            rated in the first pass, so each run's mask is True
            somewhere exactly where the full grid's is.
    """
    beta, power, workspace, invariants = _prepared(geometries, beta, power, rows, max_sets,
                                                   workspace)
    n_sets = beta.shape[1]
    starts = np.cumsum([0, *lengths[:-1]])
    # The plan, in Python over a row's few grids: the coarse columns of
    # each grid (every _COARSE_STEP-th split and its last), the position
    # of each grid's first among them, and each gap between two coarse
    # columns of one grid that holds splits, as (position of its lower
    # end, its grid).
    coarse, grid_starts, gaps = [], [], []
    for grid, (start, n) in enumerate(zip(starts.tolist(), lengths)):
        ends = [*range(0, n - 1, _COARSE_STEP), n - 1]
        grid_starts.append(len(coarse))
        gaps += [
            (len(coarse) + i, grid) for i in range(len(ends) - 1) if ends[i + 1] - ends[i] > 1
        ]
        coarse += [start + t for t in ends]
    rate = partial(_mean_rates, invariants, beta, power, sigma_n2, max_sets, workspace)
    if not gaps or beta.size <= (max_sets or beta.size):
        means = rate(slice(None))
    else:
        means = np.full(beta.shape, -np.inf)
        means[:, coarse], private, common = rate(coarse, parts=True)
        lower, grid_of = (list(column) for column in zip(*gaps))
        best = np.maximum.reduceat(means[:, coarse], grid_starts, axis=1)[:, grid_of]
        bound = private[:, lower] + common[:, [i + 1 for i in lower]]
        reach = (bound >= best - _BOUND_SLACK * np.abs(best)).any(axis=0)
        inside = [
            t for i, open_gap in zip(lower, reach.tolist()) if open_gap
            for t in range(coarse[i] + 1, coarse[i + 1])
        ]
        if inside:
            means[:, inside] = rate(inside)
    best = np.maximum.reduceat(means, starts, axis=1)
    at_best = means == np.repeat(best, lengths, axis=1)
    position = np.arange(n_sets)
    first = np.minimum.reduceat(np.where(at_best, position, n_sets), starts, axis=1)
    return first, best


def _mean_rates(
    rows: _RowInvariants, beta: np.ndarray, power: np.ndarray, sigma_n2: float,
    max_sets: int | None, workspace: dict, columns, parts: bool = False,
):
    """The average sum rates over their rows' M realizations of the sets
    at columns of the (R, T) beta and power, (R, len(columns)), with the
    bits of np.mean; with parts also their mean private rates (summed
    over users) and mean common rates, for a search's bounds. Raises
    SaturatedSinrError with an (R, T) mask that holds the saturated sets
    of those columns."""
    shape = beta.shape
    beta, power = beta[:, columns], power[:, columns]
    n_draws = rows.cross.shape[1]
    means = np.empty(beta.shape)
    if parts:
        private_means, common_means = np.empty(beta.shape), np.zeros(beta.shape)
    try:
        for part, totals, common_at, common, private_sums in _runs(
            rows, beta, power, sigma_n2, max_sets, workspace, parts
        ):
            # np.mean's own sum and division, without its per-call overhead.
            if parts:
                private_means[part] = private_sums / n_draws
                if common is not None:
                    common_means[part][:, common_at] = common.sum(axis=-1) / n_draws
            means[part] = totals.sum(axis=-1) / n_draws
    except SaturatedSinrError as exc:
        saturated = np.zeros(shape, dtype=bool)
        saturated[:, columns] = exc.saturated
        raise _saturation("an SINR", saturated) from None
    return (means, private_means, common_means) if parts else means


def _equal_step(n: int, most: int) -> int:
    """The length of each of the fewest equal runs, of at most most
    items, that cover n items."""
    return math.ceil(n / math.ceil(n / most))


def _worst_user_rate(common: np.ndarray, worst: np.ndarray) -> np.ndarray:
    """The (..., M) common rates log2(1 + min_k c_k) of (..., M, K)
    common SINRs, written to worst. 1 + x and log2 are monotone, so this
    has the bits of the least user rate min_k log2(1 + c_k), for one
    logarithm per realization instead of K. The minimum runs over the
    user slices, like the sums above."""
    worst[...] = common[..., 0]
    for k in range(1, common.shape[-1]):
        np.minimum(worst, common[..., k], out=worst)
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
    try:
        return stacked_sum_rate_table(*_kernel_args(precoders, errors), sigma_n2)[0, 0]
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
