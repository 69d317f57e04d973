"""Property tests of the closed-form rates on arbitrary channels.

Each example draws one channel with the sweep's own draw_channel (any
K <= N <= 6), an SNR, a CSIT error variance and a power split, and
checks an identity that must hold on every channel, not only on the
acceptance suite's seed. Further properties check the stacked rate
kernel against single builds and the memory estimate of rating one
channel against tracemalloc. The last check the CLI's start:step:stop
grid ranges, the range-hashed and cached seeds against SeedSequence,
and the exit contract of the sweep commands and cross-check-sinr on
argv drawn from their flag grammar.
"""

import contextlib
import csv
import io
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from rsthp import (  # noqa: E402
    ErrorRegime,
    SchemeTag,
    SweepConfig,
    SimulatorError,
    build_precoders,
    draw_error_ensemble,
    rates_from_sinr,
    run_sweep,
    sinr_imperfect_csit,
    sinr_perfect_csit,
    snr_db_to_power,
    sum_rate_samples,
)
from rsthp import channel, linalg, sweeps  # noqa: E402
from rsthp.channel import (  # noqa: E402
    CHANNEL_STREAM,
    ERROR_STREAM,
    NOISE_STREAM,
    _error_states,
    stream_rng,
)
from rsthp.cli import MAX_RANGE_POINTS, main, parse_grid  # noqa: E402
from rsthp.exceptions import SaturatedSinrError  # noqa: E402
from rsthp.precoding import ALL_SCHEME_TAGS  # noqa: E402
from rsthp.rates import (  # noqa: E402
    _mean_rates,
    _row_invariants,
    stacked_split_search,
    stacked_sum_rate_table,
)
from rsthp.sweeps import (  # noqa: E402
    SIGMA_N2,
    _block_plan,
    _rate_channels,
    _sweep_cells,
    draw_channel,
    optimize_power_split,
    working_set_bytes,
)
# pytest puts tests/ on sys.path.
from helpers import factored_outcomes, split_reference  # noqa: E402

N_DRAWS = 3
BASES = ("zf", "cthp", "dthp", "zf-dpc")
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def cases(draw):
    n_users = draw(st.integers(1, 6))
    n_tx = draw(st.integers(n_users, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    channel_index = draw(st.integers(0, 1000))
    return dict(
        seed=seed,
        channel_index=channel_index,
        h_est=draw_channel(seed, channel_index, n_users, n_tx),
        e_tr=snr_db_to_power(draw(st.floats(-10.0, 30.0))),
        variance=draw(st.floats(0.0, 1.0)),
        split=draw(st.floats(0.0, 0.95)),
        power_loss=draw(st.floats(0.5, 1.0)),
        base=draw(st.sampled_from(BASES)),
        rs=draw(st.booleans()),
    )


def errors_for(case, variance):
    n_users, n_tx = case["h_est"].shape
    return draw_error_ensemble(
        n_users, n_tx, variance, N_DRAWS, case["seed"], case["channel_index"]
    )


def rates(case, scheme, power_loss, split=0.0):
    ps = build_precoders(case["h_est"], scheme, case["e_tr"], power_loss, split)
    return sum_rate_samples(ps, errors_for(case, case["variance"]), SIGMA_N2)


@PROPERTY_SETTINGS
@given(cases())
def test_rs_at_zero_split_equals_base(case):
    rs = rates(case, SchemeTag(case["base"], rs=True), case["power_loss"])
    base = rates(case, SchemeTag(case["base"]), case["power_loss"])
    np.testing.assert_allclose(rs, base, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(cases())
def test_zero_error_equals_perfect_csit(case):
    scheme = SchemeTag(case["base"], rs=case["rs"])
    split = case["split"] if case["rs"] else 0.0
    ps = build_precoders(case["h_est"], scheme, case["e_tr"], case["power_loss"], split)
    perfect = rates_from_sinr(sinr_perfect_csit(ps, SIGMA_N2)).sum_rate
    zero_error = sum_rate_samples(ps, errors_for(case, 0.0), SIGMA_N2)
    np.testing.assert_allclose(zero_error, perfect, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(cases())
def test_zf_dpc_equals_dthp_without_power_loss(case):
    split = case["split"] if case["rs"] else 0.0
    dpc = rates(case, SchemeTag("zf-dpc", rs=case["rs"]), case["power_loss"], split)
    dthp = rates(case, SchemeTag("dthp", rs=case["rs"]), 1.0, split)
    np.testing.assert_allclose(dpc, dthp, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(cases())
def test_sum_rates_are_finite_and_nonnegative(case):
    split = case["split"] if case["rs"] else 0.0
    try:
        values = rates(case, SchemeTag(case["base"], rs=case["rs"]),
                       case["power_loss"], split)
    except SimulatorError:
        return
    assert values.shape == (N_DRAWS,)
    assert np.all(np.isfinite(values))
    assert np.all(values >= 0.0)


@PROPERTY_SETTINGS
@given(cases())
def test_closed_forms_read_the_effective_channel(case):
    # With G = (h_est + E) @ p_private computed here: every common SINR
    # is |row p_c|^2 / (sum_j |G_kj|^2 + sigma^2), and schemes without a
    # receiver gain (zf, cthp) have the linear private SINR.
    scheme = SchemeTag(case["base"], rs=case["rs"])
    split = case["split"] if case["rs"] else 0.0
    ps = build_precoders(case["h_est"], scheme, case["e_tr"], case["power_loss"], split)
    off_diagonal = 1.0 - np.eye(ps.n_users)
    for error in errors_for(case, case["variance"]):
        report = sinr_imperfect_csit(ps, error, SIGMA_N2)
        if report.saturated:
            continue
        rows = case["h_est"] + error
        gains = rows @ ps.p_private
        if case["base"] in ("zf", "cthp"):
            own = np.abs(np.diagonal(gains)) ** 2
            cross = np.sum(np.abs(gains * off_diagonal) ** 2, axis=1)
            np.testing.assert_allclose(
                report.private, own / (cross + SIGMA_N2), rtol=1e-9
            )
        if ps.p_common is None:
            assert report.common is None
            continue
        interference = np.sum(np.abs(gains) ** 2, axis=1) + SIGMA_N2
        np.testing.assert_allclose(
            report.common, np.abs(rows @ ps.p_common) ** 2 / interference, rtol=1e-9
        )


@PROPERTY_SETTINGS
@given(
    cases(),
    st.sampled_from((1, 3)),
    st.lists(st.floats(0.0, 0.95), max_size=5),
)
def test_split_table_rows_match_the_per_split_formula(case, n_draws, splits):
    # Each split's rates (a row of the sweep's table, which
    # test_each_stacked_table_row_is_its_own_sum_rate_samples holds to
    # sum_rate_samples) match that split's own formula, and an RS
    # scheme at split 0 has its base scheme's bits.
    grid = sorted({0.0, *splits})
    n_users, n_tx = case["h_est"].shape
    errors = draw_error_ensemble(
        n_users, n_tx, case["variance"], n_draws, case["seed"], case["channel_index"]
    )
    rs, base = SchemeTag(case["base"], rs=True), SchemeTag(case["base"])
    sets = [
        build_precoders(case["h_est"], rs, case["e_tr"], case["power_loss"], t)
        for t in grid
    ]
    for ps in sets:
        np.testing.assert_allclose(
            sum_rate_samples(ps, errors, SIGMA_N2), split_reference(ps, errors, SIGMA_N2),
            rtol=1e-12,
        )
    alone = build_precoders(case["h_est"], base, case["e_tr"], case["power_loss"])
    assert np.array_equal(
        sum_rate_samples(sets[0], errors, SIGMA_N2), sum_rate_samples(alone, errors, SIGMA_N2)
    )


@st.composite
def sweep_channels(draw):
    """A small valid SweepConfig (K <= N <= 4, one to three grid points
    under perfect, fixed, SNR-scaled or per-point CSIT errors, an
    ascending split grid holding 0) and a channel index."""
    n_users = draw(st.integers(1, 4))
    n_tx = draw(st.integers(n_users, 4))
    schemes = draw(st.lists(st.sampled_from(ALL_SCHEME_TAGS), min_size=1,
                            max_size=len(ALL_SCHEME_TAGS), unique=True))
    n_points = draw(st.integers(1, 3))
    snrs = st.floats(-10.0, 30.0)
    regime = draw(st.sampled_from(("perfect", "fixed", "snr-scaled", "variance-grid")))
    if regime == "variance-grid":
        axis = dict(
            snr_grid_db=(draw(snrs),),
            error_variance_grid=tuple(draw(st.lists(
                st.floats(0.0, 1.0), min_size=n_points, max_size=n_points,
                unique=True))),
        )
    else:
        axis = dict(snr_grid_db=tuple(draw(st.lists(
            snrs, min_size=n_points, max_size=n_points, unique=True))))
        if regime == "fixed":
            axis["error_regime"] = ErrorRegime.fixed_variance(draw(st.floats(0.0, 1.0)))
        elif regime == "snr-scaled":
            axis["error_regime"] = ErrorRegime.snr_scaled(draw(st.floats(0.0, 1.0)))
    splits = draw(st.lists(st.floats(0.0, 0.95), max_size=4))
    config = SweepConfig(
        n_users=n_users,
        n_tx=n_tx,
        schemes=tuple(schemes),
        n_channels=1,
        n_error_samples=draw(st.integers(1, 3)),
        power_loss=draw(st.floats(0.5, 1.0)),
        power_split_grid=tuple(sorted({0.0, *splits})),
        master_seed=draw(st.integers(0, 2**31 - 1)),
        **axis,
    )
    config.validate()
    return config, draw(st.integers(0, 1000))


def cell_reference(config, cell, channel_index):
    """optimize_power_split for one planned cell of a sweep on one
    channel, after checking the cell's split grid and error variance
    against those the config gives it."""
    scheme, x_value, e_tr, grid, variance = cell
    assert grid == (config.power_split_grid if scheme.rs else (0.0,))
    if config.error_variance_grid:
        assert variance == x_value
    else:
        regime = config.error_regime
        assert variance == (None if regime.is_perfect else regime.variance_at(e_tr))
    n_users, n_tx = config.n_users, config.n_tx
    if variance is None:
        errors = np.zeros((1, n_users, n_tx), dtype=complex)
    else:
        errors = draw_error_ensemble(
            n_users, n_tx, variance, config.n_error_samples, config.master_seed,
            channel_index,
        )
    return optimize_power_split(
        draw_channel(config.master_seed, channel_index, n_users, n_tx), scheme,
        e_tr, config.power_loss, grid, errors,
    )


@PROPERTY_SETTINGS
@given(sweep_channels())
def test_each_channel_column_is_its_cells_own_split_search(config_channel):
    # The sweep stacks the cells that share a geometry and a variance
    # into one kernel call; each cell keeps the bits and the split of
    # its own search.
    config, channel_index = config_channel
    cells = _sweep_cells(config)
    (row,) = _rate_channels(config, cells, range(channel_index, channel_index + 1))
    for cell, column in zip(cells, row.T):
        assert tuple(column.tolist()) == cell_reference(config, cell, channel_index)


@st.composite
def searched_sweeps(draw):
    """A small valid SweepConfig whose split search has gaps to skip: K
    <= N <= 4, one or two SNRs in -10 to 40 dB, perfect CSIT or a fixed
    error variance in 0 to 1, one to three schemes, at least one of them
    rate-splitting, on one to three channels, and an ascending split
    grid of 2, 3, 5 or 21 points (4 divides none of their gaps' ends)."""
    n_users = draw(st.integers(1, 4))
    n_splits = draw(st.sampled_from((2, 3, 5, 21)))
    schemes = draw(st.lists(st.sampled_from(ALL_SCHEME_TAGS), min_size=1, max_size=3,
                            unique=True).filter(lambda s: any(t.rs for t in s)))
    variance = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    config = SweepConfig(
        n_users=n_users,
        n_tx=draw(st.integers(n_users, 4)),
        schemes=tuple(schemes),
        error_regime=ErrorRegime.perfect() if variance is None
        else ErrorRegime.fixed_variance(variance),
        snr_grid_db=tuple(draw(st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=2,
                                        unique=True))),
        n_channels=draw(st.integers(1, 3)),
        n_error_samples=draw(st.integers(1, 5)),
        power_split_grid=tuple(sorted(draw(st.lists(
            st.floats(0.0, 0.99), min_size=n_splits, max_size=n_splits, unique=True)))),
        master_seed=draw(st.integers(0, 2**31 - 1)),
    )
    config.validate()
    return config


@PROPERTY_SETTINGS
@given(searched_sweeps())
# One user on one antenna under perfect CSIT: the sum rate of rs-linear
# does not depend on the split but for rounding, and on channel 0 at 20
# dB its best average is tied at splits 3, 5, 6, 8 to 10 and 12 to 20,
# so the first best lies inside a gap of the coarse pass.
@example(SweepConfig(n_users=1, n_tx=1, schemes=(SchemeTag("zf", rs=True),),
                     snr_grid_db=(20.0,), n_channels=1, master_seed=0,
                     power_split_grid=tuple(i * 0.045 for i in range(21))))
# dthp-rs on channel 0 at 20 dB: the best split, 0.135, lies inside the
# gap (0.09, 0.18) below the coarse pass's best, 0.18, so only a bound
# that reads the common rate at the gap's upper end keeps it.
@example(SweepConfig(n_users=2, n_tx=2, schemes=(SchemeTag("dthp", rs=True),),
                     snr_grid_db=(20.0,), n_channels=1, master_seed=2,
                     power_split_grid=tuple(i * 0.045 for i in range(21))))
# The same on two channels of one kernel call: channel 1's best split,
# 0.495, lies in the gap (0.36, 0.54), which channel 0's bound does not
# open, so a gap must be rated when the bound of any row reaches.
@example(SweepConfig(n_users=2, n_tx=2, schemes=(SchemeTag("dthp", rs=True),),
                     snr_grid_db=(20.0,), n_channels=2, master_seed=12,
                     power_split_grid=tuple(i * 0.045 for i in range(21))))
def test_the_split_search_finds_each_channels_first_best_split(config):
    # The sweep rates each grid coarse to fine and skips the gaps that
    # its bound rules out; every channel's split and average sum rate
    # are still those of the exhaustive search, the first of equal
    # averages included, and a saturating channel still fails. A kernel
    # call that one run holds, as every call of these small sweeps does,
    # takes one pass, so each sweep also runs with runs of one set,
    # which takes the coarse pass wherever a grid has a gap.
    search = sweeps.stacked_split_search

    def one_set_runs(geometries, beta, power, rows, sigma_n2, lengths, max_sets, workspace):
        return search(geometries, beta, power, rows, sigma_n2, lengths, 1, workspace)

    cells = _sweep_cells(config)
    try:
        expected = [[cell_reference(config, cell, c) for c in range(config.n_channels)]
                    for cell in cells]
    except SaturatedSinrError:
        expected = None
    for kernel in (search, one_set_runs):
        with mock.patch.object(sweeps, "stacked_split_search", kernel):
            if expected is None:
                with pytest.raises(SaturatedSinrError):
                    run_sweep(config)
                continue
            for cell, want in zip(run_sweep(config).cells, expected):
                assert list(zip(cell.per_channel_split, cell.per_channel_asr)) == want


def test_mean_private_rates_fall_and_common_rates_rise_along_a_grid():
    # The premise of the split search's bound, on the kernel's own
    # averages (only the kernel's private helpers show the two parts):
    # on the 50 channels of the benchmark's fixed-error config, each
    # rate-splitting scheme's mean private rate never rises from one
    # split to the next and its mean common rate never falls.
    grid = parse_grid("0:0.05:0.95")
    seed, n_users, n_tx = 12345, 4, 4
    for c in range(50):
        h_est = draw_channel(seed, c, n_users, n_tx)
        errors = draw_error_ensemble(n_users, n_tx, 0.2, 100, seed, c)
        builds = [
            [build_precoders(h_est, SchemeTag(base, rs=True), snr_db_to_power(snr_db), 0.75, t)
             for t in grid]
            for base in BASES for snr_db in (0.0, 30.0)
        ]
        geometries = [row[0].geometry for row in builds]
        beta = np.array([[ps.beta for ps in row] for row in builds])
        power = np.array([[ps.common_power for ps in row] for row in builds])
        rows = np.repeat((h_est + errors).reshape(1, -1, n_tx), len(builds), axis=0)
        workspace = {}
        invariants = _row_invariants(geometries, rows, True, workspace)
        _, private, common = _mean_rates(
            invariants, beta, power, SIGMA_N2, None, workspace, slice(None), parts=True
        )
        assert np.all(np.diff(private, axis=1) <= 0.0)
        assert np.all(np.diff(common, axis=1) >= 0.0)


# Under a cap of 10^1.04, with 8,200 draws a channel stacks one slot at a
# time: zf fails at 5 dB, on the first stack, and cthp at 25 dB, on the
# second, but cthp at 25 dB comes first in output order.
SPANNING_STACKS = (SweepConfig(schemes=(SchemeTag("zf"), SchemeTag("cthp")), n_users=2, n_tx=2,
                               snr_grid_db=(5.0, 25.0), error_regime=ErrorRegime.snr_scaled(0.6),
                               n_channels=1, n_error_samples=8200, power_split_grid=(0.0, 0.5),
                               master_seed=0), 0)


@PROPERTY_SETTINGS
@given(sweep_channels(), st.floats(0.0, 4.0))
# Under a cap of 10^0.17, cthp-rs fails at 1 dB and cthp at 9 dB but not
# at 1 dB: one kernel call rates both on the slots 1 and 9 dB, and flags
# cthp-rs at 1 dB first, but cthp at 9 dB comes first in output order.
@example((SweepConfig(schemes=(SchemeTag("cthp"), SchemeTag("cthp", rs=True)), n_users=2,
                      n_tx=3, snr_grid_db=(1.0, 9.0), error_regime=ErrorRegime.snr_scaled(0.8),
                      n_channels=1, n_error_samples=2, power_split_grid=(0.0, 0.5),
                      master_seed=861), 0), 0.17)
@example(SPANNING_STACKS, 1.04)
def test_a_saturated_channel_names_its_first_failing_cell(config_channel, log_cap):
    # With a cap of 1 to 1e4 some cells saturate and some do not; the
    # error is the first failing cell's in output order, whichever
    # block the sweep rates first and whichever set its kernel call
    # flags first.
    config, channel_index = config_channel
    cells = _sweep_cells(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rsthp.rates.SINR_CAP", 10.0**log_cap)
        expected = None
        for cell in cells:
            try:
                cell_reference(config, cell, channel_index)
            except SaturatedSinrError as exc:
                expected = (f"{exc} at {config.x_kind}={cell[1]:g} "
                            f"on channel {channel_index}")
                break
        channels = range(channel_index, channel_index + 1)
        if expected is None:
            _rate_channels(config, cells, channels)
        else:
            with pytest.raises(SaturatedSinrError) as raised:
                _rate_channels(config, cells, channels)
            assert str(raised.value) == expected


def test_the_spanning_stacks_example_fails_first_on_its_later_stack(monkeypatch):
    # The example above reaches the failure that spans stacks of slots
    # only while its channel stacks fewer slots than it has, and its
    # first failing cell in output order sits on a later stack than
    # another failing cell.
    config, channel_index = SPANNING_STACKS
    cells = _sweep_cells(config)
    plan = _block_plan(config, cells)
    assert plan.stacked_slots < len(plan.slots)
    stack_of = {i: slot // plan.stacked_slots for members in plan.records.values()
                for slot, row in enumerate(members) for i in row}
    monkeypatch.setattr("rsthp.rates.SINR_CAP", 10.0**1.04)
    failing_stacks = []
    for i, cell in enumerate(cells):
        try:
            cell_reference(config, cell, channel_index)
        except SaturatedSinrError:
            failing_stacks.append(stack_of[i])
    assert failing_stacks[0] > min(failing_stacks)


@st.composite
def channel_partitions(draw):
    """A small valid SweepConfig over 2 to 6 channels, a cut of its
    channels into consecutive pieces, and a _BLOCK_VALUES that gives
    blocks of one channel, a few or all of them."""
    config, _ = draw(sweep_channels())
    config = replace(config, n_channels=draw(st.integers(2, 6)))
    cuts = draw(st.sets(st.integers(1, config.n_channels - 1)))
    bounds = [0, *sorted(cuts), config.n_channels]
    pieces = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return config, pieces, draw(st.sampled_from((16, 256, 2**15)))


def rate_in_pieces(config, cells, pieces):
    """The rows of each piece in turn, as a serial run rates them, or the
    message of the first piece's error."""
    try:
        return [row for piece in pieces for row in _rate_channels(config, cells, piece)]
    except SaturatedSinrError as exc:
        return str(exc)


@PROPERTY_SETTINGS
@given(channel_partitions(), st.floats(0.0, 4.0))
# Under a cap of 10^2.75, channel 0 first fails at zf, its second cell,
# and channel 1 at cthp, its first: the block must raise channel 0's.
@example((SweepConfig(schemes=(SchemeTag("zf"), SchemeTag("cthp")), n_users=2, n_tx=2,
                      snr_grid_db=(30.0,), n_channels=3, master_seed=0),
          [range(0, 1), range(1, 3)], 2**15), 2.75)
def test_rating_channels_in_pieces_gives_the_rows_of_one_call(case, log_cap):
    # A block's rows do not depend on which channels share it: any cut
    # of the channels gives the rows of one call over all of them, bit
    # for bit, and under a cap of 1 to 1e4 (some cells saturate, some
    # do not) the error of rating one channel at a time, the lowest
    # failing channel's first failing cell in output order.
    config, pieces, block_values = case
    cells = _sweep_cells(config)
    one_each = [range(c, c + 1) for c in range(config.n_channels)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rsthp.sweeps._BLOCK_VALUES", block_values)
        for cap in (None, 10.0**log_cap):
            if cap is not None:
                patch.setattr("rsthp.rates.SINR_CAP", cap)
            expected = rate_in_pieces(config, cells, one_each)
            for partition in ([range(config.n_channels)], pieces):
                got = rate_in_pieces(config, cells, partition)
                if isinstance(expected, str):
                    assert got == expected
                else:
                    assert [row.tobytes() for row in got] == [row.tobytes() for row in expected]


@st.composite
def stacked_tables(draw):
    """The parameters of one kernel call: one to four rows on one to
    three channels (K <= N <= 4), each row one channel's error ensemble
    of 1 to 5 draws; one to eight columns of dthp or zf-dpc sets (with
    or without a common stream) at a split each, a subnormal one
    included, at a transmit power per set; and a run length."""
    n_users = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 4))
    n_columns = draw(st.integers(1, 8))
    columns = []
    for _ in range(n_columns):
        base, rs = draw(st.sampled_from(("dthp", "zf-dpc"))), draw(st.booleans())
        split = draw(st.one_of(st.floats(0.0, 0.95), st.just(5e-324))) if rs else 0.0
        columns.append((base, rs, split))
    snrs = st.lists(st.floats(-10.0, 30.0), min_size=n_columns, max_size=n_columns)
    return dict(
        n_users=n_users,
        n_tx=draw(st.integers(n_users, 4)),
        seed=draw(st.integers(0, 2**31 - 1)),
        n_channels=draw(st.integers(1, 3)),
        n_draws=draw(st.integers(1, 5)),
        rows=[(draw(st.integers(0, 2)), draw(st.floats(0.0, 1.0))) for _ in range(n_rows)],
        columns=columns,
        snr_db=[draw(snrs) for _ in range(n_rows)],
        max_sets=draw(st.sampled_from((None, 1, 2, 3))),
    )


@PROPERTY_SETTINGS
@given(stacked_tables())
# A subnormal split's P = t e_tr is > 0 at 0 dB and underflows to 0 at
# -10 dB, so its column has a common term on one row and none on the
# other; rs-linear's-style split 0 and a base set sit beside it.
@example(dict(n_users=2, n_tx=3, seed=5, n_channels=2, n_draws=3, rows=[(0, 0.2), (1, 0.5)],
              columns=[("dthp", True, 5e-324), ("zf-dpc", False, 0.0), ("dthp", True, 0.0)],
              snr_db=[[0.0, 0.0, 10.0], [-10.0, 20.0, 5.0]], max_sets=None))
def test_each_stacked_table_row_is_its_own_sum_rate_samples(case):
    # One kernel call over R stacked rows, of one or several channels,
    # gives every set the bits of rating it alone over its own row's
    # ensemble, and a split search of one set per grid, in one run of
    # sets or in several, its average with the bits of np.mean. A set at
    # P = 0 has its base scheme's bits, also in a column where another
    # row's set has a common stream.
    n_users, n_tx, seed = case["n_users"], case["n_tx"], case["seed"]
    channels = [draw_channel(seed, c, n_users, n_tx) for c in range(case["n_channels"])]
    rows, builds, ensembles = [], [], []
    for (c, variance), snrs in zip(case["rows"], case["snr_db"]):
        h_est = channels[c % len(channels)]
        errors = draw_error_ensemble(n_users, n_tx, variance, case["n_draws"], seed, c)
        ensembles.append(errors)
        rows.append((h_est + errors).reshape(-1, n_tx))
        builds.append([
            build_precoders(h_est, SchemeTag(base, rs=rs), snr_db_to_power(snr_db), 0.75, split)
            for (base, rs, split), snr_db in zip(case["columns"], snrs)
        ])
    # Each row's record; a rebuilt channel's record is another object
    # with the same arrays.
    geometries = [row[0].geometry for row in builds]
    beta = [[ps.beta for ps in row] for row in builds]
    power = [[ps.common_power for ps in row] for row in builds]
    rows = np.stack(rows)
    max_sets = case["max_sets"]
    table = stacked_sum_rate_table(geometries, beta, power, rows, SIGMA_N2)
    first, means = stacked_split_search(
        geometries, beta, power, rows, SIGMA_N2, [1] * len(case["columns"]), max_sets=max_sets
    )
    assert table.shape == (*means.shape, case["n_draws"])
    assert np.array_equal(first, np.broadcast_to(np.arange(means.shape[1]), means.shape))
    for row, row_means, row_builds, errors, snrs in zip(
        table, means, builds, ensembles, case["snr_db"]
    ):
        for rates_, mean, ps, snr_db in zip(row, row_means, row_builds, snrs):
            samples = sum_rate_samples(ps, errors, SIGMA_N2)
            assert np.array_equal(rates_, samples)
            assert mean == np.mean(samples)
            if ps.common_power == 0.0:
                alone = build_precoders(
                    ps.h_est, SchemeTag(ps.scheme.base), snr_db_to_power(snr_db), 0.75
                )
                assert rates_.tobytes() == sum_rate_samples(alone, errors, SIGMA_N2).tobytes()


@st.composite
def channel_stacks(draw):
    """A (C, K, N) stack of C <= 6 complex Gaussian matrices, K <= N <= 5,
    each slice scaled by 10^e for e in [-100, 100]. With K >= 2 a slice
    may have its last row replaced by its first plus 1e-12 to 1e-8 of
    itself, which puts its smallest singular value near the rank
    threshold (1e-10 of the largest), on either side of it."""
    n_users = draw(st.integers(1, 5))
    shape = (draw(st.integers(1, 6)), n_users, draw(st.integers(n_users, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for a in stack:
        if n_users > 1 and draw(st.booleans()):
            a[-1] = a[0] + 10.0 ** draw(st.floats(-12.0, -8.0)) * a[-1]
        a *= 10.0 ** draw(st.floats(-100.0, 100.0))
    return stack


@PROPERTY_SETTINGS
@given(channel_stacks())
def test_each_slice_of_a_factored_stack_is_its_matrix_factored_alone(stack):
    # One factorization of the stack serves every slice, records
    # included, and gives each the bits, or the error, of its matrix
    # factored as a stack of one.
    with mock.patch.object(linalg, "factor_stack", wraps=linalg.factor_stack) as factor:
        linalg.factor_stack(stack)
        stacked = [factored_outcomes(a) for a in stack]
    assert factor.call_count == 1
    alone = []
    for a in stack:
        linalg.factor_stack(np.empty((0, *a.shape)))
        alone.append(factored_outcomes(a))
    assert stacked == alone


# Bytes beyond the estimate that rating one channel may hold: the
# interpreter's own objects (frames, lists, ints), a few KiB.
MEMORY_ALLOWANCE = 32 * 2**10


@PROPERTY_SETTINGS
@given(sweep_channels())
@example((SweepConfig(n_users=16, n_tx=16, n_error_samples=300,
                      error_regime=ErrorRegime.fixed_variance(0.2)), 0))
@example((SweepConfig(schemes=(SchemeTag("zf"),), n_users=2, n_tx=32, snr_grid_db=(15.0,),
                      error_regime=ErrorRegime.fixed_variance(0.2)), 0))
# Many draws, where numpy's buffer for adding h_est is far below one ensemble.
@example((SweepConfig(schemes=(SchemeTag("zf"),), n_users=4, n_tx=4, snr_grid_db=(15.0,),
                      n_error_samples=20_000, error_regime=ErrorRegime.fixed_variance(0.2)), 0))
# 1,000 one-build cells, where the per-cell charge dominates the per-build one.
@example((SweepConfig(schemes=(SchemeTag("zf"),), n_users=1, n_tx=1,
                      snr_grid_db=tuple(i / 100 for i in range(1000))), 0))
# SNR-scaled errors at alpha = 0: every SNR point has the same variance,
# and the estimate charges the one stacked variance the engine rates.
@example((SweepConfig(error_regime=ErrorRegime.snr_scaled(0.0)), 0))
# Perfect CSIT, all 8 schemes at two SNRs: a block holds 48 of the 50 channels.
@example((SweepConfig(snr_grid_db=(0.0, 30.0)), 0))
# Six variances of 3,000 draws: a channel's slots exceed _BLOCK_VALUES
# complex values, and each takes its own slot block.
@example((SweepConfig(schemes=(SchemeTag("zf"), SchemeTag("dthp", rs=True)),
                      n_error_samples=3000, snr_grid_db=(15.0,),
                      error_variance_grid=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5)), 0))
def test_rating_a_channel_stays_within_its_memory_estimate(config_channel):
    # The estimate that SweepConfig.validate holds to the budget bounds
    # what rating one block of channels allocates, its error draws and
    # the block's rows included. tracemalloc sees numpy's buffers but
    # not BLAS workspace or the allocator's slack, so it is a lower
    # bound on the RSS a process grows by.
    config, channel_index = config_channel
    cells = _sweep_cells(config)
    block = range(channel_index, channel_index + _block_plan(config, cells).channels)
    # A first call makes numpy's one-time allocations. The block's
    # factorization then replaces that channel's in linalg's store.
    _rate_channels(config, cells, range(block.stop, block.stop + 1))
    channel._stream_state.cache_clear()
    tracemalloc.start()
    try:
        _rate_channels(config, cells, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= working_set_bytes(config, len(block)) + MEMORY_ALLOWANCE


@st.composite
def stream_keys(draw):
    """A sequence of stream_rng keys that repeats and alternates a few
    channel, error and noise keys."""
    key = st.tuples(
        st.one_of(st.sampled_from((0, 12345, 2**32, 2**64)), st.integers(0, 2**70)),
        st.sampled_from((CHANNEL_STREAM, ERROR_STREAM, NOISE_STREAM)),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=2),
    ).map(lambda k: (k[0], k[1], *k[2]))
    pool = draw(st.lists(key, min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(stream_keys())
def test_stream_generators_draw_as_seed_sequence_generators(keys):
    # The one-entry state cache serves a repeated key; every generator,
    # built before any of them draws, keeps its own state.
    generators = [stream_rng(*key) for key in keys]
    for key, rng in zip(keys, generators):
        want = np.random.default_rng(np.random.SeedSequence(key))
        assert np.array_equal(rng.standard_normal(3), want.standard_normal(3))
        assert rng.integers(2**63) == want.integers(2**63)
    with pytest.raises(TypeError):
        generators[0].spawn(1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.floats(-1e6, 1e6),
    st.floats(1e-12, 1e6),
    st.floats(-2.0, 1.2 * MAX_RANGE_POINTS),
)
def test_grid_range_stops_within_a_step_tolerance_of_stop(start, step, n_steps):
    # Point i = start + i * step is kept while i <= (stop - start) / step
    # + 1e-9, so no point passes stop by more than 1e-9 of a step (plus
    # the rounding of the sum), and a range of more than MAX_RANGE_POINTS
    # points is rejected, not built.
    stop = start + n_steps * step
    text = f"{start!r}:{step!r}:{stop!r}"
    span = (stop - start) / step + 1e-9
    count = sum(1 for i in range(MAX_RANGE_POINTS + 1) if i <= span)
    if count > MAX_RANGE_POINTS:
        with pytest.raises(ValueError, match="allowed"):
            parse_grid(text)
        return
    values = parse_grid(text)
    assert len(values) == count
    rounding = 4 * math.ulp(max(abs(start), abs(stop)))
    assert all(v <= stop + 1e-9 * step + rounding for v in values)


# Word-count boundaries of SeedSequence's 32-bit split, and beyond.
WORD_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**96)),
    st.integers(0, 2**40),
    st.one_of(st.integers(0, 3000), st.integers(2**32 - 40, 2**32)),
    st.integers(0, 40),
)
def test_error_states_are_seed_sequence_states(seed, channel_index, start, length):
    # Realization indices run up to the last one-word m, 2**32 - 1.
    length = min(length, 2**32 - start)
    got = _error_states(seed, channel_index, start, start + length)
    want = [
        np.random.SeedSequence((seed, ERROR_STREAM, channel_index, m))
        .generate_state(4, np.uint64)
        for m in range(start, start + length)
    ]
    assert got.dtype == np.uint64
    assert got.shape == (length, 4)
    assert np.array_equal(got, np.reshape(want, (length, 4)))


ANY_FLOAT = st.one_of(
    st.sampled_from((0.0, -1.0, 1e300, -1e308, math.nan, math.inf, -math.inf)),
    st.floats(allow_nan=True, allow_infinity=True),
)
ANY_GRID = st.one_of(
    st.sampled_from(("0:0:1", "0:nan:1", "0:1e-300:1", "10:5:0", "0.5,0.2", "0,0", "")),
    st.lists(ANY_FLOAT, min_size=1, max_size=3).map(lambda v: ",".join(map(repr, v))),
)


def float_list(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(
        lambda v: ",".join(map(repr, sorted(v)))
    )


@st.composite
def command_argv(draw):
    """argv of one sweep command or of cross-check-sinr: every flag in
    range, except at most one drawn from its type's whole grammar.
    In-range values include extremes (error variances up to 1e300, SNRs
    up to 300 dB); cross-check-sinr takes at most 200 samples."""
    command = draw(st.sampled_from(
        ("sweep-snr", "sweep-error-variance", "sweep-alpha", "cross-check-sinr")
    ))
    users = draw(st.integers(1, 3))
    variance = st.one_of(st.floats(0.0, 1.0), st.sampled_from((1e-300, 1e300)))
    valid = {
        "--users": st.just(users),
        "--tx-antennas": st.integers(users, 4),
        "--schemes": st.sampled_from(("zf", "cthp-rs", "zf,dthp-rs", "zf-dpc,rs-linear")),
        "--seed": st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**70)),
        "--lambda": st.floats(0.5, 1.0),
    }
    invalid = {
        "--users": st.integers(-1, 5),
        "--tx-antennas": st.integers(-1, 5),
        "--schemes": st.sampled_from(("thp", "zf,zf", "zf,", "")),
        "--seed": st.one_of(st.sampled_from((-1, -(2**32))), st.integers(-(2**70), -1)),
        "--lambda": ANY_FLOAT,
    }
    if command == "cross-check-sinr":
        # Mostly rate-splitting schemes, which take any --split.
        valid.update({
            "--schemes": st.sampled_from(
                ("rs-linear", "cthp-rs", "dthp-rs,zf-dpc-rs", "zf,cthp")
            ),
            "--snr-db": st.floats(-20.0, 300.0),
            "--error-variance": variance,
            "--split": st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
            "--samples": st.integers(1, 200),
        })
        invalid.update({
            "--snr-db": ANY_FLOAT,
            "--error-variance": ANY_FLOAT,
            "--split": ANY_FLOAT,
            "--samples": st.integers(-1, 0),
        })
    else:
        valid.update({
            "--channels": st.integers(1, 3),
            "--error-samples": st.integers(1, 3),
            "--split-grid": st.sampled_from(("0", "0,0.5", "0:0.5:0.5", "0:0.25:0.75")),
        })
        invalid.update({
            "--channels": st.integers(-1, 0),
            "--error-samples": st.integers(-1, 0),
            "--split-grid": st.one_of(
                st.sampled_from(("1", "-0.1", "0.5,0", "0:0.25:1")), ANY_GRID
            ),
            "--snr-db": ANY_GRID,
        })
        if command == "sweep-error-variance":
            valid["--snr-db"] = st.floats(-20.0, 300.0).map(repr)
            valid["--error-variance"] = float_list(variance, 3)
            invalid["--error-variance"] = ANY_GRID
        else:
            valid["--snr-db"] = float_list(st.floats(-20.0, 300.0), 3)
            if command == "sweep-snr":
                valid["--error-variance"] = variance
                invalid["--error-variance"] = ANY_FLOAT
            else:
                valid["--alpha"] = st.floats(-2.0, 2.0)
                invalid["--alpha"] = ANY_FLOAT
    broken = draw(st.sampled_from((None,) * len(valid) + tuple(valid)))
    flags = {
        flag: draw(invalid[flag] if flag == broken else valid[flag]) for flag in valid
    }
    if command != "cross-check-sinr":
        flags["--jobs"] = draw(st.sampled_from((1, 2)))
    # --flag=value keeps argparse from reading "-1e308" as a flag.
    return [command] + [
        f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}"
        for flag, value in flags.items()
    ]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(command_argv())
def test_sweep_commands_finish_or_fail_with_one_error_line(argv):
    # Exit 2 with one error: line and no output, or finish: a sweep with
    # exit 0, a finite CSV and its sidecar, cross-check-sinr with exit 0
    # or 1 (a perfect-CSIT gap over the tolerance) and finite SINRs. Any
    # exception or warning fails the test.
    sweep = argv[0] != "cross-check-sinr"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.csv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + [f"--out={out}"] if sweep else argv)
        written = sorted(os.listdir(tmp))
        if code == 2:
            assert len(stderr.getvalue().splitlines()) == 1
            assert stderr.getvalue().startswith("error: ")
            assert stdout.getvalue() == ""
            assert written == []
            return
        assert stderr.getvalue() == ""
        if not sweep:
            assert code in (0, 1)
            assert "closed" in stdout.getvalue()
            assert not re.search(r"\b(nan|inf)\b", stdout.getvalue())
            return
        assert code == 0
        assert written == ["x.csv", "x.csv.config.json"]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        for column in ("x_value", "esr_bps_hz", "ci_halfwidth", "chosen_split_mean"):
            assert math.isfinite(float(row[column]))
