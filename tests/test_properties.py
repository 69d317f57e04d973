"""Property tests of the closed-form rates on arbitrary channels.

Each example draws one channel with the sweep's own draw_channel (any
K <= N <= 6), an SNR, a CSIT error variance and a power split, and
checks an identity that must hold on every channel, not only on the
acceptance suite's seed. The last properties check the CLI's
start:step:stop grid ranges, the range-hashed error-stream seeds
against SeedSequence, and the exit contract of the sweep commands and
cross-check-sinr on argv drawn from their flag grammar.
"""

import contextlib
import csv
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rsthp import (  # noqa: E402
    ErrorRegime,
    SchemeTag,
    SweepConfig,
    SimulatorError,
    build_precoders,
    draw_error_ensemble,
    rates_from_sinr,
    sinr_imperfect_csit,
    sinr_perfect_csit,
    snr_db_to_power,
    sum_rate_samples,
)
from rsthp.channel import ERROR_STREAM, _error_states  # noqa: E402
from rsthp.cli import MAX_RANGE_POINTS, main, parse_grid  # noqa: E402
from rsthp.exceptions import SaturatedSinrError  # noqa: E402
from rsthp.precoding import ALL_SCHEME_TAGS  # noqa: E402
from rsthp.rates import sum_rate_table  # noqa: E402
from rsthp.sweeps import (  # noqa: E402
    SIGMA_N2,
    _rate_channel,
    _sweep_cells,
    draw_channel,
    optimize_power_split,
)

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


def per_split_rates(ps, errors):
    """One split's sum rates from its own effective channel
    (h_est + E) @ p_private, the formula the kernel decomposes."""
    rows = ps.h_est + errors
    gains = rows @ ps.p_private
    own = np.diagonal(gains, axis1=1, axis2=2)
    power = np.sum(np.abs(gains) ** 2, axis=2)
    gain2 = ps.rx_gain**2
    private = np.abs(gain2 * own + ps.beta * (1.0 - ps.rx_gain)) ** 2 / (
        gain2 * (power - np.abs(own) ** 2 + SIGMA_N2)
    )
    totals = np.sum(np.log2(1.0 + private), axis=1)
    if ps.p_common is not None:
        common = np.abs(rows @ ps.p_common) ** 2 / (power + SIGMA_N2)
        totals = totals + np.min(np.log2(1.0 + common), axis=1)
    return totals


@PROPERTY_SETTINGS
@given(
    cases(),
    st.sampled_from((1, 3)),
    st.lists(st.floats(0.0, 0.95), max_size=5),
)
def test_split_table_rows_match_the_per_split_formula(case, n_draws, splits):
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
    table = sum_rate_table(sets, errors, SIGMA_N2)
    for row, ps in zip(table, sets):
        np.testing.assert_allclose(row, per_split_rates(ps, errors), rtol=1e-12)
    alone = build_precoders(case["h_est"], base, case["e_tr"], case["power_loss"])
    assert np.array_equal(table[0], sum_rate_table([alone], errors, SIGMA_N2)[0])


@st.composite
def sweep_channels(draw):
    """A small valid SweepConfig (K <= N <= 4, one to three grid points,
    an ascending split grid holding 0) and a channel index."""
    n_users = draw(st.integers(1, 4))
    n_tx = draw(st.integers(n_users, 4))
    schemes = draw(st.lists(st.sampled_from(ALL_SCHEME_TAGS), min_size=1,
                            max_size=len(ALL_SCHEME_TAGS), unique=True))
    n_points = draw(st.integers(1, 3))
    snrs = st.floats(-10.0, 30.0)
    regime = draw(st.sampled_from(("perfect", "fixed", "variance-grid")))
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
    """optimize_power_split for one cell of a sweep on one channel."""
    scheme, _, e_tr, regime = cell
    n_users, n_tx = config.n_users, config.n_tx
    if regime.is_perfect:
        errors = np.zeros((1, n_users, n_tx), dtype=complex)
    else:
        errors = draw_error_ensemble(
            n_users, n_tx, regime.variance_at(e_tr), config.n_error_samples,
            config.master_seed, channel_index,
        )
    return optimize_power_split(
        draw_channel(config.master_seed, channel_index, n_users, n_tx), scheme,
        e_tr, config.power_loss, config.power_split_grid if scheme.rs else (0.0,),
        errors,
    )


@PROPERTY_SETTINGS
@given(sweep_channels())
def test_each_channel_column_is_its_cells_own_split_search(config_channel):
    # The sweep stacks the cells that share a geometry and a variance
    # into one kernel call; each cell keeps the bits and the split of
    # its own search.
    config, channel_index = config_channel
    cells = _sweep_cells(config)
    row = _rate_channel(config, cells, channel_index)
    for cell, column in zip(cells, row.T):
        assert tuple(column.tolist()) == cell_reference(config, cell, channel_index)


@PROPERTY_SETTINGS
@given(sweep_channels(), st.floats(0.0, 4.0))
def test_a_saturated_channel_names_its_first_failing_cell(config_channel, log_cap):
    # With a cap of 1 to 1e4 some cells saturate and some do not; the
    # error is the first failing cell's in output order, whichever
    # block the sweep rates first.
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
        if expected is None:
            _rate_channel(config, cells, channel_index)
        else:
            with pytest.raises(SaturatedSinrError) as raised:
                _rate_channel(config, cells, channel_index)
            assert str(raised.value) == expected


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
