"""Property tests of the closed-form rates on arbitrary channels.

Each example draws one channel with the sweep's own draw_channel (any
K <= N <= 6), an SNR, a CSIT error variance and a power split, and
checks an identity that must hold on every channel, not only on the
acceptance suite's seed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rsthp import (  # noqa: E402
    SchemeTag,
    SimulatorError,
    build_precoders,
    draw_error_ensemble,
    rates_from_sinr,
    sinr_imperfect_csit,
    sinr_perfect_csit,
    snr_db_to_power,
    sum_rate_samples,
)
from rsthp.sweeps import SIGMA_N2, draw_channel  # noqa: E402

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
