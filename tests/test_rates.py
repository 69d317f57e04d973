"""Tests for the SINR/rate engine.

The closed-form kernels are checked three ways: hand-computable identity
channels, independent term-by-term accumulation oracles (plain Python
loops over the same formulas), and the Monte-Carlo signal-model
estimator.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rsthp import rates
from rsthp import (
    SchemeTag,
    build_precoders,
    cross_check_sinr,
    draw_error_ensemble,
    parse_scheme_tag,
    rates_from_sinr,
    sinr_imperfect_csit,
    sinr_perfect_csit,
    snr_db_to_power,
    sum_rate_samples,
)
from rsthp.linalg import lq_decompose
from rsthp.precoding import ALL_SCHEME_TAGS
from rsthp.exceptions import (
    DimensionMismatchError,
    EmptyGridError,
    SaturatedSinrError,
)
from rsthp.rates import (
    SINR_CAP,
    SinrReport,
    _cap,
    _row_invariants,
    _set_sinrs,
    estimate_sinr_monte_carlo,
    stacked_sum_rate_table,
)
from rsthp.sweeps import draw_channel

from helpers import kernel_args, random_channel, split_reference


def oracle_thp_sinr(ps, h_e, sigma_n2, e_private, power_loss):
    """Term-by-term recomputation of the THP closed forms; e_private is
    the power left to the private streams, e_tr (1 - power_split), and
    power_loss the modulo loss a cthp or dthp build applies."""
    n_users = ps.n_users
    lambda_eff = power_loss if ps.scheme.uses_power_loss else 1.0
    ell = lq_decompose(ps.h_est).diagonal
    p_over_beta = ps.p_private / ps.beta
    private = np.zeros(n_users)
    common = None if ps.p_common is None else np.zeros(n_users)
    for k in range(n_users):
        self_coupling = h_e[k] @ p_over_beta[:, k]
        cross = 0.0
        for i in range(n_users):
            if i != k:
                cross += abs(h_e[k] @ p_over_beta[:, i]) ** 2
        if ps.scheme.base == "cthp":
            numerator = abs(1.0 + self_coupling) ** 2
            denominator = cross + sigma_n2 * float(
                np.sum(1.0 / ell**2)
            ) / (lambda_eff * e_private)
        else:
            numerator = abs(1.0 + self_coupling / ell[k] ** 2) ** 2
            denominator = cross / ell[k] ** 2 + n_users * sigma_n2 / (
                lambda_eff * e_private * ell[k] ** 2
            )
        private[k] = numerator / denominator
        if common is not None:
            row = ps.h_est[k] + h_e[k]
            gain = abs(row @ ps.p_common) ** 2
            self_term = 1.0 if ps.scheme.base == "cthp" else ell[k]
            common[k] = gain / (
                ps.beta**2 * abs(self_term + self_coupling) ** 2
                + ps.beta**2 * cross
                + sigma_n2
            )
    return private, common


def oracle_linear_sinr(ps, h_e, sigma_n2):
    """Term-by-term recomputation of the linear closed forms."""
    n_users = ps.n_users
    rows = ps.h_est + h_e
    private = np.zeros(n_users)
    common = None if ps.p_common is None else np.zeros(n_users)
    for k in range(n_users):
        own = abs(rows[k] @ ps.p_private[:, k]) ** 2
        interference = sigma_n2
        for i in range(n_users):
            if i != k:
                interference += abs(rows[k] @ ps.p_private[:, i]) ** 2
        private[k] = own / interference
        if common is not None:
            gain = abs(rows[k] @ ps.p_common) ** 2
            common[k] = gain / (own + interference)
    return private, common


class TestIdentityChannelValues:
    # On the identity channel L = I, so every closed form collapses to a
    # number computable in one line.

    def test_dthp_unit_power_loss(self):
        ps = build_precoders(np.eye(4), SchemeTag("dthp"), 4.0, power_loss=1.0)
        report = sinr_perfect_csit(ps, sigma_n2=1.0)
        np.testing.assert_allclose(report.private, np.ones(4), atol=1e-12)

    def test_dthp_with_power_loss(self):
        ps = build_precoders(np.eye(4), SchemeTag("dthp"), 4.0, power_loss=0.75)
        report = sinr_perfect_csit(ps, sigma_n2=1.0)
        np.testing.assert_allclose(report.private, 0.75 * np.ones(4), atol=1e-12)

    def test_cthp_equals_dthp_at_identity(self):
        ps = build_precoders(np.eye(4), SchemeTag("cthp"), 4.0, power_loss=1.0)
        report = sinr_perfect_csit(ps, sigma_n2=1.0)
        np.testing.assert_allclose(report.private, np.ones(4), atol=1e-12)


class TestZeroForcingOrthogonality:
    def test_interference_free(self):
        h = random_channel(40)
        ps = build_precoders(h, SchemeTag("zf"), 10.0, 0.75)
        report = sinr_perfect_csit(ps, sigma_n2=1.0)
        gains = h @ ps.p_private
        expected = np.abs(np.diagonal(gains)) ** 2
        np.testing.assert_allclose(report.private, expected, rtol=1e-9)


class TestTermAccumulationOracles:
    def test_thp_schemes(self):
        h = random_channel(41)
        h_e = draw_error_ensemble(4, 4, 0.2, 1, seed=42)[0]
        for text in ("cthp", "dthp", "zf-dpc", "cthp-rs", "dthp-rs", "zf-dpc-rs"):
            scheme = parse_scheme_tag(text)
            split = 0.3 if scheme.rs else 0.0
            ps = build_precoders(h, scheme, 31.0, 0.75, power_split=split)
            report = sinr_imperfect_csit(ps, h_e, 1.0)
            private_ref, common_ref = oracle_thp_sinr(
                ps, h_e, 1.0, 31.0 * (1.0 - split), 0.75
            )
            np.testing.assert_allclose(report.private, private_ref, rtol=1e-12)
            if scheme.rs:
                np.testing.assert_allclose(report.common, common_ref, rtol=1e-12)
            else:
                assert report.common is None

    def test_linear_schemes(self):
        h = random_channel(43)
        h_e = draw_error_ensemble(4, 4, 0.2, 1, seed=44)[0]
        for text, split in (("zf", 0.0), ("rs-linear", 0.5)):
            ps = build_precoders(
                h, parse_scheme_tag(text), 31.0, 0.75, power_split=split
            )
            report = sinr_imperfect_csit(ps, h_e, 1.0)
            private_ref, common_ref = oracle_linear_sinr(ps, h_e, 1.0)
            np.testing.assert_allclose(report.private, private_ref, rtol=1e-12)
            if split > 0:
                np.testing.assert_allclose(report.common, common_ref, rtol=1e-12)


class TestReductions:
    def test_zero_error_matches_perfect(self):
        h = random_channel(45)
        zero = np.zeros((4, 4), dtype=complex)
        for text in ("cthp", "dthp", "zf-dpc", "cthp-rs", "dthp-rs"):
            scheme = parse_scheme_tag(text)
            split = 0.2 if scheme.rs else 0.0
            ps = build_precoders(h, scheme, 31.0, 0.75, power_split=split)
            imperfect = sinr_imperfect_csit(ps, zero, 1.0)
            perfect = sinr_perfect_csit(ps, 1.0)
            np.testing.assert_allclose(
                imperfect.private, perfect.private, rtol=1e-12
            )
            if scheme.rs:
                np.testing.assert_allclose(
                    imperfect.common, perfect.common, rtol=1e-12
                )
            assert imperfect.csit == "perfect"

    def test_zero_split_matches_base_rates(self):
        h = random_channel(46)
        h_e = draw_error_ensemble(4, 4, 0.2, 1, seed=47)[0]
        for rs_text, base_text in (
            ("rs-linear", "zf"),
            ("cthp-rs", "cthp"),
            ("dthp-rs", "dthp"),
            ("zf-dpc-rs", "zf-dpc"),
        ):
            rs = build_precoders(h, parse_scheme_tag(rs_text), 31.0, 0.75, 0.0)
            base = build_precoders(h, parse_scheme_tag(base_text), 31.0, 0.75)
            rs_rates = rates_from_sinr(sinr_imperfect_csit(rs, h_e, 1.0))
            base_rates = rates_from_sinr(sinr_imperfect_csit(base, h_e, 1.0))
            assert abs(rs_rates.sum_rate - base_rates.sum_rate) < 1e-12
            np.testing.assert_allclose(
                rs_rates.private_rates, base_rates.private_rates, atol=1e-12
            )

    def test_zf_dpc_is_dthp_at_unit_power_loss(self):
        h = random_channel(48)
        h_e = draw_error_ensemble(4, 4, 0.3, 1, seed=49)[0]
        dpc = build_precoders(h, SchemeTag("zf-dpc"), 31.0, 0.75)
        dthp = build_precoders(h, SchemeTag("dthp"), 31.0, 1.0)
        a = sinr_imperfect_csit(dpc, h_e, 1.0)
        b = sinr_imperfect_csit(dthp, h_e, 1.0)
        np.testing.assert_allclose(a.private, b.private, rtol=1e-12)


class TestRateReport:
    def test_unit_sinr_sum(self):
        report = SinrReport(
            scheme_tag="dthp",
            csit="perfect",
            private=np.ones(4),
            common=None,
            saturated=False,
        )
        rates = rates_from_sinr(report)
        assert abs(rates.sum_rate - 4.0) < 1e-12
        assert rates.common_rate is None

    def test_common_rate_is_minimum(self):
        report = SinrReport(
            scheme_tag="dthp-rs",
            csit="perfect",
            private=np.ones(4),
            common=np.array([3.0, 1.0, 7.0, 1.0]),
            saturated=False,
        )
        rates = rates_from_sinr(report)
        assert abs(rates.common_rate - 1.0) < 1e-12
        assert abs(rates.sum_rate - 5.0) < 1e-12

    def test_sum_decomposition(self):
        h = random_channel(50)
        ps = build_precoders(h, SchemeTag("dthp", rs=True), 31.0, 0.75, 0.4)
        rates = rates_from_sinr(sinr_perfect_csit(ps, 1.0))
        recomputed = rates.common_rate + float(np.sum(rates.private_rates))
        assert abs(rates.sum_rate - recomputed) < 1e-12


class TestBatchConsistency:
    def test_sum_rate_samples_match_reports(self):
        h = random_channel(51)
        errors = draw_error_ensemble(4, 4, 0.2, 8, seed=52)
        for text in ("zf", "rs-linear", "dthp", "dthp-rs"):
            scheme = parse_scheme_tag(text)
            split = 0.25 if scheme.rs else 0.0
            ps = build_precoders(h, scheme, 31.0, 0.75, power_split=split)
            batch = sum_rate_samples(ps, errors, 1.0)
            for m in range(8):
                single = rates_from_sinr(
                    sinr_imperfect_csit(ps, errors[m], 1.0)
                ).sum_rate
                assert abs(batch[m] - single) < 1e-12


def stacked_rows(ps, errors):
    """The one row h_est + E of ps's channel over the (M, K, N) errors."""
    return (ps.h_est + errors).reshape(1, -1, ps.h_est.shape[1])


def one_ensemble_table(precoder_sets, errors, sigma_n2):
    """stacked_sum_rate_table's (T, M) table of T sets on the one row of
    the (M, K, N) ensemble errors."""
    return stacked_sum_rate_table(
        *kernel_args(precoder_sets), stacked_rows(precoder_sets[0], errors), sigma_n2
    )[0]


class TestSumRateTable:
    # Split 0 sits between nonzero splits, so the sets with a common
    # stream are not a prefix of the table.
    RS_GRID = (0.3, 0.0, 0.05, 0.5, 0.95)
    # A base scheme has no split to vary; its table stacks powers.
    BASE_POWERS = (1.0, 31.0, 300.0)

    def table_sets(self, h, scheme):
        if scheme.rs:
            return [build_precoders(h, scheme, 31.0, 0.75, t) for t in self.RS_GRID]
        return [build_precoders(h, scheme, e, 0.75) for e in self.BASE_POWERS]

    def test_rows_are_bit_identical_to_one_split(self):
        for seed, n_draws in ((60, 1), (61, 7), (62, 100)):
            h = random_channel(seed)
            errors = draw_error_ensemble(4, 4, 0.2, n_draws, seed=seed)
            for scheme in ALL_SCHEME_TAGS:
                sets = self.table_sets(h, scheme)
                table = one_ensemble_table(sets, errors, 1.0)
                assert table.shape == (len(sets), n_draws)
                # The split search averages the table along its rows.
                means = np.mean(table, axis=1)
                for row, mean, ps in zip(table, means, sets):
                    samples = sum_rate_samples(ps, errors, 1.0)
                    assert np.array_equal(row, samples)
                    assert mean == np.mean(samples)
                    # The kernel scales split-invariant gains by beta^2
                    # instead of forming each split's gains, so it
                    # matches the per-split formula up to rounding.
                    np.testing.assert_allclose(
                        row, split_reference(ps, errors, 1.0), rtol=1e-13
                    )

    def test_user_reductions_match_numpy_reductions(self):
        # The table adds the private rates user by user and keeps a
        # running minimum of the common rates: np.sum's bits while it
        # sums in order (K <= 7), a rounding apart from 8 users on.
        for n, seed in ((4, 66), (9, 67)):
            h = random_channel(seed, (n, n))
            errors = draw_error_ensemble(n, n, 0.2, 30, seed=seed)
            for scheme in ALL_SCHEME_TAGS:
                sets = self.table_sets(h, scheme)
                geometries, beta, power = kernel_args(sets)
                workspace = {}
                invariants = _row_invariants(
                    geometries, stacked_rows(sets[0], errors), bool(np.any(power > 0)),
                    workspace,
                )
                private, common_at, common, _ = _set_sinrs(
                    invariants, slice(None), beta, power, 1.0, workspace
                )
                expected = np.sum(np.log2(1.0 + private[0]), axis=2)
                if common is not None:
                    expected[common_at] += np.min(np.log2(1.0 + common[0]), axis=2)
                table = one_ensemble_table(sets, errors, 1.0)
                if n <= 7:
                    assert np.array_equal(table, expected)
                else:
                    np.testing.assert_allclose(table, expected, rtol=1e-13, atol=0)

    def test_saturation_at_any_split_names_the_scheme(self):
        # The kernel rates scalars, not schemes: its error gives the
        # saturated sets, and a build's own rating names its scheme.
        h, zero = random_channel(63), np.zeros((1, 4, 4), dtype=complex)
        scheme = SchemeTag("dthp", rs=True)
        sets = [build_precoders(h, scheme, 1e14, 0.75, t) for t in (0.0, 0.5)]
        with pytest.raises(SaturatedSinrError, match="^an SINR reached") as raised:
            one_ensemble_table(sets, zero, 1.0)
        assert raised.value.saturated.tolist() == [[True, True]]
        for ps in sets:
            with pytest.raises(SaturatedSinrError, match="^dthp-rs: an SINR reached"):
                sum_rate_samples(ps, zero, 1.0)

    def test_stacked_matmul_makes_the_per_slice_products(self):
        # The stacked kernel's bits rest on this: np.matmul over a stack
        # gives each slice the product that @ gives it alone, for the
        # gains G0 (a gemm per ensemble) and for the common gains (a
        # gemv of each ensemble with the channel's direction d), so a
        # set rated among V ensembles gets the bits of its own one.
        rng = np.random.default_rng(70)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for _ in range(30):
            k = int(rng.integers(1, 10))
            n, m, v = k + int(rng.integers(0, 5)), int(rng.integers(1, 334)), 3
            rows, unit, direction = gaussian(v, m * k, n), gaussian(n, k), gaussian(n)
            gains = np.matmul(rows, unit)
            common = np.matmul(rows, direction)
            for i in range(v):
                assert np.array_equal(gains[i], rows[i] @ unit)
                assert np.array_equal(common[i], rows[i] @ direction)
                assert np.array_equal(common[i], np.matmul(rows[i:i + 1], direction)[0])

    @given(st.data())
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_worst_user_rate_is_the_least_user_rate(self, data):
        # The common rate takes one logarithm at the least SINR; the
        # monotone 1 + x and log2 give it the least user rate's bits,
        # including at 0, subnormals, ties and the cap.
        shape = data.draw(st.tuples(*(st.integers(1, n) for n in (4, 6, 9))))
        specials = st.sampled_from((0.0, 5e-324, 2.2e-308, 1e-300, 1.0, SINR_CAP))
        pool = data.draw(st.lists(
            st.one_of(specials, st.floats(0.0, SINR_CAP)), min_size=1, max_size=6))
        common = np.array(data.draw(st.lists(
            st.sampled_from(pool), min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape))))).reshape(shape)
        want = np.log2(1.0 + common).min(axis=2)
        assert rates._worst_user_rate(common).tobytes() == want.tobytes()

    def test_rejects_mixed_or_empty_tables(self):
        # One table rates one private geometry on one channel: dthp and
        # zf-dpc share theirs, so they stack, each row with the bits of
        # its set rated alone.
        h, errors = random_channel(64), draw_error_ensemble(4, 4, 0.2, 5, seed=64)
        dthp = build_precoders(h, SchemeTag("dthp"), 31.0, 0.75)
        with pytest.raises(EmptyGridError):
            stacked_sum_rate_table(
                (dthp.geometry,), [], [], stacked_rows(dthp, errors), 1.0
            )
        mixed = [
            dthp,
            build_precoders(h, SchemeTag("zf-dpc", rs=True), 10.0, 0.75, 0.3),
            build_precoders(h.copy(), SchemeTag("zf-dpc"), 31.0, 0.75),
        ]
        table = one_ensemble_table(mixed, errors, 1.0)
        for row, ps in zip(table, mixed):
            assert np.array_equal(row, one_ensemble_table([ps], errors, 1.0)[0])

    def test_rejects_sets_that_are_not_a_row_each(self):
        # beta and power hold the same T sets for each of the R rows, as
        # (R, T) arrays: any other shape would broadcast inside numpy or
        # rate a set on another row. geometries holds one record per
        # row, and zero sets are an empty grid.
        h, errors = random_channel(69), draw_error_ensemble(4, 4, 0.2, 5, seed=69)
        sets = self.table_sets(h, SchemeTag("dthp", rs=True))[:3]
        geometry, beta, power = kernel_args(sets, 2)
        rows = np.concatenate([stacked_rows(sets[0], errors)] * 2)
        table = stacked_sum_rate_table(geometry, beta, power, rows, 1.0)
        assert table.shape == (2, 3, 5)
        for row in table:
            assert np.array_equal(row, one_ensemble_table(sets, errors, 1.0))
        for b, p in ((beta[:, :2], power), (beta, power[:, :2]), (beta[:1], power[:1]),
                     (np.vstack([beta, beta[:1]]), np.vstack([power, power[:1]])),
                     (beta.T, power.T), (beta[0], power[0]), (beta[0, 0], power[0, 0]),
                     (beta[..., np.newaxis], power[..., np.newaxis])):
            with pytest.raises(DimensionMismatchError, match=r"must both be \(R, T\)"):
                stacked_sum_rate_table(geometry, b, p, rows, 1.0)
        for b, p in (([], []), (np.empty((2, 0)), np.empty((2, 0)))):
            with pytest.raises(EmptyGridError):
                stacked_sum_rate_table(geometry, b, p, rows, 1.0)
        # Each row names its own geometry record.
        for records in (geometry[:1], geometry * 2):
            with pytest.raises(DimensionMismatchError, match="each row needs one"):
                stacked_sum_rate_table(records, beta, power, rows, 1.0)

    def test_squared_scales_have_the_bits_of_python_squares(self):
        # The kernel squares the (R, T) betas with np.float_power, the C
        # library's pow that Python's beta**2 calls; np.square, the
        # rounded product beta * beta, differs in the last bit for about
        # 1 beta in 1,000, which would move a rate's bits.
        beta = np.exp(np.random.default_rng(71).uniform(-20.0, 20.0, 100_000))
        assert np.float_power(beta, 2).tolist() == [b**2 for b in beta.tolist()]

    def test_saturation_names_the_first_saturated_set(self):
        # A cap between zf-dpc's and dthp's peaks saturates the zf-dpc
        # sets only; the error's mask names them and no other set.
        h, zero = random_channel(68), np.zeros((1, 4, 4), dtype=complex)
        sets = [build_precoders(h, SchemeTag("dthp"), 31.0, 0.75),
                build_precoders(h, SchemeTag("zf-dpc"), 31.0, 0.75),
                build_precoders(h, SchemeTag("dthp"), 31.0, 0.75)]
        peaks = [float(np.max(sinr_perfect_csit(ps, 1.0).private)) for ps in sets]
        assert peaks[1] > 1.2 * peaks[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rates, "SINR_CAP", float(np.sqrt(peaks[0] * peaks[1])))
            one_ensemble_table([sets[0], sets[2]], zero, 1.0)
            with pytest.raises(SaturatedSinrError, match="^an SINR reached") as raised:
                one_ensemble_table(sets, zero, 1.0)
            with pytest.raises(SaturatedSinrError, match="^zf-dpc: "):
                sum_rate_samples(sets[1], zero, 1.0)
        assert raised.value.saturated.tolist() == [[False, True, False]]


class TestOrderings:
    def test_monotone_in_transmit_power(self):
        h = random_channel(53)
        zero = np.zeros((4, 4), dtype=complex)
        for text in ("zf", "cthp", "dthp", "zf-dpc"):
            scheme = parse_scheme_tag(text)
            previous = -1.0
            for e_tr in (1.0, 3.0, 10.0, 31.0, 100.0):
                ps = build_precoders(h, scheme, e_tr, 0.75)
                rate = float(sum_rate_samples(ps, zero[np.newaxis], 1.0)[0])
                assert rate >= previous
                previous = rate

    def test_dthp_beats_cthp_on_average(self):
        zero = np.zeros((1, 4, 4), dtype=complex)
        gaps = []
        for seed in range(60):
            h = random_channel(seed + 500)
            dthp = build_precoders(h, SchemeTag("dthp"), 31.0, 0.75)
            cthp = build_precoders(h, SchemeTag("cthp"), 31.0, 0.75)
            gaps.append(
                float(sum_rate_samples(dthp, zero, 1.0)[0])
                - float(sum_rate_samples(cthp, zero, 1.0)[0])
            )
        assert np.mean(gaps) > 0.0

    def test_zf_dpc_beats_dthp_per_channel(self):
        zero = np.zeros((1, 4, 4), dtype=complex)
        for seed in range(20):
            h = random_channel(seed + 600)
            dpc = build_precoders(h, SchemeTag("zf-dpc"), 31.0, 0.75)
            dthp = build_precoders(h, SchemeTag("dthp"), 31.0, 0.75)
            assert (
                sum_rate_samples(dpc, zero, 1.0)[0]
                >= sum_rate_samples(dthp, zero, 1.0)[0]
            )


class TestSaturation:
    def test_zero_noise_caps(self):
        ps = build_precoders(random_channel(54), SchemeTag("dthp"), 10.0, 0.75)
        report = sinr_perfect_csit(ps, sigma_n2=0.0)
        assert report.saturated
        np.testing.assert_array_equal(report.private, SINR_CAP * np.ones(4))

    def test_monte_carlo_zero_noise_caps(self):
        ps = build_precoders(random_channel(55), SchemeTag("cthp"), 10.0, 0.75)
        report = estimate_sinr_monte_carlo(
            ps, np.zeros((4, 4), dtype=complex), 0.0, 10000, seed=1
        )
        assert report.saturated
        assert np.all(report.private == SINR_CAP)

    def test_cross_check_refuses_either_capped_report(self, monkeypatch):
        # Two capped SINRs agree at a 0% gap, so a report that reached
        # the cap is refused, not compared.
        ps = build_precoders(random_channel(56), SchemeTag("dthp"), 10.0, 0.75)
        zero = np.zeros((4, 4), dtype=complex)
        with pytest.raises(SaturatedSinrError, match="^dthp: a closed-form SINR"):
            cross_check_sinr(ps, zero, 0.0, 1000, seed=1)
        estimate = rates.estimate_sinr_monte_carlo
        monkeypatch.setattr(
            rates, "estimate_sinr_monte_carlo",
            lambda *args: dataclasses.replace(estimate(*args), saturated=True),
        )
        with pytest.raises(SaturatedSinrError, match="^dthp: a simulated SINR"):
            cross_check_sinr(ps, zero, 1.0, 1000, seed=1)


def cap_oracle(values):
    """_cap as it was before its fast path."""
    finite = np.isfinite(values)
    saturated = bool(np.any(~finite) or np.any(values[finite] > SINR_CAP))
    values = np.where(finite, values, SINR_CAP)
    return np.minimum(values, SINR_CAP), saturated


class TestCap:
    def test_matches_the_full_formula(self):
        base = np.array([[0.5, 3.0, 1e6, 2.0], [7.0, 0.0, 1e-3, 40.0]])
        specials = (
            np.nan, np.inf, -np.inf, SINR_CAP, np.nextafter(SINR_CAP, np.inf),
            1e15, -1e-17, -0.0, -1e13,
        )
        batches = [base, base[:1], base[:, :1]]
        for special in specials:
            for index in ((0, 0), (1, 3)):
                batch = base.copy()
                batch[index] = special
                batches.append(batch)
        mixed = base.copy()
        mixed[0] = (np.nan, -np.inf, SINR_CAP, -1e-17)
        batches.append(mixed)
        for batch in batches:
            want_values, want_flag = cap_oracle(batch.copy())
            got_values, got_flags = _cap(batch.copy())
            # One flag per row: whether the oracle flags that row alone.
            assert got_flags.tolist() == [cap_oracle(row)[1] for row in batch]
            assert got_flags.any() == want_flag
            assert got_values.shape == want_values.shape
            assert got_values.tobytes() == want_values.tobytes()


class TestMonteCarloAgreement:
    def test_build_and_kernel_agree_on_the_common_stream(self):
        # p_common is None exactly where the kernel rates no common
        # stream, at P = 0, a split whose P underflows to 0 included,
        # so the closed form and the simulation report the same streams.
        h, zero = random_channel(85), np.zeros((4, 4), dtype=complex)
        for scheme in (s for s in ALL_SCHEME_TAGS if s.rs):
            for e_tr in (0.4, 1000.0):
                for t in (0.0, 5e-324, 1e-300, 0.3):
                    ps = build_precoders(h, scheme, e_tr, 0.75, t)
                    closed = sinr_imperfect_csit(ps, zero, 1.0)
                    simulated = estimate_sinr_monte_carlo(ps, zero, 1.0, 10, seed=1)
                    assert (ps.p_common is None) == (ps.common_power == 0.0)
                    assert (closed.common is None) == (ps.p_common is None)
                    assert (simulated.common is None) == (ps.p_common is None)
        ps = build_precoders(h, SchemeTag("dthp", rs=True), 0.4, 0.75, 5e-324)
        assert ps.common_power == 0.0 and ps.p_common is None

    def test_perfect_csit_thp(self):
        h = random_channel(56)
        zero = np.zeros((4, 4), dtype=complex)
        for text in ("cthp", "dthp"):
            ps = build_precoders(h, parse_scheme_tag(text), 31.0, 0.75)
            check = cross_check_sinr(ps, zero, 1.0, 100000, seed=2)
            assert check.max_rel_gap_private < 0.05
            assert not check.annotations

    def test_perfect_csit_linear(self):
        ps = build_precoders(random_channel(57), SchemeTag("zf"), 31.0, 0.75)
        check = cross_check_sinr(
            ps, np.zeros((4, 4), dtype=complex), 1.0, 100000, seed=3
        )
        assert check.max_rel_gap_private < 0.05

    def test_imperfect_csit_linear_model_is_exact(self):
        # The linear signal model has no approximations, so closed form
        # and simulation agree under errors too.
        h = random_channel(58)
        h_e = draw_error_ensemble(4, 4, 0.2, 1, seed=59)[0]
        ps = build_precoders(h, SchemeTag("zf", rs=True), 31.0, 0.75, 0.4)
        check = cross_check_sinr(ps, h_e, 1.0, 200000, seed=4)
        assert check.max_rel_gap_private < 0.05
        assert check.max_rel_gap_common < 0.05

    def test_imperfect_csit_thp_gap_is_reported(self):
        # The THP closed forms keep the published structure, which leaves
        # out the lattice offsets' power, so a systematic gap is
        # expected; it must be surfaced, not hidden.
        h = random_channel(60)
        h_e = draw_error_ensemble(4, 4, 0.2, 1, seed=61)[0]
        for text in ("cthp", "dthp"):
            ps = build_precoders(h, parse_scheme_tag(text), 31.0, 0.75)
            check = cross_check_sinr(ps, h_e, 1.0, 100000, seed=5)
            assert np.isfinite(check.max_rel_gap_private)
            if check.max_rel_gap_private > 0.05:
                assert check.annotations

    def test_perfect_csit_every_scheme(self):
        h = random_channel(62)
        zero = np.zeros((4, 4), dtype=complex)
        for scheme in ALL_SCHEME_TAGS:
            split = 0.3 if scheme.rs else 0.0
            ps = build_precoders(h, scheme, 31.0, 0.75, power_split=split)
            check = cross_check_sinr(ps, zero, 1.0, 100000, seed=6)
            assert check.max_rel_gap_private < 0.05, scheme.tag

    def test_zf_dpc_rs_common_is_exact(self):
        # ZF-DPC sends v = s through p_private with no modulo, so the
        # closed-form common SINR holds exactly, with or without error.
        e_tr = snr_db_to_power(15.0)
        for c in range(5):
            h = draw_channel(12345, c, 4, 4)
            ps = build_precoders(
                h, parse_scheme_tag("zf-dpc-rs"), e_tr, 0.75, power_split=0.3
            )
            for sigma_e2 in (0.0, 0.2):
                h_e = draw_error_ensemble(4, 4, sigma_e2, 1, 12345, c)[0]
                check = cross_check_sinr(ps, h_e, 1.0, 100000, seed=c)
                assert check.max_rel_gap_common < 0.05, (c, sigma_e2)

    def test_zf_dpc_private_matches_linear_oracle(self):
        # Without a modulo, receiver k sees beta / g_k (1 + g_k A_kk) s_k,
        # the other streams through beta A and the noise.
        e_tr = snr_db_to_power(15.0)
        for c in range(5):
            h = draw_channel(12345, c, 4, 4)
            h_e = draw_error_ensemble(4, 4, 0.2, 1, 12345, c)[0]
            ps = build_precoders(h, SchemeTag("zf-dpc"), e_tr, 0.75)
            g = 1.0 / lq_decompose(h).diagonal
            coupling = h_e @ (ps.p_private / ps.beta)
            own = np.diagonal(coupling)
            cross = np.sum(np.abs(coupling) ** 2, axis=1) - np.abs(own) ** 2
            oracle = np.abs(1.0 + g * own) ** 2 / (
                g**2 * (cross + 1.0 / ps.beta**2)
            )
            report = estimate_sinr_monte_carlo(ps, h_e, 1.0, 100000, seed=c)
            np.testing.assert_allclose(report.private, oracle, rtol=0.02)
