"""Tests for the SINR/rate engine.

The closed-form kernels are checked three ways: hand-computable identity
channels, independent term-by-term accumulation oracles (plain Python
loops over the same formulas), and the Monte-Carlo signal-model
estimator.
"""

import dataclasses

import numpy as np
import pytest

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
from rsthp.exceptions import EmptyGridError, SaturatedSinrError, SchemeMismatchError
from rsthp.rates import (
    SINR_CAP,
    SinrReport,
    _batch_sinr,
    _cap,
    estimate_sinr_monte_carlo,
    sum_rate_table,
)
from rsthp.sweeps import draw_channel


def random_channel(seed, shape=(4, 4)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def oracle_thp_sinr(ps, h_e, sigma_n2, e_private):
    """Term-by-term recomputation of the THP closed forms; e_private is
    the power left to the private streams, e_tr (1 - power_split)."""
    n_users = ps.n_users
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
            ) / (ps.lambda_eff * e_private)
        else:
            numerator = abs(1.0 + self_coupling / ell[k] ** 2) ** 2
            denominator = cross / ell[k] ** 2 + n_users * sigma_n2 / (
                ps.lambda_eff * e_private * ell[k] ** 2
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
                ps, h_e, 1.0, 31.0 * (1.0 - split)
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


def split_reference(ps, errors, sigma_n2):
    """One split's sum rates as the kernel computed them before splits
    were stacked: a stacked (M, K, N) @ (N, K) product per split."""
    rows = ps.h_est[np.newaxis, :, :] + errors
    gain2 = ps.rx_gain**2
    gains = rows @ ps.p_private
    own = np.diagonal(gains, axis1=1, axis2=2)
    private_power = np.sum(np.abs(gains) ** 2, axis=2)
    signal = gain2 * own + ps.beta * (1.0 - ps.rx_gain)
    private = np.abs(signal) ** 2 / (
        gain2 * (private_power - np.abs(own) ** 2 + sigma_n2)
    )
    totals = np.sum(np.log2(1.0 + private), axis=1)
    if ps.p_common is not None:
        common = np.abs(rows @ ps.p_common) ** 2 / (private_power + sigma_n2)
        totals = totals + np.min(np.log2(1.0 + common), axis=1)
    return totals


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
                table = sum_rate_table(sets, errors, 1.0)
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
                private, common_at, common, _ = _batch_sinr(sets, errors, 1.0)
                expected = np.sum(np.log2(1.0 + private), axis=2)
                if common is not None:
                    expected[common_at] += np.min(np.log2(1.0 + common), axis=2)
                table = sum_rate_table(sets, errors, 1.0)
                if n <= 7:
                    assert np.array_equal(table, expected)
                else:
                    np.testing.assert_allclose(table, expected, rtol=1e-13, atol=0)

    def test_saturation_at_any_split_names_the_scheme(self):
        h = random_channel(63)
        scheme = SchemeTag("dthp", rs=True)
        sets = [build_precoders(h, scheme, 1e14, 0.75, t) for t in (0.0, 0.5)]
        with pytest.raises(SaturatedSinrError, match="dthp-rs"):
            sum_rate_table(sets, np.zeros((1, 4, 4), dtype=complex), 1.0)

    def test_rejects_mixed_or_empty_tables(self):
        # One table rates one private geometry on one channel: dthp and
        # zf-dpc share theirs, so they stack, each row with the bits of
        # its set rated alone; cthp or another channel does not.
        h, errors = random_channel(64), draw_error_ensemble(4, 4, 0.2, 5, seed=64)
        dthp = build_precoders(h, SchemeTag("dthp"), 31.0, 0.75)
        with pytest.raises(EmptyGridError):
            sum_rate_table([], errors, 1.0)
        mixed = [
            dthp,
            build_precoders(h, SchemeTag("zf-dpc", rs=True), 10.0, 0.75, 0.3),
            build_precoders(h.copy(), SchemeTag("zf-dpc"), 31.0, 0.75),
        ]
        table = sum_rate_table(mixed, errors, 1.0)
        for row, ps in zip(table, mixed):
            assert np.array_equal(row, sum_rate_table([ps], errors, 1.0)[0])
        for other in (
            build_precoders(h, SchemeTag("cthp"), 31.0, 0.75),
            build_precoders(random_channel(65), SchemeTag("dthp"), 31.0, 0.75),
        ):
            with pytest.raises(SchemeMismatchError):
                sum_rate_table([dthp, other], errors, 1.0)

    def test_saturation_names_the_first_saturated_set(self):
        # A cap between zf-dpc's and dthp's peaks saturates the zf-dpc
        # sets only; the error names the first of them and its index.
        h, zero = random_channel(68), np.zeros((1, 4, 4), dtype=complex)
        sets = [build_precoders(h, SchemeTag("dthp"), 31.0, 0.75),
                build_precoders(h, SchemeTag("zf-dpc"), 31.0, 0.75),
                build_precoders(h, SchemeTag("dthp"), 31.0, 0.75)]
        peaks = [float(np.max(sinr_perfect_csit(ps, 1.0).private)) for ps in sets]
        assert peaks[1] > 1.2 * peaks[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rates, "SINR_CAP", float(np.sqrt(peaks[0] * peaks[1])))
            sum_rate_table([sets[0], sets[2]], zero, 1.0)
            with pytest.raises(SaturatedSinrError, match="^zf-dpc: ") as raised:
                sum_rate_table(sets, zero, 1.0)
        assert raised.value.set_index == 1


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
