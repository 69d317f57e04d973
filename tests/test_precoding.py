"""Tests for precoder construction.

The 2x2 hand examples pin the feedback-matrix conventions: for a lower
triangular channel the factorization is trivial, so every filter can be
written down by hand.
"""

import numpy as np
import pytest

from rsthp import (
    SchemeTag,
    build_precoders,
    parse_scheme_tag,
    rates_from_sinr,
    sinr_imperfect_csit,
)
from rsthp.exceptions import SchemeMismatchError
from rsthp.linalg import lq_decompose
from rsthp.precoding import effective_transmit_power


def random_channel(seed, shape=(4, 4)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


H2 = np.array([[2.0, 0.0], [1.0, 1.0]], dtype=complex)


class TestSchemeTag:
    def test_tags_round_trip(self):
        for text in (
            "zf",
            "rs-linear",
            "cthp",
            "dthp",
            "cthp-rs",
            "dthp-rs",
            "zf-dpc",
            "zf-dpc-rs",
        ):
            assert parse_scheme_tag(text).tag == text

    def test_unknown_rejected(self):
        with pytest.raises(SchemeMismatchError):
            parse_scheme_tag("mmse")

    def test_flags(self):
        assert not parse_scheme_tag("zf").is_thp
        assert parse_scheme_tag("zf-dpc").is_thp
        assert not parse_scheme_tag("zf-dpc").uses_power_loss
        assert parse_scheme_tag("cthp-rs").uses_power_loss
        assert parse_scheme_tag("rs-linear").rs


class TestHandExamples:
    # H2 is lower triangular with diagonal (2, 1), so L = H2, Q = I,
    # g = (1/2, 1).

    def test_dthp_feedback(self):
        ps = build_precoders(H2, SchemeTag("dthp"), e_tr=8.0, power_loss=1.0)
        np.testing.assert_allclose(
            ps.b_matrix, [[1.0, 0.0], [1.0, 1.0]], atol=1e-12
        )
        np.testing.assert_allclose(ps.g_diag, [0.5, 1.0], atol=1e-12)
        # beta = sqrt(lambda * E / K) = sqrt(8 / 2) = 2.
        assert abs(ps.beta - 2.0) < 1e-12
        # Gains at the receivers: the transmitter sends beta F w, F = I.
        np.testing.assert_allclose(ps.rx_gain, [0.5, 1.0], atol=1e-12)
        np.testing.assert_allclose(ps.tx_basis, 2.0 * np.eye(2), atol=1e-12)

    def test_cthp_feedback(self):
        ps = build_precoders(H2, SchemeTag("cthp"), e_tr=10.0, power_loss=1.0)
        np.testing.assert_allclose(
            ps.b_matrix, [[1.0, 0.0], [0.5, 1.0]], atol=1e-12
        )
        # beta = sqrt(E / sum(1/l^2)) = sqrt(10 / 1.25).
        assert abs(ps.beta - np.sqrt(8.0)) < 1e-12
        # Gains at the transmitter: it sends beta F diag(g) w, F = I.
        np.testing.assert_allclose(ps.rx_gain, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            ps.tx_basis, np.sqrt(8.0) * np.diag([0.5, 1.0]), atol=1e-12
        )

    def test_dthp_triangularizes(self):
        # h F = L, so dthp and zf-dpc leave beta diag(L) at the receivers,
        # whose gains 1/l_k undo it.
        for seed in range(10):
            h = random_channel(seed)
            ell = lq_decompose(h).diagonal
            for text in ("dthp", "zf-dpc"):
                for split in (0.0, 0.3):
                    scheme = SchemeTag(text, rs=split > 0.0)
                    ps = build_precoders(h, scheme, 31.0, 0.75, split)
                    np.testing.assert_allclose(ps.rx_gain, 1.0 / ell, rtol=1e-12)
                    product = h @ ps.p_private
                    expected = ps.beta * np.diag(ell)
                    np.testing.assert_allclose(product, expected, atol=1e-9)

    def test_cthp_diagonalizes_to_identity(self):
        # cthp applies g at the transmitter, so the receivers see beta I.
        for seed in range(10):
            h = random_channel(seed)
            for split in (0.0, 0.3):
                scheme = SchemeTag("cthp", rs=split > 0.0)
                ps = build_precoders(h, scheme, 31.0, 0.75, split)
                np.testing.assert_allclose(ps.rx_gain, np.ones(4), rtol=1e-12)
                product = h @ ps.p_private
                np.testing.assert_allclose(
                    product, ps.beta * np.eye(4), atol=1e-9
                )

    def test_zf_inverts_channel(self):
        h = random_channel(1)
        ps = build_precoders(h, SchemeTag("zf"), 10.0, 0.75)
        product = h @ ps.p_private
        off_diag = product - np.diag(np.diagonal(product))
        assert np.max(np.abs(off_diag)) < 1e-9
        # Equal per-stream power.
        norms = np.linalg.norm(ps.p_private, axis=0) ** 2
        np.testing.assert_allclose(norms, 10.0 / 4.0, atol=1e-12)


class TestPowerBudget:
    def test_all_schemes_exact_budget(self):
        h = random_channel(5)
        e_tr = 10.0**1.5
        for text in (
            "zf",
            "rs-linear",
            "cthp",
            "dthp",
            "cthp-rs",
            "dthp-rs",
            "zf-dpc",
            "zf-dpc-rs",
        ):
            scheme = parse_scheme_tag(text)
            split = 0.3 if scheme.rs else 0.0
            ps = build_precoders(h, scheme, e_tr, 0.75, power_split=split)
            assert abs(effective_transmit_power(ps) - e_tr) < 1e-9 * e_tr

    def test_common_power_share(self):
        h = random_channel(6)
        ps = build_precoders(
            h, SchemeTag("dthp", rs=True), 100.0, 0.75, power_split=0.25
        )
        common_power = float(np.real(np.vdot(ps.p_common, ps.p_common)))
        assert abs(common_power - 25.0) < 1e-9
        assert abs(ps.e_private - 75.0) < 1e-9

    def test_common_direction_is_dominant(self):
        h = random_channel(7)
        ps = build_precoders(
            h, SchemeTag("zf", rs=True), 10.0, 0.75, power_split=0.5
        )
        _, s, vh = np.linalg.svd(h)
        direction = ps.p_common / np.linalg.norm(ps.p_common)
        assert np.abs(np.vdot(vh[0].conj(), direction)) > 1.0 - 1e-9


class TestReductions:
    def test_zero_split_matches_base_exactly(self):
        h = random_channel(8)
        for rs_text, base_text in (
            ("rs-linear", "zf"),
            ("cthp-rs", "cthp"),
            ("dthp-rs", "dthp"),
            ("zf-dpc-rs", "zf-dpc"),
        ):
            rs = build_precoders(h, parse_scheme_tag(rs_text), 31.0, 0.75)
            base = build_precoders(h, parse_scheme_tag(base_text), 31.0, 0.75)
            assert rs.p_common is None
            assert rs.p_private.tobytes() == base.p_private.tobytes()
            if rs.beta is not None:
                assert rs.beta == base.beta

    def test_zf_dpc_is_dthp_without_power_loss(self):
        h = random_channel(9)
        dpc = build_precoders(h, SchemeTag("zf-dpc"), 31.0, power_loss=0.6)
        dthp = build_precoders(h, SchemeTag("dthp"), 31.0, power_loss=1.0)
        assert dpc.lambda_eff == 1.0
        assert dpc.beta == dthp.beta
        assert dpc.p_private.tobytes() == dthp.p_private.tobytes()

    def test_small_split_is_continuous(self):
        # Rates at a vanishing split stay close to the zero-split rates.
        h = random_channel(10)
        zero_error = np.zeros((4, 4), dtype=complex)
        for text in ("rs-linear", "dthp-rs", "cthp-rs"):
            scheme = parse_scheme_tag(text)
            at_zero = rates_from_sinr(
                sinr_imperfect_csit(
                    build_precoders(h, scheme, 31.0, 0.75, 0.0),
                    zero_error,
                    1.0,
                )
            )
            tiny = rates_from_sinr(
                sinr_imperfect_csit(
                    build_precoders(h, scheme, 31.0, 0.75, 1e-6),
                    zero_error,
                    1.0,
                )
            )
            assert abs(tiny.sum_rate - at_zero.sum_rate) < 1e-3


class TestValidation:
    def test_split_on_non_rs_rejected(self):
        with pytest.raises(SchemeMismatchError):
            build_precoders(H2, SchemeTag("zf"), 10.0, 0.75, power_split=0.2)

    def test_split_range(self):
        with pytest.raises(ValueError):
            build_precoders(
                H2, SchemeTag("zf", rs=True), 10.0, 0.75, power_split=1.0
            )

    def test_power_loss_range(self):
        with pytest.raises(ValueError):
            build_precoders(H2, SchemeTag("dthp"), 10.0, 0.0)

    def test_deterministic(self):
        h = random_channel(11)
        a = build_precoders(h, SchemeTag("dthp", rs=True), 31.0, 0.75, 0.4)
        b = build_precoders(h, SchemeTag("dthp", rs=True), 31.0, 0.75, 0.4)
        assert a.p_private.tobytes() == b.p_private.tobytes()
        assert a.p_common.tobytes() == b.p_common.tobytes()
