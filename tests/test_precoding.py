"""Tests for precoder construction.

The 2x2 hand examples pin the feedback-matrix conventions: for a lower
triangular channel the factorization is trivial, so every filter can be
written down by hand.
"""

import dataclasses

import numpy as np
import pytest

from rsthp import (
    SchemeTag,
    build_precoders,
    parse_scheme_tag,
    rates_from_sinr,
    sinr_imperfect_csit,
)
from rsthp import linalg, precoding
from rsthp.exceptions import (
    NonFiniteMatrixError,
    RankDeficientError,
    SchemeMismatchError,
    ZeroMatrixError,
)
from rsthp.linalg import lq_decompose
from rsthp.precoding import ALL_SCHEME_TAGS, PrecoderSet

from helpers import random_channel


def power_loss_factor(scheme, power_loss):
    """The modulo power loss lambda a build of scheme applies: power_loss
    for a modulo scheme (cthp, dthp), 1 otherwise."""
    return power_loss if scheme.uses_power_loss else 1.0


def effective_transmit_power(precoders, power_loss):
    """Average radiated power of the transmit chain for this precoder set.

    The private signal on the air is tx_basis times the feedback outputs
    (the private symbols for zero-forcing), whose per-symbol power is
    1 / lambda (1 for zero-forcing and zf-dpc); the feedback inverse
    never touches the air, so its energy does not count.
    """
    common = 0.0
    if precoders.p_common is not None:
        common = float(np.real(np.vdot(precoders.p_common, precoders.p_common)))
    private = float(np.sum(np.abs(precoders.tx_basis) ** 2)) / power_loss_factor(
        precoders.scheme, power_loss
    )
    return common + private


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
        # Equal per-stream power beta^2 = e_tr / K, no receiver gain.
        norms = np.linalg.norm(ps.p_private, axis=0) ** 2
        np.testing.assert_allclose(norms, 10.0 / 4.0, atol=1e-12)
        assert ps.beta == np.sqrt(10.0 / 4.0)
        assert ps.rx_gain.tobytes() == np.ones(4).tobytes()


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
            assert abs(effective_transmit_power(ps, 0.75) - e_tr) < 1e-9 * e_tr

    def test_common_power_share(self):
        h = random_channel(6)
        ps = build_precoders(
            h, SchemeTag("dthp", rs=True), 100.0, 0.75, power_split=0.25
        )
        common_power = float(np.real(np.vdot(ps.p_common, ps.p_common)))
        assert abs(common_power - 25.0) < 1e-9
        private_power = effective_transmit_power(ps, 0.75) - common_power
        assert abs(private_power - 75.0) < 1e-9

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
            assert rs.beta == base.beta

    def test_zf_dpc_is_dthp_without_power_loss(self):
        h = random_channel(9)
        dpc = build_precoders(h, SchemeTag("zf-dpc"), 31.0, power_loss=0.6)
        dthp = build_precoders(h, SchemeTag("dthp"), 31.0, power_loss=1.0)
        assert not dpc.scheme.uses_power_loss
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

    def test_power_range(self):
        # A power that is not finite and > 0 would give a NaN or zero
        # scale beta, or fail inside a square root.
        for e_tr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="e_tr must be finite and > 0"):
                build_precoders(H2, SchemeTag("zf", rs=True), e_tr, 0.75, 0.5)

    def test_deterministic(self):
        h = random_channel(11)
        a = build_precoders(h, SchemeTag("dthp", rs=True), 31.0, 0.75, 0.4)
        b = build_precoders(h, SchemeTag("dthp", rs=True), 31.0, 0.75, 0.4)
        assert a.p_private.tobytes() == b.p_private.tobytes()
        assert a.p_common.tobytes() == b.p_common.tobytes()


def reference_precoders(h_est, scheme, e_tr, power_loss, power_split=0.0):
    """The build before the geometry cache, every factor made afresh:
    LQ and inv(B) directly, the pseudo-inverse and the direction from
    their own uncached SVD."""
    h_est = np.asarray(h_est, dtype=complex)
    n_users = h_est.shape[0]
    u, s, vh = np.linalg.svd(h_est, full_matrices=False)
    v = vh[0].conj()
    anchor = np.flatnonzero(np.abs(v) > 1e-6)[0]
    direction = v * (np.conj(v[anchor]) / np.abs(v[anchor]))
    if power_split > 0.0:
        common_power = power_split * e_tr
        p_common = np.sqrt(common_power) * direction
        e_private = e_tr - float(np.real(np.vdot(p_common, p_common)))
    else:
        common_power, p_common = 0.0, None
        e_private = float(e_tr)
    lambda_eff = power_loss if scheme.uses_power_loss else 1.0
    if scheme.base == "zf":
        pinv = (vh.conj().T / s) @ u.conj().T
        unit_map = pinv / np.linalg.norm(pinv, axis=0, keepdims=True)
        unit_power, rx_gain = n_users, np.ones(n_users)
        g_diag = b_matrix = None
        unit_private = unit_map
    else:
        lq = lq_decompose(h_est)
        unit_map = lq.q_matrix.conj().T
        g_diag = 1.0 / lq.diagonal
        if scheme.base == "cthp":
            b_matrix = lq.l_matrix * g_diag[np.newaxis, :]
            unit_map = unit_map * g_diag[np.newaxis, :]
            unit_power, rx_gain = np.sum(g_diag**2), np.ones(n_users)
        else:
            b_matrix = lq.l_matrix * g_diag[:, np.newaxis]
            unit_power, rx_gain = n_users, g_diag
        unit_private = unit_map @ np.linalg.inv(b_matrix)
    beta = float(np.sqrt(lambda_eff * e_private / unit_power))
    # lambda enters the build only through beta.
    return dict(
        scheme=scheme, p_common=p_common, p_private=beta * unit_private,
        unit_map=unit_map, unit_private=unit_private, tx_basis=beta * unit_map,
        rx_gain=rx_gain, g_diag=g_diag, b_matrix=b_matrix, beta=beta,
        h_est=h_est, common_power=common_power, direction=direction,
        unit_power=unit_power,
    )


def assert_same_fields(ps, want):
    for name, value in want.items():
        on_record = name in ("unit_map", "unit_private", "unit_power", "direction")
        got = getattr(ps.geometry if on_record else ps, name)
        if isinstance(value, np.ndarray):
            assert got.shape == value.shape, name
            assert (got == value).all(), name
        else:
            assert got == value, name


class TestGeometryCache:
    """build_precoders rescales a cached per-channel geometry; every
    field must stay bit for bit what the uncached build gives."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        precoding._geometry.cache_clear()
        linalg._anchored_direction.cache_clear()
        yield
        precoding._geometry.cache_clear()
        linalg._anchored_direction.cache_clear()

    def test_cold_and_warm_builds_match_uncached_build(self):
        # The cache holds one channel's geometry, so each warm build
        # follows its cold build on the same channel.
        channels = [random_channel(70), random_channel(71, (3, 5))]
        for h in channels:
            for _ in range(2):  # cold, then warm
                for scheme in ALL_SCHEME_TAGS:
                    splits = (0.0, 0.05, 0.5, 0.95) if scheme.rs else (0.0,)
                    for e_tr in (1.0, 1000.0):
                        for t in splits:
                            ps = build_precoders(h, scheme, e_tr, 0.75, t)
                            want = reference_precoders(h, scheme, e_tr, 0.75, t)
                            assert_same_fields(ps, want)
        info = precoding._geometry.cache_info()
        assert info.misses == len(channels)
        assert info.currsize == 1

    def test_one_entry_per_channel_shared_by_dthp_and_zf_dpc(self):
        h = random_channel(74)
        builds = {
            base: build_precoders(h, SchemeTag(base), 10.0, 0.75)
            for base in ("zf", "cthp", "dthp", "zf-dpc")
        }
        assert precoding._geometry.cache_info().currsize == 1
        assert builds["dthp"].b_matrix is builds["zf-dpc"].b_matrix
        assert builds["dthp"].rx_gain is builds["zf-dpc"].rx_gain
        assert builds["dthp"].geometry.unit_private is builds["zf-dpc"].geometry.unit_private
        assert builds["cthp"].g_diag is builds["dthp"].g_diag
        assert builds["cthp"].b_matrix is not builds["dthp"].b_matrix

    def test_every_build_of_a_channel_shares_its_bases_one_geometry_record(self):
        # Splits and SNRs move only beta and P: every build of one base
        # on one channel holds the same record, dthp's and zf-dpc's are
        # one, and cthp's (g in the unit map) and zf's are their own.
        h = random_channel(78)
        records = {}
        for scheme in ALL_SCHEME_TAGS:
            for e_tr in (1.0, 31.0, 1000.0):
                for t in (0.0, 0.3, 0.95) if scheme.rs else (0.0,):
                    ps = build_precoders(h, scheme, e_tr, 0.75, t)
                    assert records.setdefault(scheme.base, ps.geometry) is ps.geometry
        assert records["dthp"] is records["zf-dpc"]
        distinct = {id(records[base]) for base in ("zf", "cthp", "dthp")}
        assert len(distinct) == 3
        assert precoding._geometry.cache_info().misses == 1

    def test_each_scheme_is_its_scalars_on_the_reference_geometry(self):
        # A build holds only beta, P and a reference to its channel's
        # record, and every field the old build held reads the same bits.
        assert [f.name for f in dataclasses.fields(PrecoderSet)] == [
            "scheme", "beta", "common_power", "geometry",
        ]
        for h in (random_channel(79), random_channel(80, (2, 5))):
            for scheme in ALL_SCHEME_TAGS:
                for t in (0.0, 0.5) if scheme.rs else (0.0,):
                    ps = build_precoders(h, scheme, 31.0, 0.75, t)
                    assert_same_fields(ps, reference_precoders(h, scheme, 31.0, 0.75, t))
                    assert ps.geometry is build_precoders(
                        h, SchemeTag(scheme.base), 31.0, 0.75
                    ).geometry

    def test_shared_arrays_are_read_only(self):
        h = random_channel(72)
        for scheme in ALL_SCHEME_TAGS:
            ps = build_precoders(h, scheme, 10.0, 0.75, 0.3 if scheme.rs else 0.0)
            geometry = ps.geometry
            shared = (ps.rx_gain, ps.g_diag, ps.b_matrix, geometry.unit_map, geometry.unit_private)
            for array in shared:
                assert array is None or not array.flags.writeable
            assert ps.p_private.flags.writeable and ps.tx_basis.flags.writeable
            with pytest.raises(ValueError):
                ps.rx_gain[0] = 2.0

    def test_splits_share_one_geometry_and_get_fresh_precoders(self):
        h = random_channel(77)
        for scheme in ALL_SCHEME_TAGS:
            t = 0.4 if scheme.rs else 0.0
            a = build_precoders(h, scheme, 10.0, 0.75)
            b = build_precoders(h, scheme, 1000.0, 0.75, t)
            assert a.geometry is b.geometry
            for name in ("tx_basis", "p_private"):
                fresh = getattr(b, name)
                assert fresh.flags.writeable
                for other in (getattr(b, name), b.geometry.unit_map, b.geometry.unit_private):
                    assert not np.shares_memory(fresh, other)

    def test_unit_private_is_the_split_invariant_private_precoder(self):
        # The SINR kernel rates every split from h @ unit_private alone.
        for h in (random_channel(75), random_channel(76, (3, 5))):
            for scheme in ALL_SCHEME_TAGS:
                for t in (0.0, 0.3, 0.95) if scheme.rs else (0.0,):
                    ps = build_precoders(h, scheme, 31.0, 0.75, t)
                    unit_private = ps.geometry.unit_private
                    assert np.array_equal(ps.p_private, ps.beta * unit_private)
                    assert np.array_equal(ps.tx_basis, ps.beta * ps.geometry.unit_map)
                    if scheme.base != "zf":
                        np.testing.assert_allclose(
                            h @ unit_private, np.diag(1.0 / ps.rx_gain),
                            rtol=0.0, atol=1e-12,
                        )

    def test_mutated_channel_gets_a_fresh_geometry(self):
        h = random_channel(73)
        for scheme in (SchemeTag("zf"), SchemeTag("cthp"), SchemeTag("dthp", rs=True)):
            t = 0.2 if scheme.rs else 0.0
            before = build_precoders(h, scheme, 10.0, 0.75, t)
            h_new = h.copy()
            h_new[1, 2] += 0.5
            after = build_precoders(h_new, scheme, 10.0, 0.75, t)
            assert_same_fields(after, reference_precoders(h_new, scheme, 10.0, 0.75, t))
            assert not (after.p_private == before.p_private).all()
        # The caller's own array, changed in place after a build: the
        # first build keeps its channel and direction, the next gets a
        # fresh record.
        scheme, kept = SchemeTag("dthp", rs=True), h.copy()
        old = build_precoders(h, scheme, 10.0, 0.75, 0.2)
        h[0, 0] += 1.0
        ps = build_precoders(h, scheme, 10.0, 0.75, 0.2)
        assert ps.geometry is not old.geometry
        assert_same_fields(ps, reference_precoders(h, scheme, 10.0, 0.75, 0.2))
        assert_same_fields(old, reference_precoders(kept, scheme, 10.0, 0.75, 0.2))
        assert not (ps.p_private == old.p_private).all()
        assert not (ps.geometry.direction == old.geometry.direction).all()

    def test_a_build_keeps_its_channel_when_the_caller_changes_it(self):
        h = random_channel(83)
        kept = h.copy()
        ps = build_precoders(h, SchemeTag("cthp", rs=True), 10.0, 0.75, 0.3)
        assert not np.shares_memory(ps.h_est, h)
        with pytest.raises(ValueError):
            ps.h_est[0, 0] = 0.0
        h[0, 0] += 1.0
        assert np.array_equal(ps.h_est, kept)

    def test_a_channels_records_share_its_estimate_and_direction(self):
        # Each record reads d from linalg's cache on first use, so a
        # build without a common stream takes no SVD for it, and every
        # base gets the one array with the bits of the public function.
        h = random_channel(82, (3, 5))
        records = [build_precoders(h, SchemeTag(base), 10.0, 0.75).geometry
                   for base in ("zf", "cthp", "dthp")]
        assert linalg._anchored_direction.cache_info().misses == 0
        d = linalg.dominant_right_singular_vector(h)
        for record in records:
            assert record.h_est is records[0].h_est
            assert record.direction is records[0].direction
            assert record.direction.tobytes() == d.tobytes()
            assert not record.direction.flags.writeable
        assert linalg._anchored_direction.cache_info().misses == 1

    def test_a_nonzero_split_leaves_the_direction_on_its_record(self):
        # linalg's one-entry cache moves on with the next channel, so the
        # build that takes d keeps it on its record for the rate kernel;
        # builds with no common stream, and other records, keep none.
        h = random_channel(85)
        for ps in (build_precoders(h, SchemeTag("cthp", rs=True), 10.0, 0.75, 0.0),
                   build_precoders(h, SchemeTag("cthp"), 10.0, 0.75)):
            assert "direction" not in vars(ps.geometry)
        ps = build_precoders(h, SchemeTag("cthp", rs=True), 10.0, 0.75, 0.4)
        d = linalg.dominant_right_singular_vector(h)
        assert vars(ps.geometry)["direction"].tobytes() == d.tobytes()
        assert "direction" not in vars(build_precoders(h, SchemeTag("zf"), 10.0, 0.75).geometry)

    def test_builds_compare_by_identity(self):
        # A field-by-field comparison would compare h_est element-wise
        # and raise numpy's ambiguous-truth ValueError.
        h = random_channel(84)
        for scheme in ALL_SCHEME_TAGS:
            t = 0.3 if scheme.rs else 0.0
            ps = build_precoders(h, scheme, 10.0, 0.75, t)
            assert ps == ps
            assert ps != build_precoders(h.copy(), scheme, 10.0, 0.75, t)

    def test_non_finite_channel_is_refused_by_every_scheme(self):
        # A channel with a NaN or an infinity used to give a finite beta
        # over NaN geometry (inf) or numpy's LinAlgError (NaN).
        for bad in (np.nan, np.inf):
            h = random_channel(81)
            h[2, 1] = bad
            for scheme in ALL_SCHEME_TAGS:
                with pytest.raises(NonFiniteMatrixError):
                    build_precoders(h, scheme, 10.0, 0.75, 0.5 if scheme.rs else 0.0)
        assert precoding._geometry.cache_info().currsize == 0

    def test_bad_channel_raises_on_every_call(self):
        rank_one = np.outer([1.0, 2.0], [1.0, 1j, 0.5])
        for _ in range(2):
            for base in ("zf", "cthp", "dthp", "zf-dpc"):
                with pytest.raises(RankDeficientError):
                    build_precoders(rank_one, SchemeTag(base), 10.0, 0.75)
                with pytest.raises(ZeroMatrixError):
                    build_precoders(np.zeros((2, 3)), SchemeTag(base), 10.0, 0.75)
        assert precoding._geometry.cache_info().currsize == 0
