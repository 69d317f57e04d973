"""Tests for channel/error generation and error regimes."""

import numpy as np
import pytest

from rsthp import (
    ErrorRegime,
    SchemeTag,
    SweepConfig,
    complex_gaussian,
    draw_error_ensemble,
    stream_rng,
)
from rsthp.channel import ERROR_STREAM, _error_states, unit_error_draws
from rsthp.exceptions import DimensionMismatchError, InvalidVarianceError
from rsthp.sweeps import average_sum_rate, draw_channel, ergodic_sum_rate


class TestErrorRegime:
    def test_perfect(self):
        regime = ErrorRegime.perfect()
        assert regime.is_perfect
        assert regime.variance_at(1000.0) == 0.0

    def test_fixed(self):
        regime = ErrorRegime.fixed_variance(0.2)
        assert regime.variance_at(10.0) == 0.2
        assert regime.variance_at(1e6) == 0.2

    def test_snr_scaled_identity(self):
        # The defining property: sigma_e2 * e_tr^alpha == 1.
        regime = ErrorRegime.snr_scaled(0.6)
        for snr_db in (0.0, 10.0, 15.0, 30.0):
            e_tr = 10.0 ** (snr_db / 10.0)
            assert abs(regime.variance_at(e_tr) * e_tr**0.6 - 1.0) < 1e-12

    def test_snr_scaled_value(self):
        e_tr = 10.0**1.5
        assert abs(ErrorRegime.snr_scaled(0.6).variance_at(e_tr) - e_tr**-0.6) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(InvalidVarianceError):
            ErrorRegime.fixed_variance(-0.1)

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidVarianceError):
                ErrorRegime.fixed_variance(bad)
            with pytest.raises(InvalidVarianceError):
                ErrorRegime.snr_scaled(bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ErrorRegime(kind="weird")


class TestDrawChannelSet:
    """The draws behind one channel: its estimate (draw_channel) and its
    CSIT error ensemble (draw_error_ensemble)."""

    def test_deterministic(self):
        a = draw_channel(42, 3, 4, 4)
        b = draw_channel(42, 3, 4, 4)
        assert a.tobytes() == b.tobytes()
        a = draw_error_ensemble(4, 4, 0.2, 10, seed=42, channel_index=3)
        b = draw_error_ensemble(4, 4, 0.2, 10, seed=42, channel_index=3)
        assert a.tobytes() == b.tobytes()

    def test_realization_prefix_stable(self):
        # Realization m is keyed by (seed, channel, m): asking for fewer
        # realizations must reproduce a prefix of the longer draw.
        long = draw_error_ensemble(4, 4, 0.2, 100, seed=7)
        short = draw_error_ensemble(4, 4, 0.2, 50, seed=7)
        np.testing.assert_array_equal(long[:50], short)

    def test_perfect_regime(self):
        regime = ErrorRegime.perfect()
        assert regime.variance_at(31.0) == 0.0
        assert not np.any(draw_error_ensemble(4, 4, 0.0, 5, seed=1))

    def test_pooled_error_variance(self):
        errors = draw_error_ensemble(4, 4, 0.2, 100, seed=11)
        pooled = float(np.mean(np.abs(errors) ** 2))
        assert 0.17 <= pooled <= 0.23

    def test_variance_scaling_shares_draws(self):
        # Same underlying unit draws at every variance, only the scale moves.
        small = draw_error_ensemble(4, 4, 0.1, 5, seed=3)
        large = draw_error_ensemble(4, 4, 0.4, 5, seed=3)
        np.testing.assert_allclose(large, 2.0 * small, atol=1e-15)

    def test_channel_independent_of_regime(self):
        # A sweep cell evaluates draw_channel's channel whatever the
        # regime; only the error ensemble changes.
        h = draw_channel(9, 0, 4, 4)
        noisy = ErrorRegime.fixed_variance(0.5)
        for regime, errors in (
            (ErrorRegime.perfect(), np.zeros((1, 4, 4), dtype=complex)),
            (noisy, draw_error_ensemble(4, 4, 0.5, 3, seed=9)),
        ):
            config = SweepConfig(
                schemes=(SchemeTag("zf"),), error_regime=regime,
                n_channels=1, n_error_samples=3, master_seed=9,
            )
            cell = ergodic_sum_rate(config, SchemeTag("zf"), 31.0, regime, 15.0)
            assert cell.esr == average_sum_rate(
                h, SchemeTag("zf"), 31.0, 0.75, 0.0, errors
            )

    def test_bad_dimensions(self):
        # The dimension and count checks on the channel draw live in
        # SweepConfig.validate, which runs before any draw.
        for bad in (
            dict(n_users=5, n_tx=4),
            dict(n_users=0),
            dict(n_channels=0),
            dict(n_error_samples=0),
        ):
            with pytest.raises(DimensionMismatchError):
                SweepConfig(**bad).validate()


class TestUnitDrawCache:
    """draw_error_ensemble scales the unit draws of unit_error_draws,
    which keeps nothing: neither may change a bit or leak state between
    calls."""

    @staticmethod
    def reference(sigma_e2, n_samples, seed, c, n_users=4, n_tx=4):
        # One complex_gaussian per realization.
        return np.stack([
            complex_gaussian(
                stream_rng(seed, ERROR_STREAM, c, m), (n_users, n_tx), sigma_e2
            )
            for m in range(n_samples)
        ])

    def test_bit_identical_to_per_realization_draws(self):
        for _ in range(2):  # each key asked for twice
            for c in (0, 5):
                for sigma_e2 in (0.0, 0.05, 0.2, 0.5, 31.0**-0.6):
                    got = draw_error_ensemble(4, 4, sigma_e2, 7, seed=12345, channel_index=c)
                    want = self.reference(sigma_e2, 7, 12345, c)
                    assert got.shape == want.shape
                    assert (got == want).all()
        got = draw_error_ensemble(2, 3, 0.3, 4, seed=8, channel_index=1)
        assert (got == self.reference(0.3, 4, 8, 1, 2, 3)).all()

    def test_bit_identical_on_every_shape(self):
        for n_users in range(1, 6):
            for n_tx in range(1, 6):
                got = draw_error_ensemble(n_users, n_tx, 0.3, 6, seed=2**32, channel_index=2**33)
                want = self.reference(0.3, 6, 2**32, 2**33, n_users, n_tx)
                assert got.shape == (6, n_users, n_tx)
                assert got.tobytes() == want.tobytes()

    def test_bit_identical_across_seed_blocks(self):
        # Past the 1,024 realizations whose keys one pass hashes at most.
        n_samples = 1024 + 3
        got = draw_error_ensemble(2, 3, 0.2, n_samples, seed=5, channel_index=1)
        assert got.tobytes() == self.reference(0.2, n_samples, 5, 1, 2, 3).tobytes()

    def test_bit_identical_across_short_passes_and_into_out(self):
        # Many antennas draw fewer realizations a pass than a seed block
        # (256 at K = N = 8, one at K N > 2**14), so a pass holds part of
        # one channel, and few draws let a pass hold several whole
        # channels (5 of 7 draws at K = N = 4), with the same bits; a lone
        # channel may have a two-word index. Each channel's slice is its
        # ensemble, in a fresh array or in out, which is returned. At
        # variance 2 the reference is unscaled.
        for n_users, n_tx, n_samples, channels in (
            (8, 8, 300, range(1, 2)), (1, 20_000, 3, range(1, 2)), (8, 8, 300, range(1, 4)),
            (4, 4, 7, range(0, 5)), (3, 5, 4, range(2**33, 2**33 + 1)),
        ):
            want = [self.reference(2.0, n_samples, 5, c, n_users, n_tx) for c in channels]
            shape = (len(channels), n_samples, n_users, n_tx)
            for out in (None, np.empty(shape, dtype=complex)):
                got = unit_error_draws(n_users, n_tx, n_samples, 5, channels, out)
                assert got.shape == shape and (out is None or got is out)
                assert [draws.tobytes() for draws in got] == [w.tobytes() for w in want]

    def test_negative_key_parts_raise_and_no_draws_are_empty(self):
        for seed, c in ((-1, 0), (0, -1), (-(2**40), 3)):
            with pytest.raises(ValueError, match="non-negative"):
                draw_error_ensemble(4, 4, 0.2, 3, seed=seed, channel_index=c)
        empty = draw_error_ensemble(3, 4, 0.2, 0, seed=1, channel_index=2)
        assert empty.shape == (0, 3, 4)
        for start, stop in ((-1, 2), (2**32 - 1, 2**32 + 1)):
            with pytest.raises(ValueError, match="realization indices"):
                _error_states(1, range(2, 3), start, stop)

    def test_returned_array_is_fresh_and_writable(self):
        first = draw_error_ensemble(4, 4, 0.2, 5, seed=3, channel_index=2)
        expected = first.copy()
        assert first.flags.writeable
        first[...] = 99.0
        second = draw_error_ensemble(4, 4, 0.2, 5, seed=3, channel_index=2)
        assert (second == expected).all()
        assert second is not first
        unit = unit_error_draws(4, 4, 5, 3, range(2, 3))
        assert unit.flags.writeable
        unit[...] = 99.0
        unit = unit_error_draws(4, 4, 5, 3, range(2, 3))[0]
        assert (np.sqrt(0.2 / 2.0) * unit == expected).all()

    def test_prefix_and_scaling_on_a_warm_cache(self):
        # Each key is read twice in a row, and both reads agree.
        draws = {}
        for name, sigma_e2, n_samples, seed in (
            ("long", 0.2, 100, 7), ("short", 0.2, 50, 7),
            ("small", 0.1, 5, 3), ("large", 0.4, 5, 3),
        ):
            cold = draw_error_ensemble(4, 4, sigma_e2, n_samples, seed=seed)
            draws[name] = draw_error_ensemble(4, 4, sigma_e2, n_samples, seed=seed)
            np.testing.assert_array_equal(draws[name], cold)
        np.testing.assert_array_equal(draws["long"][:50], draws["short"])
        np.testing.assert_allclose(draws["large"], 2.0 * draws["small"], atol=1e-15)
        np.testing.assert_array_equal(
            unit_error_draws(4, 4, 5, 3, range(1))[0] * np.sqrt(0.1 / 2.0), draws["small"]
        )

    def test_bad_variance_rejected_after_caching(self):
        draw_error_ensemble(4, 4, 0.2, 5, seed=4)
        for bad in (-0.1, float("inf"), float("nan")):
            with pytest.raises(InvalidVarianceError):
                draw_error_ensemble(4, 4, bad, 5, seed=4)
