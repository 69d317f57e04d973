"""Tests for the Monte-Carlo sweep layer."""

import numpy as np
import pytest

from rsthp import (
    ErrorRegime,
    SchemeTag,
    SweepConfig,
    draw_error_ensemble,
    parse_scheme_tag,
    run_sweep,
    snr_db_to_power,
)
from rsthp.exceptions import EmptyGridError, InvalidVarianceError, SchemeMismatchError
from rsthp.sweeps import (
    average_sum_rate,
    default_power_split_grid,
    draw_channel,
    ergodic_sum_rate,
    optimize_power_split,
)

FIXED = ErrorRegime.fixed_variance(0.2)
PERFECT = ErrorRegime.perfect()
NO_ERROR = np.zeros((1, 4, 4), dtype=complex)


def channel_for(seed, index):
    return draw_channel(seed, index, 4, 4)


def small_config(**overrides):
    defaults = dict(
        schemes=(parse_scheme_tag("zf"), parse_scheme_tag("dthp-rs")),
        error_regime=FIXED,
        snr_grid_db=(15.0,),
        n_channels=4,
        n_error_samples=10,
        power_split_grid=(0.0, 0.1, 0.2, 0.3),
        master_seed=12345,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class TestAverageSumRate:
    def test_zero_variance_matches_perfect(self):
        h = channel_for(8, 0)
        degenerate = average_sum_rate(
            h, SchemeTag("dthp"), 31.0, 0.75, 0.0,
            draw_error_ensemble(4, 4, 0.0, 100, seed=8),
        )
        perfect = average_sum_rate(
            h, SchemeTag("dthp"), 31.0, 0.75, 0.0, NO_ERROR
        )
        assert abs(degenerate - perfect) < 1e-12


class TestOptimizePowerSplit:
    def test_degenerate_grid(self):
        h = channel_for(10, 0)
        errors = draw_error_ensemble(4, 4, 0.2, 20, seed=10)
        split, asr = optimize_power_split(
            h, SchemeTag("dthp", rs=True), 31.0, 0.75, (0.0,), errors
        )
        base = average_sum_rate(
            h, SchemeTag("dthp", rs=True), 31.0, 0.75, 0.0, errors
        )
        assert split == 0.0
        assert abs(asr - base) < 1e-12

    def test_matches_manual_argmax(self):
        h = channel_for(11, 0)
        grid = default_power_split_grid()
        errors = draw_error_ensemble(4, 4, 0.2, 30, seed=11, channel_index=0)
        split, asr = optimize_power_split(
            h, SchemeTag("dthp", rs=True), 31.0, 0.75, grid, errors
        )
        values = [
            average_sum_rate(
                h, SchemeTag("dthp", rs=True), 31.0, 0.75, t, errors
            )
            for t in grid
        ]
        best = int(np.argmax(values))
        assert split == grid[best]
        assert asr == values[best]

    def test_never_below_zero_split(self):
        for seed in range(6):
            h = channel_for(seed + 100, 0)
            errors = draw_error_ensemble(4, 4, 0.3, 20, seed=seed + 100,
                                         channel_index=0)
            _, asr = optimize_power_split(
                h, SchemeTag("zf", rs=True), 31.0, 0.75,
                default_power_split_grid(), errors,
            )
            base = average_sum_rate(
                h, SchemeTag("zf", rs=True), 31.0, 0.75, 0.0, errors
            )
            assert asr >= base - 1e-12

    def test_perfect_csit_prefers_small_split(self):
        # With perfect knowledge the private streams already reach full
        # multiplexing gain, so little power should go to the common one.
        for seed in range(5):
            h = channel_for(seed + 200, 0)
            split, _ = optimize_power_split(
                h, SchemeTag("dthp", rs=True), snr_db_to_power(30.0), 0.75,
                default_power_split_grid(), NO_ERROR,
            )
            assert split <= 0.2

    def test_rejects_misuse(self):
        h = channel_for(12, 0)
        with pytest.raises(EmptyGridError):
            optimize_power_split(
                h, SchemeTag("dthp", rs=True), 31.0, 0.75, (), NO_ERROR
            )
        with pytest.raises(SchemeMismatchError):
            optimize_power_split(
                h, SchemeTag("dthp"), 31.0, 0.75, (0.0, 0.1), NO_ERROR
            )


class TestSweepConfig:
    def test_x_kind(self):
        assert small_config().x_kind == "snr_db"
        assert small_config(
            error_regime=ErrorRegime.snr_scaled(0.6)
        ).x_kind == "snr_db_alpha"
        assert small_config(
            error_variance_grid=(0.1, 0.2), snr_grid_db=(15.0,)
        ).x_kind == "error_variance"

    def test_validate_rejects_bad_grids(self):
        with pytest.raises(EmptyGridError):
            small_config(schemes=()).validate()
        with pytest.raises(EmptyGridError):
            small_config(power_split_grid=()).validate()
        with pytest.raises(EmptyGridError):
            small_config(snr_grid_db=()).validate()
        with pytest.raises(EmptyGridError):
            small_config(
                error_variance_grid=(0.1,), snr_grid_db=(10.0, 15.0)
            ).validate()

    def test_validate_rejects_out_of_range_values(self):
        nan = float("nan")
        for bad, error in (
            (dict(power_split_grid=(0.0, 1.5)), ValueError),
            (dict(power_split_grid=(-0.1,)), ValueError),
            (dict(power_split_grid=(nan,)), ValueError),
            (dict(power_loss=0.0), ValueError),
            (dict(power_loss=1.5), ValueError),
            (dict(snr_grid_db=(nan,)), ValueError),
            (dict(snr_grid_db=(float("inf"),)), ValueError),
            (dict(error_variance_grid=(0.1, -0.1)), InvalidVarianceError),
            (dict(error_variance_grid=(nan,)), InvalidVarianceError),
            # Repeats would be computed again and written as duplicate rows.
            (dict(schemes=(parse_scheme_tag("zf"),) * 2), ValueError),
            (dict(snr_grid_db=(15.0, 15.0)), ValueError),
            (dict(error_variance_grid=(0.1, 0.1), error_regime=PERFECT), ValueError),
        ):
            with pytest.raises(error):
                small_config(**bad).validate()

    def test_validate_accepts_edges(self):
        small_config(
            n_users=1, n_channels=1, n_error_samples=1, power_loss=1.0,
            power_split_grid=(0.0, 0.95), error_variance_grid=(0.0, 0.5),
            error_regime=PERFECT,
        ).validate()

    def test_validate_rejects_regime_with_variance_grid(self):
        # A variance sweep sets its own error variances, so any other
        # regime would be recorded in the sidecar without being used.
        for regime in (FIXED, ErrorRegime.snr_scaled(0.6)):
            with pytest.raises(ValueError, match="perfect error_regime"):
                small_config(
                    error_regime=regime, error_variance_grid=(0.1,)
                ).validate()


class TestErgodicSumRate:
    def test_single_channel_is_plain_average(self):
        cfg = small_config(n_channels=1)
        cell = ergodic_sum_rate(
            cfg, SchemeTag("zf"), snr_db_to_power(15.0), FIXED, 15.0
        )
        h = channel_for(cfg.master_seed, 0)
        errors = draw_error_ensemble(
            4, 4, 0.2, cfg.n_error_samples, cfg.master_seed, channel_index=0
        )
        asr = average_sum_rate(
            h, SchemeTag("zf"), snr_db_to_power(15.0), 0.75, 0.0, errors
        )
        assert cell.esr == asr
        assert cell.ci_halfwidth == 0.0

    def test_ci_matches_sample_std(self):
        cfg = small_config(n_channels=8)
        cell = ergodic_sum_rate(
            cfg, SchemeTag("zf"), snr_db_to_power(15.0), FIXED, 15.0
        )
        asr = np.array(cell.per_channel_asr)
        assert abs(cell.esr - float(np.mean(asr))) < 1e-12
        expected = 1.96 * float(np.std(asr, ddof=1)) / np.sqrt(8)
        assert abs(cell.ci_halfwidth - expected) < 1e-12

    def test_perfect_regime_uses_one_realization(self):
        # No error averaging under perfect CSIT: n_error_samples must
        # not affect the result.
        a = ergodic_sum_rate(
            small_config(error_regime=PERFECT, n_error_samples=3),
            SchemeTag("dthp"), 31.0, PERFECT, 15.0,
        )
        b = ergodic_sum_rate(
            small_config(error_regime=PERFECT, n_error_samples=300),
            SchemeTag("dthp"), 31.0, PERFECT, 15.0,
        )
        assert a.esr == b.esr


class TestRunSweep:
    def test_deterministic_repeat(self):
        cfg = small_config(snr_grid_db=(10.0, 15.0))
        first = run_sweep(cfg)
        second = run_sweep(cfg)
        assert first.cells == second.cells
        assert first.config.x_kind == "snr_db"

    def test_cell_order_and_coverage(self):
        cfg = small_config(snr_grid_db=(10.0, 15.0))
        result = run_sweep(cfg)
        keys = [(c.scheme_tag, c.x_value) for c in result.cells]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_serial_matches_parallel(self):
        cfg = small_config(snr_grid_db=(10.0, 15.0))
        serial = run_sweep(cfg, n_jobs=1)
        parallel = run_sweep(cfg, n_jobs=2)
        assert serial.cells == parallel.cells

    def test_variance_sweep_axis(self):
        cfg = small_config(
            error_variance_grid=(0.1, 0.3),
            snr_grid_db=(15.0,),
            schemes=(parse_scheme_tag("zf"),),
            error_regime=PERFECT,
        )
        result = run_sweep(cfg)
        assert [c.x_value for c in result.cells] == [0.1, 0.3]
        assert result.config.x_kind == "error_variance"

    def test_common_random_numbers_across_schemes(self):
        # Every scheme sees the same channels and the same error draws,
        # so per-channel ASR differences are paired comparisons.
        cfg = small_config(snr_grid_db=(15.0,))
        result = run_sweep(cfg)
        by_tag = {c.scheme_tag: c for c in result.cells}
        e_tr = snr_db_to_power(15.0)
        for c in range(cfg.n_channels):
            h = channel_for(cfg.master_seed, c)
            errors = draw_error_ensemble(
                4, 4, 0.2, cfg.n_error_samples, cfg.master_seed, channel_index=c
            )
            recomputed = average_sum_rate(
                h, SchemeTag("zf"), e_tr, 0.75, 0.0, errors
            )
            assert by_tag["zf"].per_channel_asr[c] == recomputed

    def test_validates_before_running(self):
        with pytest.raises(EmptyGridError):
            run_sweep(small_config(power_split_grid=()))

    def test_rejects_jobs_below_one(self):
        for n_jobs in (0, -3):
            with pytest.raises(ValueError):
                run_sweep(small_config(), n_jobs=n_jobs)


class TestStatisticalStability:
    def test_two_seed_concordance(self):
        # Frozen at 200 channels after measuring: the seed-to-seed gap
        # is ~1.5% there, so 5% has real headroom.
        for tag in ("zf", "dthp-rs"):
            values = []
            for seed in (12345, 99999):
                cfg = SweepConfig(
                    schemes=(parse_scheme_tag(tag),),
                    error_regime=FIXED,
                    snr_grid_db=(15.0,),
                    n_channels=200,
                    n_error_samples=50,
                    master_seed=seed,
                )
                values.append(run_sweep(cfg).cells[0].esr)
            assert abs(values[0] - values[1]) / values[0] < 0.05
