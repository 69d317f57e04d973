"""Tests for the Monte-Carlo sweep layer."""

import math
import multiprocessing
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rsthp import (
    ErrorRegime,
    SchemeTag,
    SweepConfig,
    build_precoders,
    draw_error_ensemble,
    parse_scheme_tag,
    run_sweep,
    snr_db_to_power,
)
from rsthp import channel, precoding, rates, sweeps
from rsthp.exceptions import (
    DimensionMismatchError,
    EmptyGridError,
    InvalidVarianceError,
    SaturatedSinrError,
    SchemeMismatchError,
    ZeroMatrixError,
)
from rsthp.rates import sinr_perfect_csit, sum_rate_samples
from rsthp.sweeps import (
    SIGMA_N2,
    average_sum_rate,
    default_power_split_grid,
    draw_channel,
    ergodic_sum_rate,
    optimize_power_split,
)

from helpers import count_factorizations, recorded_calls, recording_pool

FIXED = ErrorRegime.fixed_variance(0.2)
PERFECT = ErrorRegime.perfect()
NO_ERROR = np.zeros((1, 4, 4), dtype=complex)
NO_DRAWS = draw_error_ensemble(4, 4, 0.2, 0, 1, 0)
DTHP_RS = SchemeTag("dthp", rs=True)


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
        degenerate = average_sum_rate(h, SchemeTag("dthp"), 31.0, 0.75, 0.0,
                                      draw_error_ensemble(4, 4, 0.0, 100, seed=8))
        perfect = average_sum_rate(h, SchemeTag("dthp"), 31.0, 0.75, 0.0, NO_ERROR)
        assert abs(degenerate - perfect) < 1e-12

    def test_empty_ensemble_is_rejected(self):
        # A mean over no draws would be NaN, not a rate.
        with pytest.raises(DimensionMismatchError):
            average_sum_rate(channel_for(8, 0), SchemeTag("dthp"), 10.0, 0.75,
                             0.0, NO_DRAWS)


class TestOptimizePowerSplit:
    def test_degenerate_grid(self):
        h = channel_for(10, 0)
        errors = draw_error_ensemble(4, 4, 0.2, 20, seed=10)
        split, asr = optimize_power_split(h, DTHP_RS, 31.0, 0.75, (0.0,), errors)
        base = average_sum_rate(h, DTHP_RS, 31.0, 0.75, 0.0, errors)
        assert split == 0.0
        assert abs(asr - base) < 1e-12

    def test_matches_manual_argmax(self):
        h = channel_for(11, 0)
        grid = default_power_split_grid()
        errors = draw_error_ensemble(4, 4, 0.2, 30, seed=11, channel_index=0)
        split, asr = optimize_power_split(h, DTHP_RS, 31.0, 0.75, grid, errors)
        values = [average_sum_rate(h, DTHP_RS, 31.0, 0.75, t, errors) for t in grid]
        best = int(np.argmax(values))
        assert split == grid[best]
        assert asr == values[best]

    def test_never_below_zero_split(self):
        for seed in range(6):
            h = channel_for(seed + 100, 0)
            errors = draw_error_ensemble(4, 4, 0.3, 20, seed=seed + 100, channel_index=0)
            _, asr = optimize_power_split(h, SchemeTag("zf", rs=True), 31.0, 0.75,
                                          default_power_split_grid(), errors)
            base = average_sum_rate(h, SchemeTag("zf", rs=True), 31.0, 0.75, 0.0, errors)
            assert asr >= base - 1e-12

    def test_perfect_csit_prefers_small_split(self):
        # With perfect knowledge the private streams already reach full
        # multiplexing gain, so little power should go to the common one.
        for seed in range(5):
            h = channel_for(seed + 200, 0)
            split, _ = optimize_power_split(h, DTHP_RS, snr_db_to_power(30.0), 0.75,
                                            default_power_split_grid(), NO_ERROR)
            assert split <= 0.2

    def test_rejects_misuse(self):
        h = channel_for(12, 0)
        with pytest.raises(EmptyGridError):
            optimize_power_split(h, DTHP_RS, 31.0, 0.75, (), NO_ERROR)
        with pytest.raises(SchemeMismatchError):
            optimize_power_split(h, SchemeTag("dthp"), 31.0, 0.75, (0.0, 0.1), NO_ERROR)
        # The first of equal maxima is the smaller split only on an
        # ascending grid without repeats.
        for grid in ((0.1, 0.0), (0.0, 0.1, 0.1)):
            with pytest.raises(ValueError, match="must ascend"):
                optimize_power_split(h, DTHP_RS, 31.0, 0.75, grid, NO_ERROR)

    def test_empty_ensemble_is_rejected(self):
        # Every split would average to NaN and the search return no split.
        with pytest.raises(DimensionMismatchError):
            optimize_power_split(channel_for(12, 0), DTHP_RS, 10.0, 0.75, (0.0, 0.5), NO_DRAWS)

    def test_saturation_at_one_split_aborts_the_search(self, monkeypatch):
        # A cap between the two splits' largest SINRs saturates one split
        # only; the search must not average the other split's rate in.
        seed, snr_db, grid, scheme = 13, 30.0, (0.0, 0.5), DTHP_RS
        e_tr = snr_db_to_power(snr_db)
        h = channel_for(seed, 0)
        sets = [build_precoders(h, scheme, e_tr, 0.75, t) for t in grid]
        peaks = []
        for ps in sets:
            report = sinr_perfect_csit(ps, SIGMA_N2)
            common = () if report.common is None else report.common
            peaks.append(max(*report.private, *common))
        low, high = sorted(range(len(grid)), key=peaks.__getitem__)
        assert peaks[high] > 2.0 * peaks[low]
        monkeypatch.setattr(rates, "SINR_CAP", float(np.sqrt(peaks[low] * peaks[high])))
        sum_rate_samples(sets[low], NO_ERROR, SIGMA_N2)
        with pytest.raises(SaturatedSinrError, match="dthp-rs"):
            sum_rate_samples(sets[high], NO_ERROR, SIGMA_N2)
        with pytest.raises(SaturatedSinrError, match="dthp-rs"):
            optimize_power_split(h, scheme, e_tr, 0.75, grid, NO_ERROR)
        with pytest.raises(SaturatedSinrError, match="dthp-rs"):
            run_sweep(small_config(
                schemes=(scheme,), error_regime=PERFECT, snr_grid_db=(snr_db,),
                n_channels=1, power_split_grid=grid, master_seed=seed,
            ))


class TestSweepConfig:
    def test_x_kind(self):
        assert small_config().x_kind == "snr_db"
        assert small_config(error_regime=ErrorRegime.snr_scaled(0.6)).x_kind == "snr_db_alpha"
        assert small_config(error_variance_grid=(0.1, 0.2), snr_grid_db=(15.0,)).x_kind == (
            "error_variance")

    def test_validate_rejects_bad_grids(self):
        for bad in (dict(schemes=()), dict(power_split_grid=()), dict(snr_grid_db=()),
                    dict(error_variance_grid=(0.1,), snr_grid_db=(10.0, 15.0))):
            with pytest.raises(EmptyGridError):
                small_config(**bad).validate()

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

    def test_validate_rejects_negative_seed(self):
        # numpy would reject it only inside the first cell, after a
        # --jobs pool has forked, with a message that names no seed.
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            small_config(master_seed=-1).validate()

    def test_validate_accepts_edges(self):
        small_config(
            n_users=1, n_channels=1, n_error_samples=1, power_loss=1.0,
            power_split_grid=(0.0, 0.95), error_variance_grid=(0.0, 0.5),
            error_regime=PERFECT,
        ).validate()

    @pytest.mark.parametrize("overrides, flag", [
        (dict(n_error_samples=100_000_000), "--error-samples"),
        (dict(n_users=3000, n_tx=3000, error_regime=PERFECT), "--users/--tx-antennas"),
        # The default 56 cells keep about 1 GiB of results at 200000 channels.
        (dict(schemes=SweepConfig().schemes, snr_grid_db=SweepConfig().snr_grid_db,
              n_channels=200_000), "--channels"),
    ])
    def test_validate_rejects_configs_over_the_memory_budget(self, overrides, flag):
        cfg = small_config(**overrides)
        assert sweeps.working_set_bytes(cfg, cfg.n_channels) > sweeps.MEMORY_BUDGET_BYTES
        with pytest.raises(ValueError, match=f"MiB budget; lower {flag} "):
            cfg.validate()

    def test_memory_estimate_counts_what_a_process_keeps(self):
        # A process holds one block's draws and factors, so only the
        # results grow with the channels, by the same bytes each. Perfect
        # CSIT draws nothing, so its error-sample count costs nothing.
        cfg = small_config(n_error_samples=1000)
        one = sweeps.working_set_bytes(cfg, 1)
        per_channel = sweeps.working_set_bytes(cfg, 2) - one
        # At least each cell's split and ASR, as float64.
        assert per_channel >= 16 * len(cfg.schemes) * len(cfg.snr_grid_db)
        for n in (3, 65, 10_000):
            assert sweeps.working_set_bytes(cfg, n) == one + (n - 1) * per_channel
        perfect = [
            sweeps.working_set_bytes(small_config(error_regime=PERFECT, n_error_samples=m), 50)
            for m in (1, 10**9)
        ]
        assert perfect[0] == perfect[1]
        # The default sweeps sit far below the budget.
        for regime in (PERFECT, FIXED):
            assert sweeps.working_set_bytes(SweepConfig(error_regime=regime), 50) < 2**22

    def test_memory_estimate_charges_each_distinct_variance_once(self):
        # The estimate reads the cells' plans. SNR-scaled errors at
        # alpha = 0 give every SNR point the variance 1, which the
        # engine stacks once, as it stacks a fixed variance of 1; at
        # alpha = 0.6 each of the 7 points stacks its own. On one
        # channel, so that every block holds one channel and only the
        # slots differ.
        def estimate(regime):
            return sweeps.working_set_bytes(SweepConfig(error_regime=regime, n_channels=1), 1)

        one = estimate(ErrorRegime.fixed_variance(1.0))
        assert estimate(ErrorRegime.snr_scaled(0.0)) == one
        assert estimate(ErrorRegime.snr_scaled(0.6)) > one

    def test_memory_estimate_charges_slots_not_distinct_variances(self):
        # A channel stacks one slot per x point unless every cell has the
        # same variance: at alpha = 1e-17 its 7 points hold two distinct
        # variances, and it stacks 7 slots, as at alpha = 0.6.
        def estimate(regime):
            return sweeps.working_set_bytes(SweepConfig(error_regime=regime), 50)

        assert estimate(ErrorRegime.snr_scaled(1e-17)) == estimate(ErrorRegime.snr_scaled(0.6))

    def test_rating_allocates_its_work_arrays_once_at_the_layout(self, monkeypatch):
        # Rating 15 channels in three blocks of 5 (zf, K = 2, N = 32, 100
        # draws) allocates the work arrays once, at the layout, before
        # the first channel is drawn; every block is searched in those
        # same arrays, the first fills the realization stack, and the
        # kernel's arrays hold the bytes that working_set_bytes charges
        # for them.
        cfg = SweepConfig(schemes=(parse_scheme_tag("zf"),), n_users=2, n_tx=32,
                          snr_grid_db=(15.0,), error_regime=FIXED, n_channels=15)
        layout, search = sweeps._layout, sweeps.stacked_split_search
        layouts, calls = [], []
        draws = recorded_calls(monkeypatch, sweeps, "draw_channel")

        def allocating(*args):
            arrays = layout(*args)
            # The allocation, not validate's count of the estimate's bytes.
            if args[-1] is np.empty:
                layouts.append((len(draws), arrays))
            return arrays

        def searching(*args):
            calls.append((args[3], dict(args[-1])))
            return search(*args)

        monkeypatch.setattr(sweeps, "_layout", allocating)
        monkeypatch.setattr(sweeps, "stacked_split_search", searching)
        run_sweep(cfg)
        ((drawn_before, arrays),) = layouts
        assert (drawn_before, len(draws)) == (0, 15)
        assert len(calls) == 3
        for rows, workspace in calls:
            assert workspace.keys() == {"rows", *arrays}
            assert all(workspace[name] is array for name, array in arrays.items())
            assert workspace["rows"] is calls[0][1]["rows"]
            assert rows.nbytes == workspace["rows"].nbytes and np.shares_memory(
                rows, workspace["rows"])
        monkeypatch.setattr(sweeps, "_layout", layout)
        charged = sweeps.working_set_bytes(cfg, 15)
        monkeypatch.setattr(sweeps, "_layout", lambda *args: {})
        charged -= sweeps.working_set_bytes(cfg, 15)
        assert charged == sum(array.nbytes for array in arrays.values())

    def test_validate_counts_every_cells_results(self):
        # The default 56 cells keep about 100 B per channel each, so a
        # million channels need gigabytes though the caches hold one.
        cfg = SweepConfig(n_channels=10**6, error_regime=FIXED)
        with pytest.raises(ValueError, match="MiB budget; lower --channels "):
            cfg.validate()

    def test_validate_rejects_regime_with_variance_grid(self):
        # A variance sweep sets its own error variances, so any other
        # regime would be recorded in the sidecar without being used.
        for regime in (FIXED, ErrorRegime.snr_scaled(0.6)):
            with pytest.raises(ValueError, match="perfect error_regime"):
                small_config(
                    error_regime=regime, error_variance_grid=(0.1,)
                ).validate()


class TestErgodicSumRate:
    @pytest.mark.parametrize("bad", [dict(n_channels=0), dict(n_error_samples=0)])
    def test_rejects_an_invalid_config(self, bad):
        # No channels or no draws fail validation as in run_sweep, not
        # inside numpy's stacking or the block arithmetic.
        with pytest.raises(DimensionMismatchError, match=next(iter(bad))):
            ergodic_sum_rate(small_config(**bad), SchemeTag("zf"),
                             snr_db_to_power(15.0), FIXED, 15.0)

    def test_single_channel_is_plain_average(self):
        cfg = small_config(n_channels=1)
        cell = ergodic_sum_rate(cfg, SchemeTag("zf"), snr_db_to_power(15.0), FIXED, 15.0)
        h = channel_for(cfg.master_seed, 0)
        errors = draw_error_ensemble(4, 4, 0.2, cfg.n_error_samples, cfg.master_seed, 0)
        asr = average_sum_rate(h, SchemeTag("zf"), snr_db_to_power(15.0), 0.75, 0.0, errors)
        assert cell.esr == asr
        assert cell.ci_halfwidth == 0.0

    def test_ci_matches_sample_std(self):
        cfg = small_config(n_channels=8)
        cell = ergodic_sum_rate(cfg, SchemeTag("zf"), snr_db_to_power(15.0), FIXED, 15.0)
        asr = np.array(cell.per_channel_asr)
        assert abs(cell.esr - float(np.mean(asr))) < 1e-12
        expected = 1.96 * float(np.std(asr, ddof=1)) / np.sqrt(8)
        assert abs(cell.ci_halfwidth - expected) < 1e-12

    def test_perfect_regime_uses_one_realization(self):
        # No error averaging under perfect CSIT: n_error_samples must
        # not affect the result.
        a, b = (ergodic_sum_rate(small_config(error_regime=PERFECT, n_error_samples=m),
                                 SchemeTag("dthp"), 31.0, PERFECT, 15.0) for m in (3, 300))
        assert a.esr == b.esr

    @pytest.mark.parametrize("overrides", [
        dict(error_regime=PERFECT),
        dict(error_regime=FIXED),
        dict(error_regime=ErrorRegime.snr_scaled(0.6)),
        dict(error_regime=PERFECT, snr_grid_db=(15.0,), error_variance_grid=(0.1, 0.3)),
    ], ids=["perfect", "fixed-variance", "snr-scaled", "error-variance-grid"])
    def test_equals_the_run_sweep_cell(self, overrides):
        # Every field, the per-channel tuples included.
        cfg = small_config(**{"snr_grid_db": (10.0, 20.0), "n_channels": 3, **overrides})
        for cell in run_sweep(cfg).cells:
            if cfg.error_variance_grid:
                snr_db, regime = cfg.snr_grid_db[0], ErrorRegime.fixed_variance(cell.x_value)
            else:
                snr_db, regime = cell.x_value, cfg.error_regime
            assert cell == ergodic_sum_rate(
                cfg, parse_scheme_tag(cell.scheme_tag), snr_db_to_power(snr_db),
                regime, cell.x_value,
            )


class TestRunSweep:
    def test_deterministic_repeat(self):
        cfg = small_config(snr_grid_db=(10.0, 15.0))
        first, second = run_sweep(cfg), run_sweep(cfg)
        assert first.cells == second.cells
        assert first.config.x_kind == "snr_db"

    def test_cell_order_and_coverage(self):
        cfg = small_config(snr_grid_db=(10.0, 15.0))
        result = run_sweep(cfg)
        keys = [(c.scheme_tag, c.x_value) for c in result.cells]
        assert keys == sorted(keys)
        assert len(keys) == 4

    def test_serial_matches_parallel(self):
        # Blocks of 3 and 2 channels, or of 2, 2 and 1, join to the
        # serial cells; one channel runs without a pool.
        cfg = small_config(snr_grid_db=(10.0, 15.0), n_channels=5)
        serial = run_sweep(cfg, n_jobs=1)
        for n_jobs in (2, 3):
            assert run_sweep(cfg, n_jobs=n_jobs).cells == serial.cells
        one = small_config(n_channels=1)
        assert run_sweep(one, n_jobs=4).cells == run_sweep(one).cells

    def test_variance_sweep_axis(self):
        cfg = small_config(error_variance_grid=(0.1, 0.3), snr_grid_db=(15.0,),
                           schemes=(parse_scheme_tag("zf"),), error_regime=PERFECT)
        result = run_sweep(cfg)
        assert [c.x_value for c in result.cells] == [0.1, 0.3]
        assert result.config.x_kind == "error_variance"

    def test_uneven_variances_give_each_points_own_rows(self):
        # At alpha = 1e-17 the default SNR grid holds two distinct error
        # variances, one at five points and one at two. Each channel's
        # values at each point are those of sweeping that point alone.
        cfg = SweepConfig(
            error_regime=ErrorRegime.snr_scaled(1e-17), n_channels=3, n_error_samples=20
        )
        variances = [cfg.error_regime.variance_at(snr_db_to_power(x)) for x in cfg.snr_grid_db]
        assert variances == [1.0] * 5 + [0.9999999999999999] * 2
        cells = {(c.scheme_tag, c.x_value): c for c in run_sweep(cfg).cells}
        for snr_db in cfg.snr_grid_db:
            for alone in run_sweep(replace(cfg, snr_grid_db=(snr_db,))).cells:
                cell = cells[alone.scheme_tag, alone.x_value]
                assert cell.per_channel_asr == alone.per_channel_asr
                assert cell.per_channel_split == alone.per_channel_split

    def test_common_random_numbers_across_schemes(self):
        # Every scheme sees the same channels and the same error draws,
        # so per-channel ASR differences are paired comparisons.
        cfg = small_config(snr_grid_db=(15.0,))
        by_tag = {c.scheme_tag: c for c in run_sweep(cfg).cells}
        e_tr = snr_db_to_power(15.0)
        for c in range(cfg.n_channels):
            h = channel_for(cfg.master_seed, c)
            errors = draw_error_ensemble(4, 4, 0.2, cfg.n_error_samples, cfg.master_seed, c)
            recomputed = average_sum_rate(h, SchemeTag("zf"), e_tr, 0.75, 0.0, errors)
            assert by_tag["zf"].per_channel_asr[c] == recomputed

    def test_a_sweep_keeps_no_error_draws_after_it_returns(self):
        # 20,000 unit draws of a 4 x 4 channel are 5.1 MB; once the sweep
        # returns, only the last block's factors and the results remain.
        cfg = small_config(schemes=(parse_scheme_tag("zf"),), n_channels=2,
                           n_error_samples=20_000, master_seed=4242)
        tracemalloc.start()
        try:
            run_sweep(cfg)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**18

    def test_a_sweep_holds_one_chunks_factors_at_a_time(self):
        # 16 x 16 zf channels under perfect CSIT stack 128 to a chunk,
        # whose factors and records take about 7.6 MB. A second chunk
        # is factored once the first one's store is let go, so rating
        # two chunks peaks where rating one does, plus their results.
        peaks = []
        for n_channels in (128, 256):
            cfg = SweepConfig(schemes=(parse_scheme_tag("zf"),), n_users=16, n_tx=16,
                              snr_grid_db=(15.0,), n_channels=n_channels)
            tracemalloc.start()
            try:
                run_sweep(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**20

    def test_each_error_draw_is_made_once(self, monkeypatch):
        # Every cell rescales the same unit draws: one error-stream
        # key per (channel, realization), not one per cell.
        calls = recorded_calls(monkeypatch, channel, "_error_states")
        n_channels, n_samples = 3, 4
        run_sweep(small_config(
            error_regime=PERFECT, error_variance_grid=(0.1, 0.2, 0.3),
            n_channels=n_channels, n_error_samples=n_samples,
        ))
        keys = [(seed, c, m) for seed, channels, start, stop in calls
                for c in channels for m in range(start, stop)]
        assert len(keys) == n_channels * n_samples
        assert len(set(keys)) == len(keys)

    def test_each_geometry_is_built_once(self, monkeypatch):
        # Every base, split and SNR reads the same factored geometry: one
        # factorization of the block, which holds each channel once.
        stacks = count_factorizations(monkeypatch)
        cfg = small_config(
            schemes=tuple(parse_scheme_tag(t) for t in ("zf", "rs-linear", "cthp-rs", "dthp")),
            snr_grid_db=(10.0, 20.0), n_channels=3,
        )
        run_sweep(cfg)
        assert [[h.tobytes() for h in stack] for stack in stacks] == [
            [channel_for(cfg.master_seed, c).tobytes() for c in range(3)]]

    def test_each_channel_is_factored_and_its_errors_drawn_once(self, monkeypatch):
        # Two cells over 130 channels: the store (one chunk's factors)
        # and each channel's unit error draws, made once by the engine,
        # serve every cell. One factorization (LQ and direction) and one
        # error draw per channel and realization.
        error_keys = []
        states = channel._error_states

        def counting_states(seed, channels, start, stop):
            error_keys.extend((c, m) for c in channels for m in range(start, stop))
            return states(seed, channels, start, stop)

        stacks = count_factorizations(monkeypatch)
        monkeypatch.setattr(channel, "_error_states", counting_states)
        n_channels = 130
        run_sweep(small_config(
            schemes=(parse_scheme_tag("dthp-rs"),), snr_grid_db=(10.0, 20.0),
            n_channels=n_channels, n_error_samples=2,
        ))
        factored = [h.tobytes() for stack in stacks for h in stack]
        assert len(factored) == len(set(factored)) == n_channels
        assert len(error_keys) == len(set(error_keys)) == 2 * n_channels

    def test_a_base_only_sweep_takes_no_direction(self, monkeypatch):
        # No set of a base scheme has a common stream, so a base-only
        # sweep asks for no direction; its one SVD per block is the
        # block's factorization.
        calls = recorded_calls(monkeypatch, precoding, "dominant_right_singular_vector")
        stacks = count_factorizations(monkeypatch)
        run_sweep(small_config(
            schemes=tuple(parse_scheme_tag(t) for t in ("zf", "cthp", "dthp", "zf-dpc")),
            error_regime=ErrorRegime.fixed_variance(0.2), n_channels=3,
        ))
        assert (len(calls), len(stacks)) == (0, 1)

    def test_one_kernel_call_per_channel_variance_block_and_geometry(self, monkeypatch):
        # The cells that share a geometry record (zf with rs-linear,
        # cthp alone here, dthp-rs with zf-dpc) are searched in one
        # kernel call per block of channels and slots, every split of
        # every such cell on every channel of the block at every slot
        # stacked: never one call per channel, cell, split or variance.
        # Each row of the call names its own channel's record and holds
        # the same number of sets.
        calls = recorded_calls(monkeypatch, sweeps, "stacked_split_search")
        n_channels = 3
        for regime in (PERFECT, ErrorRegime.snr_scaled(0.6)):
            calls.clear()
            cfg = small_config(
                schemes=tuple(parse_scheme_tag(t) for t in
                              ("zf", "rs-linear", "cthp", "dthp-rs", "zf-dpc")),
                error_regime=regime, snr_grid_db=(10.0, 20.0), n_channels=n_channels,
            )
            run_sweep(cfg)
            n_splits = len(cfg.power_split_grid)
            # Under perfect CSIT both SNR points share the one all-zero
            # realization; an SNR-scaled variance gives each its own,
            # and 3 x 2 x 10 x 4 x 4 values stack all in one block.
            n_rows = n_channels * (1 if regime.is_perfect else 2)
            blocks = [(2 * (1 + n_splits), n_rows), (2, n_rows), (2 * (n_splits + 1), n_rows)]
            for geometries, beta, power, rows, *_ in calls:
                assert beta.shape == power.shape == (len(rows), beta.size // len(rows))
                assert len({id(g) for g in geometries}) == n_channels
            assert sorted((call[1].size, len(call[3])) for call in calls) == sorted(
                (n_channels * sets, rows) for sets, rows in blocks)

    def test_a_block_holds_the_channels_that_fit_its_caps(self, monkeypatch):
        # A chunk takes consecutive channels of a worker's run while
        # their estimates fit 2**15 complex values and their builds
        # 2**13, and a block consecutive channels of a chunk while their
        # stacked h_est + E fit 2**15 complex values; more workers cut
        # shorter runs, never other chunks or blocks. Each chunk is one
        # factorization's stack.
        calls = recorded_calls(monkeypatch, sweeps, "stacked_split_search")
        recording_pool(monkeypatch)
        stacks = count_factorizations(monkeypatch)
        zf = (parse_scheme_tag("zf"),)
        # 1000 draws x 4 x 4 = 16000 complex values a channel: 2 fit a
        # block, and the 5 channels one chunk. Perfect CSIT stacks one
        # 16-value realization, and 50 fit. All 8 schemes at two SNRs
        # make 2 x (4 + 4 x 20) = 168 builds a channel: 48 fit in 8192.
        for overrides, chunk, size in (
            (dict(schemes=zf, n_error_samples=1000, n_channels=5), 5, 2),
            (dict(schemes=zf, error_regime=PERFECT, n_channels=50), 50, 50),
            (dict(schemes=precoding.ALL_SCHEME_TAGS, error_regime=PERFECT,
                  snr_grid_db=(0.0, 30.0), n_channels=50,
                  power_split_grid=default_power_split_grid()), 48, 48),
        ):
            cfg = small_config(**overrides)
            records = {scheme.record for scheme in cfg.schemes}
            for n_jobs in (1, 2):
                calls.clear()
                stacks.clear()
                run_sweep(cfg, n_jobs=n_jobs)
                run = math.ceil(cfg.n_channels / n_jobs)
                runs = [min(run, cfg.n_channels - start)
                        for start in range(0, cfg.n_channels, run)]
                chunks = [min(chunk, n - start) for n in runs for start in range(0, n, chunk)]
                blocks = [min(size, n - start) for n in chunks for start in range(0, n, size)]
                assert [len(stack) for stack in stacks] == chunks
                # One call per geometry record on each block.
                assert [len(call[3]) for call in calls] == [b for b in blocks for _ in records]

    def test_the_base_variance_sweep_factors_one_chunk_and_hashes_each_block_once(
        self, monkeypatch
    ):
        # The benchmark's base-variance config: 6 slots of 100 draws x
        # 4 x 4 fill a block with 3 channels, and 24 builds a channel
        # let the 50 channels' estimates stack in one chunk. So one
        # factorization of 50 channels, and each (channel, m) error key
        # hashed once, in one pass a block: 17 passes. Each of two
        # workers factors its run of 25 channels once.
        cfg = SweepConfig(
            schemes=tuple(parse_scheme_tag(t) for t in ("zf", "cthp", "dthp", "zf-dpc")),
            snr_grid_db=(15.0,), error_variance_grid=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
            n_channels=50, n_error_samples=100,
        )
        passes = recorded_calls(monkeypatch, channel, "_error_states")
        stacks = count_factorizations(monkeypatch)
        run_sweep(cfg)
        assert [len(stack) for stack in stacks] == [50]
        keys = [(c, m) for _, channels, start, stop in passes
                for c in channels for m in range(start, stop)]
        assert sorted(keys) == [(c, m) for c in range(50) for m in range(100)]
        assert len(passes) <= 17
        recording_pool(monkeypatch)
        stacks.clear()
        run_sweep(cfg, n_jobs=2)
        assert [len(stack) for stack in stacks] == [25, 25]

    def test_kernel_blocks_hold_at_most_the_charged_values(self, monkeypatch):
        # The kernel rates its sets in runs of at most max(T M K, 2**15)
        # values, or of every set of a block's largest call if fewer, and
        # a variance block stacks error slots while their realizations
        # hold at most max(M K N, 2**15) complex values: the sizes of the
        # work arrays that the sweep allocates and working_set_bytes
        # charges, and passes with each call. With many draws a
        # geometry's sets take several runs of one kernel call, and each
        # slot its own slot block. Two-split grids have no gap to search,
        # so the kernel rates every set once, in one pass.
        calls = recorded_calls(monkeypatch, sweeps, "stacked_split_search")
        runs = recorded_calls(monkeypatch, rates, "_set_sinrs")
        schemes = tuple(parse_scheme_tag(t) for t in ("dthp", "zf-dpc", "dthp-rs", "zf-dpc-rs"))
        variances = (0.1, 0.2, 0.3)
        # 1 + 1 + 2 + 2 sets of one geometry per variance: at 5000 draws
        # T M K = 40000 values, so a run holds 2 sets (a row's 6 in three
        # equal parts) and each variance takes its own slot block; at 10
        # draws the three variances' 3 x 160 complex values stack into
        # one slot block, and its 3 rows of 6 sets into one run.
        for n_samples, n_calls, n_runs, n_variances, run_sets in (
            (5000, 3, 9, 1, 2), (10, 1, 1, 3, 18)
        ):
            for recorded in (calls, runs):
                recorded.clear()
            cfg = small_config(
                schemes=schemes, n_channels=1, n_error_samples=n_samples,
                error_regime=PERFECT, error_variance_grid=variances, power_split_grid=(0.0, 0.5),
            )
            run_sweep(cfg)
            m_k, m_k_n = n_samples * 4, n_samples * 4 * 4
            assert (len(calls), len(runs)) == (n_calls, n_runs)
            workspace = calls[0][-1]
            assert all(call[-2] == run_sets and call[-1] is workspace for call in calls)
            # A run's SINRs are a view of the one "private" work array.
            run_array = workspace["private"].size
            assert run_array == run_sets * m_k
            run_sizes = [beta.size * invariants.signal[0].size for invariants, _, beta, *_ in runs]
            assert max(run_sizes) <= run_array
            assert {len(call[3]) for call in calls} == {n_variances}
            assert max(call[3].size for call in calls) == workspace["rows"].size
            assert workspace["rows"].size == n_variances * m_k_n
            assert sum(run_sizes) == 6 * len(variances) * m_k

    @pytest.mark.parametrize("overrides", [
        dict(error_regime=PERFECT),
        dict(error_regime=FIXED),
        dict(error_regime=ErrorRegime.snr_scaled(0.6)),
        # Six slots, stacked one at a time, and each row's 4 sets of the
        # dthp record rated in runs of 2.
        dict(error_regime=PERFECT, snr_grid_db=(15.0,), n_error_samples=3000, n_channels=2,
             error_variance_grid=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5)),
    ])
    def test_rs_cells_at_split_zero_are_their_base_cells(self, overrides, monkeypatch):
        # Criterion 3 through the block engine: at split 0 a
        # rate-splitting build has no common stream, so each RS cell,
        # rated in one kernel call with its base cell, has the base
        # cell's bits on every channel.
        cfg = small_config(**{
            "schemes": precoding.ALL_SCHEME_TAGS, "snr_grid_db": (0.0, 15.0, 30.0),
            "power_split_grid": (0.0,), **overrides,
        })
        calls = recorded_calls(monkeypatch, sweeps, "stacked_split_search")
        cells = {(cell.scheme_tag, cell.x_value): cell for cell in run_sweep(cfg).cells}
        if cfg.error_variance_grid:
            # Each call's rows hold fewer slots than a channel has, and
            # the dthp record's 4 sets a row take more than one run.
            assert max(len(call[3]) for call in calls) < len(cfg.error_variance_grid)
            assert any(call[6] < sum(call[5]) == 4 for call in calls)
        n_rs = 0
        for (tag, x_value), cell in cells.items():
            scheme = parse_scheme_tag(tag)
            if scheme.rs:
                base = cells[SchemeTag(scheme.base).tag, x_value]
                assert cell.per_channel_asr == base.per_channel_asr
                assert cell.per_channel_split == base.per_channel_split
                n_rs += 1
        assert n_rs == 4 * len(cfg.error_variance_grid or cfg.snr_grid_db)

    def test_sweep_keeps_the_traced_call_contract(self, monkeypatch):
        # The benchmark's tracer counts these calls by name: one channel
        # draw through sweeps.stream_rng per (cell, channel), one
        # sweeps.build_precoders per (cell, split, channel) and one
        # common-stream direction per nonzero split. The config spans
        # all three private geometries and two error variances.
        draws = recorded_calls(monkeypatch, sweeps, "stream_rng")
        builds = recorded_calls(monkeypatch, sweeps, "build_precoders")
        directions = recorded_calls(monkeypatch, precoding, "dominant_right_singular_vector")
        schemes = tuple(parse_scheme_tag(t) for t in
                        ("zf", "rs-linear", "cthp-rs", "dthp", "zf-dpc-rs"))
        cfg = small_config(
            schemes=schemes, error_regime=PERFECT, snr_grid_db=(15.0,),
            error_variance_grid=(0.1, 0.3), n_channels=2, n_error_samples=3,
        )
        run_sweep(cfg)
        n_points, n_splits, n_rs = 2, len(cfg.power_split_grid), 3
        n_cells = len(schemes) * n_points
        assert (len(draws), len(builds), len(directions)) == (
            n_cells * cfg.n_channels,
            n_points * (n_rs * n_splits + 2) * cfg.n_channels,
            n_points * n_rs * (n_splits - 1) * cfg.n_channels,
        )

    def test_pool_never_outnumbers_channels(self, monkeypatch):
        # Workers split the channels, so the pool never has more of them
        # than the sweep has channels: the pool starts all max_workers at
        # its first submit, and a worker per job beyond that would idle.
        pools = recording_pool(monkeypatch)
        cfg = small_config(snr_grid_db=(10.0, 15.0))  # 4 channels
        serial = run_sweep(cfg)
        for n_jobs in (500, 3):
            assert run_sweep(cfg, n_jobs=n_jobs).cells == serial.cells
        # One cell still has a channel for each of four workers.
        run_sweep(small_config(schemes=(parse_scheme_tag("zf"),)), n_jobs=8)
        # One channel runs in this process.
        run_sweep(small_config(n_channels=1), n_jobs=8)
        assert [pool.max_workers for pool in pools] == [4, 3, 4]

    def test_pool_tasks_are_contiguous_channel_blocks(self, monkeypatch):
        # Each worker gets one contiguous run of channels as one task:
        # every channel in order, without gaps or overlaps, in runs of
        # ceil(n_channels / n_workers), no more runs than workers.
        pools = recording_pool(monkeypatch)
        for n_channels, n_jobs, n_runs in ((7, 3, 3), (5, 2, 2), (4, 4, 4),
                                           (50, 2, 2), (130, 2, 2)):
            run_sweep(small_config(n_channels=n_channels), n_jobs=n_jobs)
            pool = pools.pop()
            assert pool.max_workers == n_jobs
            assert pool.chunksize == 1
            assert all(isinstance(run, range) and run.step == 1 for run in pool.tasks)
            assert [len(run) for run in pool.tasks[:-1]] == [
                math.ceil(n_channels / n_jobs)
            ] * (n_runs - 1)
            assert len(pool.tasks) == n_runs
            assert [c for run in pool.tasks for c in run] == list(range(n_channels))
            assert all(pool.tasks)
        assert not pools

    def test_parallel_failure_is_the_serial_one(self, monkeypatch):
        # A cap that cthp's SINRs exceed only on channel 2 or 3 and zf's
        # on channel 0 or 1: the second block fails at the first cell
        # (cthp), the first block at the second (zf). A serial run stops
        # at the lowest failing channel's first failing cell, zf on
        # channel 0 or 1, so every n_jobs must raise zf's error. Forked
        # workers inherit the patched cap.
        seed, snr_db, n_channels = 3, 30.0, 4
        e_tr = snr_db_to_power(snr_db)

        def peak(base, c):
            ps = build_precoders(channel_for(seed, c), SchemeTag(base), e_tr, 0.75)
            return float(np.max(sinr_perfect_csit(ps, SIGMA_N2).private))

        passes = max(peak("cthp", c) for c in (0, 1))
        fails = min(max(peak("cthp", c) for c in (2, 3)),
                    max(peak("zf", c) for c in (0, 1)))
        assert fails > 1.2 * passes
        monkeypatch.setattr(rates, "SINR_CAP", float(np.sqrt(passes * fails)))
        cfg = small_config(
            schemes=(parse_scheme_tag("zf"), parse_scheme_tag("cthp")),
            error_regime=PERFECT, snr_grid_db=(snr_db,), n_channels=n_channels,
            master_seed=seed,
        )
        messages = []
        for n_jobs in (1, 2):
            with pytest.raises(SaturatedSinrError, match="^zf:") as raised:
                run_sweep(cfg, n_jobs=n_jobs)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_parallel_failure_skips_the_channels_above_it(self, monkeypatch):
        # Two workers take channels 0-3 and 4-7. Channel 0 fails once
        # channel 4 has started, and channel 4's draw ends once that
        # failure is shared, so the count does not depend on timing: the
        # second worker checks the shared failure before building each
        # channel and skips channels 5-7 instead of drawing them. Forked
        # workers inherit the patched draw_channel.
        n_channels, started = 8, 4
        rated = multiprocessing.Array("b", n_channels)
        draw = sweeps.draw_channel

        def wait_for(condition):
            deadline = time.monotonic() + 60.0
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.001)

        def recording(seed, channel_index, *args):
            rated[channel_index] = 1
            if channel_index == 0:
                wait_for(lambda: rated[started])
                raise SaturatedSinrError("zf: an SINR failed on channel 0")
            if channel_index == started:
                wait_for(lambda: sweeps._lowest_failure.value == 0)
            return draw(seed, channel_index, *args)

        monkeypatch.setattr(sweeps, "draw_channel", recording)
        with pytest.raises(SaturatedSinrError, match="on channel 0$"):
            run_sweep(small_config(n_channels=n_channels), n_jobs=2)
        assert [c for c in range(n_channels) if rated[c]] == [0, started]

    def test_parallel_failure_rates_no_block_above_it(self, monkeypatch):
        # Two workers take channels 0-3 and 4-7, each run one chunk and
        # one block. The second worker draws its whole chunk before
        # channel 0 fails, then checks the shared failure again before
        # its block and builds none of it. Forked workers inherit the
        # patched draw_channel and build_precoders.
        n_channels, seed = 8, 12345
        drawn, built = multiprocessing.Array("b", n_channels), multiprocessing.Array("b", n_channels)
        index = {channel_for(seed, c).tobytes(): c for c in range(n_channels)}
        draw, build = sweeps.draw_channel, sweeps.build_precoders

        def wait_for(condition):
            deadline = time.monotonic() + 60.0
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.001)

        def recording_draw(seed, channel_index, *args):
            drawn[channel_index] = 1
            if channel_index == 0:
                wait_for(lambda: drawn[n_channels - 1])
                raise SaturatedSinrError("zf: an SINR failed on channel 0")
            if channel_index == n_channels - 1:
                wait_for(lambda: sweeps._lowest_failure.value == 0)
            return draw(seed, channel_index, *args)

        def recording_build(h_est, *args):
            built[index[h_est.tobytes()]] = 1
            return build(h_est, *args)

        monkeypatch.setattr(sweeps, "draw_channel", recording_draw)
        monkeypatch.setattr(sweeps, "build_precoders", recording_build)
        with pytest.raises(SaturatedSinrError, match="on channel 0$"):
            run_sweep(small_config(n_channels=n_channels, master_seed=seed), n_jobs=2)
        assert [c for c in range(n_channels) if drawn[c]] == [0, 4, 5, 6, 7]
        assert not any(built)

    def test_failure_is_the_first_failing_cell_in_a_later_block(self, monkeypatch):
        # Cells dthp, zf, zf-dpc: the dthp geometry's block (dthp and
        # zf-dpc) is rated before zf's. A cap above dthp's SINRs and
        # below zf's and zf-dpc's fails that block at zf-dpc, the third
        # cell, and zf's block at zf, the second, which a serial cell
        # by cell search meets first.
        seed, snr_db, power_loss = 0, 30.0, 0.5
        e_tr = snr_db_to_power(snr_db)

        def peak(base):
            ps = build_precoders(channel_for(seed, 0), SchemeTag(base), e_tr, power_loss)
            return float(np.max(sinr_perfect_csit(ps, SIGMA_N2).private))

        passes, fails = peak("dthp"), min(peak("zf"), peak("zf-dpc"))
        assert fails > 1.2 * passes
        monkeypatch.setattr(rates, "SINR_CAP", float(np.sqrt(passes * fails)))
        message = "^zf: .* at snr_db=30 on channel 0$"
        with pytest.raises(SaturatedSinrError, match=message):
            run_sweep(small_config(
                schemes=tuple(parse_scheme_tag(t) for t in ("dthp", "zf", "zf-dpc")),
                error_regime=PERFECT, snr_grid_db=(snr_db,), n_channels=1,
                power_loss=power_loss, master_seed=seed,
            ))

    def test_failure_in_a_later_variance_of_a_stacked_block(self):
        # The three variances' realizations stack into one block, and
        # only the last, near the float range, overflows: the first
        # failing cell in output order is dthp-rs there. Every n_jobs
        # raises the error that rating one variance at a time raised.
        cfg = small_config(
            schemes=(parse_scheme_tag("zf"), parse_scheme_tag("dthp-rs")),
            error_regime=PERFECT, error_variance_grid=(0.1, 0.5, 1e308),
            n_channels=3, n_error_samples=2,
        )
        message = ("dthp-rs: an SINR reached the cap 1e+12 or was not finite "
                   "at error_variance=1e+308 on channel 0")
        for n_jobs in (1, 2):
            with pytest.raises(SaturatedSinrError) as raised:
                run_sweep(cfg, n_jobs=n_jobs)
            assert str(raised.value) == message

    def test_serial_failure_draws_no_later_channel(self, monkeypatch):
        # A serial run stops at its first failing block. At 1000 draws a
        # block holds 2 channels, and the chunk that is drawn and
        # factored up front all 4. Every SINR passes a cap of 1e-3, so
        # channel 0's first cell fails, and channels 1 to 3, drawn with
        # it before the kernel rates its block, are the only later
        # channels drawn; a build error on channel 0 stops the block's
        # builds, so channels 1 to 3 are drawn up front but neither built
        # nor rated.
        cfg = small_config(n_channels=4, n_error_samples=1000)
        with monkeypatch.context() as patch:
            keys = recorded_calls(patch, sweeps, "stream_rng")
            patch.setattr(rates, "SINR_CAP", 1e-3)
            with pytest.raises(SaturatedSinrError, match="^dthp-rs: .* on channel 0$"):
                run_sweep(cfg)
        assert {key[1:] for key in keys} == {(channel.CHANNEL_STREAM, c) for c in range(4)}

        drawn = []
        draw = sweeps.draw_channel

        def zero_channel_0(seed, channel_index, *shape):
            drawn.append(channel_index)
            if channel_index == 0:
                return np.zeros(shape, dtype=complex)
            return draw(seed, channel_index, *shape)

        monkeypatch.setattr(sweeps, "draw_channel", zero_channel_0)
        built = recorded_calls(monkeypatch, sweeps, "build_precoders")
        rated = recorded_calls(monkeypatch, sweeps, "stacked_split_search")
        with pytest.raises(ZeroMatrixError):
            run_sweep(cfg)
        assert drawn == [0, 1, 2, 3]
        assert [call[0].tobytes() for call in built] == [np.zeros((4, 4), dtype=complex).tobytes()]
        assert rated == []

    def test_a_failing_channel_in_a_block_is_raised_after_the_channels_below_it(
        self, monkeypatch
    ):
        # Channel 2 of a 4-channel block is zero: the block's one stacked
        # factorization keeps its failure, channels 0 and 1 are built and
        # rated, channel 2's first build raises its ZeroMatrixError, and
        # channel 3, drawn up front, is never built.
        draw = sweeps.draw_channel
        cfg = small_config(n_channels=4)
        below = [channel_for(cfg.master_seed, c).tobytes() for c in (0, 1)]
        zero = np.zeros((4, 4), dtype=complex)

        def zero_channel_2(seed, channel_index, *shape):
            return zero.copy() if channel_index == 2 else draw(seed, channel_index, *shape)

        monkeypatch.setattr(sweeps, "draw_channel", zero_channel_2)
        built = recorded_calls(monkeypatch, sweeps, "build_precoders")
        rated = recorded_calls(monkeypatch, sweeps, "stacked_split_search")
        stacks = count_factorizations(monkeypatch)
        with pytest.raises(ZeroMatrixError, match="^pseudo_inverse: matrix is identically zero$"):
            run_sweep(cfg)
        assert [len(stack) for stack in stacks] == [4]
        built = [call[0].tobytes() for call in built]
        assert set(built[:-1]) == set(below) and built[-1] == zero.tobytes()
        assert rated and all([g.h_est.tobytes() for g in call[0]] == below for call in rated)

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
