"""Acceptance suite: one test per shipping criterion.

Each test prints a single summary line (visible with `pytest -rA` or on
failure) and asserts the criterion at its stated tolerance. Sweeps run
at desk scale: 4 users, 4 antennas, 50 channels, 100 error draws per
channel, the default split grid i/20 (i = 0, ..., 19), power loss 0.75,
master seed 12345.

Criterion 7 is implemented exactly as stated. With the published
closed-form SINR structure the cTHP-RS curve sits slightly below
RS-linear at this operating point and the 1.5x margin is not reached,
so the test fails; the analysis lives in the project notes. Do not
loosen the thresholds to force it green.
"""

import json
import math

import numpy as np
import pytest

from rsthp import (
    ErrorRegime,
    ModuloLattice,
    QamConstellation,
    SchemeTag,
    build_precoders,
    complex_gaussian,
    cross_check_sinr,
    draw_error_ensemble,
    measure_power_loss,
    modulo_reduce,
    parse_scheme_tag,
    qam_constellation,
    random_feedback_matrix,
    rates_from_sinr,
    run_perfect_csit_chain,
    run_sweep,
    sinr_imperfect_csit,
    sinr_perfect_csit,
    snr_db_to_power,
    stream_rng,
    sum_rate_samples,
    thp_encode,
    SweepConfig,
)
from rsthp.channel import CHANNEL_STREAM
from rsthp.cli import main as cli_main

DESK = dict(n_channels=50, n_error_samples=100, power_loss=0.75,
            master_seed=12345)
RS_BASE_PAIRS = (
    ("rs-linear", "zf"),
    ("cthp-rs", "cthp"),
    ("dthp-rs", "dthp"),
    ("zf-dpc-rs", "zf-dpc"),
)


def paired_halfwidth(diffs):
    return 1.96 * float(np.std(diffs, ddof=1)) / math.sqrt(len(diffs))


def cells_by_key(result):
    return {(c.scheme_tag, c.x_value): c for c in result.cells}


@pytest.fixture(scope="module")
def perfect_sweep():
    return run_sweep(SweepConfig(
        snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), **DESK
    ))


@pytest.fixture(scope="module")
def fixed_error_sweep():
    return run_sweep(SweepConfig(
        error_regime=ErrorRegime.fixed_variance(0.2),
        snr_grid_db=(25.0, 30.0), **DESK
    ))


@pytest.fixture(scope="module")
def variance_sweep():
    schemes = tuple(parse_scheme_tag(t) for t in
                    ("zf", "rs-linear", "cthp", "dthp", "cthp-rs", "dthp-rs"))
    return run_sweep(SweepConfig(
        schemes=schemes,
        snr_grid_db=(15.0,),
        error_variance_grid=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5), **DESK
    ))


@pytest.fixture(scope="module")
def scaled_error_sweep():
    # High-SNR slopes only need the top three grid points.
    return run_sweep(SweepConfig(
        error_regime=ErrorRegime.snr_scaled(0.6),
        snr_grid_db=(20.0, 25.0, 30.0), **DESK
    ))


def test_criterion_01_receive_filter_algebra():
    qam = qam_constellation(4)
    lattice = qam.lattice()
    e_tr = snr_db_to_power(15.0)
    worst = 0.0
    for c in range(100):
        h = complex_gaussian(stream_rng(12345, CHANNEL_STREAM, c), (4, 4))
        rng = np.random.default_rng(c)
        for base in ("dthp", "cthp"):
            ps = build_precoders(h, SchemeTag(base), e_tr, 0.75)
            scale = ps.g_diag if base == "dthp" else np.ones(4)
            for _ in range(20):
                symbols = qam.points[rng.integers(0, 4, size=4)]
                noise = complex_gaussian(rng, (4,))
                trace = run_perfect_csit_chain(ps, symbols, noise, lattice)
                expected = trace.v + noise * scale / ps.beta
                worst = max(
                    worst, float(np.max(np.abs(trace.received - expected)))
                )
    print(f"criterion 1: receiver output equals v plus scaled noise, "
          f"max residual {worst:.3e} over 100 channels (< 1e-9)")
    assert worst < 1e-9


def test_criterion_02_modulo_encoding_algebra():
    qam = qam_constellation(4)
    lattice = qam.lattice()
    rng = np.random.default_rng(2025)
    symbols = qam.points[rng.integers(0, 4, size=(10000, 4))]
    b = random_feedback_matrix(4, 1.0, seed=11)
    w, d = thp_encode(symbols, b, lattice)
    identity_err = float(np.max(np.abs(w @ b.T - symbols - d)))

    wide = 4.0 * (rng.standard_normal((10000, 4))
                  + 1j * rng.standard_normal((10000, 4)))
    reduced = modulo_reduce(wide, lattice)
    half = lattice.tau / 2
    in_cell = bool(
        np.all(reduced.real >= -half) and np.all(reduced.real < half)
        and np.all(reduced.imag >= -half) and np.all(reduced.imag < half)
    )

    loss = measure_power_loss(
        qam, random_feedback_matrix(8, 1.5, seed=77), lattice,
        n_symbols=200000, seed=99,
    )
    print(f"criterion 2: encode identity max error {identity_err:.3e} "
          f"(< 1e-10); modulo outputs in cell: {in_cell}; "
          f"4-QAM power loss {loss:.4f} (in [0.72, 0.78])")
    assert identity_err < 1e-10
    assert in_cell
    assert 0.72 <= loss <= 0.78


def test_criterion_03_reduction_identities():
    e_tr = snr_db_to_power(15.0)
    worst_split = worst_error = worst_dpc = 0.0
    for c in range(20):
        h = complex_gaussian(stream_rng(12345, CHANNEL_STREAM, c), (4, 4))
        h_e = draw_error_ensemble(4, 4, 0.2, 1, seed=12345, channel_index=c)[0]
        zero = np.zeros_like(h_e)

        for rs_text, base_text in RS_BASE_PAIRS:
            rs = build_precoders(h, parse_scheme_tag(rs_text), e_tr, 0.75, 0.0)
            base = build_precoders(h, parse_scheme_tag(base_text), e_tr, 0.75)
            gap = abs(
                rates_from_sinr(sinr_imperfect_csit(rs, h_e, 1.0)).sum_rate
                - rates_from_sinr(sinr_imperfect_csit(base, h_e, 1.0)).sum_rate
            )
            worst_split = max(worst_split, gap)

        for text in ("cthp", "dthp", "zf-dpc", "dthp-rs"):
            scheme = parse_scheme_tag(text)
            split = 0.3 if scheme.rs else 0.0
            ps = build_precoders(h, scheme, e_tr, 0.75, split)
            a = sinr_imperfect_csit(ps, zero, 1.0)
            b = sinr_perfect_csit(ps, 1.0)
            worst_error = max(worst_error, float(np.max(np.abs(
                np.log2(1 + a.private) - np.log2(1 + b.private)))))

        dpc = build_precoders(h, SchemeTag("zf-dpc"), e_tr, 0.75)
        dthp = build_precoders(h, SchemeTag("dthp"), e_tr, 1.0)
        worst_dpc = max(worst_dpc, float(np.max(np.abs(
            sinr_imperfect_csit(dpc, h_e, 1.0).private
            - sinr_imperfect_csit(dthp, h_e, 1.0).private))))
    print(f"criterion 3: zero-split gap {worst_split:.3e}, zero-error gap "
          f"{worst_error:.3e}, ZF-DPC vs dTHP gap {worst_dpc:.3e} "
          f"(all < 1e-12)")
    assert worst_split < 1e-12
    assert worst_error < 1e-12
    assert worst_dpc < 1e-12


def test_criterion_04_closed_form_vs_monte_carlo():
    e_tr = snr_db_to_power(15.0)
    h = complex_gaussian(stream_rng(12345, CHANNEL_STREAM, 0), (4, 4))
    zero = np.zeros((4, 4), dtype=complex)
    h_e = draw_error_ensemble(4, 4, 0.2, 1, seed=12345)[0]
    perfect_gaps = {}
    notes = []
    for text in ("cthp", "dthp"):
        ps = build_precoders(h, parse_scheme_tag(text), e_tr, 0.75)
        check = cross_check_sinr(ps, zero, 1.0, 100000, seed=404)
        perfect_gaps[text] = check.max_rel_gap_private
        imperfect = cross_check_sinr(ps, h_e, 1.0, 100000, seed=405)
        assert np.isfinite(imperfect.max_rel_gap_private)
        notes.append(f"{text} imperfect gap "
                     f"{imperfect.max_rel_gap_private:.1%}")
        if imperfect.max_rel_gap_private > 0.05:
            assert imperfect.annotations, (
                "systematic gap must be documented in the report"
            )
    print(f"criterion 4: perfect-CSIT closed form vs simulation gaps "
          f"cthp {perfect_gaps['cthp']:.2%}, dthp {perfect_gaps['dthp']:.2%} "
          f"(< 5%); documented: {'; '.join(notes)}")
    assert all(g < 0.05 for g in perfect_gaps.values())


def test_criterion_05_perfect_csit_ordering(perfect_sweep):
    cells = cells_by_key(perfect_sweep)
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    chain = (("zf-dpc-rs", "dthp-rs"), ("dthp-rs", "cthp-rs"),
             ("cthp-rs", "rs-linear"))
    violations = []
    for x in snrs:
        for hi, lo in chain + tuple(RS_BASE_PAIRS):
            a = np.array(cells[hi, x].per_channel_asr)
            b = np.array(cells[lo, x].per_channel_asr)
            diff = float(np.mean(a - b))
            if diff < 0 and -diff > paired_halfwidth(a - b):
                violations.append((hi, lo, x, diff))
    gains = {
        rs: (cells[rs, 20.0].esr - cells[base, 20.0].esr)
        / cells[base, 20.0].esr
        for rs, base in RS_BASE_PAIRS
    }
    worst_gain = max(gains.values())
    print(f"criterion 5: ordering violations beyond CI: {violations or 'none'}; "
          f"max RS gain at 20 dB {worst_gain:.2%} (< 10%)")
    assert not violations
    assert worst_gain < 0.10


def test_criterion_06_fixed_error_rs_keeps_growing(fixed_error_sweep):
    cells = cells_by_key(fixed_error_sweep)
    base_deltas = {}
    margins = {}
    for rs, base in RS_BASE_PAIRS:
        base_delta = cells[base, 30.0].esr - cells[base, 25.0].esr
        base_deltas[base] = base_delta
        rs_growth = (np.array(cells[rs, 30.0].per_channel_asr)
                     - np.array(cells[rs, 25.0].per_channel_asr))
        base_growth = (np.array(cells[base, 30.0].per_channel_asr)
                       - np.array(cells[base, 25.0].per_channel_asr))
        margin = rs_growth - base_growth
        margins[rs] = (float(np.mean(margin)), paired_halfwidth(margin))
    print(f"criterion 6: non-RS 25->30 dB growth "
          f"{ {k: round(v, 3) for k, v in base_deltas.items()} } (< 0.3); "
          f"RS growth margins over base "
          f"{ {k: (round(m, 3), round(h, 3)) for k, (m, h) in margins.items()} }")
    assert all(d < 0.3 for d in base_deltas.values())
    assert all(m > h for m, h in margins.values())


def test_criterion_07_error_variance_ordering(variance_sweep):
    cells = cells_by_key(variance_sweep)
    grid = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    dc_gaps = {x: cells["dthp-rs", x].esr - cells["cthp-rs", x].esr
               for x in grid}
    cl_gaps = {x: cells["cthp-rs", x].esr - cells["rs-linear", x].esr
               for x in grid}
    best_non_rs = max(cells[tag, 0.5].esr for tag in ("zf", "cthp", "dthp"))
    ratio = cells["dthp-rs", 0.5].esr / best_non_rs
    print(f"criterion 7: dTHP-RS minus cTHP-RS "
          f"{ {x: round(g, 3) for x, g in dc_gaps.items()} }; "
          f"cTHP-RS minus RS-linear "
          f"{ {x: round(g, 3) for x, g in cl_gaps.items()} }; "
          f"dTHP-RS over best non-RS at 0.5: {ratio:.3f}x (need >= 1.5)")
    assert all(g >= 0 for g in dc_gaps.values())
    assert all(g >= 0 for g in cl_gaps.values())
    assert ratio >= 1.5


def test_criterion_08_scaled_error_slopes(scaled_error_sweep):
    cells = cells_by_key(scaled_error_sweep)
    snrs = np.array([20.0, 25.0, 30.0])
    slopes = {
        tag: float(np.polyfit(
            snrs, [cells[tag, x].esr for x in snrs], 1
        )[0])
        for tag in (t.tag for t in SweepConfig().schemes)
    }
    print("criterion 8: high-SNR slopes "
          f"{ {k: round(v, 4) for k, v in slopes.items()} }")
    for rs, base in RS_BASE_PAIRS:
        assert slopes[rs] > slopes[base]


def test_criterion_09_determinism(tmp_path):
    argv = ["sweep-snr", "--schemes", "zf,dthp-rs", "--channels", "3",
            "--error-samples", "10", "--split-grid", "0:0.1:0.3",
            "--snr-db", "10,15", "--error-variance", "0.2", "--seed", "12345"]
    paths = [tmp_path / name for name in ("one.csv", "two.csv")]
    for path in paths:
        assert cli_main(argv + ["--out", str(path)]) == 0
    byte_identical = (
        paths[0].read_bytes() == paths[1].read_bytes()
        and (tmp_path / "one.csv.config.json").read_bytes()
        == (tmp_path / "two.csv.config.json").read_bytes()
    )

    config = SweepConfig(
        schemes=(parse_scheme_tag("zf"), parse_scheme_tag("dthp-rs")),
        error_regime=ErrorRegime.fixed_variance(0.2),
        snr_grid_db=(10.0, 15.0),
        n_channels=3,
        n_error_samples=10,
        power_split_grid=(0.0, 0.1, 0.2, 0.3),
        master_seed=12345,
    )
    serial = run_sweep(config, n_jobs=1)
    parallel = run_sweep(config, n_jobs=2)
    print(f"criterion 9: rerun byte-identical: {byte_identical}; "
          f"serial equals parallel: {serial.cells == parallel.cells}")
    assert byte_identical
    assert serial.cells == parallel.cells
