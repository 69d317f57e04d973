"""Tests for the modulo signal chain."""

import dataclasses

import numpy as np
import pytest

from rsthp import (
    ModuloLattice,
    SchemeTag,
    build_precoders,
    complex_gaussian,
    measure_power_loss,
    modulo_reduce,
    qam_constellation,
    random_feedback_matrix,
    run_perfect_csit_chain,
    stream_rng,
    thp_encode,
)
from rsthp.exceptions import NonUnitDiagonalError, SchemeMismatchError

from helpers import random_channel

TAU2 = ModuloLattice(tau=2.0)


class TestConstellations:
    def test_unit_energy(self):
        for order in (4, 16, 64):
            qam = qam_constellation(order)
            assert len(qam.points) == order
            assert abs(np.mean(np.abs(qam.points) ** 2) - 1.0) < 1e-12

    def test_qam4_geometry(self):
        qam = qam_constellation(4)
        # Coordinates +-1/sqrt(2), modulo base 2*sqrt(2).
        assert abs(qam.spacing - np.sqrt(2.0)) < 1e-12
        assert abs(qam.lattice().tau - 2.0 * np.sqrt(2.0)) < 1e-12
        coords = sorted({round(p.real, 9) for p in qam.points})
        assert coords == [round(-1 / np.sqrt(2), 9), round(1 / np.sqrt(2), 9)]

    def test_points_inside_cell(self):
        for order in (4, 16, 64):
            qam = qam_constellation(order)
            tau = qam.lattice().tau
            assert np.all(np.abs(qam.points.real) < tau / 2)
            assert np.all(np.abs(qam.points.imag) < tau / 2)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            qam_constellation(8)


class TestModuloReduce:
    def test_in_cell_unchanged(self):
        assert modulo_reduce(0.3 + 0.3j, TAU2) == 0.3 + 0.3j

    def test_wraps_positive(self):
        assert abs(modulo_reduce(1.2 + 0.0j, TAU2) - (-0.8 + 0.0j)) < 1e-12

    def test_boundary_is_half_open(self):
        # -tau/2 stays, +tau/2 wraps to -tau/2.
        assert modulo_reduce(-1.0 + 0.0j, TAU2) == -1.0 + 0.0j
        assert modulo_reduce(1.0 + 0.0j, TAU2) == -1.0 + 0.0j

    def test_idempotent_and_periodic(self):
        rng = np.random.default_rng(0)
        z = 5.0 * (rng.standard_normal(10000) + 1j * rng.standard_normal(10000))
        reduced = modulo_reduce(z, TAU2)
        assert np.all(reduced.real >= -1.0) and np.all(reduced.real < 1.0)
        assert np.all(reduced.imag >= -1.0) and np.all(reduced.imag < 1.0)
        np.testing.assert_array_equal(modulo_reduce(reduced, TAU2), reduced)
        np.testing.assert_allclose(
            modulo_reduce(z + 2.0, TAU2), reduced, atol=1e-12
        )


class TestThpEncode:
    def test_identity_feedback(self):
        s = np.array([0.5 + 0.5j, -0.3 - 0.1j])
        w, d = thp_encode(s, np.eye(2), TAU2)
        np.testing.assert_array_equal(w, s)
        assert not np.any(d)

    def test_no_wrap_example(self):
        # Hand computation with every value strictly inside the cell:
        # the half-open [-tau/2, tau/2) convention wraps the +tau/2 edge,
        # so boundary inputs are avoided here (real constellations never
        # touch the edge).
        b = np.array([[1.0, 0.0], [0.9, 1.0]])
        w, d = thp_encode(np.array([0.8 + 0j, 1.0 + 0j]), b, TAU2)
        # z2 = 1 - 0.9 * 0.8 = 0.28, in cell.
        np.testing.assert_allclose(w, [0.8, 0.28], atol=1e-12)
        assert not np.any(d)

    def test_wrap_example(self):
        b = np.array([[1.0, 0.0], [1.5, 1.0]])
        w, d = thp_encode(np.array([0.8 + 0j, 1.0 + 0j]), b, TAU2)
        # z2 = 1 - 1.5 * 0.8 = -0.2, in cell.
        np.testing.assert_allclose(w, [0.8, -0.2], atol=1e-12)
        assert not np.any(d)
        w, d = thp_encode(np.array([0.8 + 0j, -0.9 + 0j]), b, TAU2)
        # z2 = -0.9 - 1.2 = -2.1, wraps up by one lattice step.
        np.testing.assert_allclose(w, [0.8, -0.1], atol=1e-12)
        np.testing.assert_allclose(d, [0.0, 2.0], atol=1e-12)

    def test_inversion_identity_bulk(self):
        # B w = s + d on 10^4 random blocks, offsets on the lattice.
        qam = qam_constellation(4)
        lattice = qam.lattice()
        b = random_feedback_matrix(4, 1.2, 17)
        rng = np.random.default_rng(18)
        s = rng.choice(qam.points, size=(10000, 4))
        w, d = thp_encode(s, b, lattice)
        assert np.max(np.abs(w @ b.T - s - d)) < 1e-10
        offsets = d / lattice.tau
        assert np.max(np.abs(offsets.real - np.round(offsets.real))) < 1e-12
        assert np.max(np.abs(offsets.imag - np.round(offsets.imag))) < 1e-12
        # First stream has no feedback term, so it never wraps.
        assert not np.any(d[:, 0])
        # Outputs are confined to the cell.
        assert np.all(np.abs(w.real) <= lattice.tau / 2)
        assert np.all(np.abs(w.imag) <= lattice.tau / 2)

    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(NonUnitDiagonalError):
            thp_encode(np.ones(2), np.diag([1.0, 2.0]), TAU2)

    def test_upper_entries_rejected(self):
        b = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NonUnitDiagonalError):
            thp_encode(np.ones(2), b, TAU2)


class TestChain:
    def test_dthp_noise_cancellation(self):
        qam = qam_constellation(4)
        lattice = qam.lattice()
        h = random_channel(21)
        ps = build_precoders(h, SchemeTag("dthp"), 10.0, 0.75)
        s = np.random.default_rng(22).choice(qam.points, size=4)
        noise = np.ones(4, dtype=complex)
        trace = run_perfect_csit_chain(ps, s, noise, lattice)
        expected = trace.v + ps.g_diag * noise / ps.beta
        np.testing.assert_allclose(trace.received, expected, atol=1e-12)

    def test_cthp_noise_cancellation(self):
        qam = qam_constellation(4)
        lattice = qam.lattice()
        h = random_channel(23)
        ps = build_precoders(h, SchemeTag("cthp"), 10.0, 0.75)
        s = np.random.default_rng(24).choice(qam.points, size=4)
        noise = complex_gaussian(np.random.default_rng(25), (4,))
        trace = run_perfect_csit_chain(ps, s, noise, lattice)
        expected = trace.v + noise / ps.beta
        np.testing.assert_allclose(trace.received, expected, atol=1e-12)

    def test_zero_noise_recovers_v(self):
        qam = qam_constellation(4)
        lattice = qam.lattice()
        h = random_channel(26)
        for base in ("cthp", "dthp"):
            ps = build_precoders(h, SchemeTag(base), 10.0, 0.75)
            s = np.random.default_rng(27).choice(qam.points, size=4)
            trace = run_perfect_csit_chain(ps, s, np.zeros(4), lattice)
            np.testing.assert_allclose(trace.received, trace.v, atol=1e-9)

    def test_beta_scale_breaks_cancellation(self):
        qam = qam_constellation(4)
        lattice = qam.lattice()
        ps = build_precoders(random_channel(28), SchemeTag("dthp"), 10.0, 0.75)
        geometry = dataclasses.replace(ps.geometry, unit_map=1.01 * ps.geometry.unit_map)
        ps = dataclasses.replace(ps, geometry=geometry)
        s = np.random.default_rng(29).choice(qam.points, size=4)
        trace = run_perfect_csit_chain(ps, s, np.zeros(4), lattice)
        assert np.max(np.abs(trace.received - trace.v)) > 1e-3

    def test_linear_scheme_rejected(self):
        ps = build_precoders(random_channel(30), SchemeTag("zf"), 10.0, 0.75)
        with pytest.raises(SchemeMismatchError):
            run_perfect_csit_chain(
                ps, np.ones(4), np.zeros(4), qam_constellation(4).lattice()
            )

    def test_transmit_power_near_budget(self):
        # Average ||x||^2 over many blocks stays within 5% of the budget
        # (the nominal power loss is only approximately the realized one).
        qam = qam_constellation(4)
        lattice = qam.lattice()
        e_tr = 10.0
        rng = np.random.default_rng(31)
        for base in ("cthp", "dthp"):
            ps = build_precoders(random_channel(32), SchemeTag(base), e_tr, 0.75)
            s = rng.choice(qam.points, size=(10000, 4))
            w, _ = thp_encode(s, ps.b_matrix, lattice)
            x = w @ ps.tx_basis.T
            avg_power = float(np.mean(np.sum(np.abs(x) ** 2, axis=1)))
            assert avg_power <= 1.05 * e_tr


class TestPowerLoss:
    def test_identity_feedback_is_lossless(self):
        qam = qam_constellation(4)
        loss = measure_power_loss(qam, np.eye(4), qam.lattice(), 20000, 1)
        assert abs(loss - 1.0) < 1e-12

    def test_qam4_dense_feedback(self):
        # Frozen protocol: 8 streams, strong subdiagonals, so the later
        # streams wrap often and approach the uniform-in-cell limit
        # (M-1)/M = 0.75.
        qam = qam_constellation(4)
        dense = random_feedback_matrix(8, 1.5, 77)
        loss = measure_power_loss(qam, dense, qam.lattice(), 200000, 99)
        assert 0.72 <= loss <= 0.78

    def test_qam16_dense_feedback(self):
        qam = qam_constellation(16)
        dense = random_feedback_matrix(8, 1.5, 77)
        loss = measure_power_loss(qam, dense, qam.lattice(), 200000, 99)
        assert abs(loss - 15.0 / 16.0) < 0.02

    def test_deterministic(self):
        qam = qam_constellation(4)
        dense = random_feedback_matrix(8, 1.5, 77)
        a = measure_power_loss(qam, dense, qam.lattice(), 50000, 5)
        b = measure_power_loss(qam, dense, qam.lattice(), 50000, 5)
        assert a == b

    def test_single_stream_rejected(self):
        qam = qam_constellation(4)
        with pytest.raises(NonUnitDiagonalError):
            measure_power_loss(qam, np.eye(1), qam.lattice(), 1000, 0)
