"""Helpers that several test modules share: a seeded complex Gaussian
matrix, the per-split rate oracle and the rate kernel's arguments for
builds on one channel."""

import numpy as np


def random_channel(seed, shape=(4, 4)):
    """A matrix whose real and imaginary parts are standard normal draws
    of np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def split_reference(ps, errors, sigma_n2):
    """One split's sum rates over the (M, K, N) errors from its own
    effective channel (h_est + E) @ p_private, as the kernel computed
    them before splits were stacked: the formula the kernel decomposes."""
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


def kernel_args(builds, n_rows=1):
    """stacked_sum_rate_table's geometries, beta and power for builds on
    one channel's geometry record, over n_rows rows of that channel, as
    the sweep gathers them."""
    assert all(ps.geometry is builds[0].geometry for ps in builds)
    return (
        [builds[0].geometry] * n_rows,
        np.array([ps.beta for ps in builds]),
        np.array([ps.common_power for ps in builds]),
    )
