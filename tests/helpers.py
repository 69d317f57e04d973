"""Helpers that several test modules share: a seeded complex Gaussian
matrix, a count of the factorizations made and what a matrix gets from
them, the per-split rate oracle and the rate kernel's arguments for
builds on one channel."""

import dataclasses

import numpy as np

from rsthp import SchemeTag, build_precoders, linalg
from rsthp.exceptions import SimulatorError


def random_channel(seed, shape=(4, 4)):
    """A matrix whose real and imaginary parts are standard normal draws
    of np.random.default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def count_factorizations(monkeypatch):
    """Empty linalg's store (by factoring a stack of no matrices), wrap
    linalg.factor_stack, the one entry point of every factorization (a
    sweep's blocks and each single matrix missing from the store), and
    return the list of the stacks it factors from then on, each a copy
    of its (C, K, N) argument, in call order."""
    stacks = []
    factor_stack = linalg.factor_stack
    factor_stack(np.empty((0, 1, 1)))

    def counting(a):
        stacks.append(np.array(a))
        return factor_stack(a)

    monkeypatch.setattr(linalg, "factor_stack", counting)
    return stacks


def factored_outcomes(a):
    """What matrix a gets from the store: its pseudo-inverse, LQ factors,
    dominant direction and zf, cthp and dthp geometry records, each
    array as a list of its shape and bytes, or each error as a tuple of
    its type and message."""
    def records(h):
        return [build_precoders(h, SchemeTag(base), 10.0, 0.75).geometry
                for base in ("zf", "cthp", "dthp")]

    def fields(value):
        if isinstance(value, np.ndarray):
            return [value.shape, value.tobytes()]
        if isinstance(value, (list, tuple)):
            return [fields(v) for v in value]
        if dataclasses.is_dataclass(value):
            return [fields(getattr(value, f.name)) for f in dataclasses.fields(value)]
        return value

    outcomes = []
    for op in (linalg.pseudo_inverse, linalg.lq_decompose,
               linalg.dominant_right_singular_vector, records):
        try:
            outcomes.append(fields(op(a)))
        except SimulatorError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


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
    one channel's geometry record, the same T sets on each of n_rows
    rows of that channel, as the sweep stacks them: (n_rows, T) arrays."""
    assert all(ps.geometry is builds[0].geometry for ps in builds)
    return (
        [builds[0].geometry] * n_rows,
        np.array([[ps.beta for ps in builds]] * n_rows),
        np.array([[ps.common_power for ps in builds]] * n_rows),
    )
