"""Precoder construction for the downlink schemes under comparison.

Supported schemes: zero-forcing (zf), centralized and decentralized
Tomlinson-Harashima (cthp, dthp), zero-forcing dirty paper coding
(zf-dpc, the dthp structure without the modulo power penalty), and the
rate-splitting variant of each (rs-linear, cthp-rs, dthp-rs,
zf-dpc-rs). A rate-splitting scheme spends a fraction of the power
budget on a common stream beamformed along the dominant right singular
vector of the channel estimate; the remainder feeds the base scheme.

Neither the power split nor the SNR changes a channel's geometry: the
channel estimate itself, the common stream's direction d, and each base
scheme's unit map, feedback matrix B, private precoder (unit map) B^-1
and per-user gains. All four bases' geometries come from one
pseudo-inverse and one LQ factorization of the channel estimate: cTHP
and dTHP differ only in where the diagonal scaling sits, and ZF-DPC
shares dTHP's record (SchemeTag.record). They are computed once per
channel and the last channel's are kept (_geometry). A build of the
split search is its two scalars, the private scale beta and the common
stream's power P, on a reference to its channel's geometry record; the
rate kernel reads the record and those scalars, not the build.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import SchemeMismatchError
from .linalg import (
    _anchored_direction,
    dominant_right_singular_vector,
    lq_decompose,
    pseudo_inverse,
)

_BASES = ("zf", "cthp", "dthp", "zf-dpc")


@dataclass(frozen=True)
class SchemeTag:
    """Scheme identity: a base precoder plus a rate-splitting flag."""

    base: str
    rs: bool = False

    def __post_init__(self):
        if self.base not in _BASES:
            raise SchemeMismatchError(f"unknown base scheme {self.base!r}")

    @property
    def tag(self) -> str:
        """Canonical text form used by the CLI and in outputs."""
        if self.base == "zf":
            return "rs-linear" if self.rs else "zf"
        return f"{self.base}-rs" if self.rs else self.base

    @property
    def record(self) -> str:
        """The base whose geometry record this scheme's builds share on a
        channel: zf-dpc shares dthp's, every other base has its own."""
        return "dthp" if self.base == "zf-dpc" else self.base

    @property
    def uses_power_loss(self) -> bool:
        """True when the modulo power penalty applies (not for zf-dpc)."""
        return self.base in ("cthp", "dthp")

    def __str__(self) -> str:
        return self.tag


def parse_scheme_tag(text: str) -> SchemeTag:
    """Parse a scheme tag like "dthp-rs" or "rs-linear"."""
    norm = text.strip().lower()
    for candidate in ALL_SCHEME_TAGS:
        if candidate.tag == norm:
            return candidate
    known = ", ".join(s.tag for s in ALL_SCHEME_TAGS)
    raise SchemeMismatchError(f"unknown scheme {text!r} (known: {known})")


ALL_SCHEME_TAGS = (
    SchemeTag("zf"),
    SchemeTag("zf", rs=True),
    SchemeTag("cthp"),
    SchemeTag("dthp"),
    SchemeTag("cthp", rs=True),
    SchemeTag("dthp", rs=True),
    SchemeTag("zf-dpc"),
    SchemeTag("zf-dpc", rs=True),
)


@dataclass(frozen=True, eq=False)
class Geometry:
    """The split- and SNR-invariant part of one base scheme's precoder
    on one channel estimate, built once per channel by _geometry; its
    arrays are read-only, and a channel's records share its h_est (a
    copy of the caller's array) and its common-stream direction.

    build_precoders alone decides where THP's per-user scaling g =
    1/diag(L) (g_diag) sits: unit_map sends one unit of each feedback
    output (each private symbol for zero-forcing) to the antennas, and
    receiver k applies rx_gain, ones for zf and cthp (g sits in
    unit_map), g_diag for dthp and zf-dpc. unit_private = unit_map B^-1,
    with b_matrix the unit-diagonal feedback B, so h_est @ unit_private =
    diag(1 / rx_gain) for THP; zero-forcing has no B or g_diag (None),
    and its unit_private is unit_map. unit_power is the private power
    at beta = 1: K, or sum(g^2) for cthp, whose gains sit in unit_map.
    """

    h_est: np.ndarray
    unit_map: np.ndarray
    b_matrix: np.ndarray | None
    unit_private: np.ndarray
    unit_power: float
    rx_gain: np.ndarray
    g_diag: np.ndarray | None

    @cached_property
    def direction(self) -> np.ndarray:
        """The common stream's direction d, h_est's dominant right singular
        vector, read from linalg's cache on first use: by the record's first
        build at a nonzero split, so a base-only record takes no SVD."""
        return _anchored_direction(self.h_est.tobytes(), self.h_est.shape)


@dataclass(slots=True, eq=False)
class PrecoderSet:
    """Everything the transmitter side derives from one channel estimate.

    beta and common_power, the common stream's power P (0.0 at a zero
    power split), are the build's own; geometry, its channel's record,
    is shared by every build of its base on that channel. h_est,
    b_matrix, rx_gain and g_diag read through to the record; tx_basis
    and p_private scale its unit_map and unit_private by beta, and
    p_common is sqrt(P) d (None at P = 0, where the rate kernel rates no
    common stream), each a fresh array on each read. Builds compare by
    identity.
    """

    scheme: SchemeTag
    beta: float
    common_power: float
    geometry: Geometry

    @property
    def h_est(self) -> np.ndarray:
        return self.geometry.h_est

    @property
    def n_users(self) -> int:
        return self.h_est.shape[0]

    @property
    def b_matrix(self) -> np.ndarray | None:
        return self.geometry.b_matrix

    @property
    def rx_gain(self) -> np.ndarray:
        return self.geometry.rx_gain

    @property
    def g_diag(self) -> np.ndarray | None:
        return self.geometry.g_diag

    @property
    def tx_basis(self) -> np.ndarray:
        return self.beta * self.geometry.unit_map

    @property
    def p_private(self) -> np.ndarray:
        return self.beta * self.geometry.unit_private

    @property
    def p_common(self) -> np.ndarray | None:
        if self.common_power > 0.0:
            return math.sqrt(self.common_power) * self.geometry.direction
        return None


def build_precoders(
    h_est: np.ndarray,
    scheme: SchemeTag,
    e_tr: float,
    power_loss: float,
    power_split: float = 0.0,
) -> PrecoderSet:
    """Build the full precoder set for one scheme on one channel estimate.

    Args:
        h_est: (K, N) downlink channel estimate, row k belonging to user k.
        scheme: which precoder family to build.
        e_tr: total transmit power budget (noise variance is 1 elsewhere,
            so this doubles as the SNR on a linear scale).
        power_loss: modulo precoding power loss factor in (0, 1]; ignored
            by zf and zf-dpc, which use 1.
        power_split: fraction of e_tr assigned to the common stream.
            Must be 0 for non-rate-splitting schemes.

    Raises:
        SchemeMismatchError: power_split > 0 on a non-RS scheme.
        ValueError: e_tr, power_split or power_loss out of range.
        DimensionMismatchError, NonFiniteMatrixError, ZeroMatrixError,
        RankDeficientError: h_est is not a finite full-row-rank (K, N)
            matrix with K <= N (see linalg.lq_decompose).
    """
    h_est = np.asarray(h_est, dtype=complex)
    if not 0.0 < e_tr < math.inf:
        raise ValueError(f"e_tr must be finite and > 0, got {e_tr}")
    if not 0.0 <= power_split < 1.0:
        raise ValueError(f"power_split must be in [0, 1), got {power_split}")
    if not 0.0 < power_loss <= 1.0:
        raise ValueError(f"power_loss must be in (0, 1], got {power_loss}")
    if power_split > 0.0 and not scheme.rs:
        raise SchemeMismatchError(
            f"scheme {scheme.tag} has no common stream, power_split must be 0"
        )

    geometry = _geometry(h_est.tobytes(), h_est.shape)[scheme.base]
    # beta and P in Python floats: numpy scalars would give the same bits
    # at several times the cost per operation.
    common_power, e_private = 0.0, e_tr
    if power_split > 0.0:
        common_power = power_split * e_tr
        p_common = dominant_right_singular_vector(h_est)
        p_common *= math.sqrt(common_power)
        e_private = e_tr - float(np.vdot(p_common, p_common).real)
        # The record keeps d for the rate kernel: linalg's one-entry cache
        # moves on with the next channel.
        geometry.direction

    lambda_eff = power_loss if scheme.uses_power_loss else 1.0
    return PrecoderSet(
        scheme,
        math.sqrt(lambda_eff * e_private / geometry.unit_power),
        common_power,
        geometry,
    )


@lru_cache(maxsize=1)
def _geometry(h_bytes: bytes, shape: tuple[int, ...]) -> dict[str, Geometry]:
    """Each base scheme's Geometry on the channel estimate whose
    complex128 bytes and shape are given, by base; zf-dpc maps to dthp's
    record (SchemeTag.record), and every record holds the one read-only
    h_est made from the bytes. A bad channel raises on every call:
    lru_cache stores no exception.
    """
    h_est = np.frombuffer(h_bytes, dtype=complex).reshape(shape)
    n_users = shape[0]
    pinv = pseudo_inverse(h_est)
    lq = lq_decompose(h_est)
    ones = np.ones(n_users)
    g_diag = 1.0 / lq.diagonal
    q_map = lq.q_matrix.conj().T
    # cthp: unit-diagonal feedback on the right, B = L diag(g). The
    # per-user gains fold into the transmitter, so beta divides the
    # power budget by the accumulated inverse-gain energy.
    b_right = lq.l_matrix * g_diag[np.newaxis, :]
    # dthp and zf-dpc: unit-diagonal feedback on the left, B = diag(g) L,
    # receiver gains stay at the users.
    b_left = lq.l_matrix * g_diag[:, np.newaxis]

    def thp(unit_map, b_matrix, unit_power, rx_gain):
        unit_private = unit_map @ np.linalg.inv(b_matrix)
        return Geometry(h_est, unit_map, b_matrix, unit_private, unit_power, rx_gain, g_diag)

    zf_map = pinv / np.linalg.norm(pinv, axis=0, keepdims=True)
    by_base = {
        "zf": Geometry(h_est, zf_map, None, zf_map, n_users, ones, None),
        "cthp": thp(q_map * g_diag[np.newaxis, :], b_right, float(np.sum(g_diag**2)), ones),
        "dthp": thp(q_map, b_left, n_users, g_diag),
    }
    by_base["zf-dpc"] = by_base["dthp"]
    for geometry in by_base.values():
        for array in vars(geometry).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
    return by_base
