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
shares dTHP's record (SchemeTag.record). They are computed for a whole
stack of channels at once, from linalg's factors of the stack that
holds the channel (a sweep's chunk, or the channel alone), and kept with
those factors in linalg's store (_records). A build of the split search
is its two scalars, the private scale beta and the common stream's
power P, on a reference to its channel's geometry record; the rate
kernel reads the record and those scalars, not the build.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import SchemeMismatchError

# lq_decompose and pseudo_inverse have no caller here: the records come
# from linalg's stacked pass. They stay module attributes because the
# benchmark's tracer (bench/layers.py, targets) patches all three names.
from .linalg import (
    FactoredStack,
    dominant_right_singular_vector,
    factored,
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
    on one channel estimate, built for every channel of a factored stack
    at once (_records); its arrays are read-only, and a channel's records
    share its h_est (the stack's copy of the caller's array) and its
    common-stream direction d, h_est's dominant right singular vector.

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
    direction: np.ndarray


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

    # The records of the stack that holds h_est: a sweep's chunk, or h_est
    # factored alone. A bad channel raises its error, named after
    # pseudo_inverse, on every call.
    stack, c = factored(h_est, "pseudo_inverse")
    if stack.records is None:
        stack.records = _records(stack)
    geometry = stack.records[c][scheme.base]
    # beta and P in Python floats: numpy scalars would give the same bits
    # at several times the cost per operation.
    common_power, e_private = 0.0, e_tr
    if power_split > 0.0:
        common_power = power_split * e_tr
        p_common = dominant_right_singular_vector(h_est)
        p_common *= math.sqrt(common_power)
        e_private = e_tr - float(np.vdot(p_common, p_common).real)

    lambda_eff = power_loss if scheme.uses_power_loss else 1.0
    return PrecoderSet(
        scheme,
        math.sqrt(lambda_eff * e_private / geometry.unit_power),
        common_power,
        geometry,
    )


def _records(stack: FactoredStack) -> list[dict[str, Geometry]]:
    """Each channel's geometry records on a factored (C, K, N) stack, by
    base (zf-dpc maps to dthp's record, SchemeTag.record), computed for
    the whole stack at once: all four bases' geometries come from its
    pseudo-inverses and LQ factors, and every array is a read-only slice
    of a stacked one. A slice that failed its checks gets records that
    mean nothing; build_precoders raises before handing them out."""
    h_est, direction = stack.matrices, stack.direction
    n_users = h_est.shape[1]
    g_diag = 1.0 / np.real(np.diagonal(stack.l_matrix, axis1=-2, axis2=-1))
    q_map = np.swapaxes(stack.q_matrix.conj(), -1, -2)
    # cthp: unit-diagonal feedback on the right, B = L diag(g). The
    # per-user gains fold into the transmitter, so beta divides the
    # power budget by the accumulated inverse-gain energy.
    b_right = stack.l_matrix * g_diag[:, np.newaxis, :]
    cthp_map = q_map * g_diag[:, np.newaxis, :]
    cthp_private = cthp_map @ np.linalg.inv(b_right)
    cthp_power = np.sum(g_diag**2, axis=-1).tolist()
    # dthp and zf-dpc: unit-diagonal feedback on the left, B = diag(g) L,
    # receiver gains stay at the users.
    b_left = stack.l_matrix * g_diag[:, :, np.newaxis]
    dthp_private = q_map @ np.linalg.inv(b_left)
    zf_map = stack.pinv / np.linalg.norm(stack.pinv, axis=-2, keepdims=True)
    ones = np.ones(n_users)
    for array in (g_diag, q_map, b_right, cthp_map, cthp_private, b_left, dthp_private,
                  zf_map, ones):
        array.flags.writeable = False
    records = []
    for c in range(len(h_est)):
        h, d, g, zf = h_est[c], direction[c], g_diag[c], zf_map[c]
        dthp = Geometry(h, q_map[c], b_left[c], dthp_private[c], n_users, g, g, d)
        records.append({
            "zf": Geometry(h, zf, None, zf, n_users, ones, None, d),
            "cthp": Geometry(h, cthp_map[c], b_right[c], cthp_private[c], cthp_power[c],
                             ones, g, d),
            "dthp": dthp,
            "zf-dpc": dthp,
        })
    return records
