"""Precoder construction for the downlink schemes under comparison.

Supported schemes: zero-forcing (zf), centralized and decentralized
Tomlinson-Harashima (cthp, dthp), zero-forcing dirty paper coding
(zf-dpc, the dthp structure without the modulo power penalty), and the
rate-splitting variant of each (rs-linear, cthp-rs, dthp-rs,
zf-dpc-rs). A rate-splitting scheme spends a fraction of the power
budget on a common stream beamformed along the dominant right singular
vector of the channel estimate; the remainder feeds the base scheme.

Neither the power split nor the SNR changes a base scheme's geometry:
its unit map, feedback matrix B, private precoder (unit map) B^-1 and
per-user gains. All four bases' geometries come from one
pseudo-inverse and one LQ factorization of the channel estimate: cTHP
and dTHP differ only in where the diagonal scaling sits, and ZF-DPC
shares dTHP's arrays. They are computed once per channel and the last
channel's are kept, so a build of the split search only picks its scale
beta and its common stream.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import SchemeMismatchError
from .linalg import dominant_right_singular_vector, lq_decompose, pseudo_inverse

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


@dataclass(frozen=True)
class PrecoderSet:
    """Everything the transmitter side derives from one channel estimate.

    beta and p_common (None at a zero power split) are the build's own;
    the other arrays are its channel's read-only geometry, shared by
    every build on that channel and across bases (dthp and zf-dpc share
    all of it, every THP base shares g_diag). build_precoders alone
    decides where THP's per-user scaling g = 1/diag(L) sits: unit_map
    sends one unit of each feedback output (each private symbol for
    zero-forcing) to the antennas, and receiver k applies rx_gain, ones
    for zf and cthp (g sits in unit_map), g_diag for dthp and zf-dpc.
    unit_private = unit_map B^-1, with b_matrix the unit-diagonal
    feedback B (unit_map for zero-forcing, which has no B), so h_est @
    unit_private = diag(1 / rx_gain) for THP. tx_basis and p_private
    scale them by beta into a fresh array on each read.
    """

    scheme: SchemeTag
    p_common: np.ndarray | None
    unit_map: np.ndarray
    unit_private: np.ndarray
    rx_gain: np.ndarray
    g_diag: np.ndarray | None
    b_matrix: np.ndarray | None
    beta: float
    h_est: np.ndarray
    lambda_eff: float

    @property
    def n_users(self) -> int:
        return self.h_est.shape[0]

    @property
    def tx_basis(self) -> np.ndarray:
        return self.beta * self.unit_map

    @property
    def p_private(self) -> np.ndarray:
        return self.beta * self.unit_private


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

    if power_split > 0.0:
        direction = dominant_right_singular_vector(h_est)
        p_common = math.sqrt(power_split * e_tr) * direction
        e_private = e_tr - np.vdot(p_common, p_common).real
    else:
        p_common = None
        e_private = e_tr

    lambda_eff = power_loss if scheme.uses_power_loss else 1.0
    unit_map, b_matrix, unit_private, unit_power, rx_gain, g_diag = _geometry(
        h_est.tobytes(), h_est.shape
    )[scheme.base]
    return PrecoderSet(
        scheme=scheme,
        p_common=p_common,
        unit_map=unit_map,
        unit_private=unit_private,
        rx_gain=rx_gain,
        g_diag=g_diag,
        b_matrix=b_matrix,
        beta=math.sqrt(lambda_eff * e_private / unit_power),
        h_est=h_est,
        lambda_eff=lambda_eff,
    )


@lru_cache(maxsize=1)
def _geometry(h_bytes: bytes, shape: tuple[int, ...]) -> dict[str, tuple]:
    """The split- and SNR-invariant part of every base scheme's precoder.

    Maps each base to (unit_map, b_matrix, unit_private = unit_map @
    inv(b_matrix), unit_power, rx_gain, g_diag) for the channel estimate
    whose complex128 bytes and shape are given; the arrays are
    read-only. Zero-forcing has no b_matrix or g_diag (None), and its
    unit_private is unit_map. A bad channel raises on every call:
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
        return unit_map, b_matrix, unit_private, unit_power, rx_gain, g_diag

    zf_map = pinv / np.linalg.norm(pinv, axis=0, keepdims=True)
    by_base = {
        "zf": (zf_map, None, zf_map, n_users, ones, None),
        "cthp": thp(q_map * g_diag[np.newaxis, :], b_right, np.sum(g_diag**2), ones),
        "dthp": thp(q_map, b_left, n_users, g_diag),
    }
    by_base["zf-dpc"] = by_base["dthp"]
    for entry in by_base.values():
        for array in entry:
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
    return by_base
