"""Precoder construction for the downlink schemes under comparison.

Supported schemes: zero-forcing (zf), centralized and decentralized
Tomlinson-Harashima (cthp, dthp), zero-forcing dirty paper coding
(zf-dpc, the dthp structure without the modulo power penalty), and the
rate-splitting variant of each (rs-linear, cthp-rs, dthp-rs,
zf-dpc-rs). A rate-splitting scheme spends a fraction of the power
budget on a common stream beamformed along the dominant right singular
vector of the channel estimate; the remainder feeds the base scheme.
"""

from dataclasses import dataclass

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

    build_precoders alone decides where THP's per-user scaling
    g = 1/diag(L) sits and records it in two fields every reader uses.
    tx_basis = beta * (unit map) sends one unit of each feedback output
    (each private symbol for zero-forcing) to the antennas; rx_gain is
    the gain receiver k applies: ones for zf and cthp (g sits in
    tx_basis), g_diag for dthp and zf-dpc. For THP schemes p_private =
    tx_basis B^-1, with b_matrix the unit-diagonal feedback B, so
    h_est @ p_private = beta diag(1 / rx_gain); zero-forcing has no B
    and p_private = tx_basis. p_common is None when the power split is
    zero.
    """

    scheme: SchemeTag
    p_common: np.ndarray | None
    p_private: np.ndarray
    tx_basis: np.ndarray
    rx_gain: np.ndarray
    g_diag: np.ndarray | None
    b_matrix: np.ndarray | None
    beta: float
    h_est: np.ndarray
    lambda_eff: float

    @property
    def n_users(self) -> int:
        return self.h_est.shape[0]


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
        ValueError: power_split or power_loss out of range.
    """
    h_est = np.asarray(h_est, dtype=complex)
    n_users = h_est.shape[0]
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
        p_common = np.sqrt(power_split * e_tr) * direction
        e_private = e_tr - float(np.real(np.vdot(p_common, p_common)))
    else:
        p_common = None
        e_private = float(e_tr)

    lambda_eff = power_loss if scheme.uses_power_loss else 1.0

    if scheme.base == "zf":
        pinv = pseudo_inverse(h_est)
        unit_map = pinv / np.linalg.norm(pinv, axis=0, keepdims=True)
        unit_power, rx_gain = n_users, np.ones(n_users)
        g_diag = b_matrix = None
    else:
        lq = lq_decompose(h_est)
        unit_map = lq.q_matrix.conj().T
        g_diag = 1.0 / lq.diagonal
        if scheme.base == "cthp":
            # Unit-diagonal feedback on the right: B = L diag(g). The
            # per-user gains fold into the transmitter, so beta divides
            # the power budget by the accumulated inverse-gain energy.
            b_matrix = lq.l_matrix * g_diag[np.newaxis, :]
            unit_map = unit_map * g_diag[np.newaxis, :]
            unit_power, rx_gain = np.sum(g_diag**2), np.ones(n_users)
        else:
            # dthp and zf-dpc: unit-diagonal feedback on the left,
            # B = diag(g) L, receiver gains stay at the users.
            b_matrix = lq.l_matrix * g_diag[:, np.newaxis]
            unit_power, rx_gain = n_users, g_diag

    beta = float(np.sqrt(lambda_eff * e_private / unit_power))
    tx_basis = beta * unit_map
    p_private = tx_basis
    if b_matrix is not None:
        p_private = tx_basis @ np.linalg.inv(b_matrix)
    return PrecoderSet(
        scheme=scheme,
        p_common=p_common,
        p_private=p_private,
        tx_basis=tx_basis,
        rx_gain=rx_gain,
        g_diag=g_diag,
        b_matrix=b_matrix,
        beta=beta,
        h_est=h_est,
        lambda_eff=lambda_eff,
    )


def effective_transmit_power(precoders: PrecoderSet) -> float:
    """Average radiated power of the transmit chain for this precoder set.

    The private signal on the air is tx_basis times the feedback outputs
    (the private symbols for zero-forcing), whose per-symbol power is
    1 / lambda_eff (1 for zero-forcing); the feedback inverse never
    touches the air, so its energy does not count.
    """
    common = 0.0
    if precoders.p_common is not None:
        common = float(np.real(np.vdot(precoders.p_common, precoders.p_common)))
    private = float(np.sum(np.abs(precoders.tx_basis) ** 2)) / precoders.lambda_eff
    return common + private
