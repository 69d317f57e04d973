"""CSIT error generation and error regimes.

Every random draw goes through a keyed generator built from a
SeedSequence tuple, so any quantity can be re-derived from the master
seed alone. Stream tags keep channel draws and the per-realization
error ensemble on independent streams: reading more realizations never
shifts the channel, and realization m is the same no matter how many
are requested. The channel draw itself lives in the sweep layer.

Error draws come from draw_error_ensemble alone. It keeps the unit
draws of the last channel asked for and scales them by the requested
variance; a sweep rates every (scheme, grid point) cell on one channel
before the next, so it makes each channel's draws once and not once per
cell.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import InvalidVarianceError

# Stream tags for SeedSequence keys. Values are arbitrary but frozen;
# changing them changes every simulated number.
CHANNEL_STREAM = 1
ERROR_STREAM = 3

_REGIME_KINDS = ("perfect", "fixed-variance", "snr-scaled")


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator keyed by (master_seed, *key) via SeedSequence."""
    entropy = (int(master_seed),) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def complex_gaussian(
    rng: np.random.Generator, shape, variance: float = 1.0
) -> np.ndarray:
    """Circularly symmetric complex Gaussian array, E|x|^2 = variance.

    Drawn at unit variance and scaled afterwards, so changing the
    variance rescales a fixed realization instead of producing new
    randomness. That keeps error draws common across a variance grid.
    """
    _check_variance(variance)
    return np.sqrt(variance / 2.0) * _unit_complex_gaussian(rng, shape)


def _check_variance(variance: float) -> None:
    if not 0.0 <= variance < math.inf:
        raise InvalidVarianceError(
            f"variance must be finite and >= 0, got {variance}"
        )


def _unit_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """real + 1j * imag with standard normal parts: E|x|^2 = 2."""
    real = rng.standard_normal(shape)
    imag = rng.standard_normal(shape)
    return real + 1j * imag


@dataclass(frozen=True)
class ErrorRegime:
    """CSIT quality model.

    kind is one of "perfect", "fixed-variance", "snr-scaled". For the
    fixed regime sigma_e2 is the per-entry error variance; for the
    scaled regime the variance is e_tr ** (-alpha).
    """

    kind: str
    sigma_e2: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _REGIME_KINDS:
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if not 0.0 <= self.sigma_e2 < math.inf:
            raise InvalidVarianceError(
                f"error variance must be finite and >= 0, got {self.sigma_e2}"
            )
        if not math.isfinite(self.alpha):
            raise InvalidVarianceError(f"alpha must be finite, got {self.alpha}")

    @classmethod
    def perfect(cls) -> "ErrorRegime":
        return cls(kind="perfect")

    @classmethod
    def fixed_variance(cls, sigma_e2: float) -> "ErrorRegime":
        return cls(kind="fixed-variance", sigma_e2=float(sigma_e2))

    @classmethod
    def snr_scaled(cls, alpha: float) -> "ErrorRegime":
        return cls(kind="snr-scaled", alpha=float(alpha))

    @property
    def is_perfect(self) -> bool:
        return self.kind == "perfect"

    def variance_at(self, e_tr: float) -> float:
        """Error variance for a given total transmit power budget."""
        if self.kind == "perfect":
            return 0.0
        if self.kind == "fixed-variance":
            return self.sigma_e2
        return float(e_tr) ** (-self.alpha)


def draw_error_ensemble(
    n_users: int,
    n_tx: int,
    sigma_e2: float,
    n_error_samples: int,
    seed: int,
    channel_index: int = 0,
) -> np.ndarray:
    """(M, K, N) stack of CSIT error realizations, a fresh writable array.

    Realization m is keyed by (seed, channel_index, m) alone, so asking
    for more realizations extends the stack without changing earlier
    entries, and the same draws underlie every error variance (only the
    scale differs). Realization m equals complex_gaussian on the
    generator stream_rng(seed, ERROR_STREAM, channel_index, m), bit for
    bit: the cached unit draws get the same scaling it applies.
    """
    _check_variance(sigma_e2)
    unit = _unit_error_draws(seed, channel_index, n_error_samples, n_users, n_tx)
    return np.sqrt(sigma_e2 / 2.0) * unit


@lru_cache(maxsize=1)
def _unit_error_draws(
    seed: int, channel_index: int, n_error_samples: int, n_users: int, n_tx: int
) -> np.ndarray:
    """Read-only (M, K, N) unit draws of one channel's error ensemble."""
    unit = np.empty((n_error_samples, n_users, n_tx), dtype=complex)
    for m in range(n_error_samples):
        unit[m] = _unit_complex_gaussian(
            stream_rng(seed, ERROR_STREAM, channel_index, m), (n_users, n_tx)
        )
    unit.flags.writeable = False
    return unit
