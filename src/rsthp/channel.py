"""CSIT error generation and error regimes.

Every random draw goes through a keyed generator built from a
SeedSequence tuple, so any quantity can be re-derived from the master
seed alone. Stream tags keep channel draws, the per-realization error
ensemble and the chain check's receiver noise on independent streams:
reading more realizations never shifts the channel, and realization m
is the same no matter how many are requested. The channel draw itself
lives in the sweep layer.

A channel's error ensemble is drawn at unit variance by
unit_error_draws and scaled afterwards: draw_error_ensemble scales it
to one variance, and a sweep draws it once per channel and scales it to
every variance it rates. Nothing is kept between calls.

Realization m of channel c is drawn from the generator that
stream_rng(seed, ERROR_STREAM, c, m) would build, without building one
SeedSequence per realization. NumPy freezes the SeedSequence hash (NEP
19): 32-bit multiply, xor and shift rounds over the key's 32-bit words.
_error_states runs those rounds for a whole range of m at once and
yields each key's generate_state(4, np.uint64); PCG64 seeds itself
from that row as it would from the SeedSequence. stream_rng stays the
single-key path, with the last key's state cached, and the tests hold
the range path to it bit for bit.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .exceptions import InvalidVarianceError

# Stream tags for SeedSequence keys. Values are arbitrary but frozen;
# changing them changes every simulated number.
CHANNEL_STREAM = 1
ERROR_STREAM = 3
NOISE_STREAM = 7

_REGIME_KINDS = ("perfect", "fixed-variance", "snr-scaled")

# Realizations whose generator states are hashed (and drawn) in one
# numpy pass; it bounds those temporaries whatever M is.
_SEED_BLOCK = 1024

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def stream_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator of SeedSequence((master_seed, *key)); its _HashedSeed cannot spawn."""
    entropy = (int(master_seed),) + tuple(int(k) for k in key)
    return np.random.Generator(np.random.PCG64(_HashedSeed(_stream_state(entropy))))


@lru_cache(maxsize=1)
def _stream_state(entropy: tuple[int, ...]) -> np.ndarray:
    """Read-only SeedSequence(entropy).generate_state(4, np.uint64)."""
    state = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
    state.flags.writeable = False
    return state


def complex_gaussian(
    rng: np.random.Generator, shape, variance: float = 1.0
) -> np.ndarray:
    """Circularly symmetric complex Gaussian array, E|x|^2 = variance.

    Drawn at unit variance and scaled afterwards, so changing the
    variance rescales a fixed realization instead of producing new
    randomness. That keeps error draws common across a variance grid.
    """
    _check_variance(variance)
    real = rng.standard_normal(shape)
    return np.sqrt(variance / 2.0) * (real + 1j * rng.standard_normal(shape))


def _check_variance(variance: float) -> None:
    if not 0.0 <= variance < math.inf:
        raise InvalidVarianceError(
            f"variance must be finite and >= 0, got {variance}"
        )


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
    scale differs). Bit for bit, realization m is complex_gaussian on
    the generator stream_rng(seed, ERROR_STREAM, channel_index, m).
    """
    _check_variance(sigma_e2)
    errors = unit_error_draws(n_users, n_tx, n_error_samples, seed, channel_index)
    errors *= np.sqrt(sigma_e2 / 2.0)
    return errors


def unit_error_draws(
    n_users: int, n_tx: int, n_error_samples: int, seed: int, channel_index: int = 0
) -> np.ndarray:
    """Fresh (M, K, N) unit draws of one channel's error ensemble.

    Each realization's real then imaginary parts come from one
    standard_normal call, the stream order of two (K, N) draws, and are
    written into the parts: the bits of real + 1j * imag, as
    complex_gaussian forms them, but for a part drawn as exactly -0.0.
    """
    unit = np.empty((n_error_samples, n_users, n_tx), dtype=complex)
    scratch = np.empty((min(_SEED_BLOCK, n_error_samples), 2, n_users, n_tx))
    for start in range(0, n_error_samples, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, n_error_samples)
        states = _error_states(seed, channel_index, start, stop)
        block = scratch[: len(states)]
        for parts, state in zip(block, states):
            rng = np.random.Generator(np.random.PCG64(_HashedSeed(state)))
            rng.standard_normal(out=parts)
        out = unit[start : start + len(states)]
        out.real, out.imag = block[:, 0], block[:, 1]
    return unit


class _HashedSeed(ISeedSequence):
    """A SeedSequence whose state was hashed in advance: PCG64 asks it
    for generate_state(4, np.uint64) and gets that row back."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _error_states(seed: int, channel_index: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 4) uint64 rows: row i is
    SeedSequence((seed, ERROR_STREAM, channel_index, start + i))
    .generate_state(4, np.uint64), hashed for every m in one pass.

    Raises:
        ValueError: a negative seed or channel index, as SeedSequence
            raises, or a realization index outside [0, 2**32), where m
            is one 32-bit word.
    """
    if start < 0 or stop > 1 << 32:
        raise ValueError(f"realization indices must lie in [0, 2**32), got [{start}, {stop})")
    m = np.arange(start, stop, dtype=np.uint64)
    # Each key word but m's is the same in every row and stays an int.
    entropy = (
        _uint32_words(seed) + _uint32_words(ERROR_STREAM) + _uint32_words(channel_index) + [m]
    )
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    # SeedSequence.mix_entropy, then generate_state(4, np.uint64).
    pool = [
        hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)
    ]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    state = np.empty((len(m), 2 * _POOL_SIZE), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state[:, i] = value ^ (value >> 16)
    # Little-endian 32-bit pairs make each 64-bit word.
    return state[:, 0::2] | (state[:, 1::2] << 32)


def _uint32_words(n: int) -> list[int]:
    """n as SeedSequence splits it: little-endian 32-bit words, 0 as one."""
    n = int(n)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words
