"""Monte-Carlo averaging: sample average over CSIT errors, grid search
over the common/private power split, and ergodic averaging over channel
draws, organized into reproducible sweeps.

Randomness discipline: the channel for index c is keyed by (seed, c)
and the error realization m for that channel by (seed, c, m), never by
position in a loop. Every scheme, power split, and grid point therefore
sees the same channels and the same error draws (common random
numbers), and a sweep is a pure function of its config. That also makes
serial and parallel execution bit-identical: workers recompute cells
independently and results are assembled in a fixed order.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    CHANNEL_STREAM,
    ErrorRegime,
    complex_gaussian,
    draw_error_ensemble,
    stream_rng,
)
from .exceptions import (
    DimensionMismatchError,
    EmptyGridError,
    InvalidVarianceError,
    SchemeMismatchError,
)
from .precoding import ALL_SCHEME_TAGS, SchemeTag, build_precoders
from .rates import sum_rate_samples

# 95% normal-approximation confidence multiplier for the ESR halfwidth.
_CI_FACTOR = 1.96

# Receiver noise variance of every sweep; snr_db_to_power assumes it.
SIGMA_N2 = 1.0


def default_power_split_grid() -> tuple[float, ...]:
    """Power-split search grid 0, 0.05, ..., 0.95."""
    return tuple(i / 20 for i in range(20))


def _finite_positive(what: str, compute) -> float:
    """compute(), or ValueError unless finite and > 0 (overflow is inf)."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} is {value}, it must be finite and > 0")
    return value


def snr_db_to_power(snr_db: float) -> float:
    """Transmit power budget for a given SNR in dB (unit noise variance)."""
    return _finite_positive(
        f"the transmit power at {snr_db:g} dB", lambda: 10.0 ** (snr_db / 10.0)
    )


def draw_channel(
    seed: int, channel_index: int, n_users: int, n_tx: int
) -> np.ndarray:
    """(K, N) channel estimate number channel_index, keyed by
    (seed, channel_index) alone; entries are i.i.d. CN(0, 1)."""
    return complex_gaussian(
        stream_rng(seed, CHANNEL_STREAM, channel_index), (n_users, n_tx)
    )


def average_sum_rate(
    h_est: np.ndarray,
    scheme: SchemeTag,
    e_tr: float,
    power_loss: float,
    power_split: float,
    errors: np.ndarray,
) -> float:
    """Sample-average sum rate over the (M, K, N) error ensemble of one
    channel; a single all-zero realization gives the perfect-CSIT rate."""
    precoders = build_precoders(h_est, scheme, e_tr, power_loss, power_split)
    return float(np.mean(sum_rate_samples(precoders, errors, SIGMA_N2)))


def optimize_power_split(
    h_est: np.ndarray,
    scheme: SchemeTag,
    e_tr: float,
    power_loss: float,
    grid,
    errors: np.ndarray,
) -> tuple[float, float]:
    """Best power split on a grid by exhaustive sample-average search.

    Returns (split, average sum rate). Ties go to the smaller split so
    the result is unambiguous. The same error ensemble is used at every
    grid point, which keeps the objective a deterministic function of
    the split.
    """
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise EmptyGridError("power-split grid is empty")
    if not scheme.rs and any(t > 0.0 for t in grid):
        raise SchemeMismatchError(
            f"scheme {scheme.tag} has no common stream to allocate power to"
        )
    best_split = None
    best_asr = -math.inf
    for split in grid:
        asr = average_sum_rate(h_est, scheme, e_tr, power_loss, split, errors)
        if asr > best_asr or (asr == best_asr and split < best_split):
            best_asr = asr
            best_split = split
    return best_split, best_asr


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep; two configs with equal fields
    produce byte-identical outputs.

    snr_grid_db is the x grid for SNR sweeps. When error_variance_grid
    is nonempty the sweep instead walks that grid at a fixed SNR
    (snr_grid_db must then hold exactly one value), each point using its
    own fixed error variance; error_regime must then stay perfect.
    """

    n_users: int = 4
    n_tx: int = 4
    schemes: tuple[SchemeTag, ...] = ALL_SCHEME_TAGS
    error_regime: ErrorRegime = ErrorRegime.perfect()
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    error_variance_grid: tuple[float, ...] = ()
    n_channels: int = 50
    n_error_samples: int = 100
    power_loss: float = 0.75
    power_split_grid: tuple[float, ...] = field(
        default_factory=default_power_split_grid
    )
    master_seed: int = 12345

    @property
    def x_kind(self) -> str:
        if self.error_variance_grid:
            return "error_variance"
        if self.error_regime.kind == "snr-scaled":
            return "snr_db_alpha"
        return "snr_db"

    def validate(self) -> None:
        if not self.schemes:
            raise EmptyGridError("no schemes selected")
        if not self.power_split_grid:
            raise EmptyGridError("power-split grid is empty")
        if self.error_variance_grid:
            if len(self.snr_grid_db) != 1:
                raise EmptyGridError(
                    "error-variance sweep needs exactly one SNR point, "
                    f"got {len(self.snr_grid_db)}"
                )
        elif not self.snr_grid_db:
            raise EmptyGridError("SNR grid is empty")
        if not 1 <= self.n_users <= self.n_tx:
            raise DimensionMismatchError(
                f"need 1 <= n_users <= n_tx, got n_users={self.n_users}, "
                f"n_tx={self.n_tx}"
            )
        if self.n_channels < 1:
            raise DimensionMismatchError(
                f"n_channels must be >= 1, got {self.n_channels}"
            )
        if self.n_error_samples < 1:
            raise DimensionMismatchError(
                f"n_error_samples must be >= 1, got {self.n_error_samples}"
            )
        if not all(0.0 <= t < 1.0 for t in self.power_split_grid):
            raise ValueError(
                f"power splits must be in [0, 1), got {self.power_split_grid}"
            )
        if not 0.0 < self.power_loss <= 1.0:
            raise ValueError(f"power_loss must be in (0, 1], got {self.power_loss}")
        for snr_db in self.snr_grid_db:
            e_tr = snr_db_to_power(snr_db)
            if self.x_kind == "snr_db_alpha":
                _finite_positive(
                    f"the error variance at {snr_db:g} dB",
                    lambda: self.error_regime.variance_at(e_tr),
                )
        if not all(0.0 <= v < math.inf for v in self.error_variance_grid):
            raise InvalidVarianceError(
                "error variances must be finite and >= 0, "
                f"got {self.error_variance_grid}"
            )
        if self.error_variance_grid and not self.error_regime.is_perfect:
            raise ValueError("an error-variance sweep needs a perfect error_regime")
        # A repeated scheme or grid point would be computed again and
        # written as a duplicate row.
        for what, values in (
            ("scheme", [s.tag for s in self.schemes]),
            ("SNR point", self.snr_grid_db),
            ("error variance", self.error_variance_grid),
        ):
            if len(set(values)) < len(values):
                raise ValueError(f"each {what} may appear once, got {list(values)}")


@dataclass(frozen=True)
class SweepCell:
    """One (scheme, grid point) of a sweep."""

    scheme_tag: str
    x_value: float
    esr: float
    ci_halfwidth: float
    chosen_split_mean: float
    per_channel_asr: tuple[float, ...]
    per_channel_split: tuple[float, ...]


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[SweepCell, ...]


def ergodic_sum_rate(
    config: SweepConfig,
    scheme: SchemeTag,
    e_tr: float,
    regime: ErrorRegime,
    x_value: float,
) -> SweepCell:
    """Ergodic sum rate of one scheme at one grid point.

    Averages the per-channel best average sum rate over n_channels
    channel draws. Each channel's error ensemble is drawn once (one
    all-zero realization under perfect CSIT) and shared by every split.
    Rate-splitting schemes search the power-split grid per channel;
    base schemes search the one-point grid (0.0,). The confidence
    halfwidth is the 95% normal interval on the channel sample mean.
    """
    grid = config.power_split_grid if scheme.rs else (0.0,)
    asr_values = np.empty(config.n_channels)
    splits = np.empty(config.n_channels)
    for c in range(config.n_channels):
        h_est = draw_channel(config.master_seed, c, config.n_users, config.n_tx)
        if regime.is_perfect:
            errors = np.zeros((1, config.n_users, config.n_tx), dtype=complex)
        else:
            errors = draw_error_ensemble(
                config.n_users,
                config.n_tx,
                regime.variance_at(e_tr),
                config.n_error_samples,
                config.master_seed,
                c,
            )
        splits[c], asr_values[c] = optimize_power_split(
            h_est, scheme, e_tr, config.power_loss, grid, errors
        )

    esr = float(np.mean(asr_values))
    if config.n_channels > 1:
        ci = float(
            _CI_FACTOR
            * np.std(asr_values, ddof=1)
            / math.sqrt(config.n_channels)
        )
    else:
        ci = 0.0
    return SweepCell(
        scheme_tag=scheme.tag,
        x_value=float(x_value),
        esr=esr,
        ci_halfwidth=ci,
        chosen_split_mean=float(np.mean(splits)),
        per_channel_asr=tuple(float(a) for a in asr_values),
        per_channel_split=tuple(float(s) for s in splits),
    )


def _sweep_points(config: SweepConfig) -> list[tuple[float, float, ErrorRegime]]:
    """Grid points as (x_value, e_tr, regime) triples."""
    if config.error_variance_grid:
        e_tr = snr_db_to_power(config.snr_grid_db[0])
        return [
            (float(s2), e_tr, ErrorRegime.fixed_variance(s2))
            for s2 in config.error_variance_grid
        ]
    return [
        (float(db), snr_db_to_power(db), config.error_regime)
        for db in config.snr_grid_db
    ]


def _evaluate_cell(args: tuple) -> SweepCell:
    config, scheme, e_tr, regime, x_value = args
    return ergodic_sum_rate(config, scheme, e_tr, regime, x_value)


def run_sweep(config: SweepConfig, n_jobs: int = 1) -> SweepResult:
    """Evaluate every (scheme, grid point) cell of a sweep.

    n_jobs is an execution option only: results are assembled in the
    same (scheme tag, x value) order regardless, and each cell is a
    pure function of the config, so parallel output is bit-identical to
    serial output.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    config.validate()
    tasks = [
        (config, scheme, e_tr, regime, x_value)
        for scheme in config.schemes
        for (x_value, e_tr, regime) in _sweep_points(config)
    ]
    tasks.sort(key=lambda t: (t[1].tag, t[4]))
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            cells = tuple(pool.map(_evaluate_cell, tasks))
    else:
        cells = tuple(_evaluate_cell(t) for t in tasks)
    return SweepResult(config=config, cells=cells)

