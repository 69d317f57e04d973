"""Monte-Carlo averaging: sample average over CSIT errors, grid search
over the common/private power split, and ergodic averaging over channel
draws, organized into reproducible sweeps.

Randomness discipline: the channel for index c is keyed by (seed, c)
and the error realization m for that channel by (seed, c, m), never by
position in a loop. Every scheme, power split, and grid point therefore
sees the same channels and the same error draws (common random
numbers), and a sweep is a pure function of its config.

The unit of work is a channel: its best split and average sum rate in
a cell depend on that channel's draws alone, and a cell is the mean
over its channels (the ergodic sum rate as a mean of per-channel
sample averages). _rate_channel rates every cell on one channel and
raises the first failing cell's error in output order; run_sweep and
ergodic_sum_rate both rate through it and join each cell's values in
channel order.

The per-process caches hold only the current channel: draw_error_ensemble
keeps its unit draws, and each error variance rescales them;
build_precoders keeps its geometry for all base schemes, and linalg its
common-stream direction, so every split and grid point only rescales
them. The eight schemes share three private geometries (zf, cthp, and
dthp with zf-dpc), and a channel's cells that share a geometry and an
error variance are rated in one kernel call (rates.sum_rate_table),
every split of every such cell stacked; it gives each split the bits
that rating it alone gives, and optimize_power_split is the same search
for one cell. SweepConfig.validate rejects a config whose estimated
working set in one process exceeds MEMORY_BUDGET_BYTES (512 MiB).
"""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

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
    SaturatedSinrError,
    SchemeMismatchError,
)
from .precoding import ALL_SCHEME_TAGS, SchemeTag, build_precoders
from .rates import sum_rate_samples, sum_rate_table

# 95% normal-approximation confidence multiplier for the ESR halfwidth.
_CI_FACTOR = 1.96

# Receiver noise variance of every sweep; snr_db_to_power assumes it.
SIGMA_N2 = 1.0

# Bytes one sweep process may hold at once: the process itself at
# n_jobs = 1, each worker otherwise. SweepConfig.validate rejects a
# config whose estimate (_working_set_bytes) is larger before any cell
# runs, instead of failing with a MemoryError deep inside one.
MEMORY_BUDGET_BYTES = 512 * 2**20

# Bytes the sweep keeps per (cell, channel) until it returns: the split
# and ASR in the float64 row a channel returns and in the joined table,
# and as the SweepCell's two tuples of Python floats (32 B each).
_RESULT_BYTES = 2 * (8 + 8 + 32)

# Bytes each channel's row keeps beyond its values: the array's header
# (128 B) and its list slot.
_ROW_BYTES = 128 + 8

# Bytes one build keeps until its channel is rated, beyond its common
# stream's values: the PrecoderSet with its scalars and the stream's
# array header (about 400 B, measured with tracemalloc).
_BUILD_BYTES = 512


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


def check_dimensions(n_users: int, n_tx: int) -> None:
    """DimensionMismatchError unless 1 <= n_users <= n_tx."""
    if not 1 <= n_users <= n_tx:
        raise DimensionMismatchError(
            f"need 1 <= n_users <= n_tx, got n_users={n_users}, n_tx={n_tx}"
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
    """Best power split on an ascending grid by exhaustive sample-average
    search.

    Returns (split, average sum rate). Ties go to the smaller split so
    the result is unambiguous. The same error ensemble is used at every
    grid point, which keeps the objective a deterministic function of
    the split. One sum_rate_table call rates the whole grid; each
    split's average is bit-identical to average_sum_rate at that split.
    This is the sweep's own path for one cell: the sweep stacks several
    cells' grids into one table and picks each split the same way.
    """
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise EmptyGridError("power-split grid is empty")
    if list(grid) != sorted(set(grid)):
        raise ValueError(
            f"power splits must ascend without repeats, got {list(grid)}"
        )
    if not scheme.rs and any(t > 0.0 for t in grid):
        raise SchemeMismatchError(
            f"scheme {scheme.tag} has no common stream to allocate power to"
        )
    precoder_sets = [
        build_precoders(h_est, scheme, e_tr, power_loss, split) for split in grid
    ]
    return _best_splits(sum_rate_table(precoder_sets, errors, SIGMA_N2), [grid])[0]


def _best_splits(table: np.ndarray, grids: list) -> list[tuple[float, float]]:
    """(split, average sum rate) of the best split of each ascending grid
    whose rows lie back to back in a sum_rate_table table. The first of
    equal averages wins, which gives ties to the smaller split."""
    # np.mean's own sum and division, without its per-call overhead.
    asrs = (table.sum(axis=1) / table.shape[1]).tolist()
    best, start = [], 0
    for grid in grids:
        run = asrs[start:start + len(grid)]
        i = run.index(max(run))
        best.append((grid[i], run[i]))
        start += len(grid)
    return best


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
        check_dimensions(self.n_users, self.n_tx)
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
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
        # written as a duplicate row; a repeated split, searched again.
        for what, values in (
            ("scheme", [s.tag for s in self.schemes]),
            ("SNR point", self.snr_grid_db),
            ("error variance", self.error_variance_grid),
            ("power split", self.power_split_grid),
        ):
            if len(set(values)) < len(values):
                raise ValueError(f"each {what} may appear once, got {list(values)}")
        # The config is recorded as given, and a search that keeps the
        # first of equal maxima (an argmax over the grid) gives ties to
        # the smaller split only on an ascending grid.
        if list(self.power_split_grid) != sorted(self.power_split_grid):
            raise ValueError(
                "power splits must be in ascending order, "
                f"got {list(self.power_split_grid)}"
            )
        self._check_memory()

    def _check_memory(self) -> None:
        # Name the size that breaks the budget on its own: the matrices
        # if one channel with one draw already does, else the draws per
        # channel, else the number of channels.
        one_draw = replace(self, n_error_samples=1)
        if _working_set_bytes(one_draw, 1) > MEMORY_BUDGET_BYTES:
            flag = "--users/--tx-antennas (n_users/n_tx)"
        elif _working_set_bytes(self, 1) > MEMORY_BUDGET_BYTES:
            flag = "--error-samples (n_error_samples)"
        else:
            flag = "--channels (n_channels)"
        check_memory("the sweep", _working_set_bytes(self, self.n_channels), flag)


def check_memory(what: str, need: int, flag: str) -> None:
    """ValueError naming flag unless need bytes fit MEMORY_BUDGET_BYTES."""
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"{what} would hold about {need / 2**20:,.0f} MiB in one process, "
            f"over the {MEMORY_BUDGET_BYTES // 2**20} MiB budget; lower {flag}"
        )


def _working_set_bytes(config: SweepConfig, n_channels: int) -> int:
    """Estimated peak bytes of one process that rates every cell of
    config on n_channels channels: the arrays of one channel
    (matrix_bytes), plus _RESULT_BYTES for each (cell, channel) and
    _ROW_BYTES for each channel. Under perfect CSIT nothing is drawn and
    M is the one all-zero realization."""
    drawn = bool(config.error_variance_grid) or not config.error_regime.is_perfect
    m = config.n_error_samples if drawn else 1
    n_points = len(config.error_variance_grid or config.snr_grid_db)
    n_cells = len(config.schemes) * n_points
    n_builds = n_points * sum(
        len(config.power_split_grid) if s.rs else 1 for s in config.schemes
    )
    matrices = matrix_bytes(
        config.n_users, config.n_tx, m, _max_splits(config), drawn, n_builds
    )
    return matrices + (_RESULT_BYTES * n_cells + _ROW_BYTES) * n_channels


def _max_splits(config: SweepConfig) -> int:
    """The most splits one cell of config searches."""
    return len(config.power_split_grid) if any(s.rs for s in config.schemes) else 1


def _kernel_block_values(t: int, m: int, k: int) -> int:
    """Values (sets x M x K) of one sum_rate_table block: one split
    search's (T, M, K), or up to 2**16 when that is smaller, so cells
    with few draws stack into one kernel call."""
    return max(t * m * k, 2**16)


def matrix_bytes(k: int, n: int, m: int, t: int, drawn: bool, n_builds: int) -> int:
    """Estimated peak bytes of the arrays that rating every cell on one
    (K, N) channel holds, with M error realizations, at most T splits
    per cell and n_builds builds in all.

    In complex128 values: the cached unit error ensemble (M K N, when
    drawn) and precoder geometry (under 10 K N), one variance's scaled
    ensemble and h_est + E (2 M K N), each build's common stream (N)
    and the kernel's gains (M K K); _BUILD_BYTES per build; in float64
    values, the kernel's SINR and rate blocks, six of one stacked block
    of _kernel_block_values.
    """
    ensemble = m * k * n if drawn else 0
    complex_values = ensemble + 10 * k * n + 2 * m * k * n + n_builds * n + m * k * k
    return (
        16 * complex_values
        + _BUILD_BYTES * n_builds
        + 8 * 6 * _kernel_block_values(t, m, k)
    )


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


def _join(cells: list[tuple], rows: list[np.ndarray]) -> tuple[SweepCell, ...]:
    """Each cell's SweepCell from the channels' (2, len(cells)) rows, in
    channel order. The confidence halfwidth is the 95% normal interval
    on the channel sample mean."""
    # (2, cells, channels): each cell's values are contiguous.
    splits, asr_values = np.stack(rows, axis=-1)
    n = len(rows)
    return tuple(
        SweepCell(
            scheme_tag=scheme.tag,
            x_value=float(x_value),
            esr=float(np.mean(asr)),
            ci_halfwidth=float(_CI_FACTOR * np.std(asr, ddof=1) / math.sqrt(n))
            if n > 1 else 0.0,
            chosen_split_mean=float(np.mean(split)),
            per_channel_asr=tuple(asr.tolist()),
            per_channel_split=tuple(split.tolist()),
        )
        for (scheme, x_value, _, _), split, asr in zip(cells, splits, asr_values)
    )


def ergodic_sum_rate(
    config: SweepConfig,
    scheme: SchemeTag,
    e_tr: float,
    regime: ErrorRegime,
    x_value: float,
) -> SweepCell:
    """Ergodic sum rate of one scheme at one grid point: the mean of the
    per-channel best average sum rate over n_channels channel draws.
    It rates through run_sweep's path, so run_sweep gives the same cell."""
    cells = [(scheme, x_value, e_tr, regime)]
    rows = [_rate_channel(config, cells, c) for c in range(config.n_channels)]
    return _join(cells, rows)[0]


def _sweep_cells(config: SweepConfig) -> list[tuple]:
    """Every (scheme, x_value, e_tr, regime) cell in output order: by
    scheme tag, then by x value."""
    if config.error_variance_grid:
        e_tr = snr_db_to_power(config.snr_grid_db[0])
        points = [
            (float(s2), e_tr, ErrorRegime.fixed_variance(s2))
            for s2 in config.error_variance_grid
        ]
    else:
        points = [
            (float(db), snr_db_to_power(db), config.error_regime)
            for db in config.snr_grid_db
        ]
    cells = [(scheme, *point) for scheme in config.schemes for point in points]
    return sorted(cells, key=lambda cell: (cell[0].tag, cell[1]))


def _rate_channel(
    config: SweepConfig, cells: list[tuple], channel_index: int
) -> np.ndarray:
    """The best power split and its average sum rate of every cell on
    one channel, as a (2, len(cells)) array.

    Rate-splitting schemes search the power-split grid; base schemes
    search the one-point grid (0.0,). Every build is made first; then
    the cells that share an error variance and a private geometry
    (precoding._geometry's arrays: zf with rs-linear, cthp with cthp-rs,
    dthp with zf-dpc and their RS schemes) are rated in one
    sum_rate_table call per block of at most _kernel_block_values
    values. Each variance's ensemble (one all-zero realization under
    perfect CSIT) rescales the channel's unit draws, so every scheme
    and grid point sees the same draws. A build's error propagates at
    the first cell; a SaturatedSinrError is raised for the first
    saturated cell in output order, with its grid point and channel,
    whichever block meets it first.
    """
    n_users, n_tx = config.n_users, config.n_tx
    grids, builds = [], []
    blocks = {}  # variance -> {geometry -> cell indices}; None is perfect CSIT
    for index, (scheme, _, e_tr, regime) in enumerate(cells):
        # One channel draw per cell and one build per (cell, split): the
        # calls bench/tests/test_tracer.py pins.
        h_est = draw_channel(config.master_seed, channel_index, n_users, n_tx)
        grids.append(config.power_split_grid if scheme.rs else (0.0,))
        builds.append([
            build_precoders(h_est, scheme, e_tr, config.power_loss, split)
            for split in grids[-1]
        ])
        variance = None if regime.is_perfect else regime.variance_at(e_tr)
        geometry = id(builds[-1][0].unit_private)
        blocks.setdefault(variance, {}).setdefault(geometry, []).append(index)

    t = _max_splits(config)
    row = np.empty((2, len(cells)))
    failed = None  # (cell index, message) of the first saturated cell
    for variance, by_geometry in blocks.items():
        if variance is None:
            errors = np.zeros((1, n_users, n_tx), dtype=complex)
        else:
            errors = draw_error_ensemble(
                n_users, n_tx, variance, config.n_error_samples,
                config.master_seed, channel_index,
            )
        m = len(errors)
        max_sets = _kernel_block_values(t, m, n_users) // (m * n_users)
        for members in by_geometry.values():
            sizes = [len(builds[i]) for i in members]
            for block in _chunk(members, sizes, max_sets):
                if failed is not None and block[0] > failed[0]:
                    continue
                try:
                    table = sum_rate_table(
                        [ps for i in block for ps in builds[i]], errors, SIGMA_N2
                    )
                except SaturatedSinrError as exc:
                    cell = [i for i in block for _ in builds[i]][exc.set_index]
                    if failed is None or cell < failed[0]:
                        failed = (cell, str(exc))
                    continue
                best = _best_splits(table, [grids[i] for i in block])
                for i, split_asr in zip(block, best):
                    row[:, i] = split_asr
    if failed is not None:
        cell, message = failed
        raise SaturatedSinrError(
            f"{message} at {config.x_kind}={cells[cell][1]:g} on channel {channel_index}"
        )
    return row


def _chunk(items: list, sizes: list[int], limit: int) -> list[list]:
    """items in order, cut into runs whose sizes sum to at most limit
    (a run of one item may exceed it)."""
    runs, run, total = [], [], 0
    for item, size in zip(items, sizes):
        if run and total + size > limit:
            runs.append(run)
            run, total = [], 0
        run.append(item)
        total += size
    runs.append(run)
    return runs


# In a pool worker: the lowest channel that any worker of its pool has
# seen fail, n_channels while none has (a multiprocessing.Value that
# the pool's initializer hands over).
_lowest_failure = None


def _share_lowest_failure(value) -> None:
    global _lowest_failure
    _lowest_failure = value


def _rate_channel_in_pool(
    config: SweepConfig, cells: list[tuple], channel_index: int
) -> np.ndarray | None:
    """_rate_channel in a pool worker; None, without rating it, for a
    channel above the lowest failing one seen so far, whose error (or a
    lower channel's) the run raises anyway."""
    if channel_index > _lowest_failure.value:
        return None
    try:
        return _rate_channel(config, cells, channel_index)
    except Exception:
        with _lowest_failure.get_lock():
            _lowest_failure.value = min(_lowest_failure.value, channel_index)
        raise


def run_sweep(config: SweepConfig, n_jobs: int = 1) -> SweepResult:
    """Evaluate every (scheme, grid point) cell of a sweep.

    Every cell is rated on one channel before the next channel, so the
    caches need hold only the current one. min(n_jobs, n_channels)
    workers each take one contiguous run of channels, one worker in this
    process. Each cell joins its per-channel values in channel order, so
    the output is bit-identical at any n_jobs. A failing run raises the
    error of the lowest failing channel's first failing cell in output
    order, the one a serial run meets and stops at: both map and the
    pool's map yield channels in order. Pool workers skip every channel
    above the lowest one that has failed so far, and still rate every
    channel below it.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    config.validate()
    cells = _sweep_cells(config)
    channels = range(config.n_channels)
    n_workers = min(n_jobs, config.n_channels)
    if n_workers > 1:
        lowest_failure = multiprocessing.Value("q", config.n_channels)
        # The pool starts all its workers at the first submit.
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_share_lowest_failure,
            initargs=(lowest_failure,),
        ) as pool:
            chunksize = math.ceil(config.n_channels / n_workers)
            rate = partial(_rate_channel_in_pool, config, cells)
            rows = list(pool.map(rate, channels, chunksize=chunksize))
    else:
        rows = list(map(partial(_rate_channel, config, cells), channels))
    return SweepResult(config=config, cells=_join(cells, rows))
