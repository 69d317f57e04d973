"""Monte-Carlo averaging: sample average over CSIT errors, grid search
over the common/private power split, and ergodic averaging over channel
draws, organized into reproducible sweeps.

Randomness discipline: the channel for index c is keyed by (seed, c)
and the error realization m for that channel by (seed, c, m), never by
position in a loop. Every scheme, power split, and grid point therefore
sees the same channels and the same error draws (common random
numbers), and a sweep is a pure function of its config.

The unit of work is a block of consecutive channels: a channel's best
split and average sum rate in a cell depend on that channel's draws
alone, and a cell is the mean over its channels (the ergodic sum rate
as a mean of per-channel sample averages), so channels stack freely.
Each cell's plan (_cell) fixes its split grid and error variance once;
_rate_channels rates every planned cell on a range of channels, block
by block (_block_plan: as many channels as fit two caps that depend on
the config alone), and raises the lowest failing channel's first
failing cell's error in output order; the memory estimate counts the
same plans and one block. run_sweep (serially, or one contiguous run
of channels per pool worker) and ergodic_sum_rate both rate through
_rate_channels and join each cell's values in channel order.

The per-process caches hold only the current channel:
draw_error_ensemble keeps its unit draws, and each error variance
rescales them; build_precoders keeps one geometry record per base
scheme, which holds the channel and, through linalg's cache, its
common-stream direction, so the build of every split and grid point is
two scalars and a reference to its record. A block keeps its channels'
records, and each reads its direction right after its channel's builds.
The eight schemes share three geometry records (zf, cthp, and dthp with
zf-dpc: SchemeTag.record); the cells that share one are rated on every
channel of a block in one kernel call (rates.stacked_sum_rate_table):
one record per stacked row h_est + E, and the beta and P of every split
of every such cell on every channel, at every error variance. Each
split gets the bits of optimize_power_split, the reference search that
rates one cell split by split.
SweepConfig.validate rejects a config whose estimated working set
exceeds MEMORY_BUDGET_BYTES (512 MiB).
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
)
from .precoding import ALL_SCHEME_TAGS, SchemeTag, build_precoders
from .rates import stacked_sum_rate_table, sum_rate_samples

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

# Values one run of a kernel call rates (sets x M x K) and complex values one
# block of channels and variances stacks, unless one split search or ensemble is
# larger: 256 KiB float64 blocks. On a 2-core x86 host (BLAS on 1 thread) the
# default fixed-error sweep took 0.61 s at 2**15 against 0.67 s at 2**14 and
# 0.71 s at 2**16 (medians of 6 alternating runs). At 100 draws and 4 users a
# run then rates up to 81 sets, not 40.
_BLOCK_VALUES = 2**15

# Bytes the kernel holds per value of a run beyond G0 and its per-user
# sums, its workspace buffers included; tracemalloc measured at most
# 48 B (rate-splitting sets, K = 1, M = 1,000, two rows).
_KERNEL_BYTES = 48

# Bytes _rate_channels keeps per build of a block (its beta and P, as
# Python floats while its channel is built and in float64 arrays after,
# its share of a kernel call's per-set arrays and indices and of the
# best-split search) and per cell on each channel of a block (its plan's
# entries and indices). tracemalloc measured at most 118 B per build
# (400 one-user rs-linear cells on one channel, M = 1 or 3, 5 or 20
# splits, K = N = 1 to 4) and 81 B per one-build cell (K = N = 1, a
# variance per cell, 32 channels a block).
_BUILD_BYTES = 128
_CELL_BYTES = 48


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
    the split. Each split is rated alone by average_sum_rate: this is
    the per-split definition that the sweep's stacked search must
    reproduce bit for bit.
    """
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise EmptyGridError("power-split grid is empty")
    if list(grid) != sorted(set(grid)):
        raise ValueError(f"power splits must ascend without repeats, got {list(grid)}")
    asrs = [average_sum_rate(h_est, scheme, e_tr, power_loss, t, errors) for t in grid]
    best = asrs.index(max(asrs))
    return grid[best], asrs[best]


def _best_splits(means: np.ndarray, lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """For (C, L) average sum rates whose rows each hold runs of lengths
    splits back to back (one ascending grid each), each run's best split
    as (its position in the row, its average): two (C, len(lengths))
    arrays. The first of equal averages wins (the smaller split), as in
    optimize_power_split."""
    starts = np.cumsum([0, *lengths[:-1]])
    best = np.maximum.reduceat(means, starts, axis=1)
    position = np.arange(means.shape[1])
    at_best = means == np.repeat(best, lengths, axis=1)
    first = np.minimum.reduceat(np.where(at_best, position, len(position)), starts, axis=1)
    return first, best


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
    config on n_channels channels: the arrays of one block of channels
    (matrix_bytes, from the cells' plans and _block_plan: their builds,
    largest grid and distinct error variances) and the bookkeeping of its
    cells (_CELL_BYTES for each cell on each channel of the block), plus
    _RESULT_BYTES for each (cell, channel) and _ROW_BYTES for each
    channel. Under perfect CSIT nothing is drawn and M is the one
    all-zero realization."""
    cells = _sweep_cells(config)
    plan = _block_plan(config, cells)
    grids = [grid for _, _, _, grid, _ in cells]
    matrices = matrix_bytes(
        config.n_users, config.n_tx, plan.m, max(map(len, grids)),
        plan.variances != (None,), sum(map(len, grids)), len(plan.variances), plan.channels,
    )
    n_cells = len(cells)
    return (
        matrices + _CELL_BYTES * n_cells * plan.channels
        + (_RESULT_BYTES * n_cells + _ROW_BYTES) * n_channels
    )


def _kernel_block_values(t: int, m: int, k: int) -> int:
    """Values (sets x M x K) of one run of a stacked_sum_rate_table
    call, and at most one record's in a block of channels: one split
    search's (T, M, K), or up to _BLOCK_VALUES when that is smaller, so
    cells and channels with few draws stack into one run."""
    return max(t * m * k, _BLOCK_VALUES)


def _variance_block(m: int, k: int, n: int) -> int:
    """Variances one channel stacks at a time: as many as _BLOCK_VALUES
    complex values hold, at least 1."""
    return max(1, _BLOCK_VALUES // (m * k * n))


def matrix_bytes(
    k: int, n: int, m: int, t: int, drawn: bool, n_builds: int, n_variances: int = 1,
    n_channels: int = 1,
) -> int:
    """Estimated peak bytes of the arrays that rating every cell on a
    block of n_channels (K, N) channels holds, with M error
    realizations, at most T splits per cell, n_builds builds per channel
    and n_variances error variances.

    In complex128 values: one channel's cached unit error ensemble, one
    variance's scaled copy (2 M K N, when drawn) and numpy's buffer for
    adding h_est to that copy (np.getbufsize() values, or M K N if
    fewer), where the peak comes; each channel's precoder geometry
    (under 10 K N); one variance block's stacked realizations (V M K N
    per channel) and their gains G0 with per-user sums (V M K (K + 4));
    _BUILD_BYTES per build; and _KERNEL_BYTES per value of one kernel
    run, which holds at most _kernel_block_values values and at most
    every build's.
    """
    n_rows = n_channels * min(n_variances, _variance_block(m, k, n))
    ensemble = m * k * n if drawn else 0
    add_buffer = min(ensemble, np.getbufsize())
    complex_values = (
        2 * ensemble + add_buffer + 10 * k * n * n_channels + n_rows * m * k * (n + k + 4)
    )
    n_builds *= n_channels
    return (
        16 * complex_values
        + _BUILD_BYTES * n_builds
        + _KERNEL_BYTES * min(_kernel_block_values(t, m, k), n_builds * m * k)
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
        for (scheme, x_value, *_), split, asr in zip(cells, splits, asr_values)
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
    It validates config and rates on run_sweep's path: run_sweep gives the same cell."""
    config.validate()
    cells = [_cell(config, scheme, x_value, e_tr, regime)]
    return _join(cells, _rate_channels(config, cells, range(config.n_channels)))[0]


def _cell(
    config: SweepConfig, scheme: SchemeTag, x_value: float, e_tr: float, regime: ErrorRegime
) -> tuple:
    """One cell's plan, (scheme, x_value, e_tr, split grid, error
    variance): the config's grid for a rate-splitting scheme and (0.0,)
    otherwise, and the variance None under perfect CSIT."""
    grid = config.power_split_grid if scheme.rs else (0.0,)
    variance = None if regime.is_perfect else regime.variance_at(e_tr)
    return scheme, x_value, e_tr, grid, variance


def _sweep_cells(config: SweepConfig) -> list[tuple]:
    """Every cell's plan (_cell) in output order: by scheme tag, then by
    x value."""
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
    cells = [_cell(config, scheme, *point) for scheme in config.schemes for point in points]
    return sorted(cells, key=lambda cell: (cell[0].tag, cell[1]))


@dataclass(frozen=True)
class _BlockPlan:
    """How _rate_channels stacks a sweep's cells: M realizations per
    error variance (1 under perfect CSIT), the distinct variances in
    order (None is perfect CSIT), each geometry record's cell indices in
    output order (by SchemeTag.record), the records whose sets have a
    common stream, the channels of one block, the variances each channel
    stacks at a time (_variance_block) and the sets of one kernel run
    (max_sets)."""

    m: int
    variances: tuple[float | None, ...]
    records: dict[str, list[int]]
    common_records: tuple[str, ...]
    channels: int
    stacked_variances: int
    max_sets: int


def _block_plan(config: SweepConfig, cells: list[tuple]) -> _BlockPlan:
    """The _BlockPlan of config's cells. A block holds as many
    consecutive channels as keep one record's sets x M x K within
    _kernel_block_values and the block's stacked h_est + E within
    _BLOCK_VALUES complex values: at least 1, at most n_channels, and
    never more for more workers."""
    n_users, n_tx = config.n_users, config.n_tx
    _, _, _, grids, variances = zip(*cells)
    distinct = tuple(dict.fromkeys(variances))
    m = 1 if distinct == (None,) else config.n_error_samples
    records = {}
    for index, (scheme, *_) in enumerate(cells):
        records.setdefault(scheme.record, []).append(index)
    kernel_values = _kernel_block_values(max(map(len, grids)), m, n_users)
    most_sets = max(sum(len(grids[i]) for i in members) for members in records.values())
    channels = min(
        kernel_values // (most_sets * m * n_users),
        _BLOCK_VALUES // (len(distinct) * m * n_users * n_tx),
        config.n_channels,
    )
    common = tuple(
        record for record, members in records.items() if any(grids[i][-1] > 0 for i in members)
    )
    stacked = min(len(distinct), _variance_block(m, n_users, n_tx))
    return _BlockPlan(
        m, distinct, records, common, max(1, channels), stacked, kernel_values // (m * n_users)
    )


def _rate_channels(
    config: SweepConfig, cells: list[tuple], channels: range, lowest_failure=None
) -> list[np.ndarray]:
    """The best power split and its average sum rate of every cell on
    each channel of channels, one (2, len(cells)) array per channel in
    channel order.

    Each cell searches its plan's split grid at its plan's error
    variance (see _cell). The channels are rated in blocks of
    consecutive channels (_block_plan). Every build of a block is made
    first, channel by channel, and only its beta and P are kept, with
    its channel's geometry records. The realizations h_est + E of each
    channel and error variance (its rescaled unit draws; one all-zero
    realization under perfect CSIT) are stacked, in blocks of at most
    _variance_block variances if one channel's exceed _BLOCK_VALUES
    complex values. The cells that share a geometry record (zf with
    rs-linear, cthp with cthp-rs, dthp with zf-dpc and their RS schemes)
    on every channel of the block are rated in one
    stacked_sum_rate_table call per variance block.

    A build's error on channel c stops the block's builds; the channels
    below c are rated, and raise first if one saturates. A
    SaturatedSinrError names the lowest saturated channel's first
    saturated cell in output order, with its grid point. In a pool
    worker, lowest_failure is the pool's shared lowest failing channel:
    each channel is built only if no lower one has failed, else the
    rows so far are returned (the run raises the lower error), and a
    failure here lowers it.
    """
    plan = _block_plan(config, cells)
    # One stack of realizations h_est + E for every block: a fresh one
    # per block would hand its pages back to the OS and fault them in
    # again.
    stack = np.empty(
        (plan.channels * plan.stacked_variances, plan.m * config.n_users, config.n_tx),
        dtype=complex,
    )
    workspace = {}  # the kernel's temporaries, kept from call to call
    rows = []
    for start in range(0, len(channels), plan.channels):
        block = channels[start:start + plan.channels]
        built, failure = [], None
        for channel_index in block:
            if lowest_failure is not None and channel_index > lowest_failure.value:
                return rows
            try:
                built.append(_build_channel(config, cells, plan, channel_index))
            except Exception as exc:
                failure = channel_index, exc
                break
        rated, saturated = (
            _rate_block(config, cells, plan, block, built, stack, workspace)
            if built else ([], None)
        )
        failure = saturated or failure
        if failure is not None:
            if lowest_failure is not None:
                with lowest_failure.get_lock():
                    lowest_failure.value = min(lowest_failure.value, failure[0])
            raise failure[1]
        rows += rated
    return rows


def _build_channel(
    config: SweepConfig, cells: list[tuple], plan: _BlockPlan, channel_index: int
) -> tuple:
    """(h_est, its geometry records by SchemeTag.record, the beta and
    the common power P of every build) of one channel, the builds in
    output order of their cells, then by split."""
    n_users, n_tx = config.n_users, config.n_tx
    records, betas, powers = {}, [], []
    for scheme, _, e_tr, grid, _ in cells:
        # One channel draw per cell and one build per (cell, split): the
        # calls bench/tests/test_tracer.py pins.
        h_est = draw_channel(config.master_seed, channel_index, n_users, n_tx)
        builds = [build_precoders(h_est, scheme, e_tr, config.power_loss, t) for t in grid]
        # Each split's beta and P: all the kernel takes of a build.
        betas += [ps.beta for ps in builds]
        powers += [ps.common_power for ps in builds]
        records[scheme.record] = builds[0].geometry
    # linalg's one-entry cache holds this channel's direction until the
    # next channel's builds: the record caches it now, for the kernel.
    for record in plan.common_records:
        records[record].direction
    return h_est, records, np.array(betas), np.array(powers)


def _rate_block(
    config: SweepConfig, cells: list[tuple], plan: _BlockPlan, block: range, built: list,
    stack: np.ndarray, workspace: dict,
) -> tuple[list[np.ndarray], tuple | None]:
    """(the rows of the channels of block from their _build_channel
    tuples built, None), or ([], (channel, SaturatedSinrError)) of the
    lowest saturated channel's first saturated cell in output order.
    stack holds the realizations of each variance block in turn."""
    n_users, n_tx, m = config.n_users, config.n_tx, plan.m
    _, _, _, grids, variances = zip(*cells)
    offsets = np.cumsum([0, *map(len, grids)])  # each cell's first build
    splits = np.array([t for grid in grids for t in grid])
    h_ests, records_of, betas, powers = zip(*built)
    betas, powers = np.array(betas), np.array(powers)  # (channels, builds)
    out = np.empty((len(built), 2, len(cells)))
    failed = None  # (block position, cell index, message) of the first saturated cell
    step = plan.stacked_variances
    for start in range(0, len(plan.variances), step):
        position = {s2: v for v, s2 in enumerate(plan.variances[start:start + step])}
        n_rows = len(position)
        rows = stack[:len(built) * n_rows]
        for b, (channel_index, h_est) in enumerate(zip(block, h_ests)):
            for variance, v in position.items():
                errors = 0.0 if variance is None else draw_error_ensemble(
                    n_users, n_tx, variance, m, config.master_seed, channel_index
                )
                np.add(h_est, errors, out=rows[b * n_rows + v].reshape(m, n_users, n_tx))
        for record, members in plan.records.items():
            members = [i for i in members if variances[i] in position]
            if not members:
                continue
            # Set (b, i, t): channel b of the block, cell i, split t; index
            # holds each set's build among its channel's builds.
            lengths = [len(grids[i]) for i in members]
            ends = np.cumsum(lengths)
            index = np.arange(ends[-1]) + np.repeat(offsets[members] - ends + lengths, lengths)
            pattern = np.repeat([position[variances[i]] for i in members], lengths)
            ensembles = (np.arange(len(built))[:, np.newaxis] * n_rows + pattern).ravel()
            geometries = [records[record] for records in records_of for _ in range(n_rows)]
            try:
                means = stacked_sum_rate_table(
                    geometries, betas[:, index].ravel(), powers[:, index].ravel(), rows,
                    ensembles, SIGMA_N2, plan.max_sets, mean=True, workspace=workspace,
                )
            except SaturatedSinrError as exc:
                b, k = divmod(exc.set_index, len(index))
                i = members[np.searchsorted(ends, k, side="right")]
                if failed is None or (b, i) < failed[:2]:
                    failed = (b, i, f"{cells[i][0].tag}: {exc}")
                continue
            first, best = _best_splits(means.reshape(len(built), -1), lengths)
            out[:, 0, members] = splits[index[first]]
            out[:, 1, members] = best
    if failed is None:
        return list(out), None
    b, i, message = failed
    channel_index = block[b]
    return [], (channel_index, SaturatedSinrError(
        f"{message} at {config.x_kind}={cells[i][1]:g} on channel {channel_index}"
    ))


# In a pool worker: the lowest channel that any worker of its pool has
# seen fail, n_channels while none has (a multiprocessing.Value that
# the pool's initializer hands over).
_lowest_failure = None


def _share_lowest_failure(value) -> None:
    global _lowest_failure
    _lowest_failure = value


def _rate_run(config: SweepConfig, cells: list[tuple], channels: range) -> list[np.ndarray]:
    """_rate_channels in a pool worker, over its contiguous run of
    channels, sharing failures through the pool's _lowest_failure."""
    return _rate_channels(config, cells, channels, _lowest_failure)


def run_sweep(config: SweepConfig, n_jobs: int = 1) -> SweepResult:
    """Evaluate every (scheme, grid point) cell of a sweep.

    Every cell is built on one channel before the next channel, so the
    caches need hold only the current one, and rated on a block of
    channels at once (_rate_channels). min(n_jobs, n_channels) workers
    each take one contiguous run of channels as one task; blocks are cut
    from the start of each run, in sizes that do not depend on n_jobs.
    One worker is this process itself; more are the processes of a
    pool, which rate every channel while this process only joins their
    rows. Each cell joins its per-channel values in channel order, so
    the output is bit-identical at any n_jobs. A failing run raises the
    error of the lowest failing channel's first failing cell in output
    order, the one a serial run meets and stops at: the pool's map
    yields the runs in order. Pool workers build no channel above the
    lowest one that has failed so far, and still rate every channel
    below it.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    config.validate()
    cells = _sweep_cells(config)
    channels = range(config.n_channels)
    n_workers = min(n_jobs, config.n_channels)
    if n_workers > 1:
        size = math.ceil(config.n_channels / n_workers)
        runs = [channels[start:start + size] for start in range(0, config.n_channels, size)]
        lowest_failure = multiprocessing.Value("q", config.n_channels)
        # The pool starts all its workers at the first submit.
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_share_lowest_failure,
            initargs=(lowest_failure,),
        ) as pool:
            rated = pool.map(partial(_rate_run, config, cells), runs)
            rows = [row for run in rated for row in run]
    else:
        rows = _rate_channels(config, cells, channels)
    return SweepResult(config=config, cells=_join(cells, rows))
