"""Monte-Carlo averaging: sample average over CSIT errors, grid search
over the common/private power split, and ergodic averaging over channel
draws, organized into reproducible sweeps.

Randomness discipline: the channel for index c is keyed by (seed, c)
and the error realization m for that channel by (seed, c, m), never by
position in a loop. Every scheme, power split, and grid point therefore
sees the same channels and the same error draws (common random
numbers), and a sweep is a pure function of its config.

The units of work are runs of consecutive channels: a channel's best
split and average sum rate in a cell depend on its draws alone, and a
cell is the mean over its channels, so channels stack freely. A chunk
of channels is drawn and factored at once, and rated a block of its
channels at a time. A channel that fails its draw ends its chunk's
draws, one that fails a build ends its block's builds, and no block
after a failing one is rated. Each cell's plan (_cell) fixes its split
grid and error variance once; _block_plan alone sizes the engine from
the config (a chunk's channels, a block's, the slots stacked at once,
one kernel run). _rate_channels allocates the plan's work arrays once,
rates every planned cell on a range of channels in them, and raises
the lowest failing channel's first failing cell's error in output
order; working_set_bytes charges the same arrays. run_sweep (serially,
or one contiguous run of channels per pool worker) and ergodic_sum_rate
both rate through _rate_channels and join each cell's values in
channel order.

linalg's store holds the factors of the chunk's channels from one
stacked pass, with each channel's geometry record per base scheme and
its common-stream direction, so a build is two scalars and a reference
to its record. _rate_block hashes the error keys of its block's
channels together, draws each channel's unit errors once and rescales
them into each slot's row. The eight schemes share three records
(SchemeTag.record); the cells that share one are searched on every
channel of a block in one kernel call (rates.stacked_split_search),
which skips, exactly, the splits that a bound rules out. A channel's
rows are its slots: one per x point, or one when every cell has the same
error variance; each holds the beta and P of every split of the slot's
cells, so beta and P are (rows, sets) arrays. Each cell's best split and
average get the bits of optimize_power_split, the reference search.
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
    _passes,
    CHANNEL_STREAM,
    ErrorRegime,
    draw_error_ensemble,  # no caller here: bench/layers.py patches this name
    stream_rng,
    unit_error_draws_by_channel,
)
from .exceptions import (
    DimensionMismatchError,
    EmptyGridError,
    InvalidVarianceError,
    SaturatedSinrError,
)
from . import linalg
from .precoding import ALL_SCHEME_TAGS, SchemeTag, build_precoders
from .rates import _buffer, _layout, stacked_split_search, sum_rate_samples

# 95% normal-approximation confidence multiplier for the ESR halfwidth.
_CI_FACTOR = 1.96

# Receiver noise variance of every sweep; snr_db_to_power assumes it.
SIGMA_N2 = 1.0

# Bytes one sweep process may hold at once: the process itself at
# n_jobs = 1, each worker otherwise. SweepConfig.validate rejects a
# config whose estimate (working_set_bytes) is larger before any cell
# runs, instead of failing with a MemoryError deep inside one.
MEMORY_BUDGET_BYTES = 512 * 2**20

# Bytes the sweep keeps per (cell, channel) until it returns: the split
# and ASR in the float64 row a channel returns and in the joined table,
# and as the SweepCell's two tuples of Python floats (32 B each).
_RESULT_BYTES = 2 * (8 + 8 + 32)

# Bytes each channel's row keeps beyond its values: the array's header
# (128 B) and its list slot.
_ROW_BYTES = 128 + 8

# Bytes each channel of a chunk keeps beside its 14 K N complex values of
# factors and records: its draw's array and store index entry, its geometry
# records and their views of the stacked arrays. tracemalloc measured 2.1 to
# 2.3 KB a channel beyond 13.8 K N complex values (K = N = 1 to 16, chunks of
# 13 to 50 channels).
_CHANNEL_BYTES = 2304

# Values one run of a kernel call rates (sets x M x K) and complex values one
# block of channels and slots stacks, unless one split search or ensemble is
# larger: 256 KiB float64 blocks. On a 2-core x86 host (BLAS on 1 thread) the
# default fixed-error sweep took 0.61 s at 2**15 against 0.67 s at 2**14 and
# 0.71 s at 2**16 (medians of 6 alternating runs). At 100 draws and 4 users a
# run then rates up to 81 sets, not 40. A block also holds at most a fourth
# as many builds (cells x splits x channels).
_BLOCK_VALUES = 2**15

# Bytes _rate_channels keeps per build of a block, the Python objects of
# the per-build path (a build_precoders call per cell, split and channel):
# its beta and P, its share of a call's per-set arrays and of its cell's
# plan. tracemalloc measured at most 118 B per build (400 one-user
# rs-linear cells, M = 1 or 3, 5 or 20 splits, K = N = 1 to 4) and 81 B
# per one-build cell.
_BUILD_BYTES = 128


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
    (seed, channel_index) alone; entries are i.i.d. CN(0, 1).

    One (2, K, N) standard_normal fill, the stream order of two (K, N)
    draws, gives the real then the imaginary parts, each scaled by the
    square root of 1/2: the bits of complex_gaussian(stream_rng(seed,
    CHANNEL_STREAM, channel_index), (K, N)), but for a part drawn as
    exactly -0.0."""
    parts = stream_rng(seed, CHANNEL_STREAM, channel_index).standard_normal((2, n_users, n_tx))
    parts *= math.sqrt(0.5)
    h_est = np.empty((n_users, n_tx), dtype=complex)
    h_est.real, h_est.imag = parts
    return h_est


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
        if working_set_bytes(one_draw, 1) > MEMORY_BUDGET_BYTES:
            flag = "--users/--tx-antennas (n_users/n_tx)"
        elif working_set_bytes(self, 1) > MEMORY_BUDGET_BYTES:
            flag = "--error-samples (n_error_samples)"
        else:
            flag = "--channels (n_channels)"
        check_memory("the sweep", working_set_bytes(self, self.n_channels), flag)


def check_memory(what: str, need: int, flag: str) -> None:
    """ValueError naming flag unless need bytes fit MEMORY_BUDGET_BYTES."""
    if need > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"{what} would hold about {need / 2**20:,.0f} MiB in one process, "
            f"over the {MEMORY_BUDGET_BYTES // 2**20} MiB budget; lower {flag}"
        )


def working_set_bytes(config: SweepConfig, n_channels: int) -> int:
    """Estimated peak bytes of one process that rates every cell of
    config on n_channels channels, from its _BlockPlan (M realizations a
    slot, K users, N antennas): the work arrays, which _rate_channels
    allocates from the same list (_work_arrays); while they are held, a
    channel's unit error draws (M K N complex values, unless its one
    slot's row holds them) with one pass of the block's draws in flight
    (_passes), and numpy's two buffers for a kernel product over G0's
    diagonal (a complex value per user and stacked realization,
    np.getbufsize() at most, each); per chunk channel 14 K N complex
    values of factors and records (tracemalloc measured 13.5 K N at
    K = N = 16, the stacked pass's temporaries included) and
    _CHANNEL_BYTES; per block channel _BUILD_BYTES per build;
    _RESULT_BYTES per (cell, channel) and _ROW_BYTES per channel. Under
    perfect CSIT nothing is drawn, M = 1."""
    cells = _sweep_cells(config)
    plan = _block_plan(config, cells)
    k, n, m = config.n_users, config.n_tx, plan.m
    work = _work_arrays(config, plan,
                        lambda shape, dtype: math.prod(shape) * np.dtype(dtype).itemsize)
    drawn = 0 if plan.slots == (None,) else (
        16 * m * k * n * (len(plan.slots) > 1) + _passes(k, n, plan.channels * m)[1])
    return (
        sum(work.values()) + drawn + 2 * min(work["rows"] // n, 16 * np.getbufsize())
        + plan.chunk * (16 * 14 * k * n + _CHANNEL_BYTES)
        + plan.channels * _BUILD_BYTES * sum(len(cell[3]) for cell in cells)
        + (_RESULT_BYTES * len(cells) + _ROW_BYTES) * n_channels
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
    """How _rate_channels stacks a sweep's cells, and every size that
    working_set_bytes charges: M realizations per slot (1 under perfect
    CSIT); the error variance of each slot (None is perfect CSIT), a
    slot being one x point, or all of them when every cell has the same
    variance; each geometry record's cells (SchemeTag.record) as a
    (slots, cells per slot) array of cell indices in output order; the
    sets of one kernel run, at most a call's, and the most of them with
    a common stream; the channels of a chunk, drawn and factored at
    once; the channels of a block, built and rated at once; and the
    slots each channel stacks at a time."""

    m: int
    slots: tuple[float | None, ...]
    records: dict[str, np.ndarray]
    max_sets: int
    common_sets: int
    chunk: int
    channels: int
    stacked_slots: int


def _block_plan(config: SweepConfig, cells: list[tuple]) -> _BlockPlan:
    """The _BlockPlan of config's cells, the one place that sizes the
    engine. Every scheme has a cell at every x point, so each slot holds
    the same schemes, and a record's sets are the same on every row of a
    kernel call. A kernel run holds up to max(T x M x K, _BLOCK_VALUES)
    values, one split search at least, or a call's sets if fewer, whole
    rows or equal parts of one. A chunk holds as many consecutive
    channels as keep its stacked estimates within _BLOCK_VALUES complex
    values and its builds (cells x splits) within _BLOCK_VALUES // 4, at
    least 1, at most n_channels: the block of the same cells under
    perfect CSIT. A block holds as many consecutive channels of a chunk
    as keep its stacked h_est + E within _BLOCK_VALUES complex values,
    at least 1. A channel stacks as many slots at a time as
    _BLOCK_VALUES complex values hold, at least 1."""
    n_users, n_tx = config.n_users, config.n_tx
    _, x_values, _, grids, variances = zip(*cells)
    shared = len(set(variances)) == 1
    keys = [None if shared else x for x in x_values]  # each cell's slot
    slot_of = {key: slot for slot, key in enumerate(dict.fromkeys(keys))}
    slots = tuple(dict(zip(keys, variances)).values())
    members = {}
    for index, (scheme, *_) in enumerate(cells):
        by_slot = members.setdefault(scheme.record, [[] for _ in slots])
        by_slot[slot_of[keys[index]]].append(index)
    m = 1 if slots == (None,) else config.n_error_samples
    run_values = max(max(map(len, grids)) * m * n_users, _BLOCK_VALUES)
    chunk = max(1, min(
        _BLOCK_VALUES // (n_users * n_tx),
        _BLOCK_VALUES // 4 // sum(map(len, grids)),
        config.n_channels,
    ))
    channels = max(1, min(_BLOCK_VALUES // (len(slots) * m * n_users * n_tx), chunk))
    stacked_slots = min(len(slots), max(1, _BLOCK_VALUES // (m * n_users * n_tx)))
    # A record's call holds its slot's splits on every row; those above 0 have a common stream.
    splits = [[t for i in by_slot[0] for t in grids[i]] for by_slot in members.values()]
    rows = channels * stacked_slots
    max_sets = min(run_values // (m * n_users), rows * max(map(len, splits)))
    common_sets = min(max_sets, rows * max(sum(t > 0.0 for t in row) for row in splits))
    return _BlockPlan(m, slots, {record: np.array(by_slot) for record, by_slot in members.items()},
                      max_sets, common_sets, chunk, channels, stacked_slots)


def _work_arrays(config: SweepConfig, plan: _BlockPlan, make=np.empty) -> dict:
    """The work arrays of _rate_channels, make(shape, dtype) by name: one
    stack of a block's realizations h_est + E and rates._layout's."""
    rows, m_k = plan.channels * plan.stacked_slots, plan.m * config.n_users
    return {"rows": make((rows, m_k, config.n_tx), complex),
            **_layout(rows, plan.m, config.n_users, plan.max_sets, plan.common_sets, make)}


def _rate_channels(
    config: SweepConfig, cells: list[tuple], channels: range, lowest_failure=None
) -> list[np.ndarray]:
    """The best power split and its average sum rate of every cell on
    each channel of channels, one (2, len(cells)) array per channel in
    channel order.

    Each cell searches its plan's split grid at its plan's error
    variance (see _cell). The plan's work arrays (_work_arrays) are
    allocated once, before the first chunk of consecutive channels
    (_block_plan), and every block is rated in them. A chunk's channels
    are drawn up front and factored in one stacked pass
    (linalg.factor_stack); the chunk is then rated block by block. Every
    build of a block is made channel by channel (_build_channel),
    keeping only its beta and P. The realizations h_est + E of each
    channel's slots (its unit draws, hashed for the whole block at once,
    rescaled to each slot's variance; h_est alone under perfect CSIT)
    are stacked, stacked_slots slots at a time, and the cells that share
    a geometry record (SchemeTag.record) are searched on every channel
    of the block in one stacked_split_search call per stack: row
    (channel, slot) holds the splits of the slot's cells.

    An error of channel c's draw stops the chunk's draws, and an error
    of its builds (a channel that is not finite, zero or rank deficient
    fails its first build) the block's builds; the channels below c are
    rated, and raise first if one saturates, and no later block is
    rated. A SaturatedSinrError names the lowest saturated channel's
    first saturated cell in output order, with its grid point
    (_rate_block). In a pool worker, lowest_failure is the pool's shared
    lowest failing channel: a channel is drawn, and a block rated, only
    if no lower channel has failed, else the rows so far are returned
    (the run raises the lower error), and a failure here lowers it.
    """
    plan = _block_plan(config, cells)
    # Once for all blocks: fresh arrays would fault their pages in again.
    workspace = _work_arrays(config, plan)

    def past_failure(channel_index):
        return lowest_failure is not None and channel_index > lowest_failure.value

    rows = []
    for start in range(0, len(channels), plan.chunk):
        chunk = channels[start:start + plan.chunk]
        drawn, failure = [], None
        for channel_index in chunk:
            if past_failure(channel_index):
                return rows
            try:
                drawn.append(draw_channel(
                    config.master_seed, channel_index, config.n_users, config.n_tx
                ))
            except Exception as exc:
                failure = channel_index, exc
                break
        if drawn:
            # Every build of the chunk reads its channel's slice.
            linalg.factor_stack(np.stack(drawn))
        for first in range(0, len(drawn), plan.channels):
            block = chunk[first:first + plan.channels]
            if past_failure(block[0]):
                return rows
            built = []
            for channel_index, h_est in zip(block, drawn[first:]):
                try:
                    built.append(_build_channel(config, cells, plan, channel_index, h_est))
                except Exception as exc:
                    failure = channel_index, exc
                    break
            rated, saturated = (
                _rate_block(config, cells, plan, block, built, workspace) if built else ([], None)
            )
            # A block short of channels ends at a failing draw or build.
            if saturated or len(built) < len(block):
                failure = saturated or failure
                break
            rows += rated
        # The chunk's records go with its store when the next is factored.
        built = None
        if failure is not None:
            if lowest_failure is not None:
                with lowest_failure.get_lock():
                    lowest_failure.value = min(lowest_failure.value, failure[0])
            raise failure[1]
    return rows


def _build_channel(
    config: SweepConfig, cells: list[tuple], plan: _BlockPlan, channel_index: int,
    h_est: np.ndarray,
) -> dict[str, tuple]:
    """Each geometry record's (geometry, beta and P of its builds) on one
    channel, by SchemeTag.record, built record by record, h_est being the
    channel's first draw. beta and P are a (slots, sets, 2) array in the
    record's plan.records layout: slot by slot, each slot's cells in
    output order, each cell's splits in turn."""
    records = {}
    for record, members in plan.records.items():
        betas, powers = [], []
        for i in members.flat:
            scheme, _, e_tr, grid, _ = cells[i]
            # One channel draw per cell, the first cell's made before the
            # chunk was factored, and one build per (cell, split): the
            # calls bench/tests/test_tracer.py pins.
            if h_est is None:
                h_est = draw_channel(config.master_seed, channel_index, config.n_users,
                                     config.n_tx)
            builds = [build_precoders(h_est, scheme, e_tr, config.power_loss, t) for t in grid]
            h_est = None
            # Each split's beta and P: all the kernel takes of a build.
            betas += [ps.beta for ps in builds]
            powers += [ps.common_power for ps in builds]
        geometry = builds[0].geometry
        records[record] = geometry, np.stack((betas, powers), -1).reshape(len(members), -1, 2)
    return records


def _rate_block(
    config: SweepConfig, cells: list[tuple], plan: _BlockPlan, block: range, built: list,
    workspace: dict,
) -> tuple[list[np.ndarray], tuple | None]:
    """(the rows of the channels of block from their _build_channel
    records built, None), or ([], (channel, SaturatedSinrError)) of the
    lowest saturated channel's first saturated cell in output order: the
    first True, in row-major order, of one (channels, cells) mask that
    ORs each kernel call's saturated sets cell by cell. A split that the
    search skips saturates only where a rated split of its cell does
    (stacked_split_search), so the mask is the full grid's. The workspace's
    "rows" holds the realizations of each stack of slots in turn."""
    n_users, n_tx, m = config.n_users, config.n_tx, plan.m
    _, _, _, grids, _ = zip(*cells)
    out = np.empty((len(built), 2, len(cells)))
    saturated = np.zeros((len(built), len(cells)), dtype=bool)
    step = plan.stacked_slots
    for start in range(0, len(plan.slots), step):
        variances = plan.slots[start:start + step]
        n_rows = len(variances)
        rows = _buffer(workspace, "rows", (len(built) * n_rows, m * n_users, n_tx))
        # Every record holds its channel's h_est.
        h_ests = [next(iter(records.values()))[0].h_est for records in built]
        if plan.slots == (None,):
            rows[:] = h_ests
        else:
            if start == 0:
                # The block's error keys are hashed together. A lone slot's row
                # holds its channel's draws, rescaled in place.
                lone = rows.reshape(len(built), m, n_users, n_tx) if len(plan.slots) == 1 else None
                units = unit_error_draws_by_channel(
                    n_users, n_tx, m, config.master_seed, block[:len(built)], lone
                )
            else:
                # Only a one-channel block spans several stacks (_block_plan), so
                # the first stack's draws serve the rest.
                units = [unit]
            # The draws come first, so zip runs them out and frees their pass.
            for b, (unit, h_est) in enumerate(zip(units, h_ests)):
                for v, variance in enumerate(variances):
                    row = rows[b * n_rows + v].reshape(m, n_users, n_tx)
                    np.multiply(unit, math.sqrt(variance / 2.0), out=row)
                    row += h_est
        for record, members in plan.records.items():
            members = members[start:start + step]
            # Row (b, v) is channel b of the block at slot v, and its sets
            # the splits of the slot's cells in turn.
            lengths = [len(grids[i]) for i in members[0]]
            geometries = [records[record][0] for records in built for _ in variances]
            values = np.concatenate([records[record][1][start:start + step] for records in built])
            beta, power = np.moveaxis(values, -1, 0)
            try:
                first, best = stacked_split_search(
                    geometries, beta, power, rows, SIGMA_N2, lengths, plan.max_sets, workspace
                )
            except SaturatedSinrError as exc:
                error, starts = exc, np.cumsum([0, *lengths[:-1]])
                by_cell = np.logical_or.reduceat(exc.saturated, starts, axis=-1)
                saturated[:, members] |= by_cell.reshape(len(built), n_rows, -1)
                continue
            splits = np.concatenate([grids[i] for i in members[0]])
            out[:, 0, members] = splits[first].reshape(len(built), n_rows, -1)
            out[:, 1, members] = best.reshape(len(built), n_rows, -1)
    if not saturated.any():
        return list(out), None
    # Cells go by scheme, then by x point, so the first failing cell may
    # sit on a later stack of slots than another failing set.
    b, i = np.unravel_index(saturated.argmax(), saturated.shape)
    message = f"{cells[i][0].tag}: {error} at {config.x_kind}={cells[i][1]:g}"
    return [], (block[b], SaturatedSinrError(f"{message} on channel {block[b]}"))


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

    Every cell is built on geometry records factored for a chunk of
    channels at once, and rated a block of the chunk's channels at a
    time (_rate_channels). min(n_jobs, n_channels) workers each take one
    contiguous run of channels as one task; chunks are cut from the
    start of each run and blocks from the start of each chunk, in sizes
    that do not depend on n_jobs. One worker is this process
    itself; more are the processes of a pool, which rate every channel
    while this process only joins their rows. Each cell joins its
    per-channel values in channel order, so the output is bit-identical
    at any n_jobs. A failing run raises the error of the lowest failing
    channel's first failing cell in output order, the one a serial run
    meets and stops at: the pool's map yields the runs in order. Pool
    workers draw no channel above the lowest one that has failed so far,
    and still rate every channel below it.
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
