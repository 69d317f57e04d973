"""The benchmark's workloads: which rsthp sweep each one runs and why.

Every workload keeps the per-cell structure of the run it stands for
(schemes, 50 channels, 100 error draws, the 20-point power-split grid)
but the SNR sweeps run two points, 0 and 30 dB, where the full sweeps
use seven. Work per SNR point is the same at every SNR, so the layer
mix is unchanged. At seven points one sweep takes about 20 s on a
2-core machine and a run could hold one sample; at two a run takes the
median of several, each on its own 50 channels. The time of the
common-stream direction varies from channel to channel (power iteration
needs from a few to thousands of steps), so the number of channels a
run covers sets how steady its median is.

This module holds plain data only and does not import rsthp, so the
parent benchmark process never loads the program it measures.
"""

from dataclasses import dataclass

DEFAULT_SEED = 12345

ALL_SCHEMES = (
    "zf", "rs-linear", "cthp", "dthp", "cthp-rs", "dthp-rs", "zf-dpc", "zf-dpc-rs",
)
BASE_SCHEMES = ("zf", "cthp", "dthp", "zf-dpc")
# Each rate-splitting scheme and the scheme it reduces to at split 0.
RS_BASE_PAIRS = (
    ("rs-linear", "zf"),
    ("cthp-rs", "cthp"),
    ("dthp-rs", "dthp"),
    ("zf-dpc-rs", "zf-dpc"),
)
SNR_POINTS_DB = (0.0, 30.0)
# The power-split grid 0, 0.05, ..., 0.95 shared by the library default
# and the CLI default "0:0.05:0.95".
SPLIT_GRID_POINTS = 20
SPLIT_GRID_MAX = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    api: str  # "run_sweep" (library call) or "cli" (rsthp.cli.main)
    jobs: int
    schemes: tuple[str, ...]
    x_kind: str  # "snr_db" or "error_variance"
    x_values: tuple[float, ...]
    error_variance: float = 0.0  # snr_db sweeps: 0 means perfect CSIT
    snr_db: float = 15.0  # error_variance sweeps: the fixed SNR
    n_channels: int = 50
    n_error_samples: int = 100
    power_loss: float = 0.75

    @property
    def perfect(self) -> bool:
        return self.x_kind == "snr_db" and self.error_variance == 0.0

    @property
    def n_cells(self) -> int:
        return len(self.schemes) * len(self.x_values)

    def cli_argv(self, seed: int, jobs: int, out_path: str) -> list[str]:
        """Arguments for rsthp.cli.main (SNR sweeps); every sweep setting
        is explicit, so a change of CLI defaults leaves the workload alone."""
        return [
            "sweep-snr",
            "--schemes", ",".join(self.schemes),
            "--snr-db", ",".join(repr(x) for x in self.x_values),
            "--error-variance", repr(self.error_variance),
            "--channels", str(self.n_channels),
            "--error-samples", str(self.n_error_samples),
            "--lambda", repr(self.power_loss),
            "--split-grid", f"0:0.05:{SPLIT_GRID_MAX}",
            "--seed", str(seed),
            "--jobs", str(jobs),
            "--out", out_path,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Split search x precoder builds x common-stream direction, no
        # error draws: the acceptance suite's perfect-CSIT sweep.
        Workload(
            name="perfect-snr",
            api="run_sweep",
            jobs=1,
            schemes=ALL_SCHEMES,
            x_kind="snr_db",
            x_values=SNR_POINTS_DB,
        ),
        # Every layer, the process pool and the output writer: the
        # default `rsthp sweep-snr --error-variance 0.2 --jobs 2`.
        Workload(
            name="fixed-error-cli",
            api="cli",
            jobs=2,
            schemes=ALL_SCHEMES,
            x_kind="snr_db",
            x_values=SNR_POINTS_DB,
            error_variance=0.2,
        ),
        # Error draws dominate; no split search and no direction.
        Workload(
            name="base-variance",
            api="run_sweep",
            jobs=1,
            schemes=BASE_SCHEMES,
            x_kind="error_variance",
            x_values=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
        ),
    )
}
