"""Write the outputs of a fixed list of CLI runs under one directory, so
two versions of the simulator can be compared with one diff.

    python3 tools/snapshot_outputs.py OUTDIR

Each run goes through rsthp.cli.main of the checkout that holds this
script (its src/ comes first on the path). A sweep writes its table
OUTDIR/<name>.csv and its sidecar OUTDIR/<name>.csv.config.json, and
each cell's per-channel average sum rates and splits (the values the
README's output contract bounds, each written with repr) go to
OUTDIR/<name>.per_channel.json; a check command's stdout goes to
OUTDIR/<name>.txt. A run of FAILING_RUNS must exit 2: its exit code and
its stderr go to OUTDIR/<name>.err. OUTDIR/budget.json holds the
largest value of each of BUDGET_LIMITS that the memory budget admits,
found by bisection with each run stopped where its work would start,
so no sweep runs. Outputs depend only
on the arguments (and RSTHP_SEED, which sets the default seed), so with
a copy of this script in each of two checkouts

    python3 tools/snapshot_outputs.py /tmp/before   # in the first
    python3 tools/snapshot_outputs.py /tmp/after    # in the second
    diff -r /tmp/before /tmp/after

prints nothing when the two give every output the same bytes. The runs
take a few seconds; five of them start a pool of two workers.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rsthp import cli  # noqa: E402

# (name, argv): the sweeps' default grids at perfect CSIT and at a
# fixed error, at one and two workers; two users on five antennas, and
# one user on three (1 x 1 inverses, (C, 3, 1) QRs), where every other
# run has K = N = 4; the error-variance sweep by default, at two workers
# (each factors its 25 channels in chunks of 16) and with its slots
# sub-blocked; SNR-scaled errors whose points hold distinct
# variances, one variance, and two; the SINR cross-check of every
# rate-splitting structure; and the modulo chain's self-checks, whose
# residuals and power-loss estimate read the channel and noise draws, at
# the default seed and at another.
RUNS = (
    ("sweep-snr-perfect-jobs1", ["sweep-snr", "--jobs", "1"]),
    ("sweep-snr-perfect-jobs2", ["sweep-snr", "--jobs", "2"]),
    ("sweep-snr-error-jobs1", ["sweep-snr", "--error-variance", "0.2", "--jobs", "1"]),
    ("sweep-snr-error-jobs2", ["sweep-snr", "--error-variance", "0.2", "--jobs", "2"]),
    ("sweep-snr-k2-n5", ["sweep-snr", "--users", "2", "--tx-antennas", "5",
                         "--error-variance", "0.1", "--channels", "20"]),
    ("sweep-snr-k1-n3", ["sweep-snr", "--users", "1", "--tx-antennas", "3"]),
    ("sweep-error-variance", ["sweep-error-variance"]),
    ("sweep-error-variance-jobs2", ["sweep-error-variance", "--jobs", "2"]),
    ("sweep-error-variance-m3000",
     ["sweep-error-variance", "--error-samples", "3000", "--channels", "4"]),
    ("sweep-alpha-0.6", ["sweep-alpha", "--alpha", "0.6"]),
    ("sweep-alpha-0", ["sweep-alpha", "--alpha", "0"]),
    ("sweep-alpha-1e-17", ["sweep-alpha", "--alpha", "1e-17"]),
    ("cross-check-sinr", ["cross-check-sinr", "--schemes", "rs-linear,cthp-rs,dthp-rs,zf-dpc-rs",
                          "--split", "0.3", "--error-variance", "0.1"]),
    ("validate-chain", ["validate-chain"]),
    ("validate-chain-seed7", ["validate-chain", "--seed", "7"]),
)

# (name, argv) of runs whose SINR saturates, so each exits 2 naming the
# lowest failing channel's first failing cell: an SNR sweep reaching
# 200 dB; rs-linear at 124 dB, whose saturated splits are a strict prefix
# of each channel's grid (0 to 0.5 on channel 0, 0 and 0.05 on channel
# 1), so a split search that skips splits must still name the cell; and
# an error-variance sweep reaching 1e308, at one and two workers and with
# 3,000 draws, whose slots are rated one stack at a time.
_SATURATING_VARIANCES = ["sweep-error-variance", "--error-variance", "0.1,0.5,1e308",
                         "--schemes", "zf,dthp-rs"]
FAILING_RUNS = (
    ("sweep-snr-200db-jobs1", ["sweep-snr", "--snr-db", "0,200", "--channels", "4",
                               "--jobs", "1"]),
    ("sweep-snr-200db-jobs2", ["sweep-snr", "--snr-db", "0,200", "--channels", "4",
                               "--jobs", "2"]),
    ("sweep-snr-124db-rs-linear", ["sweep-snr", "--schemes", "rs-linear", "--snr-db", "124",
                                   "--channels", "2"]),
    ("sweep-error-variance-1e308-jobs1", [*_SATURATING_VARIANCES, "--channels", "3",
                                          "--error-samples", "2", "--jobs", "1"]),
    ("sweep-error-variance-1e308-jobs2", [*_SATURATING_VARIANCES, "--channels", "3",
                                          "--error-samples", "2", "--jobs", "2"]),
    ("sweep-error-variance-1e308-m3000", [*_SATURATING_VARIANCES, "--channels", "2",
                                          "--error-samples", "3000"]),
)


# (name, argv with "{}" for the value): the limits the 512 MiB memory
# budget (working_set_bytes) sets on the default fixed-error sweep, on
# the default error-variance sweep, whose six variances rate one block's
# unit draws from one array, and on the SINR cross-check (at one sample,
# whose own budget then holds).
_DEFAULT_ERROR_SWEEP = ["sweep-snr", "--error-variance", "0.2"]
BUDGET_LIMITS = (
    ("sweep-snr --error-variance 0.2: --error-samples",
     [*_DEFAULT_ERROR_SWEEP, "--error-samples", "{}"]),
    ("sweep-snr --error-variance 0.2: --users = --tx-antennas",
     [*_DEFAULT_ERROR_SWEEP, "--users", "{}", "--tx-antennas", "{}"]),
    ("sweep-snr --error-variance 0.2: --channels", [*_DEFAULT_ERROR_SWEEP, "--channels", "{}"]),
    ("sweep-error-variance: --error-samples", ["sweep-error-variance", "--error-samples", "{}"]),
    ("sweep-error-variance: --channels", ["sweep-error-variance", "--channels", "{}"]),
    ("cross-check-sinr: --users = --tx-antennas",
     ["cross-check-sinr", "--users", "{}", "--tx-antennas", "{}", "--samples", "1"]),
)


class _Admitted(Exception):
    """Raised where an admitted run would start its work."""


def _admitted(argv: list[str], out_path: Path) -> bool:
    """Whether rsthp argv passes its checks, the memory budget's among
    them: it reaches its first channel draw or sweep instead of exiting
    2 with the budget's error."""
    def admit(*args, **kwargs):
        raise _Admitted

    saved = cli.run_sweep, cli.draw_channel
    cli.run_sweep = cli.draw_channel = admit
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", str(out_path)] if argv[0].startswith("sweep-")
                            else argv)
    except _Admitted:
        return True
    finally:
        cli.run_sweep, cli.draw_channel = saved
    if code != 2 or "MiB budget" not in stderr.getvalue():
        raise SystemExit(f"rsthp {' '.join(argv)} exited {code}: {stderr.getvalue()}")
    return False


def budget(out_path: Path) -> dict:
    """The largest admitted value of each of BUDGET_LIMITS, by name."""
    limits = {}
    for name, argv in BUDGET_LIMITS:
        def admitted(value):
            return _admitted([arg.replace("{}", str(value)) for arg in argv], out_path)

        low, high = 1, 2
        while admitted(high):
            low, high = high, 2 * high
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (middle, high) if admitted(middle) else (low, middle)
        limits[name] = low
    return limits


def _per_channel(result) -> str:
    """Each cell's per-channel values of a SweepResult, as JSON text."""
    cells = [
        {
            "scheme": cell.scheme_tag,
            "x": repr(cell.x_value),
            "per_channel_asr": [repr(v) for v in cell.per_channel_asr],
            "per_channel_split": [repr(v) for v in cell.per_channel_split],
        }
        for cell in result.cells
    ]
    return json.dumps(cells, indent=1) + "\n"


def snapshot(out_dir: Path) -> None:
    """Run every RUNS and FAILING_RUNS entry, writing its outputs under
    out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    run_sweep = cli.run_sweep

    def recording(*args, **kwargs):
        results.append(run_sweep(*args, **kwargs))
        return results[-1]

    cli.run_sweep = recording
    try:
        runs = [(*run, 0) for run in RUNS] + [(*run, 2) for run in FAILING_RUNS]
        for name, argv, expected in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            sweep = argv[0].startswith("sweep-")
            if sweep:
                argv = [*argv, "--out", str(out_dir / f"{name}.csv")]
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != expected:
                raise SystemExit(f"{name}: rsthp {' '.join(argv)} exited {code}, "
                                 f"not {expected}: {stderr.getvalue()}")
            if expected:
                (out_dir / f"{name}.err").write_text(
                    f"exit {code}\n{stderr.getvalue()}", encoding="utf-8")
            elif sweep:
                (out_dir / f"{name}.per_channel.json").write_text(
                    _per_channel(results[-1]), encoding="utf-8")
            else:
                (out_dir / f"{name}.txt").write_text(stdout.getvalue(), encoding="utf-8")
    finally:
        cli.run_sweep = run_sweep
    (out_dir / "budget.json").write_text(
        json.dumps(budget(out_dir / "budget.csv"), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUTDIR")
    snapshot(Path(sys.argv[1]))
