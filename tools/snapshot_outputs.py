"""Write the outputs of a fixed list of CLI runs under one directory, so
two versions of the simulator can be compared with one diff.

    python3 tools/snapshot_outputs.py OUTDIR

Each run goes through rsthp.cli.main of the checkout that holds this
script (its src/ comes first on the path). A sweep writes its table
OUTDIR/<name>.csv and its sidecar OUTDIR/<name>.csv.config.json; a
check command's stdout goes to OUTDIR/<name>.txt. Outputs depend only
on the arguments (and RSTHP_SEED, which sets the default seed), so with
a copy of this script in each of two checkouts

    python3 tools/snapshot_outputs.py /tmp/before   # in the first
    python3 tools/snapshot_outputs.py /tmp/after    # in the second
    diff -r /tmp/before /tmp/after

prints nothing when the two give every output the same bytes. The runs
take a few seconds; two of them start a pool of two workers.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rsthp import cli  # noqa: E402

# (name, argv): the sweeps' default grids at perfect CSIT and at a
# fixed error, at one and two workers; the error-variance sweep by
# default and with its slots sub-blocked; SNR-scaled errors whose
# points hold distinct variances, one variance, and two; and the SINR
# cross-check of every rate-splitting structure.
RUNS = (
    ("sweep-snr-perfect-jobs1", ["sweep-snr", "--jobs", "1"]),
    ("sweep-snr-perfect-jobs2", ["sweep-snr", "--jobs", "2"]),
    ("sweep-snr-error-jobs1", ["sweep-snr", "--error-variance", "0.2", "--jobs", "1"]),
    ("sweep-snr-error-jobs2", ["sweep-snr", "--error-variance", "0.2", "--jobs", "2"]),
    ("sweep-error-variance", ["sweep-error-variance"]),
    ("sweep-error-variance-m3000",
     ["sweep-error-variance", "--error-samples", "3000", "--channels", "4"]),
    ("sweep-alpha-0.6", ["sweep-alpha", "--alpha", "0.6"]),
    ("sweep-alpha-0", ["sweep-alpha", "--alpha", "0"]),
    ("sweep-alpha-1e-17", ["sweep-alpha", "--alpha", "1e-17"]),
    ("cross-check-sinr", ["cross-check-sinr", "--schemes", "rs-linear,cthp-rs,dthp-rs,zf-dpc-rs",
                          "--split", "0.3", "--error-variance", "0.1"]),
)


def snapshot(out_dir: Path) -> None:
    """Run every RUNS entry, writing its outputs under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in RUNS:
        stdout = io.StringIO()
        if argv[0].startswith("sweep-"):
            argv = [*argv, "--out", str(out_dir / f"{name}.csv")]
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name}: rsthp {' '.join(argv)} exited {code}")
        if not argv[0].startswith("sweep-"):
            (out_dir / f"{name}.txt").write_text(stdout.getvalue(), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUTDIR")
    snapshot(Path(sys.argv[1]))
