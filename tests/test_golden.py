"""Golden guard: per-channel results of the four acceptance sweeps.

golden_acceptance.json holds, for every cell of the four sweeps in
test_acceptance.py (perfect CSIT, fixed error variance 0.2, the
error-variance grid, SNR-scaled error with alpha 0.6) at desk settings
but 3 channels, each channel's best average sum rate and chosen power
split. Channel c and its error ensemble are keyed by (seed, c) alone,
so these rows are an exact prefix of the 50-channel acceptance sweeps.
A change that only reorders floating-point arithmetic may move an ASR
by rounding, never by more than 1e-9, and must choose the same split.

Regenerate the table, from a tree whose outputs are trusted, with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np

from rsthp import ErrorRegime, SweepConfig, parse_scheme_tag, run_sweep

TABLE = Path(__file__).with_name("golden_acceptance.json")

ASR_TOL = 1e-9

_DESK = dict(n_channels=3, n_error_samples=100, power_loss=0.75,
             master_seed=12345)

CONFIGS = {
    "perfect": SweepConfig(
        snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), **_DESK
    ),
    "fixed-error": SweepConfig(
        error_regime=ErrorRegime.fixed_variance(0.2),
        snr_grid_db=(25.0, 30.0), **_DESK
    ),
    "variance-grid": SweepConfig(
        schemes=tuple(parse_scheme_tag(t) for t in
                      ("zf", "rs-linear", "cthp", "dthp", "cthp-rs", "dthp-rs")),
        snr_grid_db=(15.0,),
        error_variance_grid=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5), **_DESK
    ),
    "snr-scaled": SweepConfig(
        error_regime=ErrorRegime.snr_scaled(0.6),
        snr_grid_db=(20.0, 25.0, 30.0), **_DESK
    ),
}


def compute_table() -> dict:
    """Per-channel ASR and split of every cell, keyed by config name."""
    return {
        name: [
            {
                "scheme": cell.scheme_tag,
                "x": cell.x_value,
                "asr": list(cell.per_channel_asr),
                "split": list(cell.per_channel_split),
            }
            for cell in run_sweep(config).cells
        ]
        for name, config in CONFIGS.items()
    }


def test_per_channel_results_match_golden_table():
    golden = json.loads(TABLE.read_text(encoding="utf-8"))
    actual = compute_table()
    assert actual.keys() == golden.keys()
    worst = 0.0
    for name, rows in golden.items():
        assert len(actual[name]) == len(rows), name
        for want, got in zip(rows, actual[name]):
            cell = (name, want["scheme"], want["x"])
            assert (got["scheme"], got["x"]) == (want["scheme"], want["x"]), cell
            assert got["split"] == want["split"], cell
            worst = max(
                worst, float(np.max(np.abs(np.subtract(got["asr"], want["asr"]))))
            )
    assert worst <= ASR_TOL, f"largest per-channel |dASR| {worst:.3e}"


if __name__ == "__main__":
    TABLE.write_text(
        json.dumps(compute_table(), indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {TABLE}")
