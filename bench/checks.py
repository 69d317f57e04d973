"""Output checks for one workload repeat.

Checks that hold on any seed:
  * every expected (scheme, x) cell is present once and no other;
  * every written value is finite and the CI halfwidth is >= 0;
  * each chosen_split_mean lies inside the power-split grid;
  * each RS scheme's ESR is >= its base scheme's ESR in the same cell.
    Split 0 is on the grid and takes the base scheme's path, so the
    per-channel maximum can only match or beat the base value, and the
    mean of elementwise-larger values is larger in floating point too.
  * the resolved configuration equals the reference one, master seed
    aside.
On the reference seed the cells must also match the committed table
from rsthp 0.1.0: |delta ESR| <= 1e-9 and the same chosen split.
"""

import json
import math
from pathlib import Path

from workloads import RS_BASE_PAIRS, SPLIT_GRID_MAX, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ESR_TOL = 1e-9
# Slack for split grids built as k * 0.05, whose top point is 0.9500000000000001.
SPLIT_SLACK = 1e-12


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _config_without_seed(config_text: str) -> dict:
    config = json.loads(config_text)
    config.pop("master_seed", None)
    return config


def check_output(w: Workload, seed: int, record: dict, reference: dict) -> dict:
    """Check one repeat's output; returns attempted, failed, problems and
    esr_max_abs_dev (None unless seed is the reference seed)."""
    problems = []
    failed_keys = set()
    expected = [(s, float(x)) for s in w.schemes for x in w.x_values]
    cells = {}
    for scheme, x, esr, ci, split in record["cells"]:
        key = (scheme, x)
        if key in cells or key not in expected:
            problems.append(f"unexpected or repeated cell {key}")
            failed_keys.add(key)
        cells[key] = (esr, ci, split)
    for key in expected:
        if key not in cells:
            problems.append(f"missing cell {key}")
            failed_keys.add(key)
            continue
        esr, ci, split = cells[key]
        if not all(math.isfinite(v) for v in (esr, ci, split)) or ci < 0.0:
            problems.append(f"{key}: non-finite value or negative CI {cells[key]}")
            failed_keys.add(key)
        elif not -SPLIT_SLACK <= split <= SPLIT_GRID_MAX + SPLIT_SLACK:
            problems.append(f"{key}: chosen split {split} outside the grid")
            failed_keys.add(key)
    for rs, base in RS_BASE_PAIRS:
        for x in w.x_values:
            rs_cell, base_cell = cells.get((rs, x)), cells.get((base, x))
            if rs_cell and base_cell and not rs_cell[0] >= base_cell[0]:
                problems.append(f"{rs} ESR {rs_cell[0]} < {base} ESR {base_cell[0]} at {x}")
                failed_keys.add((rs, x))

    if _config_without_seed(record["config_json"]) != _config_without_seed(
        reference["config_json"]
    ):
        problems.append("resolved configuration differs from the reference")
    esr_max_abs_dev = None
    if seed == reference["seed"]:
        if record["config_json"] != reference["config_json"]:
            problems.append(".config.json text differs from the reference")
        esr_max_abs_dev = 0.0
        for scheme, x, ref_esr, ref_split in reference["cells"]:
            key = (scheme, float(x))
            if key not in cells:
                continue
            esr, _ci, split = cells[key]
            dev = abs(esr - ref_esr)
            esr_max_abs_dev = max(esr_max_abs_dev, dev)
            if not dev <= ESR_TOL or split != ref_split:
                problems.append(
                    f"{key}: esr {esr!r} split {split!r}, "
                    f"reference {ref_esr!r} {ref_split!r}"
                )
                failed_keys.add(key)
    return {
        "attempted": len(expected) + len(failed_keys - set(expected)),
        "failed": len(failed_keys),
        "problems": problems,
        "esr_max_abs_dev": esr_max_abs_dev,
    }
