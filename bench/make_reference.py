"""Write the reference tables that checks.py compares against.

    python3 bench/make_reference.py

Runs every workload once at the default seed and stores, per workload,
each cell's ESR and chosen_split_mean plus the resolved .config.json
text in bench/reference/<workload>.json. The committed tables come from
rsthp 0.1.0; regenerate them only when a change to the program is
meant to move its numbers.
"""

import json
import tempfile

from checks import REFERENCE_DIR
from run import BENCH_DIR, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=BENCH_DIR) as out_dir:
            record = run_child(
                "--workload", w.name, "--seed", str(DEFAULT_SEED),
                "--jobs", str(w.jobs), "--out-dir", out_dir,
            )
        cells = [[scheme, x, esr, split] for scheme, x, esr, _ci, split in record["cells"]]
        rows = ",\n".join(f"  {json.dumps(cell)}" for cell in cells)
        with open(REFERENCE_DIR / f"{w.name}.json", "w", encoding="utf-8") as fh:
            fh.write(
                f'{{\n "seed": {DEFAULT_SEED},\n "cells": [\n{rows}\n ],\n'
                f' "config_json": {json.dumps(record["config_json"])}\n}}\n'
            )
        print(f"wrote {w.name}: {len(cells)} cells")


if __name__ == "__main__":
    main()
