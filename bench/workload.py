"""One benchmark repeat, run by run.py in a fresh interpreter.

Times ``import rsthp``, runs one workload once through the public API
(``rsthp.run_sweep`` or ``rsthp.cli.main``) and prints one JSON record
as its last line of output: the timings, the peak resident set size,
the output cells and the resolved sweep configuration. With --trace the
sweep runs under the span tracer and the record adds the per-layer
metrics.

    PYTHONPATH=src python3 bench/workload.py --workload perfect-snr \\
        --seed 12345 --jobs 1 --out-dir /tmp/x
    PYTHONPATH=src python3 bench/workload.py --import-only
"""

import argparse
import time


def _sweep_config(w, seed: int):
    from rsthp import ErrorRegime, SweepConfig, parse_scheme_tag

    common = dict(
        schemes=tuple(parse_scheme_tag(tag) for tag in w.schemes),
        n_channels=w.n_channels,
        n_error_samples=w.n_error_samples,
        power_loss=w.power_loss,
        master_seed=seed,
    )
    if w.x_kind == "error_variance":
        return SweepConfig(
            snr_grid_db=(w.snr_db,), error_variance_grid=w.x_values, **common
        )
    if w.error_variance > 0.0:
        regime = ErrorRegime.fixed_variance(w.error_variance)
    else:
        regime = ErrorRegime.perfect()
    return SweepConfig(error_regime=regime, snr_grid_db=w.x_values, **common)


def _read_csv(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    cells = []
    for row in rows:
        scheme, x_value, _kind, esr, ci, split, _seed = row.split(",")
        cells.append([scheme, float(x_value), float(esr), float(ci), float(split)])
    return cells


def run_workload(w, seed: int, jobs: int, out_dir: str, tracer=None) -> dict:
    """Run w once; time only the sweep call (and, for the CLI, its writer).

    Returns wall_s, the cells as [scheme, x, esr, ci, split] and the
    configuration as the CLI's .config.json text.
    """
    import contextlib
    import io
    import json
    import os

    from rsthp import cli, run_sweep

    from layers import targets

    patches = tracer.patched(targets()) if tracer else contextlib.nullcontext()
    if w.api == "cli":
        out_path = os.path.join(out_dir, f"{w.name}.csv")
        argv = w.cli_argv(seed, jobs, out_path)
        with contextlib.redirect_stdout(io.StringIO()), patches:
            start = time.perf_counter()
            code = cli.main(argv)
            wall_s = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"rsthp {' '.join(argv)} exited with {code}")
        cells = _read_csv(out_path)
        with open(out_path + ".config.json", encoding="utf-8") as fh:
            config_text = fh.read()
    else:
        config = _sweep_config(w, seed)
        with patches:
            start = time.perf_counter()
            result = run_sweep(config, n_jobs=jobs)
            wall_s = time.perf_counter() - start
        cells = [
            [c.scheme_tag, c.x_value, c.esr, c.ci_halfwidth, c.chosen_split_mean]
            for c in result.cells
        ]
        config_text = json.dumps(cli.config_as_dict(config), indent=2, sort_keys=True) + "\n"
    return {"wall_s": wall_s, "cells": cells, "config_json": config_text}


def _environment() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir")
    args = parser.parse_args()

    start = time.perf_counter()
    import rsthp  # the import is what setup_s measures

    record = {"setup_s": time.perf_counter() - start}

    import json
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(rsthp.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rsthp was imported from {rsthp.__file__}, not from {src}")

    if not args.import_only:
        import resource

        from layers import layer_metrics
        from tracer import Tracer
        from workloads import WORKLOADS

        tracer = Tracer() if args.trace else None
        w = WORKLOADS[args.workload]
        record.update(run_workload(w, args.seed, args.jobs, args.out_dir, tracer))
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        record["peak_rss_mb"] = peak_kb / 1024.0
        record["env"] = _environment()
        if tracer:
            record["layers"] = layer_metrics(tracer, record["wall_s"])
    print(json.dumps(record))


if __name__ == "__main__":
    main()
