"""Benchmark of the rsthp sweep simulator.

    python3 bench/run.py --workload perfect-snr --seed 12345 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Run from anywhere inside a checkout; the program is imported from its
src/ directory. Each repeat runs in a fresh interpreter (workload.py)
with the BLAS pinned to one thread. Untraced runs (--trace 0) repeat the
workload for --seconds, at least three times, and report the medians of
the end-to-end metrics. Repeat 0 uses the master seed --seed; repeat i
uses a seed derived from (--seed, i), so a run's median covers several
channel sets. A traced run (--trace 1) runs the workload once under the
span tracer at one process and reports the per-layer metrics.

Every repeat's output is checked (checks.py). The last line of output is
one JSON object with the keys correct, attempted, failed and metrics;
the metric names and units are the ones BENCHMARK.json lists. The exit
code is 0 when every check passed, 1 when an output check failed and 2
when the program could not be run.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check_output, load_reference
from layers import derived_counts
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_REPEATS = 3
# Import-only interpreters started before each repeat, for the setup_s
# median; spread over the run so no single slow spell decides it.
SETUP_SAMPLES_PER_REPEAT = 2
# A run must finish within 180 s: no repeat starts that would, at the
# last repeat's pace, end later than this.
LAST_END_S = 140.0
CHILD_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramError(Exception):
    """The program under test could not be run."""


def repeat_seed(seed: int, index: int) -> int:
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _child_env() -> dict:
    env = dict(os.environ)
    # Time the import as an installed package runs it, from cached
    # bytecode: the warm-up import writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(*args: str) -> dict:
    """Run workload.py in a fresh interpreter and return its record."""
    command = [sys.executable, str(BENCH_DIR / "workload.py"), *args]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ProgramError(f"{' '.join(args)} timed out after {exc.timeout} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ProgramError(
            f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _workload_args(name: str, seed: int, jobs: int, out_dir: str, trace: bool) -> list[str]:
    args = ["--workload", name, "--seed", str(seed), "--jobs", str(jobs), "--out-dir", out_dir]
    return args + ["--trace"] if trace else args


def _source_record() -> dict:
    """Git commit when the checkout has one, and a digest of src/rsthp."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rsthp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _check(w, seed: int, record: dict, reference: dict, totals: dict) -> None:
    result = check_output(w, seed, record, reference)
    totals["attempted"] += result["attempted"]
    totals["failed"] += result["failed"]
    totals["problems"] += [f"seed {seed}: {p}" for p in result["problems"]]
    if result["esr_max_abs_dev"] is not None:
        totals["esr_max_abs_dev"] = max(
            totals["esr_max_abs_dev"] or 0.0, result["esr_max_abs_dev"]
        )


def measure(w, seed: int, seconds: float, out_dir: str, totals: dict) -> tuple[dict, dict]:
    """Untraced repeats; returns the end-to-end metrics and a run record."""
    reference = load_reference(w.name)
    run_child("--import-only")  # writes bytecode and warms the file cache
    setup = []
    records = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if records:
            done = len(records) >= MIN_REPEATS and elapsed >= seconds
            if done or elapsed + records[-1]["wall_s"] > LAST_END_S:
                break
        setup += [run_child("--import-only")["setup_s"] for _ in range(SETUP_SAMPLES_PER_REPEAT)]
        sub_seed = repeat_seed(seed, len(records))
        record = run_child(*_workload_args(w.name, sub_seed, w.jobs, out_dir, False))
        _check(w, sub_seed, record, reference, totals)
        record["seed"] = sub_seed
        records.append(record)
    setup += [r["setup_s"] for r in records]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "passed_cell_frac": 1.0 - totals["failed"] / totals["attempted"],
    }
    run = {
        "env": records[0]["env"],
        "repeat_seeds": [r["seed"] for r in records],
        "samples": {
            "wall_s": [r["wall_s"] for r in records],
            "setup_s": setup,
            "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        },
        "resolved_config": json.loads(records[0]["config_json"]),
    }
    return metrics, run


def trace(w, seed: int, out_dir: str, totals: dict) -> tuple[dict, dict]:
    """One traced sweep at one process, plus the untraced sweeps its
    ratios need; returns the per-layer metrics and a run record."""
    reference = load_reference(w.name)
    run_child("--import-only")
    untraced = run_child(*_workload_args(w.name, seed, w.jobs, out_dir, False))
    serial = untraced
    if w.jobs > 1:
        serial = run_child(*_workload_args(w.name, seed, 1, out_dir, False))
    traced = run_child(*_workload_args(w.name, seed, 1, out_dir, True))
    for record in [untraced, traced] + ([serial] if w.jobs > 1 else []):
        _check(w, seed, record, reference, totals)
    metrics = dict(traced["layers"])
    # Parallel efficiency: serial sweep time over jobs x pooled sweep time.
    metrics["sweeps.pool.efficiency"] = serial["wall_s"] / (w.jobs * untraced["wall_s"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / serial["wall_s"] - 1.0
    run = {
        "env": traced["env"],
        "wall_s": {
            "untraced": untraced["wall_s"],
            "untraced_serial": serial["wall_s"],
            "traced": traced["wall_s"],
        },
        "derived_counts": {
            name: {"traced": metrics[name], "derived": expected}
            for name, expected in derived_counts(w).items()
        },
        "resolved_config": json.loads(traced["config_json"]),
    }
    return metrics, run


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> bool:
    """Measure one workload, print its report; True when every check passed."""
    w = WORKLOADS[name]
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    totals = {"attempted": 0, "failed": 0, "problems": [], "esr_max_abs_dev": None}
    out_root = BENCH_DIR / ".out"
    out_root.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_root)
    try:
        if traced:
            values, run = trace(w, seed, out_dir, totals)
        else:
            values, run = measure(w, seed, seconds, out_dir, totals)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    correct = totals["failed"] == 0 and not totals["problems"]
    run.update(
        workload=dataclasses.asdict(w), seed=seed, seconds=seconds, trace=int(traced),
        **_source_record(),
    )
    print(f"workload {name}  seed {seed}  trace {int(traced)}")
    for metric in declared:
        print(f"  {metric['name']:<48} {values[metric['name']]:>14.6g} {metric['unit']}")
    print(f"  failed_cell_frac {totals['failed']}/{totals['attempted']} cells")
    dev = totals["esr_max_abs_dev"]
    print(f"  esr_max_abs_dev {'n/a (not the reference seed)' if dev is None else f'{dev:.3g}'}")
    for count, pair in run.get("derived_counts", {}).items():
        verdict = "same" if pair["traced"] == pair["derived"] else "differs"
        print(f"  count {count}: traced {pair['traced']}, derived {pair['derived']} ({verdict})")
    for problem in totals["problems"][:20]:
        print(f"  FAIL {problem}")
    print("record " + json.dumps(run, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        ok = [run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names]
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
