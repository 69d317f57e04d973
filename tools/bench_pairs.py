"""Run the benchmark in two checkouts in alternating pairs and compare
their end-to-end metrics.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
`bench/run.py --workload W` once in each, the parent first in odd pairs
and the change first in even ones, and reads each run's metrics from
its last output line. For each metric that BENCHMARK.json lists it
prints each side's median and quartiles, the change's median relative
to the parent's, and how many pairs the change won: read better in the
direction the metric's "better" names, ties counting for neither side.
A gain is claimed only when the change won at least 9 pairs in 10 and
the medians differ, in its favour, by more than the distance between
the parent's quartiles. Nothing is written under either checkout's
bench/ beyond what bench/run.py itself writes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(root: Path, workload: str, seconds: float | None) -> dict[str, float]:
    """One bench/run.py run in the checkout at root: {metric: value}."""
    command = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float]:
    """(first, third) quartile of values, by the inclusive method; one
    value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric of better ({name: "lower" or "higher"}) from
    (parent, change) metric dicts, one per pair: each side's median and
    quartiles, the change's wins and whether it claims a gain."""
    rows = []
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        gain = sign * (statistics.median(change) - statistics.median(parent))
        rows.append({
            "metric": name,
            "parent": (statistics.median(parent), q1, q3),
            "change": (statistics.median(change), *quartiles(change)),
            "wins": wins,
            "gain": wins >= 0.9 * len(pairs) and gain > q3 - q1,
        })
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: the benchmark's own)")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    pairs = []
    for i in range(args.pairs):
        sides = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        got = {root: run_bench(root, args.workload, args.seconds) for root in sides}
        pairs.append((got[args.parent], got[args.change]))
        print(f"pair {i + 1}: " + ", ".join(
            f"{name} {pairs[-1][0][name]:.6g} -> {pairs[-1][1][name]:.6g}" for name in better
        ), file=sys.stderr)
    print(f"workload {args.workload}, {len(pairs)} pairs, parent first in odd pairs")
    for row in summarize(pairs, better):
        (pm, p1, p3), (cm, c1, c3) = row["parent"], row["change"]
        relative = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        print(f"  {row['metric']} ({units[row['metric']]}): parent {pm:.6g} [{p1:.6g}, {p3:.6g}]"
              f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {relative}"
              f"  change better in {row['wins']}/{len(pairs)}"
              f"  {'gain' if row['gain'] else 'no gain claimed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
