"""Steadiness check: run one workload in sets of k runs and compare.

    python3 perfbench/steady.py --workload fleet_burst --runs 10 --sets 2

Runs ``run.py`` at BENCHMARK.json's ``run_seconds``; set ``s`` uses
seeds ``--first-seed + s*k`` .. ``--first-seed + s*k + k - 1``.  For
each set it prints, per end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) /
median against the metric's bound.  With two or more sets it then
prints each set's median and the drift |median_s - median_1| /
median_1 of every later set against the bound.

It exits 1 when a run is not correct or failed an operation, when a
spread reaches its bound, or when a drift exceeds its bound.
``setup_s`` is held to its bound by drift only: a run times just three
set-ups of a few seconds, so its spread is reported but not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(workload: str, seeds, seconds: int) -> list:
    results = []
    for seed in seeds:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}",
              file=sys.stderr)
        results.append(result)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    medians = []
    for s in range(args.sets):
        first = args.first_seed + s * args.runs
        results = run_set(
            args.workload, range(first, first + args.runs),
            spec["run_seconds"],
        )
        ok &= all(r["correct"] and r["failed"] == 0 for r in results)
        print(f"{args.workload} set {s + 1}: seeds {first}.."
              f"{first + args.runs - 1}")
        print(f"{'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6} {'ratio':>6}")
        medians.append({})
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2
            medians[-1][name] = q2
            if name != "setup_s":
                ok &= spread < bound
            print(f"{name:<20} {q2:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>7.3f} {bound:>6.2f} {spread / bound:>6.2f}")

    if len(medians) > 1:
        print(f"{args.workload}: set medians and drift from set 1")
        for name, bound in bounds.items():
            base = medians[0][name]
            drifts = [abs(m[name] - base) / base for m in medians[1:]]
            ok &= max(drifts) <= bound
            cells = " ".join(f"{m[name]:>10.4g}" for m in medians)
            print(f"{name:<20} {cells} drift {max(drifts):.3f} "
                  f"bound {bound:.2f} ratio {max(drifts) / bound:.2f}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
