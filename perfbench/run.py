"""Benchmark of the whole verify path: one command, three workloads.

    python3 perfbench/run.py --workload inspect_serial --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` runs the workload and reports its end-to-end metrics;
``--trace 1`` runs the per-layer probe instead (see layers.py).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

from common import RUN_ROOT, BenchError, make_run_dir, require_program

WORKLOADS = ("inspect_serial", "fleet_burst", "lot")


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-test sizes (a few requests, one set-up)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import layers
    import lot
    import service

    run = {
        "inspect_serial": service.run_inspect_serial,
        "fleet_burst": service.run_fleet_burst,
        "lot": lot.run_lot,
    }[args.workload]
    signal.signal(signal.SIGTERM, _on_sigterm)
    run_dir = make_run_dir(args.workload)
    try:
        if args.trace:
            result = layers.run_layers(
                args.workload, run_dir, args.seed, args.tiny
            )
        else:
            result = run(run_dir, args.seed, args.seconds, args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
