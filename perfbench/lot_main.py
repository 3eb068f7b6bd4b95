"""The ``lot`` workload's program process: die sort, imprint, screen.

Calibrates the published default family, writes ``--ready-file``
(the end of its set-up), then produces the lot in trays: per tray,
``ProductionLine.run(workers=1)`` manufactures, die-sorts and imprints
``TRAY_SIZE`` dies and ``verify_population(workers=1)`` screens them.
Per-die outcomes, per-tray timings, the mean verify-frame size of the
last tray's dies and this process's peak RSS go to
``--out`` as JSON; the benchmark checks them.  Run as::

    PYTHONPATH=src python perfbench/lot_main.py --ready-file r \\
        --out lot.json --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time

#: Spacing of per-tray production seeds.
TRAY_STRIDE = 10_000


def _payload(payload) -> dict:
    return {
        "manufacturer": payload.manufacturer,
        "die_id": f"0x{payload.die_id:012X}",
        "status": payload.status.name,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="start trays until this long after the first (at least one)",
    )
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from common import FAMILY, N_PE, N_REPLICAS, TRAY_SIZE, calibrate, peak_rss_mb
    from repro.core.verifier import WatermarkVerifier
    from repro.engine import verify_population
    from repro.service import protocol
    from repro.workloads.production import ProductionLine
    from repro.workloads.traffic import TrafficSpec

    line = ProductionLine(n_pe=N_PE, n_replicas=N_REPLICAS)
    verifier = WatermarkVerifier(calibrate(), TrafficSpec().population.format)
    with open(args.ready_file, "w", encoding="utf-8") as fh:
        fh.write("ready\n")
    if args.setup_only:
        return

    dies, trays = [], []
    deadline = time.monotonic() + args.seconds
    t = 0
    while t == 0 or time.monotonic() < deadline:
        gc.collect()  # the last tray's garbage is not this tray's cost
        t0 = time.perf_counter()
        produced = line.run(
            TRAY_SIZE, seed=args.seed * TRAY_STRIDE + t, workers=1
        ).batch
        t1 = time.perf_counter()
        reports = verify_population(produced, verifier, workers=1).results
        t2 = time.perf_counter()
        trays.append(
            {"produce_s": t1 - t0, "screen_s": t2 - t1, "dies": len(produced)}
        )
        for p, r in zip(produced, reports):
            dies.append(
                {
                    "tray": t,
                    "passed": p.die_sort.passed,
                    "imprinted": _payload(p.payload),
                    "verdict": r.verdict.value if r is not None else None,
                    "extracted": (
                        _payload(r.payload)
                        if r is not None and r.payload is not None
                        else None
                    ),
                }
            )
        t += 1
    # Outside the timed trays: the size of the verify frame each die of
    # the last tray would travel in to an integrator.
    frame_bytes = [
        len(protocol.encode_frame(protocol.verify_request(p.chip, FAMILY)))
        for p in produced
    ]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "trays": trays,
                "dies": dies,
                "frame_kb": sum(frame_bytes) / len(frame_bytes) / 1000.0,
                "peak_rss_mb": peak_rss_mb(os.getpid()),
            },
            fh,
        )


if __name__ == "__main__":
    main()
