"""The ``lot`` workload: a manufacturer's die sort, then a lot screen.

Physics only — no codec, no wire — in one program process
(``lot_main.py``).  The lot is produced and screened in 16-die trays;
trays start until ``--seconds`` have passed.  A tray's latency runs
from the start of its production to its verdicts, and every rate is
the interquartile mean over trays.  ``request_kb`` is the verify frame an
integrator would send for a die of the last tray, encoded after the
timed trays.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import List

import checks
from common import (
    HERE,
    TRAY_SIZE,
    BenchError,
    Proc,
    iq_mean,
    median,
    metric,
    quantile,
    stop_all,
)
from service import SETUP_REPS


def _start(run_dir: Path, rep: int, extra: List[str]) -> Proc:
    ready = run_dir / f"ready{rep}"
    argv = [str(HERE / "lot_main.py"), "--ready-file", str(ready)] + extra
    proc = Proc(f"lot{rep}", argv, run_dir)
    end = time.monotonic() + 120.0
    while not ready.exists():
        if not proc.alive():
            raise BenchError(f"lot process failed:\n{proc.log_tail()}")
        if time.monotonic() > end:
            stop_all([proc])
            raise BenchError("lot process did not finish its set-up")
        time.sleep(0.005)
    return proc


def run_lot(run_dir: Path, seed: int, seconds: float, tiny: bool) -> dict:
    reps = 1 if tiny else SETUP_REPS
    out = run_dir / "lot.json"
    setup_times = []
    for rep in range(reps):
        last = rep == reps - 1
        extra = (
            ["--out", str(out), "--seed", str(seed),
             "--seconds", str(0 if tiny else seconds)]
            if last
            else ["--setup-only"]
        )
        t0 = time.perf_counter()
        proc = _start(run_dir, rep, extra)
        setup_times.append(time.perf_counter() - t0)
        try:
            proc.popen.wait(timeout=None if last else 60)
        finally:
            stop_all([proc])
        if proc.popen.returncode != 0:
            raise BenchError(f"lot process failed:\n{proc.log_tail()}")
    report = json.loads(out.read_text())

    trays = report["trays"]
    dies = [
        checks.LotDie(
            index=i,
            passed=d["passed"],
            imprinted=d["imprinted"],
            verdict=d["verdict"],
            extracted=d["extracted"],
        )
        for i, d in enumerate(report["dies"])
    ]
    failures = checks.check_lot(dies)
    attempted = len(trays) * TRAY_SIZE
    missing = attempted - len(dies)
    failed = len(checks.union(failures)) + missing
    for name, indices in failures.items():
        if indices:
            print(f"check {name!r} failed on {len(indices)} die(s)",
                  file=sys.stderr)
    tray_s = [t["produce_s"] + t["screen_s"] for t in trays]
    tray_ms = [1000.0 * x for x in tray_s]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "verify_rps": metric(
                iq_mean([t["dies"] / x for t, x in zip(trays, tray_s)]), "1/s"
            ),
            "latency_p50_ms": metric(quantile(tray_ms, 0.5), "ms"),
            "latency_p95_ms": metric(quantile(tray_ms, 0.95), "ms"),
            "request_kb": metric(report["frame_kb"], "kB"),
            "produce_dies_per_s": metric(
                iq_mean([t["dies"] / t["produce_s"] for t in trays]), "dies/s"
            ),
            "screen_dies_per_s": metric(
                iq_mean([t["dies"] / t["screen_s"] for t in trays]), "dies/s"
            ),
            "setup_s": metric(median(setup_times), "s"),
            "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        },
    }
