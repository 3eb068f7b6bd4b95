"""The traced run: per-layer metrics.

Times calls into each layer's public functions from here, and reads
the live server's ``service.stage.*_s`` and ``service.batch_size``
histograms from ``/metrics``.  The server-stage load has the shape of
the workload: a 16-in-flight burst for ``fleet_burst``, one request at
a time otherwise.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from common import (
    FAMILY,
    N_PE,
    N_REPLICAS,
    RECEIPT_KEY_HEX,
    calibrate,
    http_get,
    median,
    metric,
    published_verifier,
    stop_all,
)
import service

#: Server stages read from ``/metrics`` (histogram ``service.stage.<x>_s``).
STAGES = ("queue_wait", "batch_wait", "decode", "engine", "registry")


def _timed(fn: Callable[[], object], reps: int) -> float:
    """Median wall of ``reps`` calls [s]."""
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return median(walls)


def _each(fn: Callable, args: Sequence) -> List[float]:
    walls = []
    for a in args:
        t0 = time.perf_counter()
        fn(a)
        walls.append(time.perf_counter() - t0)
    return walls


def _histograms(port: int) -> Dict[str, dict]:
    """The server's stage and batch-size histograms from ``/metrics``."""
    from repro.obs import assemble_histogram, parse_prometheus_text

    samples = parse_prometheus_text(http_get(port, "/metrics")).samples
    bases = [f"flashmark_service_stage_{s}_s" for s in STAGES]
    bases.append("flashmark_service_batch_size")
    empty = {"count": 0, "sum": 0.0}
    return {b: assemble_histogram(samples, b) or empty for b in bases}


def _stage_means(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, dict]:
    def mean(base: str) -> float:
        n = after[base]["count"] - before[base]["count"]
        return (after[base]["sum"] - before[base]["sum"]) / n if n else 0.0

    out = {
        f"server.{stage}_ms": metric(
            1000.0 * mean(f"flashmark_service_stage_{stage}_s"), "ms"
        )
        for stage in STAGES
    }
    out["server.batch_size_mean"] = metric(
        mean("flashmark_service_batch_size"), "count"
    )
    return out


def run_layers(workload: str, run_dir: Path, seed: int, tiny: bool) -> dict:
    from repro.core.imprint import imprint_watermark
    from repro.core.payload import ChipStatus, WatermarkPayload
    from repro.core.watermark import Watermark
    from repro.device.mcu import make_mcu
    from repro.device.persistence import chip_from_bytes, chip_to_bytes
    from repro.engine import verify_population
    from repro.monitor import FleetMonitor
    from repro.monitor.events import OUTCOME_OK, VerificationEvent
    from repro.receipts import ReceiptSigner, build_receipt
    from repro.service import WatermarkRegistry, protocol
    from repro.telemetry import Telemetry
    from repro.workloads.production import ProductionLine
    from repro.workloads.traffic import TrafficGenerator

    n = 4 if tiny else 16
    n_served = 4 if tiny else 24
    m: Dict[str, dict] = {}
    gen = TrafficGenerator(seed=seed * service.RUN_STRIDE + 50 * service.DRAW_STRIDE)

    # traffic + codec + protocol
    items = []
    draw = _each(lambda _: items.extend(gen.draw(1)), range(n))
    m["traffic.draw_ms"] = metric(1000.0 * median(draw), "ms")
    chips = [it.chip for it in items]
    blobs = [chip_to_bytes(c) for c in chips]
    m["codec.chip_to_bytes_ms"] = metric(
        1000.0 * median(_each(chip_to_bytes, chips)), "ms"
    )
    m["codec.chip_from_bytes_ms"] = metric(
        1000.0 * median(_each(chip_from_bytes, blobs)), "ms"
    )
    m["codec.blob_kb"] = metric(sum(map(len, blobs)) / len(blobs) / 1000.0, "kB")
    reqs = [protocol.verify_request(c, FAMILY) for c in chips]
    frames = [protocol.encode_frame(r) for r in reqs]
    m["protocol.verify_request_ms"] = metric(
        1000.0 * median(_each(lambda c: protocol.verify_request(c, FAMILY), chips)),
        "ms",
    )
    m["protocol.encode_frame_ms"] = metric(
        1000.0 * median(_each(protocol.encode_frame, reqs)), "ms"
    )
    m["protocol.decode_frame_ms"] = metric(
        1000.0 * median(_each(protocol.decode_frame, frames)), "ms"
    )
    del blobs, reqs, frames

    # A shard behind a router, tracing off, and a traced server; the
    # shard's published family serves the engine timings too.
    dep = service.deploy(
        run_dir / "live", n_shards=1, receipts=False, router=True
    )
    procs = list(dep.procs)
    try:
        traced = service.deploy(
            run_dir / "traced", n_shards=1, receipts=False, router=False,
            tracing=True,
        )
        procs += traced.procs
        verifier = published_verifier(dep.published)
        m["engine.calibrate_family_s"] = metric(_timed(calibrate, 3), "s")
        b1 = _each(lambda c: verify_population([c], verifier, workers=1), chips)
        m["engine.verify_ms_per_chip.b1"] = metric(1000.0 * median(b1), "ms")
        batch = chips[:16]
        b16 = _timed(lambda: verify_population(batch, verifier, workers=1), 3)
        m["engine.verify_ms_per_chip.b16"] = metric(1000.0 * b16 / len(batch), "ms")

        # The same chips one at a time direct, through the router and to
        # the traced server, alternating chip by chip so host drift hits
        # all three alike.
        served = [it.chip for it in service.draw_traffic(seed, 51, n_served)]
        shard_port = dep.shard_ports[0]
        paths = {
            "direct": (shard_port, False),
            "router": (dep.port, False),
            "traced": (traced.port, True),
        }
        lat = {name: [] for name in paths}
        responses = {name: [] for name in paths}
        before = _histograms(shard_port)
        for k, chip in enumerate(served):
            names = list(paths)[k % 3:] + list(paths)[: k % 3]
            for name in names:
                port, trace = paths[name]
                resp, (latency,), _, _ = service.serial_pass(
                    port, [chip], first_id=k, trace=trace
                )
                lat[name].append(latency)
                responses[name] += resp
        checked = [(served, responses[name]) for name in paths]
        if workload == "fleet_burst":
            # Stage means under a 16-in-flight burst instead.
            burst_chips = [
                it.chip
                for it in service.draw_traffic(
                    seed, 52, 2 * service.FLEET_CONNECTIONS * service.FLEET_WINDOW
                )
            ]
            ids = list(range(10_000, 10_000 + len(burst_chips)))
            frames = [
                protocol.encode_frame(service._request(c, i, receipt=False))
                for c, i in zip(burst_chips, ids)
            ]
            before = _histograms(shard_port)
            burst, _ = asyncio.run(service._burst(shard_port, frames, ids, 120.0))
            checked.append((burst_chips, [burst.get(i) for i in ids]))
        after = _histograms(shard_port)
        m.update(_stage_means(before, after))
    finally:
        stop_all(procs)
    m["router.overhead_ms"] = metric(
        1000.0 * median([r - d for r, d in zip(lat["router"], lat["direct"])]),
        "ms",
    )
    m["trace.overhead_ratio"] = metric(
        median([t / d for t, d in zip(lat["traced"], lat["direct"])]), "ratio"
    )
    # Every response must carry the direct verify_population verdict.
    attempted = failed = 0
    for group, resps in checked:
        reference = verify_population(group, verifier, workers=1).verdicts
        for ref, resp in zip(reference, resps):
            attempted += 1
            ok = bool(resp) and resp.get("ok")
            failed += not (ok and resp["result"]["verdict"] == ref)

    # production + imprint
    line = ProductionLine(n_pe=N_PE, n_replicas=N_REPLICAS)
    n_dies = 4 if tiny else 8
    t0 = time.perf_counter()
    line.run(n_dies, seed=seed, workers=1)
    m["production.die_ms"] = metric(
        1000.0 * (time.perf_counter() - t0) / n_dies, "ms"
    )

    def imprint(k: int) -> None:
        chip = make_mcu(seed=seed * 1000 + k, n_segments=2)
        payload = WatermarkPayload("TCMK", chip.die_id, 0, ChipStatus.ACCEPT)
        imprint_watermark(
            chip.flash, 0, Watermark.from_payload(payload).balanced(),
            N_PE, n_replicas=N_REPLICAS, accelerated=True,
        )

    m["core.imprint_ms"] = metric(1000.0 * median(_each(imprint, range(n))), "ms")

    # registry, receipts, monitor
    with tempfile.TemporaryDirectory(dir=run_dir) as tmp:
        db = Path(tmp) / "registry.db"
        shutil.copyfile(dep.published, db)
        with WatermarkRegistry(db, create=False) as registry:
            rec = _each(
                lambda k: registry.record_verification(
                    FAMILY, 0x1000 + k, "authentic", ber=0.0, client="bench"
                ),
                range(4 * n),
            )
            m["registry.record_verification_ms"] = metric(1000.0 * median(rec), "ms")
            signer = ReceiptSigner(bytes.fromhex(RECEIPT_KEY_HEX))
            head = registry.audit_head()
            sign = _each(
                lambda k: build_receipt(
                    signer, family=FAMILY, die_id=f"0x{k:012X}",
                    decision="authentic", statistic=0.5, params_hash="0" * 64,
                    history_seq=k, audit_head=head,
                ),
                range(4 * n),
            )
            m["receipts.sign_ms"] = metric(1000.0 * median(sign), "ms")
    monitor = FleetMonitor(telemetry=Telemetry())
    events = [
        VerificationEvent(
            family=FAMILY,
            outcome=OUTCOME_OK,
            verdict=r["result"]["verdict"],
            statistic=r["result"]["statistic"],
            latency_s=latency,
            unix_s=time.time(),
        )
        for r, latency in zip(responses["direct"], lat["direct"])
        if r.get("ok")
    ] * 20
    rec_us = _each(monitor.record, events)
    m["monitor.record_us"] = metric(1e6 * median(rec_us), "us")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": m,
    }

