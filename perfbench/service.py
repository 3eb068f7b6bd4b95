"""The service workloads: ``inspect_serial`` and ``fleet_burst``.

``inspect_serial`` is one integrator verifying one chip at a time: one
``repro serve --no-tracing`` process, one connection, one request in
flight, each request timed from the client's encode of the chip to the
parsed verdict.

``fleet_burst`` is an inspection line at capacity: a
:class:`~repro.fleet.FleetRouter` (tracing off, ``router_main.py``)
fronting two ``repro serve --no-tracing`` shards with receipts on; two
connections each pipeline up to 8 pre-encoded frames.

Both start from a fresh copy of a freshly published registry, send
every die once, and check every verdict against a direct
``verify_population`` call on the same chips.  A run is a series of
rounds, each generating its chips before its clock starts; rates and
quantiles are interquartile means over blocks of completions, so the
figures sample the whole run rather than one stretch of it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import gc
import multiprocessing
import shutil
import socket
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import checks
from common import (
    FAMILY,
    HERE,
    RECEIPT_KEY_HEX,
    Proc,
    iq_mean,
    median,
    metric,
    publish_family,
    published_verifier,
    quantile,
    stop_all,
    wait_port_file,
    wait_ready,
)

#: Traffic chips generated (and, on ``fleet_burst``, framed) inside each
#: timed set-up; they are the warm-up requests of the run.
SAMPLE_N = 16
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Rounds start until ``--seconds`` have passed since the first began.
#: ``inspect_serial``: 50 requests per round (~2 s on a 2-CPU host);
#: rates over blocks of 25 requests.
INSPECT_ROUND = 50
INSPECT_BLOCK = 25
#: ``fleet_burst``: 240 frames per round, in four 60-chip generation
#: chunks (~3.5 s to generate and encode on two processes, ~2 s to
#: serve); rates and latency quantiles over blocks of 48 completions.
FLEET_ROUND = 240
FLEET_CHUNK = 60
FLEET_BLOCK = 48
#: Pipelined connections and requests in flight per connection.
FLEET_CONNECTIONS = 2
FLEET_WINDOW = 8
#: Seed layout: a run's draws are ``DRAW_STRIDE`` apart, one draw's
#: kinds ``SEED_STRIDE`` apart (chip seeds are gen seed + 1 + i), so no
#: two chips of a run share a seed.
SEED_STRIDE = 100_000
DRAW_STRIDE = 1_000_000
RUN_STRIDE = 100_000_000


def mix_counts(n: int) -> Dict[str, int]:
    """Per-kind counts of ``n`` chips at the default traffic mix
    (largest-remainder rounding), so every run sees the same mix."""
    from repro.workloads.traffic import DEFAULT_MIX

    total = sum(DEFAULT_MIX.values())
    exact = {k: n * w / total for k, w in DEFAULT_MIX.items()}
    counts = {k: int(v) for k, v in exact.items()}
    by_remainder = sorted(exact, key=lambda k: (counts[k] - exact[k], k))
    for k in by_remainder[: n - sum(counts.values())]:
        counts[k] += 1
    return counts


def draw_traffic(seed: int, draw: int, n: int) -> list:
    """``n`` traffic chips at exactly the default mix, in seeded order.

    Each kind comes from its own single-kind ``TrafficGenerator``
    stream; the ``(seed, draw)`` pair picks disjoint chip seeds.
    """
    import numpy as np
    from repro.workloads.traffic import TrafficGenerator, TrafficSpec

    base = seed * RUN_STRIDE + draw * DRAW_STRIDE
    items = []
    for j, (kind, count) in enumerate(sorted(mix_counts(n).items())):
        spec = TrafficSpec(mix={kind: 1.0})
        gen = TrafficGenerator(spec, seed=base + j * SEED_STRIDE)
        items += gen.draw(count)
    order = np.random.default_rng(base).permutation(len(items))
    return [items[i] for i in order]


def blocks(values: Sequence, size: int) -> List[Sequence]:
    """Consecutive full blocks of ``size`` values (a short tail is
    dropped; fewer than ``size`` values make one block)."""
    size = max(1, min(size, len(values)))
    return [
        values[k : k + size] for k in range(0, len(values) - size + 1, size)
    ]


def block_rates(stamps: Sequence[float], size: int) -> List[float]:
    """Completions per second over consecutive blocks of ``size``
    intervals between sorted completion stamps."""
    size = max(1, min(size, len(stamps) - 1))
    return [
        size / (stamps[k + size] - stamps[k])
        for k in range(0, len(stamps) - size, size)
    ]


@dataclass
class Deployment:
    """The live program processes of one set-up."""

    procs: List[Proc]
    #: Client-facing port (the server, or the router).
    port: int
    shard_ports: List[int]
    registries: List[str]
    published: Path
    setup_s: float = 0.0
    sample: list = field(default_factory=list)

    def peak_rss_mb(self) -> float:
        return sum(p.peak_rss_mb() for p in self.procs)


def deploy(
    rep_dir: Path,
    *,
    n_shards: int,
    receipts: bool,
    router: bool,
    tracing: bool = False,
) -> Deployment:
    """Publish, copy the registry per shard, start and await the
    processes.  On any failure every started process is stopped."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    published = rep_dir / "published.db"
    publish_family(published, receipts=receipts)
    procs: List[Proc] = []
    try:
        dbs, port_files = [], []
        for k in range(n_shards):
            db = rep_dir / f"shard{k}.db"
            shutil.copyfile(published, db)
            port_file = rep_dir / f"shard{k}.port"
            argv = [
                "-m", "repro", "serve", "--registry", str(db),
                "--port", "0", "--port-file", str(port_file),
            ]
            if not tracing:
                argv.append("--no-tracing")
            if receipts:
                argv += ["--receipt-key", RECEIPT_KEY_HEX]
            procs.append(Proc(f"shard{k}", argv, rep_dir))
            dbs.append(str(db))
            port_files.append(port_file)
        ports = [wait_port_file(p, f) for p, f in zip(procs, port_files)]
        for port in ports:
            wait_ready(port)
        port = ports[0]
        if router:
            port_file = rep_dir / "router.port"
            argv = [str(HERE / "router_main.py"), "--port-file", str(port_file)]
            for p in ports:
                argv += ["--shard", f"127.0.0.1:{p}"]
            procs.append(Proc("router", argv, rep_dir))
            port = wait_port_file(procs[-1], port_file)
            wait_ready(port)
        return Deployment(procs, port, ports, dbs, published)
    except BaseException:
        stop_all(procs)
        raise


def set_up(
    run_dir: Path, seed: int, *, reps: int, sample_n: int, frames: bool,
    **deploy_kw,
) -> Deployment:
    """Run the timed set-up ``reps`` times; keep the last deployment.

    One set-up publishes a freshly calibrated family, starts the
    processes until they answer, and generates ``sample_n`` traffic
    chips (framed too when ``frames``).
    """
    from repro.service import protocol

    times: List[float] = []
    dep: Optional[Deployment] = None
    for rep in range(reps):
        if dep is not None:
            stop_all(dep.procs)
        t0 = time.perf_counter()
        dep = deploy(run_dir / f"rep{rep}", **deploy_kw)
        try:
            items = draw_traffic(seed, 0, sample_n)
            dep.sample = [
                (it, protocol.encode_frame(_request(it.chip, i, receipt=True))
                 if frames else None)
                for i, it in enumerate(items)
            ]
        except BaseException:
            stop_all(dep.procs)
            raise
        times.append(time.perf_counter() - t0)
    dep.setup_s = median(times)
    return dep


def _request(chip, index: int, *, receipt: bool) -> dict:
    from repro.service import protocol

    return protocol.verify_request(
        chip,
        FAMILY,
        request_id=index,
        client=f"line-{index % FLEET_CONNECTIONS}",
        receipt=receipt,
    )


def _reference(chips, verifier) -> Tuple[List[Optional[str]], float]:
    """Direct ``verify_population`` verdicts, and the call's wall."""
    from repro.engine import verify_population

    t0 = time.perf_counter()
    verdicts = verify_population(chips, verifier, workers=1).verdicts
    return verdicts, time.perf_counter() - t0


def _served(index: int, item, reference: Optional[str], response) -> checks.Served:
    return checks.Served(
        index=index,
        kind=item.kind,
        die_id=f"0x{item.chip.die_id:012X}",
        expected=tuple(item.expected_verdicts),
        reference=reference,
        response=response,
    )


def _completed(served: Sequence[checks.Served]) -> List[str]:
    return [s.die_id for s in served if s.response and s.response.get("ok")]


def _result(served, failures: Dict[str, set], metrics: dict) -> dict:
    failed = checks.union(failures)
    for name, indices in failures.items():
        if indices:
            print(
                f"check {name!r} failed on {len(indices)} operation(s): "
                f"{sorted(indices)[:10]}",
                file=sys.stderr,
            )
    return {
        "correct": not failed,
        "attempted": len(served),
        "failed": len(failed),
        "metrics": metrics,
    }


def _rounds(seconds: float, tiny: bool):
    """Round numbers 1, 2, ... until ``seconds`` have passed since the
    first round began (just one when ``tiny``)."""
    deadline = time.monotonic() + seconds
    r = 1
    yield r
    while not tiny and time.monotonic() < deadline:
        r += 1
        yield r


# -- inspect_serial ----------------------------------------------------------


def serial_pass(
    port: int, chips: Sequence, *, first_id: int = 0, trace: bool = False
) -> Tuple[List[dict], List[float], List[int], List[float]]:
    """Closed loop over one connection: encode, send, await the parsed
    verdict.  Returns responses, latencies [s], frame sizes and the
    completion times (the first entry is the start of the pass)."""
    from repro.service import protocol

    responses, latencies, sizes = [], [], []
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        with sock.makefile("rb") as reader:
            stamps = [time.perf_counter()]
            for k, chip in enumerate(chips):
                t0 = time.perf_counter()
                req = _request(chip, first_id + k, receipt=False)
                if trace:
                    from repro.trace import TraceContext

                    req["trace"] = TraceContext.new_root().to_traceparent()
                frame = protocol.encode_frame(req)
                sock.sendall(frame)
                response = protocol.decode_frame(reader.readline())
                stamps.append(time.perf_counter())
                latencies.append(stamps[-1] - t0)
                responses.append(response)
                sizes.append(len(frame))
    return responses, latencies, sizes, stamps


def run_inspect_serial(run_dir: Path, seed: int, seconds: float, tiny: bool) -> dict:
    per_round = 12 if tiny else INSPECT_ROUND
    dep = set_up(
        run_dir, seed,
        reps=1 if tiny else SETUP_REPS,
        sample_n=4 if tiny else SAMPLE_N,
        frames=False,
        n_shards=1, receipts=False, router=False,
    )
    served: List[checks.Served] = []
    latencies, sizes, rates, produce, screen = [], [], [], [], []
    try:
        verifier = published_verifier(dep.published)
        warm = [it for it, _ in dep.sample]
        resp, _, _, _ = serial_pass(dep.port, [it.chip for it in warm])
        ref, _ = _reference([it.chip for it in warm], verifier)
        served += [_served(i, *x) for i, x in enumerate(zip(warm, ref, resp))]
        for r in _rounds(seconds, tiny):
            gc.collect()  # the last round's garbage is not this round's cost
            t0 = time.perf_counter()
            items = draw_traffic(seed, r, per_round)
            produce.append(len(items) / (time.perf_counter() - t0))
            chips = [it.chip for it in items]
            resp, lat, size, stamps = serial_pass(
                dep.port, chips, first_id=len(served)
            )
            latencies += lat
            sizes += size
            rates += block_rates(stamps, INSPECT_BLOCK)
            ref, ref_s = _reference(chips, verifier)
            screen.append(len(chips) / ref_s)
            served += [
                _served(len(served) + i, *x)
                for i, x in enumerate(zip(items, ref, resp))
            ]
        rss = dep.peak_rss_mb()
    finally:
        stop_all(dep.procs)

    failures = checks.check_served(served)
    if not checks.check_audit(dep.registries, _completed(served)):
        failures["audit"] = {s.index for s in served}
    lat_ms = [x * 1000.0 for x in latencies]
    return _result(
        served,
        failures,
        {
            "verify_rps": metric(iq_mean(rates), "1/s"),
            "latency_p50_ms": metric(quantile(lat_ms, 0.5), "ms"),
            "latency_p95_ms": metric(quantile(lat_ms, 0.95), "ms"),
            "request_kb": metric(sum(sizes) / len(sizes) / 1000.0, "kB"),
            "produce_dies_per_s": metric(iq_mean(produce), "dies/s"),
            "screen_dies_per_s": metric(iq_mean(screen), "dies/s"),
            "setup_s": metric(dep.setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
        },
    )


# -- fleet_burst -------------------------------------------------------------


class _DieRef:
    """What is kept of a chip once its frame is encoded."""

    __slots__ = ("die_id",)

    def __init__(self, die_id: int):
        self.die_id = die_id


def _fleet_chunk(job):
    """Generate, frame and reference-verify one chunk (pool worker).

    Returns the items (chips replaced by their die ids), the frames,
    the direct ``verify_population`` verdicts, and the generation and
    reference-verify walls."""
    from repro.service import protocol

    verifier, seed, draw, first_id, n = job
    t0 = time.perf_counter()
    items = draw_traffic(seed, draw, n)
    draw_s = time.perf_counter() - t0
    frames = [
        protocol.encode_frame(_request(it.chip, first_id + k, receipt=True))
        for k, it in enumerate(items)
    ]
    verdicts, screen_s = _reference([it.chip for it in items], verifier)
    for it in items:
        it.chip = _DieRef(it.chip.die_id)
    return items, frames, verdicts, draw_s, screen_s


async def _burst(
    port: int, frames: Sequence[bytes], ids: Sequence[int], timeout_s: float
) -> Tuple[Dict[int, dict], List[Tuple[float, float]]]:
    """Pipeline ``frames`` over FLEET_CONNECTIONS connections with up
    to FLEET_WINDOW each in flight.  Returns the responses by id and
    ``(completion time, latency)`` per response, in completion order."""
    from repro.service import protocol

    responses: Dict[int, dict] = {}
    done: List[Tuple[float, float]] = []

    async def one_connection(c: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        mine = list(range(c, len(frames), FLEET_CONNECTIONS))
        window = asyncio.Semaphore(FLEET_WINDOW)
        sent_at: Dict[int, float] = {}

        async def send() -> None:
            for k in mine:
                await window.acquire()
                sent_at[ids[k]] = time.perf_counter()
                writer.write(frames[k])
                await writer.drain()

        async def receive() -> None:
            for _ in mine:
                line = await reader.readline()
                t = time.perf_counter()
                response = protocol.decode_frame(line)
                rid = response.get("id")
                responses[rid] = response
                done.append((t, t - sent_at.get(rid, t)))
                window.release()

        try:
            await asyncio.gather(send(), receive())
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.wait_for(
        asyncio.gather(*(one_connection(c) for c in range(FLEET_CONNECTIONS))),
        timeout_s,
    )
    return responses, sorted(done)


def run_fleet_burst(run_dir: Path, seed: int, seconds: float, tiny: bool) -> dict:
    per_round, chunk = (32, 16) if tiny else (FLEET_ROUND, FLEET_CHUNK)
    timeout = max(120.0, 10.0 * seconds)
    dep = set_up(
        run_dir, seed,
        reps=1 if tiny else SETUP_REPS,
        sample_n=4 if tiny else SAMPLE_N,
        frames=True,
        n_shards=2, receipts=True, router=True,
    )
    served: List[checks.Served] = []
    rates, lat50, lat95, sizes, produce, screen = [], [], [], [], [], []
    # Fork, not spawn: the pool starts between asyncio.run() calls, when
    # this process runs no threads, and spawn would leave its resource
    # tracker running past the end of the run.
    ctx = multiprocessing.get_context("fork")
    try:
        verifier = published_verifier(dep.published)
        warm = dep.sample
        resp, _ = asyncio.run(
            _burst(dep.port, [f for _, f in warm], range(len(warm)), timeout)
        )
        ref, _ = _reference([it.chip for it, _ in warm], verifier)
        served += [
            _served(i, it, ref[i], resp.get(i)) for i, (it, _) in enumerate(warm)
        ]
        with concurrent.futures.ProcessPoolExecutor(2, mp_context=ctx) as pool:
            for r in _rounds(seconds, tiny):
                first = len(served)
                jobs = [
                    (verifier, seed, 1 + (r - 1) * (per_round // chunk) + c,
                     first + c * chunk, chunk)
                    for c in range(per_round // chunk)
                ]
                items, frames, ref = [], [], []
                for c_items, c_frames, c_ref, draw_s, ref_s in pool.map(
                    _fleet_chunk, jobs
                ):
                    items += c_items
                    frames += c_frames
                    ref += c_ref
                    produce.append(len(c_items) / draw_s)
                    screen.append(len(c_items) / ref_s)
                ids = [first + k for k in range(len(frames))]
                gc.collect()  # the last round's garbage is not this round's cost
                resp, done = asyncio.run(_burst(dep.port, frames, ids, timeout))
                sizes += [len(f) for f in frames]
                rates += block_rates([t for t, _ in done], FLEET_BLOCK)
                for b in blocks(done, FLEET_BLOCK):
                    lat_ms = [1000.0 * lat for _, lat in b]
                    lat50.append(quantile(lat_ms, 0.5))
                    lat95.append(quantile(lat_ms, 0.95))
                served += [
                    _served(i, it, v, resp.get(i))
                    for i, it, v in zip(ids, items, ref)
                ]
        rss = dep.peak_rss_mb()
    finally:
        stop_all(dep.procs)

    failures = checks.check_served(served)
    failures["receipts"] = checks.check_receipts(
        [s for s in served if s.response and s.response.get("ok")],
        dep.registries,
    )
    if not checks.check_audit(dep.registries, _completed(served)):
        failures["audit"] = {s.index for s in served}
    return _result(
        served,
        failures,
        {
            "verify_rps": metric(iq_mean(rates), "1/s"),
            "latency_p50_ms": metric(iq_mean(lat50), "ms"),
            "latency_p95_ms": metric(iq_mean(lat95), "ms"),
            "request_kb": metric(sum(sizes) / len(sizes) / 1000.0, "kB"),
            "produce_dies_per_s": metric(iq_mean(produce), "dies/s"),
            "screen_dies_per_s": metric(iq_mean(screen), "dies/s"),
            "setup_s": metric(dep.setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
        },
    )
