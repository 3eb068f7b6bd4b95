"""Shared plumbing of the verify-path benchmark.

Paths, child-process management, peak-RSS reads, the published-family
setup and small statistics helpers.  Everything the benchmark writes
goes under ``.perfbench_run/`` at the root of the checkout.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".perfbench_run"

#: Family id the benchmark publishes, and the CLI defaults it mirrors
#: (``repro registry publish``: MSP430F5438, n_pe 40,000, 7 replicas,
#: one calibration chip, calibration seed 1000).
FAMILY = "msp430-bench"
MODEL = "MSP430F5438"
N_PE = 40_000
N_REPLICAS = 7
CAL_SEED = 1000
#: Receipt-issuer secret of the fleet shards (a fixed test key).
RECEIPT_KEY_HEX = "42" * 32
#: Dies per ``lot`` tray (the service's ``max_batch``).
TRAY_SIZE = 16


class BenchError(RuntimeError):
    """The benchmark could not set up or run its workload."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail when it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses (``src/`` importable)."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def make_run_dir(tag: str) -> Path:
    path = RUN_ROOT / f"{tag}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# -- processes -------------------------------------------------------------


class Proc:
    """One program subprocess, logged to a file, stopped for sure."""

    def __init__(self, name: str, argv: List[str], run_dir: Path):
        self.name = name
        self.log_path = run_dir / f"{name}.log"
        self._log = open(self.log_path, "wb")
        self.popen = subprocess.Popen(
            [sys.executable] + argv,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=program_env(),
            cwd=str(run_dir),
        )

    @property
    def pid(self) -> int:
        return self.popen.pid

    def alive(self) -> bool:
        return self.popen.poll() is None

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the live process, in MB (2**20 bytes)."""
        return peak_rss_mb(self.pid)

    def log_tail(self, n: int = 2000) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-n:]
        except OSError:
            return ""

    def stop(self, timeout_s: float = 10.0) -> None:
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        self._log.close()


def stop_all(procs: Sequence[Proc]) -> None:
    for proc in procs:
        try:
            proc.stop()
        except Exception:  # keep stopping the rest
            try:
                proc.popen.kill()
                proc.popen.wait()
            except Exception:
                pass


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def wait_port_file(proc: Proc, path: Path, deadline_s: float = 60.0) -> int:
    """Block until ``proc`` writes its bound port into ``path``."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        if not proc.alive():
            raise BenchError(
                f"{proc.name} exited during start-up:\n{proc.log_tail()}"
            )
        try:
            text = path.read_text().strip()
        except OSError:
            text = ""
        if text:
            return int(text)
        time.sleep(0.01)
    raise BenchError(f"{proc.name} did not report a port in time")


def wire_call(port: int, request: dict, timeout_s: float = 30.0) -> dict:
    """One request/response exchange on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as s:
        s.sendall(json.dumps(request).encode() + b"\n")
        with s.makefile("rb") as fh:
            return json.loads(fh.readline())


def wait_ready(port: int, deadline_s: float = 60.0) -> None:
    """Block until the endpoint answers a ``ping``."""
    end = time.monotonic() + deadline_s
    last: Optional[Exception] = None
    while time.monotonic() < end:
        try:
            if wire_call(port, {"op": "ping", "id": 0}, 5.0).get("ok"):
                return
        except (OSError, ValueError) as exc:
            last = exc
        time.sleep(0.01)
    raise BenchError(f"endpoint on port {port} never became ready: {last}")


def http_get(port: int, path: str, timeout_s: float = 10.0) -> str:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as s:
        s.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        chunks = []
        while True:
            data = s.recv(65536)
            if not data:
                break
            chunks.append(data)
    raw = b"".join(chunks).decode(errors="replace")
    return raw.split("\r\n\r\n", 1)[-1]


# -- the published family --------------------------------------------------


def calibrate():
    """Calibrate the default family as ``repro registry publish`` does."""
    from repro.device.mcu import McuFactory
    from repro.engine import calibrate_family

    return calibrate_family(
        McuFactory(model=MODEL, n_segments=1),
        N_PE,
        n_replicas=N_REPLICAS,
        n_chips=1,
        seed=CAL_SEED,
        workers=1,
    ).calibration


def publish_family(db_path: Path, *, receipts: bool) -> None:
    """Calibrate the default family and publish it into ``db_path``.

    Mirrors ``repro registry publish`` with its defaults; the format is
    the one the traffic and production populations are imprinted with.
    """
    from repro.service import WatermarkRegistry
    from repro.workloads.traffic import TrafficSpec

    calibration = calibrate()
    verify_key = algorithm = None
    if receipts:
        from repro.receipts import keypair_for

        algorithm, verify_key = keypair_for(bytes.fromhex(RECEIPT_KEY_HEX))
    with WatermarkRegistry(db_path) as registry:
        registry.publish_family(
            FAMILY,
            calibration,
            TrafficSpec().population.format,
            verify_key=verify_key,
            verify_algorithm=algorithm,
        )


def published_verifier(db_path: Path):
    """The verifier a server builds from the published record."""
    from repro.core.verifier import WatermarkVerifier
    from repro.service import WatermarkRegistry

    with WatermarkRegistry(db_path, create=False) as registry:
        record = registry.get_family(FAMILY)
    return WatermarkVerifier(record.calibration, record.format)


# -- statistics ------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``numpy.percentile`` default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def iq_mean(values: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of the values.

    Like a median it ignores a few blocks hit by a host stall; unlike a
    median it moves smoothly when a run straddles a faster and a slower
    stretch of a shared host, instead of jumping to one of them.
    """
    xs = sorted(values)
    cut = len(xs) // 4
    mid = xs[cut : len(xs) - cut]
    return sum(mid) / len(mid)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
