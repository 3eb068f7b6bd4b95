"""Run a :class:`repro.fleet.FleetRouter` with tracing off.

``repro fleet up`` cannot turn tracing off on its router, so the
``fleet_burst`` workload fronts its ``repro serve --no-tracing`` shards
with this process instead::

    PYTHONPATH=src python perfbench/router_main.py --port-file p \\
        --shard 127.0.0.1:7001 --shard 127.0.0.1:7002

It writes its bound port into ``--port-file`` and runs until SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import signal


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--shard", action="append", required=True)
    args = parser.parse_args()

    from repro.fleet import (
        FleetRouter,
        RouterConfig,
        StaticShardSet,
        shard_id_for,
    )

    async def _run() -> None:
        shards = StaticShardSet(
            {shard_id_for(i): spec for i, spec in enumerate(args.shard)}
        )
        router = FleetRouter(shards, config=RouterConfig(tracing=False))
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        async with router:
            with open(args.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{router.port}\n")
            await stop.wait()

    asyncio.run(_run())


if __name__ == "__main__":
    main()
